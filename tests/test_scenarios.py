import functools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oplattice import (
    Expectation,
    GeneratorSet,
    NotInAlgebra,
    NotOrthogonalFamily,
    NotProjector,
    NumericalError,
    OperatorAlgebraError,
    Scenario,
    SectorStructureError,
    StateFunctional,
    Tolerance,
    ValidationError,
    block_decomposition,
    build_classical,
    build_sectors,
    build_weyl_finite,
    center,
    close,
    commutant,
    generator_commutant,
    is_factor,
    matrix_to_json,
    operator_norm,
    report_to_json,
    report_to_json_dict,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
)
from oplattice import DEFAULT_TOL, generated_algebra, lattice_report, random_projector, random_state
from oplattice import logic as logic_module
from oplattice import restrict_logical, sigma_orthoadditivity_residuals
from oplattice import scenarios as scenarios_module
from oplattice import sectors as sectors_module
from oplattice import states as states_module
from oplattice.seeding import STREAM_STATE_CHECK, STREAM_SWEEP_FAMILY, STREAM_SWEEP_STATE
from tests.conftest import (ambient_lattice_report, ambient_orthoadditivity_checks, chain_changed,
                            drawn_families, haar_unitary, rational_clock_shift, reference_commutant,
                            reference_is_commutative, reference_same_span, reference_uniforms,
                            rotated, star, two_orthogonal_real_lines, unit)


class TestBuildClassical:
    def test_single_point_gives_scalars(self):
        alg = close(build_classical(1))
        assert alg.dim == 1

    def test_three_points(self):
        alg = close(build_classical(3))
        assert alg.dim == 3
        assert reference_is_commutative(alg)

    def test_eight_point_lattice_is_boolean(self, diag8):
        from oplattice import lattice_report

        report = lattice_report(diag8, trials=50, seed=2)
        assert report.boolean_lattice
        assert report.atomic


class TestBuildWeylFinite:
    def test_d2_is_the_pauli_pair(self):
        u, v = build_weyl_finite(2).generators
        assert operator_norm(u - np.diag([1.0, -1.0])) <= 1e-12
        assert operator_norm(v - np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-12
        assert close(build_weyl_finite(2)).dim == 4

    @pytest.mark.parametrize("d", range(2, 9))
    def test_exchange_relation(self, d):
        u, v = build_weyl_finite(d).generators
        w = np.exp(2j * np.pi / d)
        assert operator_norm(v @ u - w * (u @ v)) <= 1e-12

    def test_d3_closure_is_a_factor(self, full3):
        assert full3.dim == 9
        assert is_factor(full3)

    def test_rejects_d1(self):
        with pytest.raises(ValidationError):
            build_weyl_finite(1)


class TestBuildSectors:
    def test_two_equal_blocks(self):
        alg = close(build_sectors([(2, 1), (2, 1)]))
        assert center(alg).dim == 2
        assert not is_factor(alg)

    def test_single_trivial_block_gives_scalars(self):
        alg = close(build_sectors([(1, 1)]))
        assert alg.dim == 1

    def test_multiplicity_two_commutant(self):
        alg = close(build_sectors([(2, 2)]))
        decomp = block_decomposition(alg)
        assert [(s.block_size, s.multiplicity) for s in decomp.sectors] == [(2, 2)]
        assert commutant(alg).dim == 4

    @pytest.mark.parametrize("blocks", [[(2, 1), (3, 1)], [(1, 2), (2, 1)], [(3, 2)]])
    def test_round_trip(self, blocks):
        alg = close(build_sectors(blocks))
        decomp = block_decomposition(alg)
        recovered = sorted((s.block_size, s.multiplicity) for s in decomp.sectors)
        assert recovered == sorted(blocks)


# inputs that once escaped as a bare ValueError, a TypeError or a truncated count
NOT_COUNTS = {
    "trials-bool": lambda: lattice_report(close(build_weyl_finite(2)), True, 1),
    "negative-seed": lambda: random_projector(close(build_weyl_finite(2)), -1),
    "tolerance": lambda: Tolerance(eq_tol=2),
    "string-tolerance": lambda: Tolerance(eq_tol="a"),
    "no-tolerance": lambda: Tolerance(rank_tol=None),
    "fractional-blocks": lambda: build_sectors([[2.7, 1], [1.9, 1]]),
    "block-not-a-pair": lambda: build_sectors([[2]]),
    "no-blocks": lambda: build_sectors(None),
    "string-modulus": lambda: build_weyl_finite("3"),
    "fractional-modulus": lambda: build_weyl_finite(2.5),
    "string-point-count": lambda: build_classical("3"),
}


@pytest.mark.parametrize("name", NOT_COUNTS)
def test_every_rejected_count_is_a_package_error(name):
    # `ValidationError` is also a `ValueError`, so callers catching that still catch it
    with pytest.raises(OperatorAlgebraError) as caught:
        NOT_COUNTS[name]()
    assert isinstance(caught.value, ValidationError) and isinstance(caught.value, ValueError)


class TestScenarioValidation:
    @pytest.mark.parametrize("change", [
        {"parameters": [1]}, {"parameters": None}, {"states": (1,)}, {"expectations": ("a",)},
        {"states": None}, {"expectations": 5},
    ], ids=["parameters-list", "parameters-none", "state-not-a-state", "not-an-expectation",
            "states-none", "expectations-not-a-tuple"])
    def test_fields_of_the_wrong_type(self, change):
        fields = {"name": "bad", "kind": "classical", "dim": 1, "parameters": {"point_count": 1}}
        with pytest.raises(ValidationError):
            Scenario(**{**fields, **change})

    def test_sector_blocks_are_counts_not_truncated(self):
        with pytest.raises(ValidationError, match=r"^bad sector block \[2\.7, 1\]"):
            build_sectors([[2.7, 1], [1.9, 1]])
        assert build_sectors([[np.int64(2), 1]]).ambient_dim == 2

    def test_classical_point_count_must_match_dim(self):
        with pytest.raises(ValidationError):
            Scenario(name="bad", kind="classical", dim=3, parameters={"point_count": 4})

    def test_sector_blocks_must_fill_dim(self):
        with pytest.raises(ValidationError):
            Scenario(name="bad", kind="sectors", dim=5, parameters={"blocks": [[2, 1]]})

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Scenario(name="bad", kind="martian", dim=2, parameters={})

    @pytest.mark.parametrize(
        "change", [{"dim": True}, {"trials": 2.5}, {"seed": 1.5}, {"seed": "7"}], ids=str
    )
    def test_numbers_must_be_integers_not_truncated(self, change):
        fields = {"name": "bad", "kind": "classical", "dim": 1, "parameters": {"point_count": 1}}
        with pytest.raises(ValidationError):
            Scenario(**{**fields, **change})

    @pytest.mark.parametrize("kind, change", [
        ("weyl_finite", {"dim": np.int64(2)}),
        ("weyl_finite", {"trials": np.int64(3)}),
        ("weyl_finite", {"seed": np.int64(5)}),
        ("weyl_finite", {"parameters": {"modulus": np.int64(2)}}),
        ("classical", {"parameters": {"point_count": np.int64(2)}}),
        ("sectors", {"parameters": {"blocks": [[1, 1], [1, np.int64(1)]]}}),
    ], ids=["dim", "trials", "seed", "modulus", "point_count", "blocks"])
    def test_numpy_integers_write_the_python_int_report(self, kind, change):
        parameters = {"weyl_finite": {"modulus": 2}, "classical": {"point_count": 2},
                      "sectors": {"blocks": [[1, 1], [1, 1]]}}[kind]
        fields = {"name": "np", "kind": kind, "dim": 2, "parameters": parameters, "trials": 3,
                  "seed": 5}
        want = report_to_json(run_scenario(Scenario(**fields)))
        assert report_to_json(run_scenario(Scenario(**{**fields, **change}))) == want

    def test_json_round_trip(self):
        scenario = Scenario(
            name="weyl",
            kind="weyl_finite",
            dim=3,
            parameters={"modulus": 3},
            trials=17,
            seed=5,
            expectations=(Expectation(check="factor", expect=True),),
        )
        again = scenario_from_json(scenario_to_json(scenario))
        assert again == scenario


class TestRunScenario:
    def test_classical_four_points(self):
        scenario = Scenario(
            name="classical4",
            kind="classical",
            dim=4,
            parameters={"point_count": 4},
            trials=40,
            seed=1,
        )
        report = run_scenario(scenario)
        assert report.lattice.boolean_lattice
        assert report.lattice.sector_count == 4
        assert report.characters == {"count": 4, "separating": True}
        assert report.envelope_equals_algebra

    def test_weyl_three(self):
        scenario = Scenario(
            name="weyl3",
            kind="weyl_finite",
            dim=3,
            parameters={"modulus": 3},
            trials=40,
            seed=1,
        )
        report = run_scenario(scenario)
        assert report.lattice.factor
        assert report.lattice.atomic
        assert not report.lattice.distributive
        assert report.lattice.counterexample is not None
        assert report.characters is None

    def test_sector_scenario_dimension_vectors(self):
        scenario = Scenario(
            name="sectors",
            kind="sectors",
            dim=5,
            parameters={"blocks": [[2, 1], [3, 1]]},
            trials=30,
            seed=2,
        )
        report = run_scenario(scenario)
        assert report.lattice.sector_count == 2
        vectors = []
        for i, entry in enumerate(report.sectors):
            vec = entry["mvn_dimension"]
            assert vec[i] == entry["block_size"]
            assert all(v == 0 for j, v in enumerate(vec) if j != i)
            vectors.append(entry["block_size"])
        assert sorted(vectors) == [2, 3]

    def test_custom_generators(self):
        gen = matrix_to_json(np.diag([1.0, 2.0]))
        scenario = Scenario(
            name="custom",
            kind="custom",
            dim=2,
            parameters={"generators": [gen]},
            trials=20,
            seed=0,
        )
        report = run_scenario(scenario)
        assert report.algebra_dim == 2
        assert report.lattice.boolean_lattice

    def test_expectation_verdicts(self):
        scenario = Scenario(
            name="weyl2",
            kind="weyl_finite",
            dim=2,
            parameters={"modulus": 2},
            trials=40,
            seed=3,
            expectations=(
                Expectation(check="factor", expect=True),
                Expectation(check="distributive", expect=False),
                Expectation(check="algebra_dim", expect=4),
                Expectation(check="sector_blocks", expect=[[2, 1]]),
                Expectation(check="orthomodular_pass_rate", expect=1.0),
            ),
        )
        report = run_scenario(scenario)
        assert all(v["pass"] for v in report.expectations)
        # sampled, the pass rate is a Python float, as zero trials and a Boolean algebra give
        (rate,) = [v["actual"] for v in report.expectations
                   if v["check"] == "orthomodular_pass_rate"]
        assert type(rate) is float
        assert type(report_to_json_dict(report)["lattice"]["orthomodular_pass_rate"]) is float
        assert {v["check"] for v in report.expectations} == {
            "factor",
            "distributive",
            "algebra_dim",
            "sector_blocks",
            "orthomodular_pass_rate",
        }

    def test_unknown_expectation_rejected(self, monkeypatch):
        # at construction, before any stage runs
        def never(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(scenarios_module, "generated_algebra", never)
        with pytest.raises(ValidationError, match="unknown expectation check 'no_such_check'"):
            Scenario(name="weyl2", kind="weyl_finite", dim=2, parameters={"modulus": 2},
                     trials=5, seed=3, expectations=(Expectation(check="no_such_check", expect=1),))

    def test_every_expectation_check_runs(self):
        expected = {
            "algebra_dim": 3, "envelope_equals_algebra": True, "commutant_dim": 3,
            "center_dim": 3, "sector_count": 3, "factor": False, "atomic": True,
            "hilbertian": False, "boolean_lattice": True, "distributive": True,
            "orthomodular_pass_rate": 1.0, "is_commutative": True,
            "sector_blocks": [[1, 1]] * 3, "character_count": 3,
        }
        assert sorted(expected) == sorted(scenarios_module.EXPECTATION_CHECKS)
        scenario = Scenario(
            name="points", kind="classical", dim=3, parameters={"point_count": 3}, trials=10,
            expectations=tuple(Expectation(check=c, expect=expected[c])
                               for c in scenarios_module.EXPECTATION_CHECKS),
        )
        verdicts = run_scenario(scenario).expectations
        assert [v["check"] for v in verdicts] == list(scenarios_module.EXPECTATION_CHECKS)
        assert all(v["pass"] for v in verdicts)

    def test_envelope_matches_closure_on_every_kind(self):
        scenarios = [
            Scenario(name="a", kind="classical", dim=3, parameters={"point_count": 3},
                     trials=5, seed=0),
            Scenario(name="b", kind="weyl_finite", dim=2, parameters={"modulus": 2},
                     trials=5, seed=0),
            Scenario(name="c", kind="sectors", dim=4, parameters={"blocks": [[2, 2]]},
                     trials=5, seed=0),
            Scenario(name="d", kind="custom", dim=2,
                     parameters={"generators": [matrix_to_json(np.diag([1.0, 2.0]))]},
                     trials=5, seed=0),
        ]
        for scenario in scenarios:
            assert run_scenario(scenario).envelope_equals_algebra


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        scenario = Scenario(
            name="weyl2",
            kind="weyl_finite",
            dim=2,
            parameters={"modulus": 2},
            trials=30,
            seed=11,
        )
        first = report_to_json(run_scenario(scenario))
        second = report_to_json(run_scenario(scenario))
        assert first == second

    def test_sectors_reports_are_byte_identical(self):
        scenario = Scenario(
            name="sectors",
            kind="sectors",
            dim=5,
            parameters={"blocks": [[2, 1], [3, 1]]},
            trials=30,
            seed=11,
        )
        first = report_to_json(run_scenario(scenario))
        second = report_to_json(run_scenario(scenario))
        assert first == second

    def test_different_seeds_differ(self):
        base = dict(name="weyl2", kind="weyl_finite", dim=2, parameters={"modulus": 2}, trials=30)
        a = report_to_json(run_scenario(Scenario(seed=1, **base)))
        b = report_to_json(run_scenario(Scenario(seed=2, **base)))
        assert a != b


class TestReportLayout:
    """The writers follow the reports' dataclass field order: the layout is pinned here, so a
    reordered field cannot reorder the bytes silently."""

    TOP = ["scenario", "algebra_dim", "envelope_equals_algebra", "commutant_dim", "center_dim",
           "lattice", "sectors", "completeness_note", "characters", "states", "orthoadditivity",
           "expectations"]
    LATTICE = ["orthomodular_pass_rate", "distributive", "counterexample", "boolean_lattice",
               "atomic", "hilbertian", "factor", "sector_count", "trials", "seed"]

    @pytest.mark.parametrize("kind, dim, parameters, distributive", [
        ("classical", 3, {"point_count": 3}, True),
        ("weyl_finite", 2, {"modulus": 2}, False),
    ], ids=["classical", "weyl"])
    def test_the_key_order_is_pinned(self, kind, dim, parameters, distributive):
        report = run_scenario(Scenario(name="layout", kind=kind, dim=dim, parameters=parameters,
                                       trials=30, seed=11,
                                       expectations=(Expectation("algebra_dim", dim),)))
        for layout in (report_to_json_dict(report), json.loads(report_to_json(report))):
            assert list(layout) == self.TOP
            assert list(layout["lattice"]) == self.LATTICE
            assert all(isinstance(layout[key], list)
                       for key in ("sectors", "states", "expectations"))
            counterexample = layout["lattice"]["counterexample"]
            assert layout["lattice"]["distributive"] is distributive
            if distributive:
                assert counterexample is None
            else:
                assert list(counterexample) == ["p", "q", "r"]
                for m in counterexample.values():
                    assert np.asarray(m).shape == (dim, dim, 2)  # [re, im] entries


class TestGeneratedAlgebraChecks:
    def test_two_orthogonal_lines_give_a_boolean_lattice(self):
        p, q = two_orthogonal_real_lines()
        scenario = Scenario(
            name="two lines",
            kind="custom",
            dim=3,
            parameters={"generators": [matrix_to_json(p), matrix_to_json(q)]},
            trials=20,
            seed=3,
        )
        report = run_scenario(scenario)
        assert report.algebra_dim == 3
        assert report.lattice.boolean_lattice
        assert report.lattice.distributive

    @pytest.mark.parametrize("wrong, message", [
        (lambda: [sectors_module.Sector(1, 1, e)
                  for e in np.eye(5, dtype=complex).T[:, :, None]],
         r"commutant misses by .*: of dimension 5 in M_5, its commutant has dimension 5"),
        (lambda: [sectors_module.Sector(1, 5, np.eye(5, dtype=complex))],
         r"commutant misses by .*: of dimension 25 in M_5, its commutant has dimension 1"),
    ], ids=["diagonals", "all-of-m5"])
    def test_too_large_generator_commutant_is_rejected(self, monkeypatch, wrong, message):
        # the two blocks' commutant C is 2-dimensional; sectors whose C is a larger *-algebra
        # have a commutant too small to hold the generators, and h's clusters, single vectors,
        # split no further
        chain_changed(monkeypatch, lambda sectors: wrong())
        scenario = Scenario(
            name="too large", kind="sectors", dim=5, parameters={"blocks": [[2, 1], [3, 1]]},
            trials=0,
        )
        with pytest.raises(NumericalError, match=message) as got:
            run_scenario(scenario)
        assert got.value.residual > 0.1

    def test_generator_commutant_that_is_no_algebra_is_rejected(self, monkeypatch):
        # five random directions, not orthonormal: their sectors span no *-algebra
        cols = np.random.default_rng(4).standard_normal((5, 5)).astype(complex)
        chain_changed(monkeypatch, lambda sectors: [
            sectors_module.Sector(1, 1, x) for x in cols.T[:, :, None]])
        scenario = Scenario(
            name="no algebra", kind="sectors", dim=5, parameters={"blocks": [[2, 1], [3, 1]]},
            trials=0,
        )
        # errors bubble up tagged with the scenario that produced them
        with pytest.raises(NumericalError, match="scenario 'no algebra': .*commutant misses by "
                                                 ".*: of dimension 5 in M_5, .*orthonormal to") as got:
            run_scenario(scenario)
        assert got.value.residual > 0.1

    def test_a_wrong_frame_carries_its_residual_through_the_scenario(self, monkeypatch):
        # C of M_2 (x) 1_2 is 1_2 (x) M_2, chained in a Haar frame of the right counts; h's two
        # clusters are the copies of M_2, which no split pass breaks
        wrong = haar_unitary(4, np.random.default_rng(5))
        chain_changed(monkeypatch, lambda sectors: [sectors_module.Sector(2, 2, wrong)])
        scenario = Scenario(name="wrong frame", kind="sectors", dim=4,
                            parameters={"blocks": [[2, 2]]}, trials=0)
        with pytest.raises(NumericalError, match="scenario 'wrong frame': .*split no further "
                                                 ".*commutant misses by") as got:
            run_scenario(scenario)
        failed = got.value.__cause__.__cause__
        assert type(failed) is NumericalError
        assert got.value.residual == got.value.__cause__.residual == failed.residual > 1e-8

    def test_a_count_failure_carries_its_counts_through_the_scenario(self, monkeypatch):
        def unequal(sectors):
            raise SectorStructureError("linked eigenvalue clusters of sizes [2, 3] are not copies "
                                       "of one block", counts=[2, 3])

        chain_changed(monkeypatch, unequal)
        scenario = Scenario(name="counts", kind="sectors", dim=5,
                            parameters={"blocks": [[2, 1], [3, 1]]}, trials=0)
        with pytest.raises(NumericalError, match="scenario 'counts': .*sizes \\[2, 3\\]") as got:
            run_scenario(scenario)
        assert got.value.counts == got.value.__cause__.counts == [2, 3]
        assert got.value.residual is None


class TestOrthoadditivitySweepChecks:
    """The sweep checks its families in one stack of sector blocks per shape group; each check
    must still fire: a non-projector member where case 0's propositions are mapped back to M_d,
    a projector outside the envelope there, members that do not add up to their join. A
    non-orthogonal family can only enter from outside, where the public call refuses it."""

    def run_with_family(self, monkeypatch, family):
        def drawn(alg, u, tol):  # `family` in every row with its sum as the join, as blocks
            frame = block_decomposition(alg).frame
            members = np.array(family * len(u), dtype=complex)
            joins = np.array([sum(family)] * len(u), dtype=complex)
            return np.full(len(u), len(family)), *(
                [t / m for (_, m, _, _), t in zip(frame.groups,
                                                  sectors_module._partial_traces(frame, x))]
                for x in (members, joins))

        monkeypatch.setattr(scenarios_module, "_random_orthogonal_families", drawn)
        return run_scenario(Scenario(name="s", kind="classical", dim=2,
                                     parameters={"point_count": 2}, trials=3))

    def test_non_projector_member(self, monkeypatch):
        with pytest.raises(NotProjector, match="orthoadditivity trial 0: .*idempotent"):
            self.run_with_family(monkeypatch, [0.5 * np.eye(2, dtype=complex)])

    def test_projector_outside_the_envelope(self, monkeypatch):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        outside = np.outer(v, v).astype(complex)
        monkeypatch.setattr(states_module, "_ambient", lambda frame, blocks: outside[None])
        with pytest.raises(NotInAlgebra, match="orthoadditivity trial 0"):
            self.run_with_family(monkeypatch, [unit(2, 0, 0)])

    def test_non_orthogonal_pair(self):
        # the sweep's drawn members are runs of one guarded eigenbasis; a family from outside
        # is checked where it enters
        alg = generated_algebra(scenarios_module.build_classical(2))
        ls = restrict_logical(random_state(2, seed=1), alg)
        for entry in (sigma_orthoadditivity_residuals, states_module.check_sigma_orthoadditive):
            with pytest.raises(NotOrthogonalFamily, match="^family: members 0 and 1"):
                entry(ls, [unit(2, 0, 0), unit(2, 0, 0)])

    @pytest.mark.parametrize("kind, dim, parameters", [
        ("weyl_finite", 3, {"modulus": 3}),
        ("sectors", 4, {"blocks": [[2, 1], [1, 2]]}),
    ])
    def test_members_that_do_not_tile_their_join_fail(self, monkeypatch, kind, dim, parameters):
        # each drawn family loses its first member after the draw, its join still the base:
        # the sweep must see the value that went missing
        draw = scenarios_module._random_orthogonal_families

        def first_member_lost(alg, u, tol):
            sizes, blocks, joins = draw(alg, u, tol)
            first = (np.cumsum(sizes) - sizes)[sizes > 0]
            for b in blocks:
                b[first] = 0
            return sizes, blocks, joins

        monkeypatch.setattr(scenarios_module, "_random_orthogonal_families", first_member_lost)
        got = run_scenario(Scenario(name="s", kind=kind, dim=dim, parameters=parameters,
                                    trials=20, seed=3)).orthoadditivity
        assert got["failures"] > 0 and got["max_residual"] > DEFAULT_TOL.law_tol

    def test_genuine_family_passes(self, monkeypatch):
        report = self.run_with_family(monkeypatch, [unit(2, 0, 0), unit(2, 1, 1)])
        assert report.orthoadditivity["failures"] == 0


class TestNoTrials:
    @pytest.mark.parametrize("kind, dim, parameters", [
        ("classical", 3, {"point_count": 3}),
        ("weyl_finite", 2, {"modulus": 2}),
        ("sectors", 4, {"blocks": [[2, 1], [1, 2]]}),
    ])
    def test_zero_trials_sample_nothing(self, kind, dim, parameters):
        report = run_scenario(Scenario(name="t0", kind=kind, dim=dim, parameters=parameters,
                                       trials=0, seed=2))
        assert report.orthoadditivity == {"trials": 0, "failures": 0, "max_residual": 0.0}
        assert report.lattice.orthomodular_pass_rate == 1.0
        assert report.lattice.distributive and report.lattice.counterexample is None

    @pytest.mark.parametrize("kind, dim, parameters", [
        ("weyl_finite", 3, {"modulus": 3}),
        ("sectors", 4, {"blocks": [[2, 1], [1, 2]]}),
    ])
    def test_zero_trials_draw_nothing(self, kind, dim, parameters, monkeypatch):
        scenario = Scenario(name="t0", kind=kind, dim=dim, parameters=parameters, trials=0, seed=5)
        want = report_to_json(run_scenario(scenario))

        def no_draws(*args):
            raise AssertionError("zero trials drew a sample")

        # both modules bind the spectral draw; the sweep's samplers are bound in scenarios
        monkeypatch.setattr(logic_module, "_random_projectors", no_draws)
        monkeypatch.setattr(logic_module, "_spectral_cuts", no_draws)
        monkeypatch.setattr(states_module, "_spectral_cuts", no_draws)
        monkeypatch.setattr(scenarios_module, "_random_orthogonal_families", no_draws)
        monkeypatch.setattr(scenarios_module, "_random_states", no_draws)
        assert report_to_json(run_scenario(scenario)) == want


class TestConfiguredStateChecks:
    def test_one_stacked_check_gives_each_familys_verdict(self, monkeypatch):
        # the report's verdict is `check_sigma_orthoadditive` over the state's ten families
        scenario = Scenario(name="s", kind="sectors", dim=4,
                            parameters={"blocks": [[2, 1], [1, 2]]}, trials=0, seed=3,
                            states=(states_module.random_state(4, seed=8),))
        drawn = []
        draw = scenarios_module._random_orthogonal_families

        def recorded(alg, u, tol):  # each row's family, also mapped to M_d by the public route
            drawn.extend(drawn_families(alg, u, tol))
            return draw(alg, u, tol)

        monkeypatch.setattr(scenarios_module, "_random_orthogonal_families", recorded)
        report = run_scenario(scenario)
        assert len(drawn) == 10 and len({len(f) for f in drawn}) >= 2
        envelope = commutant(commutant(close(build_sectors([[2, 1], [1, 2]]))))
        logical = states_module.LogicalState(scenario.states[0], envelope)
        want = all(states_module.check_sigma_orthoadditive(logical, f) for f in drawn)
        assert report.states[0]["sigma_orthoadditive"] is want is True


class TestEnvelope:
    def test_weyl_d8_structure_without_trials(self):
        # the thin null-space SVD keeps this at ~0.3 s and ~55 MB (a full one: ~25 s)
        scenario = Scenario(name="w8", kind="weyl_finite", dim=8,
                            parameters={"modulus": 8}, trials=0)
        report = run_scenario(scenario)
        assert (report.algebra_dim, report.commutant_dim, report.center_dim) == (64, 1, 1)
        assert report.orthoadditivity == {"trials": 0, "failures": 0, "max_residual": 0.0}

    def test_weyl_d16_structure_within_a_memory_bound(self):
        # one generic element pair decomposes M_16 at ~60 MB; a (k d^2) x k center system
        # would alone hold 65536 x 256 complex entries, 268 MB
        scenario = Scenario(name="w16", kind="weyl_finite", dim=16,
                            parameters={"modulus": 16}, trials=0)
        tracemalloc.start()
        try:
            report = run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.algebra_dim, report.commutant_dim, report.center_dim) == (256, 1, 1)
        assert peak < 200 * 2**20

    @pytest.mark.parametrize("kind, dim, parameters, dims", [
        ("sectors", 16, {"blocks": [[1, 16]]}, (1, 256, 1)),
        ("classical", 24, {"point_count": 24}, (24, 24, 24)),
    ], ids=["scalars-16", "classical-24"])
    def test_large_commutant_within_a_memory_bound(self, kind, dim, parameters, dims):
        # the envelope is read off the decomposition of the generators' commutant: a
        # (c d^2, d^2) Kronecker system for it would peak at 1.3 GB and 661 MB
        scenario = Scenario(name="big-commutant", kind=kind, dim=dim, parameters=parameters,
                            trials=0)
        tracemalloc.start()
        try:
            report = run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.algebra_dim, report.commutant_dim, report.center_dim) == dims
        assert peak < 200 * 2**20


class TestOneFamilyPass:
    """The state checks and the sweep share one family draw and one stacked check; every
    result is the one the public calls give on each family and state drawn alone from its
    own row of uniforms."""

    KINDS = {"weyl_finite": (3, {"modulus": 3}), "classical": (3, {"point_count": 3}),
             "sectors": (4, {"blocks": [[2, 1], [1, 2]]})}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("trials", [0, 1, 7, 40])
    @pytest.mark.parametrize("state_count", [0, 1, 2])
    def test_reports_equal_the_per_row_public_calls(self, kind, trials, state_count):
        dim, parameters = self.KINDS[kind]
        states = tuple(random_state(dim, seed=50 + i) for i in range(state_count))
        scenario = Scenario(name="s", kind=kind, dim=dim, parameters=parameters, trials=trials,
                            seed=13, states=states)
        report = run_scenario(scenario)
        alg = generated_algebra(scenarios_module.build_generators(scenario))

        def residuals(state, stream, row):
            u = reference_uniforms(13, stream, row, states_module._family_width(alg))
            family = drawn_families(alg, u[None])[0]
            return sigma_orthoadditivity_residuals(restrict_logical(state, alg), family)

        def sweep_state(row):
            u = reference_uniforms(13, STREAM_SWEEP_STATE, row, 2 * dim * dim)
            return StateFunctional(states_module._random_states(dim, u[None])[0])

        for index, (state, entry) in enumerate(zip(states, report.states)):
            checks = [residuals(state, STREAM_STATE_CHECK, 10 * index + j) for j in range(10)]
            assert entry["sigma_orthoadditive"] is all(
                a <= DEFAULT_TOL.law_tol and c <= DEFAULT_TOL.eq_tol for a, c in checks)
            logical = restrict_logical(state, alg)
            assert entry["values"] == {f"sector_{i}": logical.value(s.central_projector)
                                       for i, s in enumerate(block_decomposition(alg).sectors)}
        sweep = [max(residuals(sweep_state(t), STREAM_SWEEP_FAMILY, t)) for t in range(trials)]
        # the public route maps each member to M_d and back to its blocks: the residuals agree
        # within rounding, the verdicts exactly
        got = report.orthoadditivity
        assert (got["trials"], got["failures"]) == (
            trials, sum(1 for r in sweep if r > DEFAULT_TOL.law_tol))
        assert abs(got["max_residual"] - max(sweep, default=0.0)) <= 1e-14


class TestCallBudget:
    """One run makes no decomposition (the generated algebra carries its sectors), one family
    draw, one orthoadditivity check and one lattice draw (one spectral draw each: both inputs
    fail distributivity among the first triples, so the rest are never drawn), and one bulk
    draw of uniforms per stage whatever the trials."""

    @staticmethod
    def counted(monkeypatch, module, name) -> list:
        calls, fn = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    @pytest.mark.parametrize("kind, dim, parameters", [
        ("weyl_finite", 3, {"modulus": 3}),
        ("sectors", 4, {"blocks": [[2, 1], [1, 2]]}),
    ])
    def test_each_stage_runs_once(self, monkeypatch, kind, dim, parameters):
        def scenario(trials, state_count):
            return Scenario(name="budget", kind=kind, dim=dim, parameters=parameters,
                            trials=trials, seed=4,
                            states=tuple(random_state(dim, i) for i in range(state_count)))

        run_scenario(scenario(40, 2))  # the decomposition's seed sequences are cached once
        stages = []
        for run in (scenario(40, 2), scenario(1, 0)):  # 40 trials, 2 states; 1 trial, none
            with monkeypatch.context() as m:
                calls = [self.counted(m, *target) for target in [
                    (sectors_module, "_decompose"),
                    (scenarios_module, "_random_orthogonal_families"),
                    (scenarios_module, "_orthoadditivity"),
                    (states_module, "_orthoadditivity"),
                    (logic_module, "_run_blocks"),  # the lattice's propositions, at once
                    (logic_module, "_spectral_cuts"),  # the pairs with the first triples
                    (states_module, "_spectral_cuts"),  # every family's element, at once
                ]]
                drawn = [self.counted(m, module, "uniforms")
                         for module in (logic_module, scenarios_module)]
                run_scenario(run)
            assert [len(c) for c in calls] == [0, 1, 1, 0, 1, 1, 1]
            stages.append([len(d) for d in drawn])
        assert stages == [[4, 3], [4, 3]]  # lattice_report's 4 and the sweep's 3

    def test_a_group_of_one_by_one_blocks_takes_no_kernel(self, monkeypatch):
        # sectors [[2, 1], [1, 2]]: a draw takes one `eigh`, of its 2 x 2 group; its 1 x 1
        # blocks are 0 or 1, so no `run_projectors` run or law kernel is made of them
        scenario = Scenario(name="budget", kind="sectors", dim=4, trials=40, seed=4,
                            parameters={"blocks": [[2, 1], [1, 2]]}, states=(random_state(4, 0),))
        run_scenario(scenario)
        eigh, draws = np.linalg.eigh, []
        with monkeypatch.context() as m:
            for module in (logic_module, states_module):
                def cuts_watched(*args, cuts=module._spectral_cuts, **kwargs):
                    draws.append([])  # the block sizes of this draw's `eigh` calls
                    with monkeypatch.context() as inner:
                        inner.setattr(np.linalg, "eigh", lambda h: draws[-1].append(
                            h.shape[-1]) or eigh(h))
                        return cuts(*args, **kwargs)

                m.setattr(module, "_spectral_cuts", cuts_watched)
            sizes = {}
            for name in ("run_projectors", "_meet", "_orthomodularity", "_distributivity"):
                def sized(a, *args, fn=getattr(logic_module, name), seen=sizes.setdefault(
                        name, []), **kwargs):
                    seen.append(np.shape(a)[-1])
                    return fn(a, *args, **kwargs)

                m.setattr(logic_module, name, sized)
            run_scenario(scenario)
        assert draws == [[2], [2]]  # the lattice's pairs with its first triples, the families
        assert {name: set(n) for name, n in sizes.items()} == {
            "run_projectors": {2}, "_meet": {2}, "_orthomodularity": {2}, "_distributivity": {2}}


# sector sets of the sweep: block size 2s at multiplicities 2 and 1 and s at 2, a doubled
# qubit of multiplicity d/2 (h has two clusters of size d/2), and the scalars (one of size d)
SWEEP_BLOCKS = {
    "sectors": lambda d: [[d // 4, 2], [d // 8, 2], [d // 4, 1]],
    "doubled": lambda d: [[2, d // 2]],
    "scalars": lambda d: [[1, d]],
}


def _sweep_scenario(kind, d):
    if kind in SWEEP_BLOCKS:
        return Scenario(name=kind, kind="sectors", dim=d, trials=0,
                        parameters={"blocks": SWEEP_BLOCKS[kind](d)})
    parameters = {"classical": {"point_count": d}, "weyl_finite": {"modulus": d}}[kind]
    return Scenario(name=kind, kind=kind, dim=d, parameters=parameters, trials=0)


def _structure(report) -> tuple:
    return (report.algebra_dim, report.commutant_dim, report.center_dim,
            sorted([s["block_size"], s["multiplicity"]] for s in report.sectors),
            report.lattice.factor, report.lattice.boolean_lattice)


@functools.cache
def _unrotated_structure(kind, d):
    return _structure(run_scenario(_sweep_scenario(kind, d)))


def _custom(gens) -> Scenario:
    return Scenario(name="rotated", kind="custom", dim=gens.ambient_dim, trials=0, parameters={
        "generators": [matrix_to_json(g) for g in gens.generators]})


# generator sets of the sweep that no scenario kind builds: the star units, whose chain walks
# only after a split pass (d > 3), and a rational clock-shift pair with d/4 copies of M_4
SWEEP_GENERATORS = {
    **{f"star-{d}": (lambda d=d: star(d)) for d in range(3, 13)},
    "clock-shift-12": lambda: rational_clock_shift(12, 3),
    "clock-shift-24": lambda: rational_clock_shift(24, 6),
}


@functools.cache
def _unrotated_generated_structure(name):
    return _structure(run_scenario(_custom(SWEEP_GENERATORS[name]())))


class TestRotationToleranceSweep:
    """The structure a scenario reports depends neither on the basis the generators are
    written in nor on the rank cutoff: two Haar rotations and four `rank_tol` per builder
    and `SWEEP_BLOCKS` sector set."""

    @pytest.mark.parametrize("rank_tol", [1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [8, 16, 24, 32])
    @pytest.mark.parametrize("kind", ["classical", "weyl_finite", *SWEEP_BLOCKS])
    def test_rotated_structure_equals_the_unrotated_default(self, kind, d, seed, rank_tol):
        gens = rotated(scenarios_module.build_generators(_sweep_scenario(kind, d)), seed)
        report = run_scenario(_custom(gens), Tolerance(rank_tol=rank_tol))
        assert _structure(report) == _unrotated_structure(kind, d)

    @pytest.mark.parametrize("rank_tol", [1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", SWEEP_GENERATORS)
    def test_rotated_generators_keep_their_structure(self, name, seed, rank_tol):
        gens = rotated(SWEEP_GENERATORS[name](), seed)
        tol = Tolerance(rank_tol=rank_tol)
        assert _structure(run_scenario(_custom(gens), tol)) == _unrotated_generated_structure(name)
        d = gens.ambient_dim
        if d <= 16:
            mats = [m for g in gens.generators for m in (g, g.conj().T)]
            assert reference_same_span(generator_commutant(gens, tol), reference_commutant(mats, d))

    @pytest.mark.xfail(strict=True, reason="rounding links the three M_8 sectors above a "
                                           "1e-12 cutoff; the certificate cannot see a merge")
    def test_rotated_clock_shift_at_a_tight_cutoff_keeps_its_sectors(self):
        # known defect: three copies of M_8 come out as one M_24, whose algebra holds the
        # generators, so the chain's certificate passes
        gens = rotated(rational_clock_shift(24, 3), seed=2)
        report = run_scenario(_custom(gens), Tolerance(rank_tol=1e-12))
        assert sorted(map(tuple, ([s["block_size"], s["multiplicity"]]
                                  for s in report.sectors))) == [(8, 1)] * 3

    @pytest.mark.xfail(strict=True, raises=NumericalError, reason="the generators' distance "
                       "to their sectors' algebra misses a 1e-12 cutoff by rounding alone")
    @pytest.mark.parametrize("name, seed", [("clock2-shift4-16", 1), ("clock-shift-24-4", 1),
                                            ("clock-shift-24-4", 2)])
    def test_rotated_inputs_at_a_tight_cutoff_are_certified(self, name, seed):
        # known defect: the certificate has no rounding floor, and these correct sectors miss
        # rank_tol 1e-12 by 1.03e-12 to 1.27e-12, so the chain is refused
        if name == "clock2-shift4-16":
            u, v = rational_clock_shift(16, 1).generators
            gens = GeneratorSet(16, (u @ u, np.linalg.matrix_power(v, 4)))
        else:
            gens = rational_clock_shift(24, 4)
        report = run_scenario(_custom(rotated(gens, seed)), Tolerance(rank_tol=1e-12))
        assert _structure(report) == _structure(run_scenario(_custom(gens)))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [8, 16])
    @pytest.mark.parametrize("kind", [*SWEEP_BLOCKS])
    def test_rotated_commutant_equals_the_kronecker_reference(self, kind, d, seed):
        gens = rotated(scenarios_module.build_generators(_sweep_scenario(kind, d)), seed)
        mats = [m for g in gens.generators for m in (g, g.conj().T)]
        assert reference_same_span(generator_commutant(gens), reference_commutant(mats, d))


# inputs of the sampled sweep, each with one configured vector state
SAMPLED_CASES = {
    "classical-8": lambda: build_classical(8),
    "classical-16": lambda: build_classical(16),
    "weyl-4": lambda: build_weyl_finite(4),
    "weyl-16": lambda: build_weyl_finite(16),
    "sectors-2x2+1x3": lambda: build_sectors([(2, 2), (1, 3)]),
    "sectors-2+1x2": lambda: build_sectors([(2, 1), (1, 2)]),
}


def _sampled(gens, rho, tol: Tolerance) -> tuple:
    """The sampled verdicts of a 50-trial run with one configured state, and its sector values
    as a multiset keyed by ``(n, m)``: the sector order follows z, which rotates."""
    scenario = replace(_custom(gens), trials=50, seed=3,
                       states=(states_module.make_state(rho),))
    report = run_scenario(scenario, tol)
    (entry,) = report.states
    verdicts = (report.lattice.orthomodular_pass_rate, report.lattice.distributive,
                report.orthoadditivity["failures"], entry["pure"], entry["sigma_orthoadditive"])
    values = sorted((s["block_size"], s["multiplicity"], entry["values"][f"sector_{i}"])
                    for i, s in enumerate(report.sectors))
    return verdicts, values


class TestRotationWithTrials:
    """Conjugating the generators and the configured state by one Haar unitary leaves the
    sampled verdicts, the state's verdicts and its sector values as they are."""

    @staticmethod
    def rotation_keeps(gens, rho, seed, tol: Tolerance = DEFAULT_TOL) -> tuple:
        """The unrotated `_sampled`, once the rotated one is checked against it."""
        u = haar_unitary(gens.ambient_dim, np.random.default_rng(seed))  # as `rotated` draws it
        verdicts, values = _sampled(gens, rho, tol)
        turned, turned_values = _sampled(rotated(gens, seed), u @ rho @ u.conj().T, tol)
        assert turned == verdicts
        assert [v[:2] for v in turned_values] == [v[:2] for v in values]
        assert np.allclose([v[2] for v in turned_values], [v[2] for v in values], rtol=0,
                           atol=1e-10)
        return verdicts, values

    @staticmethod
    def vector_state(d, seed) -> np.ndarray:
        psi = np.random.default_rng(10 + seed).standard_normal((d, 2)) @ [1, 1j]
        return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", SAMPLED_CASES)
    def test_rotated_inputs_keep_their_sampled_verdicts(self, name, seed):
        gens = SAMPLED_CASES[name]()
        self.rotation_keeps(gens, self.vector_state(gens.ambient_dim, seed), seed)

    @pytest.mark.parametrize("rank_tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("name", ["classical-16", "sectors-2x2+1x3"])
    def test_the_verdicts_hold_at_other_rank_cutoffs(self, name, rank_tol):
        # 1e-12 is left to the strict xfails of `TestRotationToleranceSweep`
        gens = SAMPLED_CASES[name]()
        self.rotation_keeps(gens, self.vector_state(gens.ambient_dim, 1), 1,
                            Tolerance(rank_tol=rank_tol))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_state_pure_on_a_multiplicity_sector_stays_pure(self, seed):
        # psi psi* (x) tau inside the (2, 2) block, tau a full-rank 2 x 2 density: pure on the
        # algebra, mixed on C^7
        rng = np.random.default_rng(20 + seed)
        psi = rng.standard_normal((2, 2)) @ [1, 1j]
        g = rng.standard_normal((2, 2, 2)) @ [1, 1j]
        tau = g @ g.conj().T + np.eye(2)
        rho = np.zeros((7, 7), dtype=complex)
        rho[:4, :4] = np.kron(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real,
                              tau / np.trace(tau).real)
        verdicts, values = self.rotation_keeps(build_sectors([(2, 2), (1, 3)]), rho, seed)
        assert verdicts[3] is True
        assert [v[:2] for v in values] == [(1, 3), (2, 2)]
        assert np.allclose([v[2] for v in values], [0.0, 1.0], rtol=0, atol=1e-10)


# the benchmark's 7 `lattice` inputs (blocks unpermuted), and Haar-rotated inputs whose frame
# is no permutation: sectors with multiplicity, a clock-shift pair and the star units
ORACLE_INPUTS = {
    "classical-4": lambda: build_classical(4),
    "classical-3": lambda: build_classical(3),
    "weyl-3": lambda: build_weyl_finite(3),
    "weyl-4": lambda: build_weyl_finite(4),
    "sectors-2+1x2": lambda: build_sectors([(2, 1), (1, 2)]),
    "sectors-1+2": lambda: build_sectors([(1, 1), (2, 1)]),
    "sectors-1+1+2": lambda: build_sectors([(1, 1), (1, 1), (2, 1)]),
}
ROTATED_ORACLE_INPUTS = {
    "sectors-2+1x2": lambda: build_sectors([(2, 1), (1, 2)]),
    "sectors-1+1+2": lambda: build_sectors([(1, 1), (1, 1), (2, 1)]),
    "sectors-2x2+1x3": lambda: build_sectors([(2, 2), (1, 3)]),
    "sectors-3x2": lambda: build_sectors([(3, 2)]),
    "classical-4": lambda: build_classical(4),
    "weyl-3": lambda: build_weyl_finite(3),
    "clock-shift-6": lambda: rational_clock_shift(6, 2),
    "star-4": lambda: star(4),
}


class TestBlockFormOracle:
    """The trial stages run on sector blocks; the ambient stages they replaced, kept in
    conftest as oracles, must give the same report: pass rates, `distributive`, failures,
    `pure` and `sigma_orthoadditive` equal, state values within 1e-12, the counterexample and
    `max_residual` within rounding."""

    @staticmethod
    def compare(gens, seed, monkeypatch):
        d = gens.ambient_dim
        scenario = replace(_custom(gens), trials=100, seed=seed,
                           states=(random_state(d, seed=seed),))
        got = run_scenario(scenario)
        with monkeypatch.context() as m:
            m.setattr(scenarios_module, "lattice_report", ambient_lattice_report)
            m.setattr(scenarios_module, "_orthoadditivity_checks", ambient_orthoadditivity_checks)
            want = run_scenario(scenario)
        for name in ("orthomodular_pass_rate", "distributive", "boolean_lattice", "sector_count"):
            assert getattr(got.lattice, name) == getattr(want.lattice, name)
        for a, b in zip(got.lattice.counterexample or (), want.lattice.counterexample or ()):
            assert operator_norm(a - b) <= 1e-10
        assert got.orthoadditivity["failures"] == want.orthoadditivity["failures"]
        assert abs(got.orthoadditivity["max_residual"]
                   - want.orthoadditivity["max_residual"]) <= 1e-14
        (entry,), (oracle,) = got.states, want.states
        assert (entry["pure"], entry["sigma_orthoadditive"]) == (
            oracle["pure"], oracle["sigma_orthoadditive"])
        assert entry["values"].keys() == oracle["values"].keys()
        assert all(abs(entry["values"][k] - oracle["values"][k]) <= 1e-12 for k in entry["values"])
        return got

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ORACLE_INPUTS)
    def test_the_lattice_inputs_agree_with_the_ambient_stages(self, name, seed, monkeypatch):
        self.compare(ORACLE_INPUTS[name](), seed, monkeypatch)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ROTATED_ORACLE_INPUTS)
    def test_rotated_inputs_agree_with_the_ambient_stages(self, name, seed, monkeypatch):
        self.compare(rotated(ROTATED_ORACLE_INPUTS[name](), seed), seed, monkeypatch)

    def test_the_oracle_sees_counterexamples_and_failures(self, monkeypatch):
        # the comparison has content: a noncommutative input fails distributivity
        report = self.compare(build_weyl_finite(3), 1, monkeypatch)
        assert not report.lattice.distributive


class TestTrialStagesMemory:
    """At d = 32 the trial stages hold sector blocks: Σ n² entries a proposition, not d²."""

    def test_the_lattice_stage_on_weyl_32_at_200_trials_stays_under_168_mib(self):
        # a weyl factor is one n = d block: the stage keeps no copy of its blocks but trial 0's
        scenario = Scenario(name="m", kind="weyl_finite", dim=32, parameters={"modulus": 32})
        alg = generated_algebra(scenarios_module.build_generators(scenario))
        block_decomposition(alg).frame  # built once, outside the stage
        tracemalloc.start()
        try:
            report = lattice_report(alg, 200, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == 200
        assert peak < 168 * 2**20

    @pytest.mark.parametrize("kind, parameters", [
        ("classical", {"point_count": 32}),
        ("sectors", {"blocks": [[2, 16]]}),
    ], ids=["classical-32", "sectors-2x16"])
    def test_both_stages_at_200_trials_stay_under_48_mib(self, kind, parameters):
        scenario = Scenario(name="m", kind=kind, dim=32, parameters=parameters, trials=200,
                            seed=1)
        alg = generated_algebra(scenarios_module.build_generators(scenario))
        block_decomposition(alg).frame  # built once, outside the stages
        tracemalloc.start()
        try:
            report = lattice_report(alg, 200, 1)
            _, sweep = scenarios_module._orthoadditivity_checks(alg, scenario, DEFAULT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == sweep["trials"] == 200
        assert peak < 48 * 2**20
