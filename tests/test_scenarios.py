import numpy as np
import pytest

from oplattice import (
    AlgebraBasis,
    Expectation,
    NotInAlgebra,
    NotOrthogonalFamily,
    NotProjector,
    NumericalError,
    Scenario,
    ValidationError,
    block_decomposition,
    build_classical,
    build_sectors,
    build_weyl_finite,
    center,
    close,
    commutant,
    is_commutative,
    is_factor,
    matrix_to_json,
    operator_norm,
    report_to_json,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
)
from oplattice import scenarios as scenarios_module
from tests.conftest import two_orthogonal_real_lines, unit


class TestBuildClassical:
    def test_single_point_gives_scalars(self):
        alg = close(build_classical(1))
        assert alg.dim == 1

    def test_three_points(self):
        alg = close(build_classical(3))
        assert alg.dim == 3
        assert is_commutative(alg)

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


class TestScenarioValidation:
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
        assert {v["check"] for v in report.expectations} == {
            "factor",
            "distributive",
            "algebra_dim",
            "sector_blocks",
            "orthomodular_pass_rate",
        }

    def test_unknown_expectation_rejected(self):
        scenario = Scenario(
            name="weyl2",
            kind="weyl_finite",
            dim=2,
            parameters={"modulus": 2},
            trials=5,
            seed=3,
            expectations=(Expectation(check="no_such_check", expect=1),),
        )
        with pytest.raises(ValidationError) as excinfo:
            run_scenario(scenario)
        # errors bubble up tagged with the scenario that produced them
        assert "weyl2" in str(excinfo.value)

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


class TestClosureChecks:
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

    def test_over_closed_algebra_is_rejected(self, monkeypatch):
        # M_5 passes the bicommutant check; only the generators' commutant
        # (dimension 2 for two blocks) can tell it is too big.
        monkeypatch.setattr(
            scenarios_module, "close", lambda gens, tol: close(build_weyl_finite(gens.ambient_dim), tol)
        )
        scenario = Scenario(
            name="over-closed", kind="sectors", dim=5, parameters={"blocks": [[2, 1], [3, 1]]}, trials=0
        )
        with pytest.raises(NumericalError, match="generators' commutant has dimension 2"):
            run_scenario(scenario)

    def test_stopped_short_closure_is_rejected(self, monkeypatch):
        # the span of the unit and the generators, without their products:
        # 5 of the 9 dimensions weyl 3 generates
        def stopped_short(gens, tol):
            d = gens.ambient_dim
            words = [np.eye(d), *gens.generators, *(g.conj().T for g in gens.generators)]
            q, _ = np.linalg.qr(np.stack([w.ravel() for w in words], axis=1))
            return AlgebraBasis(ambient_dim=d, basis=q.T.reshape(-1, d, d))

        monkeypatch.setattr(scenarios_module, "close", stopped_short)
        scenario = Scenario(
            name="stopped short", kind="weyl_finite", dim=3, parameters={"modulus": 3}, trials=0
        )
        with pytest.raises(NumericalError, match="dimension 5 .* has 9"):
            run_scenario(scenario)


class TestOrthoadditivitySweepChecks:
    """The sweep checks its families in one stack; each check must still fire."""

    def run_with_family(self, monkeypatch, family):
        monkeypatch.setattr(
            scenarios_module, "_random_orthogonal_families", lambda alg, seeds, tol: [family] * len(seeds)
        )
        return run_scenario(Scenario(name="s", kind="classical", dim=2,
                                     parameters={"point_count": 2}, trials=3))

    def test_non_projector_member(self, monkeypatch):
        with pytest.raises(NotProjector, match="orthoadditivity trial 0: .*idempotent"):
            self.run_with_family(monkeypatch, [0.5 * np.eye(2, dtype=complex)])

    def test_projector_outside_the_envelope(self, monkeypatch):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        with pytest.raises(NotInAlgebra, match="orthoadditivity trial 0"):
            self.run_with_family(monkeypatch, [np.outer(v, v).astype(complex)])

    def test_non_orthogonal_pair(self, monkeypatch):
        with pytest.raises(NotOrthogonalFamily, match="trial 0: members 0 and 1"):
            self.run_with_family(monkeypatch, [unit(2, 0, 0), unit(2, 0, 0)])

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


class TestEnvelope:
    def test_weyl_d8_structure_without_trials(self):
        # the thin null-space SVD keeps this at ~0.3 s and ~55 MB (a full one: ~25 s)
        scenario = Scenario(name="w8", kind="weyl_finite", dim=8,
                            parameters={"modulus": 8}, trials=0)
        report = run_scenario(scenario)
        assert (report.algebra_dim, report.commutant_dim, report.center_dim) == (64, 1, 1)
        assert report.orthoadditivity == {"trials": 0, "failures": 0, "max_residual": 0.0}
