import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    DimensionMismatch,
    GeneratorSet,
    LatticeReport,
    NotInAlgebra,
    PreconditionFailed,
    Tolerance,
    block_decomposition,
    center,
    check_distributive,
    check_orthomodular,
    close,
    contains,
    distributivity_residual,
    is_atom,
    is_projector,
    join,
    lattice_report,
    lattice_report_to_json,
    leq,
    make_state,
    meet,
    mvn_dimension,
    operator_norm,
    orthocomplement,
    orthogonal,
    orthomodularity_residual,
    projectors_equivalent,
    random_orthogonal_family,
    random_projector,
    random_state,
    restrict_logical,
)
from oplattice import NumericalError, build_classical, build_sectors, build_weyl_finite
from oplattice import logic as logic_module
from oplattice import sectors as sectors_module
from oplattice import states as states_module
from oplattice.numerics import dumps, null_space, range_projector, run_projectors
from oplattice.sectors import _random_self_adjoint
from oplattice.seeding import (
    STREAM_ORTHOMODULAR_Q,
    STREAM_PROJECTOR,
    STREAM_STATE,
    uniforms,
)
from tests.conftest import (
    INVALID_PROJECTORS,
    KERNEL_ALGEBRAS,
    NON_SQUARE,
    ambient_lattice_report,
    drawn_projectors,
    MEET_MAX_ITER,
    IterationFailed,
    haar_unitary,
    kernel_algebra,
    line_projector,
    meet_iterative,
    reference_clusters,
    reference_is_commutative,
    reference_orthomodularity_residual,
    reference_random_state,
    reference_run,
    reference_spectrum,
    reference_uniforms,
    reference_witness,
    rotated,
    unit,
)


class TestOrthocomplement:
    def test_zero(self):
        assert np.allclose(orthocomplement(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(orthocomplement(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))

    def test_rank_one_complement(self):
        p = line_projector(0.3)
        q = orthocomplement(p)
        assert np.allclose(p + q, np.eye(2))
        assert np.allclose(orthocomplement(q), p)


class TestMeet:
    def test_commuting_projectors(self):
        m = meet(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0]))
        assert operator_norm(m - np.diag([0.0, 1.0, 0.0])) <= 1e-12

    def test_distinct_lines_meet_at_origin(self):
        m = meet(line_projector(0.0), line_projector(np.pi / 4))
        assert operator_norm(m) <= 1e-12

    def test_idempotent(self):
        p = line_projector(1.1)
        assert operator_norm(meet(p, p) - p) <= 1e-12

    def test_result_is_projector(self, full4):
        for i in range(25):
            m = meet(random_projector(full4, 40 + i), random_projector(full4, 70 + i))
            assert is_projector(m)


class TestMeetIterative:
    def test_agrees_with_null_space_route(self, full4):
        for i in range(100):
            p = random_projector(full4, 1000 + i)
            q = random_projector(full4, 2000 + i)
            assert operator_norm(meet_iterative(p, q) - meet(p, q)) <= 1e-8

    def test_iterates_decrease_monotonically(self, full4):
        for i in range(10):
            p = random_projector(full4, 5000 + i)
            q = random_projector(full4, 6000 + i)
            core = p @ q @ p
            s = core.copy()
            for _ in range(8):
                s_next = (s @ core + (s @ core).conj().T) / 2
                top = np.linalg.eigvalsh(s_next - s)[-1]
                assert top <= 1e-9
                s = s_next

    def test_tiny_principal_angle_fails_loudly(self):
        p = line_projector(0.0)
        q = line_projector(1e-3)
        with pytest.raises(IterationFailed, match=f"did not converge within {MEET_MAX_ITER} it"):
            meet_iterative(p, q)


class TestJoin:
    def test_orthogonal_sum(self):
        j = join(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]))
        assert operator_norm(j - np.diag([1.0, 1.0, 0.0])) <= 1e-12

    def test_two_lines_span_the_plane(self):
        j = join(line_projector(0.0), line_projector(np.pi / 4))
        assert operator_norm(j - np.eye(2)) <= 1e-12

    def test_zero_is_neutral(self):
        p = line_projector(0.7)
        assert operator_norm(join(p, np.zeros((2, 2))) - p) <= 1e-12

    def test_matches_column_span_oracle(self, full4):
        for i in range(50):
            p = random_projector(full4, 7000 + i)
            q = random_projector(full4, 8000 + i)
            u, s, _ = np.linalg.svd(np.hstack([p, q]))
            rank = int(np.sum(s > 1e-8 * max(s[0], 1e-8)))
            span = u[:, :rank] @ u[:, :rank].conj().T
            assert operator_norm(join(p, q) - span) <= 1e-8


class TestCovariance:
    """``meet`` and ``join`` commute with conjugation by a unitary W: on a pair in general
    position sharing a line, and on a pair drawn in a Haar-rotated sector algebra."""

    @staticmethod
    def pairs(seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((6, 4, 2)) @ [1, 1j]  # span(a, c) and span(b, b', c)
        yield range_projector(np.linalg.qr(v[:, [0, 3]])[0]), range_projector(
            np.linalg.qr(v[:, 1:])[0])
        alg = kernel_algebra("haar-sectors-2+1x2")
        for i in range(4):
            yield random_projector(alg, 10 * seed + i), random_projector(alg, 10 * seed + i + 50)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_meet_and_join_commute_with_a_rotation(self, seed):
        for p, q in self.pairs(seed):
            w = haar_unitary(len(p), np.random.default_rng(seed + 100))
            wp, wq = w @ p @ w.conj().T, w @ q @ w.conj().T
            for op in (meet, join):
                assert operator_norm(op(wp, wq) - w @ op(p, q) @ w.conj().T) <= 1e-10


class TestOrder:
    def test_examples(self):
        assert leq(np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0]))
        assert not leq(np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 0.0, 0.0]))

    def test_reflexive(self, full4):
        for i in range(20):
            p = random_projector(full4, 100 + i)
            assert leq(p, p)

    def test_antisymmetric(self, full4):
        for i in range(20):
            p = random_projector(full4, 200 + i)
            q = random_projector(full4, 300 + i)
            if leq(p, q) and leq(q, p):
                assert operator_norm(p - q) <= 1e-9

    def test_transitive_on_constructed_chains(self, full4):
        for i in range(20):
            r = random_projector(full4, 400 + i)
            q = random_projector(full4, 500 + i)
            p = meet(r, q)
            s = join(q, random_projector(full4, 600 + i))
            assert leq(p, q) and leq(q, s)
            assert leq(p, s)

    def test_leq_agrees_with_meet_form(self, full4):
        for i in range(30):
            p = random_projector(full4, 700 + i)
            q = random_projector(full4, 800 + i)
            assert leq(p, q) == (operator_norm(meet(p, q) - p) <= 1e-9)


class TestOrthogonal:
    def test_disjoint_coordinates(self):
        assert orthogonal(unit(2, 0, 0), unit(2, 1, 1))

    def test_self_not_orthogonal(self):
        p = line_projector(0.2)
        assert not orthogonal(p, p)

    def test_zero_orthogonal_to_all(self, full4):
        z = np.zeros((4, 4))
        for i in range(10):
            assert orthogonal(random_projector(full4, 900 + i), z)

    def test_symmetric(self, full4):
        for i in range(20):
            p = random_projector(full4, 1100 + i)
            q = random_projector(full4, 1200 + i)
            assert orthogonal(p, q) == orthogonal(q, p)


class TestOrthomodularLaw:
    def test_commuting_case(self):
        assert check_orthomodular(np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0]))

    def test_equal_arguments(self):
        p = line_projector(0.9)
        assert check_orthomodular(p, p)

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionFailed):
            check_orthomodular(np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 0.0, 0.0]))

    def test_holds_on_constrained_random_pairs(self, full4):
        for i in range(500):
            q = random_projector(full4, 10_000 + i)
            r = random_projector(full4, 20_000 + i)
            p = meet(r, q)
            assert orthomodularity_residual(p, q) <= 1e-7

    def test_the_summed_join_agrees_with_the_solved_join(self, full4):
        # p ∨ (p⊥ ∧ q) is read as the sum p + (p⊥ ∧ q): the residual keeps the value of the
        # join solved by `join`, and every verdict, on the pairs above and the fixed ones
        pairs = [(np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])),
                 (line_projector(0.9), line_projector(0.9))]
        for i in range(500):
            q = random_projector(full4, 10_000 + i)
            pairs.append((meet(random_projector(full4, 20_000 + i), q), q))
        for p, q in pairs:
            want = reference_orthomodularity_residual(p, q)
            assert abs(orthomodularity_residual(p, q) - want) <= 1e-12
            assert check_orthomodular(p, q) is (want <= DEFAULT_TOL.law_tol) is True


class TestDistributivity:
    def test_commuting_diagonal_triple(self):
        assert check_distributive(
            np.diag([1.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0])
        )

    def test_three_lines_violate_it(self):
        # q ∨ r is the whole plane, so the left side is p; but p ∧ q and
        # p ∧ r are both 0, so the right side is 0
        p = line_projector(0.0)
        q = line_projector(np.pi / 4)
        r = line_projector(np.pi / 2)
        lhs = meet(p, join(q, r))
        rhs = join(meet(p, q), meet(p, r))
        assert operator_norm(lhs - p) <= 1e-12
        assert operator_norm(rhs) <= 1e-12
        assert abs(distributivity_residual(p, q, r) - 1.0) <= 1e-9
        assert not check_distributive(p, q, r)

    def test_repeated_argument(self):
        p = line_projector(0.4)
        assert check_distributive(p, p, p)

    def test_verdict_threshold_is_the_tolerance_law_tol(self, monkeypatch):
        # a difference of operator norm 1e-6, decided by `norm_at_most` as the orthomodular law is
        difference = np.diag([1e-6, 0.0]).astype(complex)
        monkeypatch.setattr(logic_module, "_distributivity", lambda p, q, r, tol: (difference, ()))
        p = line_projector(0.4)
        assert not check_distributive(p, p, p)
        assert check_distributive(p, p, p, Tolerance(rank_tol=1e-6))


class TestAbsorption:
    def test_both_laws_on_random_pairs(self, full4):
        for i in range(50):
            p = random_projector(full4, 30_000 + i)
            q = random_projector(full4, 40_000 + i)
            assert operator_norm(meet(p, join(p, q)) - p) <= 1e-8
            assert operator_norm(join(p, meet(p, q)) - p) <= 1e-8


class TestCommutativeCase:
    def test_meet_is_plain_product(self, diag8):
        for i in range(50):
            p = random_projector(diag8, 50_000 + i)
            q = random_projector(diag8, 60_000 + i)
            assert operator_norm(meet(p, q) - p @ q) <= 1e-10

    def test_every_sampled_triple_distributes(self, diag8):
        for i in range(100):
            p = random_projector(diag8, 70_000 + i)
            q = random_projector(diag8, 80_000 + i)
            r = random_projector(diag8, 90_000 + i)
            assert check_distributive(p, q, r)


class TestIsAtom:
    def test_coordinate_line_in_full_algebra(self, full3):
        assert is_atom(full3, unit(3, 0, 0))

    def test_rank_two_is_not_minimal(self, full3):
        assert not is_atom(full3, np.diag([1.0, 1.0, 0.0]))

    def test_zero_is_not_an_atom(self, full3):
        assert not is_atom(full3, np.zeros((3, 3)))

    def test_block_identity_vs_inner_line(self):
        gens = []
        for g in build_weyl_finite(2).generators:
            top = np.zeros((4, 4), dtype=complex)
            top[:2, :2] = g
            bottom = np.zeros((4, 4), dtype=complex)
            bottom[2:, 2:] = g
            gens += [top, bottom]
        alg = close(GeneratorSet(ambient_dim=4, generators=tuple(gens)))
        block_identity = np.diag([1.0, 1.0, 0.0, 0.0])
        assert not is_atom(alg, block_identity)
        assert is_atom(alg, unit(4, 0, 0))
        assert is_atom(alg, unit(4, 2, 2))


class TestRandomProjector:
    def test_deterministic(self, full4):
        a = random_projector(full4, 12345)
        b = random_projector(full4, 12345)
        assert np.array_equal(a, b)

    def test_scalars_only_yield_trivial_projectors(self):
        scalars = close(GeneratorSet(ambient_dim=3, generators=(np.eye(3),)))
        seen = set()
        for i in range(30):
            p = random_projector(scalars, i)
            r = int(round(np.trace(p).real))
            assert r in (0, 3)
            seen.add(r)
        assert seen == {0, 3}

    def test_outputs_are_projectors_in_the_algebra(self, full4):
        for i in range(1000):
            p = random_projector(full4, i)
            assert is_projector(p)
            assert contains(full4, p)

    def test_outputs_respect_block_structure(self, two_blocks):
        for i in range(100):
            p = random_projector(two_blocks, i)
            assert is_projector(p)
            assert contains(two_blocks, p)


class TestLatticeReport:
    @pytest.mark.parametrize("name, value", [
        ("trials", 2.5), ("trials", True), ("trials", -1), ("trials", "3"),
        ("seed", 1.5), ("seed", False), ("seed", -1),
    ])
    def test_trials_and_seed_must_be_nonnegative_integers(self, full2, name, value):
        args = {"trials": 2, "seed": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer"):
            lattice_report(full2, **args)
        if name == "seed":  # zero trials draw nothing, but the seed is still checked
            with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
                lattice_report(full2, trials=0, seed=value)

    def test_numpy_integers_are_integers(self, full2):
        report = lattice_report(full2, trials=np.int64(3), seed=np.uint8(1))
        assert dumps(lattice_report_to_json(report)) == dumps(
            lattice_report_to_json(lattice_report(full2, trials=3, seed=1)))

    @pytest.mark.parametrize("build, trials", [(build_weyl_finite, 10), (build_classical, 10),
                                               (build_weyl_finite, 0)],
                             ids=["weyl-sampled", "classical-settled", "weyl-no-trials"])
    def test_the_pass_rate_is_a_python_float(self, build, trials):
        # whether it is sampled, settled or not drawn: a report field holds no NumPy scalar
        report = lattice_report(close(build(3)), trials=trials, seed=1)
        assert type(report.orthomodular_pass_rate) is float

    def test_classical_scenario_is_boolean(self, diag8):
        report = lattice_report(diag8, trials=60, seed=5)
        assert report.distributive
        assert report.counterexample is None
        assert report.boolean_lattice
        assert report.atomic
        assert report.sector_count == 8
        assert not report.factor
        assert report.orthomodular_pass_rate == 1.0

    def test_full_m2_violates_distributivity(self, full2):
        report = lattice_report(full2, trials=60, seed=5)
        assert not report.distributive
        assert report.counterexample is not None
        p, q, r = report.counterexample
        assert distributivity_residual(p, q, r) > 1e-7
        assert report.orthomodular_pass_rate == 1.0
        assert report.factor
        assert report.hilbertian

    def test_sector_sum_report(self):
        alg = close(build_sectors([(2, 1), (3, 1)]))
        report = lattice_report(alg, trials=60, seed=5)
        assert not report.factor
        assert report.sector_count == 2
        assert not report.distributive
        assert not report.hilbertian

    def test_multiplicity_blocks_not_hilbertian(self):
        alg = close(build_sectors([(2, 2)]))
        report = lattice_report(alg, trials=20, seed=5)
        assert report.factor
        assert not report.hilbertian

    def test_repeated_reports_are_identical(self, full2):
        first = lattice_report(full2, trials=40, seed=9)
        second = lattice_report(full2, trials=40, seed=9)
        assert lattice_report_to_json(first) == lattice_report_to_json(second)

    @pytest.mark.parametrize("distributive, counterexample, trials", [
        (True, (np.eye(2),) * 3, 1),  # a distributive lattice has no counterexample
        (False, None, 1),  # a sampled non-distributive one has one
        (False, (np.eye(2),) * 3, 0),  # at zero trials none is built
    ])
    def test_counterexample_presence_is_validated(self, distributive, counterexample, trials):
        with pytest.raises(ValueError, match="exactly when distributive is false and trials"):
            LatticeReport(
                orthomodular_pass_rate=1.0,
                distributive=distributive,
                counterexample=counterexample,
                boolean_lattice=distributive,
                atomic=True,
                hilbertian=False,
                factor=False,
                sector_count=2,
                trials=trials,
                seed=0,
            )


# Every validated lattice entry point, with its number of projector arguments.
ENTRY_POINTS = {
    "meet": (meet, 2),
    "join": (join, 2),
    "orthocomplement": (orthocomplement, 1),
    "leq": (leq, 2),
    "orthogonal": (orthogonal, 2),
    "orthomodularity_residual": (orthomodularity_residual, 2),
    "distributivity_residual": (distributivity_residual, 3),
    "check_orthomodular": (check_orthomodular, 2),
    "check_distributive": (check_distributive, 3),
    "meet_iterative": (meet_iterative, 2),
}


class TestBoundaryValidation:
    @pytest.mark.parametrize("case", sorted(INVALID_PROJECTORS))
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_every_argument_is_validated(self, name, case):
        fn, arity = ENTRY_POINTS[name]
        bad, error = INVALID_PROJECTORS[case]
        if case == "mismatched" and arity == 1:
            bad = NON_SQUARE
        good = np.diag([1.0, 0.0]).astype(complex)
        for position in range(arity):
            args = [good] * arity
            args[position] = bad
            with pytest.raises(error):
                fn(*args)


def _stack_calls():
    """Every public call on one proposition per argument, each given a stack of two 3 x 3
    projectors of ``close(build_classical(3))`` for every proposition."""
    alg = close(build_classical(3))
    state = restrict_logical(make_state(np.eye(3) / 3), alg)
    calls = {name: (fn, arity) for name, (fn, arity) in ENTRY_POINTS.items()
             if name != "meet_iterative"}
    calls.update({
        "mvn_dimension": (functools.partial(mvn_dimension, alg), 1),
        "projectors_equivalent": (functools.partial(projectors_equivalent, alg), 2),
        "is_atom": (functools.partial(is_atom, alg), 1),
        "LogicalState.value": (state.value, 1),
    })
    return calls


STACK_CALLS = _stack_calls()


class TestOneMatrixPerProposition:
    @pytest.mark.parametrize("name", sorted(STACK_CALLS))
    def test_a_stack_is_refused_before_any_check(self, name, monkeypatch):
        # a stack used to reach the kernels: stacks and arrays came back where one matrix, a
        # bool or a float is promised, or NumPy raised ("truth value ... ambiguous")
        def never(*args, **kwargs):
            raise AssertionError("a projector check ran")

        for module in (logic_module, sectors_module):
            monkeypatch.setattr(module, "ensure_projector", never)
        fn, arity = STACK_CALLS[name]
        stack = np.stack([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]).astype(complex)
        assert len(STACK_CALLS) == 13
        with pytest.raises(DimensionMismatch, match="one matrix per proposition"):
            fn(*[stack] * arity)


D3_D4_KERNEL_ALGEBRAS = [name for name, build in KERNEL_ALGEBRAS.items()
                         if build().ambient_dim in (3, 4)]


def reference_pass_rate(alg, trials, seed):
    """`lattice_report`'s orthomodular pass rate, rebuilt from one-row reference draws (trial
    i: row i of `STREAM_ORTHOMODULAR_Q`) and the public validated one-pair calls, which settle
    no bound by identity."""
    width = logic_module._draw_width(alg)
    om = []
    for i in range(trials):
        u = reference_uniforms(seed, STREAM_ORTHOMODULAR_Q, i, width + 1)
        q, p, known = reference_nested_pair(alg, u)
        om.append(orthomodularity_residual(p, q) <= DEFAULT_TOL.law_tol
                  and operator_norm(meet(orthocomplement(p), q) - known) <= DEFAULT_TOL.law_tol)
    return sum(om) / trials


def assert_is_the_witness(report, alg):
    """`report.counterexample` is `reference_witness`, within rounding, and it breaks the law:
    the public `distributivity_residual`, composed from `meet` and `join` as well, is ~1."""
    p, q, r = report.counterexample
    for got, want in zip((p, q, r), reference_witness(alg), strict=True):
        assert operator_norm(got - want) <= 1e-12
    composed = operator_norm(meet(p, join(q, r)) - join(meet(p, q), meet(p, r)))
    for residual in (distributivity_residual(p, q, r), composed):
        assert residual >= 1 - DEFAULT_TOL.law_tol


class TestStackedChecks:
    @pytest.mark.parametrize("name", ["full2", "full3", "two_blocks"])
    def test_report_equals_the_validated_reference(self, name, request):
        alg = request.getfixturevalue(name)
        report = lattice_report(alg, trials=40, seed=3)
        assert report.orthomodular_pass_rate == reference_pass_rate(alg, trials=40, seed=3)
        assert not report.distributive
        assert_is_the_witness(report, alg)

    @pytest.mark.parametrize("name", D3_D4_KERNEL_ALGEBRAS)
    def test_report_equals_the_reference_where_most_cases_are_bounds(self, name):
        # at d 3-4 most stacked meets have an operand 0 or 1 and are settled by identity
        alg = kernel_algebra(name)
        report = lattice_report(alg, trials=100, seed=5)
        assert report.orthomodular_pass_rate == reference_pass_rate(alg, trials=100, seed=5)
        assert report.distributive == reference_is_commutative(alg)
        if not report.distributive:
            assert_is_the_witness(report, alg)

    @pytest.mark.parametrize("build, trials, seed, rows", [
        (lambda: build_weyl_finite(3), 100, 1, [100]),
        (lambda: build_sectors([(1, 1)] * 6 + [(2, 1)]), 100, 3, [100]),
        (lambda: build_sectors([(1, 1)] * 6 + [(2, 1)]), 5, 3, [5]),
        (lambda: build_weyl_finite(3), 0, 1, []),  # zero trials draw nothing
        (lambda: build_classical(4), 100, 1, []),  # a Boolean lattice draws nothing
    ])
    def test_the_pairs_are_the_one_draw(self, build, trials, seed, rows, monkeypatch):
        # one `uniforms` call and one `_spectral_cuts` call of all `trials` pairs; the witness
        # is built, not drawn
        cuts, uniforms_, drawn, streams = logic_module._spectral_cuts, logic_module.uniforms, [], []

        def counted(alg, u, *args):
            drawn.append(len(u))
            return cuts(alg, u, *args)

        def uniforms_counted(seed, stream, count, width):
            streams.append((stream, count))
            return uniforms_(seed, stream, count, width)

        monkeypatch.setattr(logic_module, "_spectral_cuts", counted)
        monkeypatch.setattr(logic_module, "uniforms", uniforms_counted)
        lattice_report(close(build()), trials=trials, seed=seed)
        assert drawn == rows
        assert streams == [(STREAM_ORTHOMODULAR_Q, trials)] * bool(rows)

    def test_a_non_projector_in_a_trial_is_caught(self, full2, monkeypatch):
        # every proposition is a run of eigenvector columns: the kernel's guard on each basis it
        # reads catches a skewed one, and no stage checks the blocks it composes again
        original = logic_module._spectral_cuts
        calls = []

        def skewed(*args):
            calls.append(args)
            cuts = original(*args)
            cuts[0][0][3, 0, :, 0] *= 1 + 1e-6  # one column of trial 3's eigenbasis
            return cuts

        monkeypatch.setattr(logic_module, "_spectral_cuts", skewed)
        with pytest.raises(NumericalError, match="not unitary") as caught:
            lattice_report(full2, trials=5, seed=1)
        assert caught.value.residual == pytest.approx(2e-6, rel=1e-5)
        assert len(calls) == 1

    def test_the_check_survives_optimized_python(self):
        # under -O an `assert` would vanish; the kernel's guard must not
        code = (
            "import oplattice as op\n"
            "from oplattice import logic\n"
            "alg = op.close(op.build_weyl_finite(2))\n"
            "original = logic._spectral_cuts\n"
            "def skewed(*args):\n"
            "    cuts = original(*args)\n"
            "    cuts[0][0][3, 0, :, 0] *= 1 + 1e-6\n"
            "    return cuts\n"
            "logic._spectral_cuts = skewed\n"
            "try:\n"
            "    op.lattice_report(alg, trials=5, seed=1)\n"
            "except op.NumericalError as exc:\n"
            "    print(exc.residual)\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(logic_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert float(done.stdout) == pytest.approx(2e-6, rel=1e-5)


# Boolean lattices (every sector of block size 1): classical algebras, a Haar-rotated one,
# and the center of M_2 + 1 (x) 1_2, whose two sectors have multiplicity 2
BOOLEAN_INPUTS = {
    **{f"classical-{d}": (lambda d=d: close(build_classical(d))) for d in (3, 4, 16)},
    "haar-classical-8": lambda: close(rotated(build_classical(8), seed=3)),
    "center-2+1x2": lambda: center(close(build_sectors([(2, 1), (1, 2)]))),
}


class TestDistributivityIsRead:
    """The projection lattice of a finite-dimensional C*-algebra is distributive exactly when the
    algebra is commutative: `distributive` is read off the sectors, at every trial count and
    seed, and a non-Boolean report with trials carries a built witness."""

    @pytest.mark.parametrize("blocks", [[(1, 5), (2, 1)], [(1, 3), (2, 1), (1, 1)], [(2, 1)],
                                        [(2, 3)]], ids=str)
    def test_no_non_commutative_input_reports_distributive(self, blocks):
        # at 1-3 trials a sampled triple distributes on these for up to half the seeds, and
        # zero trials sample none: the verdict must not depend on either
        alg = close(build_sectors(blocks))
        for trials, seed in itertools.product(range(4), range(20)):
            report = lattice_report(alg, trials=trials, seed=seed)
            assert not report.distributive and not report.boolean_lattice
            assert (report.counterexample is None) == (trials == 0)
        assert_is_the_witness(report, alg)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 5])
    def test_weyl_factors_at_zero_trials_are_not_distributive(self, modulus):
        report = lattice_report(close(build_weyl_finite(modulus)), trials=0, seed=1)
        assert not report.distributive and report.counterexample is None

    @pytest.mark.parametrize("build", [
        lambda: close(build_classical(3)), lambda: close(build_classical(6)),
        lambda: close(rotated(build_classical(5), seed=2)),
        lambda: close(build_sectors([(1, 3), (1, 1)])),
        lambda: center(close(build_sectors([(2, 1), (1, 2)]))),
    ], ids=["classical-3", "classical-6", "haar-classical-5", "sectors-1x3+1", "center-2+1x2"])
    def test_every_commutative_input_reports_distributive(self, build):
        alg = build()
        for trials, seed in itertools.product(range(4), range(5)):
            report = lattice_report(alg, trials=trials, seed=seed)
            assert report.distributive and report.counterexample is None

    @pytest.mark.parametrize("build", [
        lambda: build_weyl_finite(4), lambda: build_sectors([(1, 3), (2, 1), (1, 1)]),
        lambda: build_sectors([(1, 5), (3, 2)]), lambda: build_sectors([(2, 3)]),
    ], ids=["weyl-4", "sectors-1x3+2+1", "sectors-1x5+3x2", "sectors-2x3"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_witness_of_a_rotated_input_lies_in_the_algebra(self, build, seed):
        alg = close(rotated(build(), seed))
        report = lattice_report(alg, trials=1, seed=seed)
        assert not report.distributive
        assert contains(alg, np.stack(report.counterexample)).all()
        assert_is_the_witness(report, alg)

    def test_a_witness_that_distributes_raises(self, full2, monkeypatch):
        # the built triple is checked by the law kernel, not trusted
        monkeypatch.setattr(logic_module, "_distributivity",
                            lambda p, q, r, tol: (np.zeros_like(p), ()))
        with pytest.raises(NumericalError, match="witness holds") as caught:
            lattice_report(full2, trials=1, seed=1)
        assert caught.value.residual == 0.0

    def test_a_witness_outside_the_algebra_is_named(self, two_blocks, monkeypatch):
        # at one trial the spot check maps four propositions and the witness three: only the
        # witness is replaced by a line across the two sectors
        v = np.array([1.0, 0.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        monkeypatch.setattr(logic_module, "_ambient", lambda frame, blocks: (
            np.broadcast_to(np.outer(v, v).astype(complex), (len(blocks[0]), 5, 5))
            if len(blocks[0]) == 3 else sectors_module._ambient(frame, blocks)))
        with pytest.raises(NotInAlgebra, match="^witness: projector not in the domain"):
            lattice_report(two_blocks, trials=1, seed=1)


class TestBooleanReadOff:
    """A Boolean lattice is read, not sampled: its report is the one the sampling gives."""

    @pytest.mark.parametrize("rank_tol", [1e-6, 1e-8, 1e-12])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", BOOLEAN_INPUTS)
    def test_the_report_equals_the_sampled_oracle(self, name, seed, rank_tol):
        alg, tol = BOOLEAN_INPUTS[name](), Tolerance(rank_tol=rank_tol)
        report = lattice_report(alg, trials=40, seed=seed, tol=tol)
        assert report.boolean_lattice
        assert report == ambient_lattice_report(alg, 40, seed, tol)  # field by field
        assert (report.trials, report.seed) == (40, seed)
        if rank_tol == DEFAULT_TOL.rank_tol:  # the one-row public calls take the default
            assert report.orthomodular_pass_rate == reference_pass_rate(alg, trials=40, seed=seed)

    @pytest.mark.parametrize("name", BOOLEAN_INPUTS)
    def test_a_million_trials_draw_nothing(self, name, monkeypatch):
        alg = BOOLEAN_INPUTS[name]()

        def no_draws(*args):
            raise AssertionError("a Boolean lattice drew a sample")

        for fn in ("uniforms", "_spectral_cuts", "_run_blocks"):
            monkeypatch.setattr(logic_module, fn, no_draws)
        report = lattice_report(alg, trials=10**6, seed=1)
        assert report.orthomodular_pass_rate == 1.0
        assert report.distributive and report.counterexample is None
        assert (report.trials, report.seed) == (10**6, 1)


# algebras with a shape group of 1 x 1 blocks: classical, the three hybrid `lattice` bench
# inputs, an abelian sector of multiplicity 3, and a Haar-rotated hybrid
ONE_BY_ONE_INPUTS = {
    **{f"classical-{d}": (lambda d=d: close(build_classical(d))) for d in (3, 4)},
    "sectors-2+1x2": lambda: close(build_sectors([(2, 1), (1, 2)])),
    "sectors-1+2": lambda: close(build_sectors([(1, 1), (2, 1)])),
    "sectors-1+1+2": lambda: close(build_sectors([(1, 1), (1, 1), (2, 1)])),
    "sectors-1x3+2": lambda: close(build_sectors([(1, 3), (2, 1)])),
    "haar-sectors-2+1x2": lambda: close(rotated(build_sectors([(2, 1), (1, 2)]), seed=5)),
}
SPECTRAL_CUTS, RUN_BLOCKS = logic_module._spectral_cuts, logic_module._run_blocks


def eigh_cuts(alg, u, tol, least=1):
    """`_spectral_cuts` with the eigenvectors of every shape group from `eigh`, 1 x 1 blocks
    too, whose eigenvalues are checked to be the blocks' real parts."""
    cuts = SPECTRAL_CUTS(alg, u, tol, least)
    frame = block_decomposition(alg, tol).frame
    vectors = []
    for h, v in zip(_random_self_adjoint(frame, u[:, :2 * alg.dim]), cuts[0]):
        w, vectors_h = np.linalg.eigh(h)
        assert v is None if h.shape[-1] == 1 else np.array_equal(v, vectors_h)
        if h.shape[-1] == 1:
            assert np.array_equal(w, h[..., 0].real) and (vectors_h == 1).all()
        vectors.append(vectors_h)
    return (vectors, *cuts[1:])


def eigh_run_blocks(cuts, rows, starts, stops, tol):
    """`_run_blocks` with every block a `run_projectors` run of `eigh_cuts`' eigenvectors."""
    out = []
    for v, places in zip(*cuts[:2]):
        c, n = places.shape[1:]
        a, b = (np.count_nonzero(places[rows] < np.reshape(x, (-1, 1, 1)), axis=-1).ravel()
                for x in (starts, stops))
        k = (np.asarray(rows)[:, None] * c + np.arange(c)).ravel()
        out.append(run_projectors(v.reshape(-1, n, n), k, a, b, tol).reshape(len(rows), c, n, n))
    return out


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: the signs of zeros too."""
    return (a.dtype, a.shape) == (b.dtype, b.shape) and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestOneByOneGroups:
    """A shape group of 1 x 1 blocks is settled, not sampled: no `eigh`, `run_projectors` or law
    kernel, with the bits of the route that takes them."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name", ONE_BY_ONE_INPUTS)
    def test_draws_have_the_bits_of_eigh_and_run_projectors(self, name, seed, monkeypatch):
        alg, tol = ONE_BY_ONE_INPUTS[name](), DEFAULT_TOL
        assert any(n == 1 for n, *_ in block_decomposition(alg).frame.groups)
        u = uniforms(seed, STREAM_PROJECTOR, 16, logic_module._draw_width(alg))
        cuts = logic_module._spectral_cuts(alg, u, tol)
        # every row's runs [a, b), empty ones included, from a seeded choice of bounds
        places = len(cuts[2][0])
        bounds = np.sort(np.random.default_rng(seed).integers(0, places + 1, (2, 4 * len(u))), 0)
        rows = np.repeat(np.arange(len(u)), 4)
        got = logic_module._run_blocks(cuts, rows, *bounds, tol)
        want = eigh_run_blocks(eigh_cuts(alg, u, tol), rows, *bounds, tol)
        assert len(got) == len(want) and all(map(same_bits, got, want))
        projector, family = random_projector(alg, seed), random_orthogonal_family(alg, seed)
        with monkeypatch.context() as m:
            for module in (logic_module, states_module):
                m.setattr(module, "_spectral_cuts", eigh_cuts)
                m.setattr(module, "_run_blocks", eigh_run_blocks)
            assert same_bits(random_projector(alg, seed), projector)
            want_family = random_orthogonal_family(alg, seed)
        assert len(family) == len(want_family) and all(map(same_bits, family, want_family))

    def test_settled_laws_have_the_bits_of_the_law_kernels(self):
        # every nested pair p <= q of 0/1 blocks, as one (cases, 1, 1, 1) stack
        bits = np.array(list(itertools.product([0, 1], repeat=2)), dtype=complex)
        p, q = bits[bits[:, 0] <= bits[:, 1]].T.reshape(2, -1, 1, 1, 1)
        want = logic_module._orthomodularity(p, q, DEFAULT_TOL)[1]
        got = logic_module._settled_laws(p, q)
        assert len(got) == len(want) == 2 and all(map(same_bits, got, want))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ONE_BY_ONE_INPUTS)
    def test_the_report_equals_the_ambient_oracle(self, name, seed):
        alg = ONE_BY_ONE_INPUTS[name]()
        report, want = lattice_report(alg, 40, seed), ambient_lattice_report(alg, 40, seed)
        assert (report.orthomodular_pass_rate, report.distributive, report.trials) == (
            want.orthomodular_pass_rate, want.distributive, want.trials)
        for a, b in zip(report.counterexample or (), want.counterexample or (), strict=True):
            assert operator_norm(a - b) <= 1e-10
        assert (report.boolean_lattice, report.sector_count) == (
            want.boolean_lattice, want.sector_count)


def reference_random_projector(alg, u, tol=DEFAULT_TOL):
    """The one-draw sampler on one row of uniforms `u`: a loop over the sectors, an `eigh` per
    block, a cluster loop on the ambient spectrum; of n >= 2 clusters the top
    ``1 + floor(u (n - 1))``, of one ``floor(2 u)``, u the row's entry after the element's 2k;
    each sector keeps the columns of the kept clusters, mapped to M_d."""
    sectors, eig, spectrum = reference_spectrum(alg, u, tol)
    starts = reference_clusters(spectrum, tol)
    n = len(starts)
    cut = 1 + int(u[2 * alg.dim] * (n - 1)) if n > 1 else int(u[2 * alg.dim] * 2)
    return reference_run(sectors, eig, spectrum, starts[n - cut] if cut else len(spectrum),
                         len(spectrum))


def reference_nested_pair(alg, u, tol=DEFAULT_TOL):
    """The orthomodular pair on one row of uniforms `u` as a cluster loop: q the top ``2 +
    floor(u (n - 1))`` of n >= 2 clusters (of one, ``floor(2 u)``), u the entry after the
    element's 2k; p the top ``1 + floor(u' (k - 1))`` of q's k >= 2 clusters (else none), u'
    the next entry. Returns q, p and q's run below p's cut."""
    sectors, eig, spectrum = reference_spectrum(alg, u, tol)
    starts = reference_clusters(spectrum, tol) + [len(spectrum)]  # a count c starts at n - c
    n, k = len(starts) - 1, alg.dim
    kept_q = 2 + int(u[2 * k] * (n - 1)) if n > 1 else int(u[2 * k] * 2)
    kept_p = 1 + int(u[2 * k + 1] * (kept_q - 1)) if kept_q > 1 else 0
    q_at, p_at, end = starts[n - kept_q], starts[n - kept_p], len(spectrum)
    return tuple(reference_run(sectors, eig, spectrum, a, b)
                 for a, b in ((q_at, end), (p_at, end), (q_at, p_at)))


def draws(alg, seed, count, stream=STREAM_PROJECTOR):
    """Rows 0 .. count - 1 of `stream` under `seed`, drawn as one stack."""
    u = uniforms(seed, stream, count, logic_module._draw_width(alg))
    return drawn_projectors(alg, u)


def with_bounds(p):
    """The stack `p` after 0 and 1, the lattice's bounds, twice each."""
    d = p.shape[-1]
    bounds = [np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex)] * 2
    return np.concatenate([np.stack(bounds), p])


def svd_meet(*ps):
    """The meet formula with no bound rule, case by case: one thin SVD of the stacked
    complements (`null_space`)."""
    one = np.eye(ps[0].shape[-1])
    return np.stack([range_projector(null_space(a))
                     for a in np.concatenate([one - p for p in ps], axis=-2)])


def bound_identity(x, y, is_meet):
    """What a stacked `_meet` (``is_meet``) or `_join` settles the pair (x, y) to by identity,
    or None when neither is 0 or 1. For a meet 0 absorbs and 1 drops out, for a join the other
    way round; the join is ``1 - ((1 - x) ∧ (1 - y))``, so its kept operand comes back through
    two complements."""
    d = x.shape[-1]
    one, zero = np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex)
    ranks = [np.linalg.matrix_rank(m, hermitian=True) for m in (x, y)]
    absorbing, neutral = (0, d) if is_meet else (d, 0)
    if absorbing in ranks:
        return zero if is_meet else one
    if neutral not in ranks:
        return None
    left = [m for m, rank in zip((x, y), ranks) if rank != neutral]
    if not left:
        return one if is_meet else zero
    return left[0] if is_meet else one - (one - left[0])


def proper_draws(alg, seed, count):
    """The draws of `draws` that are neither 0 nor 1, as one stack."""
    d = alg.ambient_dim
    return np.stack([p for p in draws(alg, seed, count)
                     if 0 < np.linalg.matrix_rank(p, hermitian=True) < d])


# the benchmark's 7 `lattice` inputs (blocks unpermuted), then weyl 32 and M_2 (x) 1_16
LATTICE_INPUTS = {
    "classical-4": lambda: build_classical(4),
    "classical-3": lambda: build_classical(3),
    "weyl-3": lambda: build_weyl_finite(3),
    "weyl-4": lambda: build_weyl_finite(4),
    "sectors-2+1x2": lambda: build_sectors([(2, 1), (1, 2)]),
    "sectors-1+2": lambda: build_sectors([(1, 1), (2, 1)]),
    "sectors-1+1+2": lambda: build_sectors([(1, 1), (1, 1), (2, 1)]),
    "weyl-32": lambda: build_weyl_finite(32),
    "sectors-2x16": lambda: build_sectors([(2, 16)]),
}


def block_ranks(groups, stacks) -> np.ndarray:
    """The ranks of block sums: per shape group each block's rounded trace, m times, summed."""
    return sum(m * np.rint(np.trace(t, axis1=-2, axis2=-1).real).sum(axis=-1)
               for (_, m, _, _), t in zip(groups, stacks))


class TestProperDraws:
    """A drawn projector is proper (neither 0 nor 1) wherever its element has two clusters or
    more, and the orthomodular pair is strictly nested, so no trial holds by ``p = 0`` or
    ``p = q``."""

    @pytest.mark.parametrize("name", LATTICE_INPUTS)
    def test_every_orthomodular_pair_is_strictly_nested(self, name):
        # the 200 pairs of seed 1, drawn by `lattice_report`'s helper: the report reads a group
        # of 1 x 1 blocks (and a Boolean algebra) without a law kernel that could show them
        alg = close(LATTICE_INPUTS[name]())
        u = uniforms(1, STREAM_ORTHOMODULAR_Q, 200, logic_module._draw_width(alg) + 1)
        pairs = logic_module._lattice_draws(alg, u, DEFAULT_TOL)
        groups = block_decomposition(alg).frame.groups
        assert len(pairs) == len(groups)  # one pair stack per shape group
        rank_p, rank_q = block_ranks(groups, pairs)
        assert ((0 < rank_p) & (rank_p < rank_q)).all()
        for p, q in pairs:  # p <= q, block by block
            assert np.abs(q @ p - p).max() <= 1e-12


    @pytest.mark.parametrize("name", LATTICE_INPUTS)
    def test_no_drawn_projector_is_a_bound(self, name):
        # `random_projector`'s draw law on 200 rows: no input here draws an element of one
        # cluster, so every draw keeps 1 to n - 1 of its n clusters
        alg = close(LATTICE_INPUTS[name]())
        ranks = np.rint(np.trace(draws(alg, 1, 200), axis1=1, axis2=2).real)
        assert ((ranks > 0) & (ranks < alg.ambient_dim)).all()


class TestStackedKernels:
    """Each trial of a stacked kernel has the bits of its one-matrix call, except that a
    stacked meet or join settles a case with an operand 0 or 1 by identity."""

    @pytest.mark.parametrize("dim", [1, 3, 9, 24, 48])
    def test_states_equal_the_one_state_reference(self, dim):
        width = 2 * dim * dim
        u = uniforms(2**64 + 3, 21, 16, width)
        densities = states_module._random_states(dim, u)  # one read-only stack
        assert densities.shape == (len(u), dim, dim)
        assert not densities.flags.writeable
        for i, rho in enumerate(densities):
            assert np.array_equal(rho, reference_random_state(
                dim, reference_uniforms(2**64 + 3, 21, i, width)))
        assert states_module._random_states(dim, u[:0]).shape == (0, dim, dim)
        for seed in (0, 5):  # a public call is row 0 of its own stream
            want = states_module._random_states(dim, uniforms(seed, STREAM_STATE, 1, width))[0]
            state = random_state(dim, seed)
            assert np.array_equal(state.density, want)
            assert not state.density.flags.writeable

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_draws_equal_the_one_draw_reference(self, name):
        alg = kernel_algebra(name)
        width = logic_module._draw_width(alg)
        stack = draws(alg, 500, 40, stream=STREAM_STATE)
        assert stack.shape == (40, alg.ambient_dim, alg.ambient_dim)
        for i, p in enumerate(stack):
            u = reference_uniforms(500, STREAM_STATE, i, width)
            assert np.array_equal(p, reference_random_projector(alg, u))
        for seed in range(500, 510):  # a public call is row 0 of its own stream
            u = reference_uniforms(seed, STREAM_PROJECTOR, 0, width)
            assert np.array_equal(random_projector(alg, seed), reference_random_projector(alg, u))

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_meets_and_joins_equal_their_one_pair_calls(self, name):
        alg = kernel_algebra(name)
        p, q = with_bounds(draws(alg, 600, 30)), draws(alg, 700, 34)
        # the second half meets p with a projector above it, so every rank shows up
        above = logic_module._join(p, q, tol=DEFAULT_TOL)
        a, b = np.concatenate([p, p]), np.concatenate([q, above])
        meets = logic_module._meet(a, b, tol=DEFAULT_TOL)
        joins = logic_module._join(a, b, tol=DEFAULT_TOL)
        settled = []
        for x, y, m, j in zip(a, b, meets, joins):
            want_meet, want_join = bound_identity(x, y, True), bound_identity(x, y, False)
            settled.append(want_meet is not None)
            if want_meet is None:  # no bound operand: the one-pair call's bits
                assert want_join is None
                assert np.array_equal(m, meet(x, y))
                assert np.array_equal(j, join(x, y))
            else:  # the identity exactly; the one-pair SVD agrees within rounding
                assert np.array_equal(m, want_meet)
                assert np.array_equal(j, want_join)
                assert operator_norm(m - meet(x, y)) <= 1e-12
                assert operator_norm(j - join(x, y)) <= 1e-12
        assert set(settled) == {True, False}

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_a_two_projector_meet_keeps_the_pair_formula(self, name):
        # the variadic kernel stacks `[1 - p; 1 - q]` as the pair kernel did: same bits, where
        # neither operand is 0 or 1; a bound pair is its identity, the formula's within rounding
        alg = kernel_algebra(name)
        p, q = with_bounds(draws(alg, 600, 30)), draws(alg, 700, 34)
        want = svd_meet(p, q)
        settled = []
        for x, y, m, w in zip(p, q, logic_module._meet(p, q, tol=DEFAULT_TOL), want):
            identity = bound_identity(x, y, True)
            settled.append(identity is not None)
            if identity is None:
                assert np.array_equal(m, w)
            else:
                assert np.array_equal(m, identity)
                assert operator_norm(m - w) <= 1e-12
        assert set(settled) == {True, False}

    def test_a_stack_of_bound_cases_takes_no_svd(self, monkeypatch):
        x, y = proper_draws(kernel_algebra("weyl-3"), 600, 20)[:2]
        one, zero = np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex)
        a = np.stack([zero, one, x, one, zero, one])
        b = np.stack([x, y, one, one, zero, zero])

        def no_svd(*args, **kwargs):
            raise AssertionError("a bound case took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        meets = logic_module._meet(a, b, tol=DEFAULT_TOL)
        joins = logic_module._join(a, b, tol=DEFAULT_TOL)
        assert np.array_equal(meets, np.stack([zero, y, x, one, zero, zero]))
        x_join = one - (one - x)
        assert np.array_equal(joins, np.stack([x_join, one, one, one, zero, one]))

    @pytest.mark.parametrize("name", ["weyl-4", "sectors-2+1x2", "haar-sectors-2+1x2"])
    def test_the_svd_cases_of_a_mixed_stack_keep_their_bits_alone(self, name):
        alg = kernel_algebra(name)
        p, q = with_bounds(draws(alg, 600, 60)), draws(alg, 700, 64)
        meets = logic_module._meet(p, q, tol=DEFAULT_TOL)
        taken = [i for i in range(len(p)) if bound_identity(p[i], q[i], True) is None]
        assert 0 < len(taken) < len(p)
        for i in taken:
            assert np.array_equal(meets[i], logic_module._meet(p[i:i + 1], q[i:i + 1],
                                                               tol=DEFAULT_TOL)[0])

    def test_stacks_of_stacks(self):
        # `_distributivity` meets (3, N, d, d) stacks: each of the 3 is its own (N, d, d) call
        alg = kernel_algebra("weyl-3")
        p, q, r = draws(alg, 600, 90).reshape(3, 30, 3, 3)
        one = np.eye(3)
        a, b = np.stack([one - q, p, p]), np.stack([one - r, q, r])
        out = logic_module._meet(a, b, tol=DEFAULT_TOL)
        assert out.shape == (3, 30, 3, 3)
        for k in range(3):
            assert np.array_equal(out[k], logic_module._meet(a[k], b[k], tol=DEFAULT_TOL))

    def test_null_projectors_of_a_stack_of_stacks_equal_each_case_alone(self):
        # `_null_projectors` flattens the leading axes of an (..., n, d) stack for its kernel
        alg = kernel_algebra("haar-sectors-2+1x2")
        p, q = draws(alg, 600, 40).reshape(2, 2, 10, 4, 4)
        a = np.concatenate([np.eye(4) - p, np.eye(4) - q], axis=-2)  # (2, 10, 8, 4)
        out = logic_module._null_projectors(a, DEFAULT_TOL)
        assert out.shape == (2, 10, 4, 4)
        ranks = {np.linalg.matrix_rank(m, hermitian=True) for m in out.reshape(-1, 4, 4)}
        assert len(ranks) >= 2
        for got, case in zip(out.reshape(-1, 4, 4), a.reshape(-1, 8, 4)):
            assert np.array_equal(got, range_projector(null_space(case)))

    @pytest.mark.parametrize("name", ["weyl-4", "haar-sectors-2+1x2"])
    def test_a_one_among_proper_operands_keeps_the_three_operand_svd(self, name):
        alg = kernel_algebra(name)
        p, q = proper_draws(alg, 600, 40), proper_draws(alg, 700, 40)
        n = min(len(p), len(q))
        one = np.broadcast_to(np.eye(alg.ambient_dim, dtype=complex), (n,) + p.shape[1:])
        got = logic_module._meet(one, p[:n], q[:n], tol=DEFAULT_TOL)
        assert np.array_equal(got, svd_meet(one, p[:n], q[:n]))

    @pytest.mark.parametrize("name", ["weyl-4", "haar-sectors-2+1x2"])
    def test_a_unary_meet_of_a_proper_projector_keeps_its_svd(self, name):
        # the family joins of `states._orthoadditivity`: a one-member family is a unary join
        alg = kernel_algebra(name)
        p = proper_draws(alg, 600, 40)
        one = np.eye(alg.ambient_dim)
        assert np.array_equal(logic_module._meet(p, tol=DEFAULT_TOL), svd_meet(p))
        assert np.array_equal(logic_module._join(p, tol=DEFAULT_TOL), one - svd_meet(one - p))

    def test_empty_stacks(self, two_blocks):
        empty = draws(two_blocks, 4, 0)
        assert empty.shape == (0, 5, 5) and empty.dtype == complex
        for kernel in (logic_module._meet, logic_module._join):
            out = kernel(empty, empty, tol=DEFAULT_TOL)
            assert out.shape == (0, 5, 5) and out.dtype == complex
        assert operator_norm(empty).shape == (0,)
        report = lattice_report(two_blocks, trials=0, seed=4)  # M_2 ⊕ M_3: not distributive
        assert report.orthomodular_pass_rate == 1.0
        assert not report.distributive and report.counterexample is None

    def test_zero_trials_draw_nothing(self, two_blocks, monkeypatch):
        want = lattice_report_to_json(lattice_report(two_blocks, trials=0, seed=4))

        def no_draws(*args):
            raise AssertionError("zero trials drew a projector")

        monkeypatch.setattr(logic_module, "_random_projectors", no_draws)
        assert lattice_report_to_json(lattice_report(two_blocks, trials=0, seed=4)) == want

    def test_a_draw_cut_at_zero_is_the_zero_projector(self):
        # on the scalars the spectrum is one cluster, so the draw keeps it or not: floor(2 u),
        # u the row's entry after the span coefficient's two
        scalars = close(GeneratorSet(ambient_dim=3, generators=(np.eye(3),)))
        u = uniforms(0, STREAM_PROJECTOR, 20, logic_module._draw_width(scalars))
        stack = drawn_projectors(scalars, u)
        cuts = [int(2 * row[2]) for row in u]
        assert 0 < sum(cuts) < len(cuts)
        for p, cut in zip(stack, cuts):
            if cut:
                assert operator_norm(p - np.eye(3)) <= 1e-12
            else:
                assert np.array_equal(p, np.zeros((3, 3)))
