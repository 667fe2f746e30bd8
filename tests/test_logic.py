import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    ConvergenceFailed,
    GeneratorSet,
    LatticeReport,
    PreconditionFailed,
    Tolerance,
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
    meet,
    meet_iterative,
    operator_norm,
    orthocomplement,
    orthogonal,
    orthomodularity_residual,
    random_projector,
)
from oplattice import NotProjector, build_sectors, build_weyl_finite
from oplattice import logic as logic_module
from oplattice import states as states_module
from oplattice.numerics import dumps, range_projector
from oplattice.seeding import (
    STREAM_DISTRIBUTIVE_P,
    STREAM_DISTRIBUTIVE_Q,
    STREAM_DISTRIBUTIVE_R,
    STREAM_ORTHOMODULAR_Q,
    STREAM_ORTHOMODULAR_R,
    derive_seed,
)
from tests.conftest import (
    INVALID_PROJECTORS,
    KERNEL_ALGEBRAS,
    NON_SQUARE,
    kernel_algebra,
    line_projector,
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
        with pytest.raises(ConvergenceFailed):
            meet_iterative(p, q, Tolerance(max_iter=100))


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
        monkeypatch.setattr(logic_module, "distributivity_residual", lambda p, q, r, tol: 1e-6)
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

    def test_counterexample_presence_is_validated(self):
        with pytest.raises(ValueError):
            LatticeReport(
                orthomodular_pass_rate=1.0,
                distributive=True,
                counterexample=(np.eye(2),) * 3,
                boolean_lattice=True,
                atomic=True,
                hilbertian=False,
                factor=False,
                sector_count=2,
                trials=1,
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


def reference_lattice_report(alg, trials, seed):
    """`lattice_report`'s sampling, rebuilt from the public validated calls."""
    om = []
    for i in range(trials):
        q = random_projector(alg, derive_seed(seed, STREAM_ORTHOMODULAR_Q, i))
        r = random_projector(alg, derive_seed(seed, STREAM_ORTHOMODULAR_R, i))
        om.append(orthomodularity_residual(meet(r, q), q) <= DEFAULT_TOL.law_tol)
    counterexample = None
    for i in range(trials):
        p, q, r = (random_projector(alg, derive_seed(seed, stream, i)) for stream in
                   (STREAM_DISTRIBUTIVE_P, STREAM_DISTRIBUTIVE_Q, STREAM_DISTRIBUTIVE_R))
        if distributivity_residual(p, q, r) > DEFAULT_TOL.law_tol and counterexample is None:
            counterexample = (p, q, r)
    return sum(om) / trials, counterexample


class TestStackedChecks:
    @pytest.mark.parametrize("name", ["full2", "full3", "two_blocks"])
    def test_report_equals_the_validated_reference(self, name, request):
        alg = request.getfixturevalue(name)
        report = lattice_report(alg, trials=40, seed=3)
        pass_rate, counterexample = reference_lattice_report(alg, trials=40, seed=3)
        assert report.orthomodular_pass_rate == pass_rate
        assert report.distributive == (counterexample is None)
        assert (report.counterexample is None) == (counterexample is None)
        for got, want in zip(report.counterexample or (), counterexample or ()):
            assert np.array_equal(got, want)

    def test_a_non_projector_in_a_trial_is_caught(self, full2, monkeypatch):
        original = logic_module._random_projectors
        calls = []

        def skewed(alg, seeds, tol=DEFAULT_TOL):
            calls.append(seeds)
            ps = original(alg, seeds, tol)
            if len(calls) == 1:  # the orthomodular q draws; skew trial 3's
                ps[3] = ps[3] + 1e-6 * unit(2, 0, 1)
            return ps

        monkeypatch.setattr(logic_module, "_random_projectors", skewed)
        with pytest.raises(NotProjector, match="orthomodular trial 3: .*self-adjoint"):
            lattice_report(full2, trials=5, seed=1)

    def test_labels_are_made_only_for_a_failure(self):
        stack = np.stack([unit(2, 0, 0), unit(2, 1, 1), 0.5 * np.eye(2, dtype=complex)])

        def never(i):
            raise AssertionError("a passing stack made a label")

        logic_module._ensure_projectors(stack[:2], never, DEFAULT_TOL)
        made = []
        with pytest.raises(NotProjector, match="^trial 2: stack entry 2 not idempotent"):
            logic_module._ensure_projectors(stack, lambda i: made.append(i) or f"trial {i}",
                                            DEFAULT_TOL)
        assert made == [2]
        # the label and the message name the same entry: entry 1 breaks idempotence only,
        # entry 3 self-adjointness only
        p = unit(2, 0, 0)
        stack = np.stack([p, 0.5 * np.eye(2, dtype=complex), p, p + unit(2, 0, 1)])
        with pytest.raises(NotProjector, match="^trial 1: stack entry 1 not idempotent"):
            logic_module._ensure_projectors(stack, lambda i: f"trial {i}", DEFAULT_TOL)

    def test_the_check_survives_optimized_python(self):
        # under -O an `assert` would vanish; the stacked check must not
        code = (
            "import numpy as np, oplattice as op\n"
            "from oplattice import logic\n"
            "alg = op.close(op.build_weyl_finite(2))\n"
            "logic._meet = lambda p, q, tol: np.broadcast_to(np.diag([0.5, 0.5]), p.shape) + 0j\n"
            "try:\n"
            "    op.lattice_report(alg, trials=2, seed=1)\n"
            "except op.NotProjector as exc:\n"
            "    print(exc)\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(logic_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "orthomodular trial 0" in done.stdout


def reference_random_projector(alg, seed, tol=DEFAULT_TOL):
    """The one-draw sampler the stacked draws replaced: `tensordot`, `eigh`, a cluster loop."""
    rng = np.random.default_rng(int(seed))
    k, d = alg.dim, alg.ambient_dim
    x = np.tensordot(rng.standard_normal(k) + 1j * rng.standard_normal(k), alg.basis, axes=(0, 0))
    w, v = np.linalg.eigh((x + x.conj().T) / 2.0)
    threshold = tol.rank_tol * max(1.0, float(w[-1] - w[0]))
    starts = [0] + [i for i in range(1, d) if w[i] - w[i - 1] > threshold]
    cut = int(rng.integers(0, len(starts) + 1))
    if cut == 0:
        return np.zeros((d, d), dtype=complex)
    return range_projector(v[:, starts[len(starts) - cut] :])


def reference_random_state(dim, seed):
    """The one-state sampler the stacked draw replaced: two ``d x d`` draws, one product."""
    rng = np.random.default_rng(int(seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestStackedKernels:
    """Each trial of a stacked kernel has the bits of its one-matrix call."""

    @pytest.mark.parametrize("dim", [1, 3, 9, 24, 48])
    def test_states_equal_the_one_state_reference(self, dim):
        seeds = [0, 1, 2**32, 2**64 - 1, *range(900, 912)]
        states = states_module._random_states(dim, seeds)
        assert len(states) == len(seeds)
        for state, seed in zip(states, seeds):
            assert np.array_equal(state.density, reference_random_state(dim, seed))
            assert not state.density.flags.writeable
        assert states_module._random_states(dim, []) == []

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_draws_equal_the_one_draw_reference(self, name):
        alg = kernel_algebra(name)
        seeds = range(500, 540)
        stack = logic_module._random_projectors(alg, seeds, DEFAULT_TOL)
        assert stack.shape == (40, alg.ambient_dim, alg.ambient_dim)
        for p, seed in zip(stack, seeds):
            assert np.array_equal(p, reference_random_projector(alg, seed))
            assert np.array_equal(p, random_projector(alg, seed))

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_meets_and_joins_equal_their_one_pair_calls(self, name):
        alg = kernel_algebra(name)
        p = logic_module._random_projectors(alg, range(600, 630), DEFAULT_TOL)
        q = logic_module._random_projectors(alg, range(700, 730), DEFAULT_TOL)
        # the second half meets p with a projector above it, so every rank shows up
        a, b = np.concatenate([p, p]), np.concatenate([q, logic_module._join(p, q, DEFAULT_TOL)])
        meets = logic_module._meet(a, b, DEFAULT_TOL)
        joins = logic_module._join(a, b, DEFAULT_TOL)
        for x, y, m, j in zip(a, b, meets, joins):
            assert np.array_equal(m, meet(x, y))
            assert np.array_equal(j, join(x, y))

    def test_empty_stacks(self, two_blocks):
        empty = logic_module._random_projectors(two_blocks, [], DEFAULT_TOL)
        assert empty.shape == (0, 5, 5) and empty.dtype == complex
        for kernel in (logic_module._meet, logic_module._join):
            out = kernel(empty, empty, DEFAULT_TOL)
            assert out.shape == (0, 5, 5) and out.dtype == complex
        assert operator_norm(empty).shape == (0,)
        report = lattice_report(two_blocks, trials=0, seed=4)
        assert report.orthomodular_pass_rate == 1.0
        assert report.distributive and report.counterexample is None

    def test_zero_trials_draw_nothing(self, two_blocks, monkeypatch):
        want = lattice_report_to_json(lattice_report(two_blocks, trials=0, seed=4))

        def no_draws(*args):
            raise AssertionError("zero trials drew a projector")

        monkeypatch.setattr(logic_module, "_random_projectors", no_draws)
        assert lattice_report_to_json(lattice_report(two_blocks, trials=0, seed=4)) == want

    def test_a_draw_cut_at_zero_is_the_zero_projector(self):
        # on the scalars the spectrum is one cluster, so the draw keeps it or not
        scalars = close(GeneratorSet(ambient_dim=3, generators=(np.eye(3),)))
        seeds = range(20)
        stack = logic_module._random_projectors(scalars, seeds, DEFAULT_TOL)
        cuts = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rng.standard_normal(1), rng.standard_normal(1)  # the span coefficient
            cuts.append(int(rng.integers(0, 2)))
        assert 0 < sum(cuts) < len(cuts)
        for p, cut in zip(stack, cuts):
            if cut:
                assert operator_norm(p - np.eye(3)) <= 1e-12
            else:
                assert np.array_equal(p, np.zeros((3, 3)))
