import numpy as np
import pytest

from oplattice import (
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
from oplattice import build_sectors, build_weyl_finite
from tests.conftest import line_projector, unit


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

    def test_unsymmetrized_power_approximates_meet(self, full4):
        for i in range(25):
            p = random_projector(full4, 3000 + i)
            q = random_projector(full4, 4000 + i)
            raw = meet_iterative(p, q, symmetrized=False)
            assert operator_norm(raw - meet(p, q)) <= 1e-6

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
