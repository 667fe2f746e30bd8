import tracemalloc

import numpy as np
import pytest

from oplattice import (
    AlgebraBasis,
    CenterDiagonalizationFailed,
    DimensionMismatch,
    GeneratorSet,
    NumericalError,
    Tolerance,
    ValidationError,
    baire_envelope,
    block_decomposition,
    build_classical,
    build_sectors,
    build_weyl_finite,
    center,
    close,
    commutant,
    contains,
    generator_commutant,
    generator_set_from_json,
    generator_set_to_json,
    hs_inner,
    is_commutative,
    lattice_report,
    operator_norm,
    same_span,
)
from oplattice import algebra as algebra_module
from tests.conftest import (
    haar_unitary,
    reference_close,
    reference_commutant,
    two_orthogonal_real_lines,
    unit,
)


def brute_commutant_nullity(mats, d):
    """Independent commutant dimension: elementwise constraint rows, C-order vec."""
    rows = []
    for a in mats:
        for i in range(d):
            for j in range(d):
                row = np.zeros(d * d, dtype=complex)
                for k in range(d):
                    row[i * d + k] += a[k, j]
                    row[k * d + j] -= a[i, k]
                rows.append(row)
    return d * d - np.linalg.matrix_rank(np.stack(rows))


class TestGeneratorSet:
    def test_requires_generators(self):
        with pytest.raises(ValidationError):
            GeneratorSet(ambient_dim=2, generators=())

    def test_requires_matching_dims(self):
        with pytest.raises(DimensionMismatch):
            GeneratorSet(ambient_dim=2, generators=(np.eye(3),))

    def test_json_round_trip(self):
        gens = build_weyl_finite(3)
        again = generator_set_from_json(generator_set_to_json(gens))
        assert again.ambient_dim == 3
        assert all(np.array_equal(a, b) for a, b in zip(gens.generators, again.generators))


class TestClose:
    def test_identity_generator_gives_scalars(self):
        alg = close(GeneratorSet(ambient_dim=2, generators=(np.eye(2),)))
        assert alg.dim == 1
        assert contains(alg, np.eye(2))

    def test_distinct_eigenvalues_span_diagonals(self):
        # powers of diag(1,2,3) span all diagonals: the Vandermonde matrix
        # over nodes 1,2,3 is invertible, verified by the rank of the words
        d = np.diag([1.0, 2.0, 3.0]).astype(complex)
        words = np.stack([np.linalg.matrix_power(d, k).ravel() for k in range(3)])
        assert np.linalg.matrix_rank(words) == 3
        alg = close(GeneratorSet(ambient_dim=3, generators=(d,)))
        assert alg.dim == 3
        for i in range(3):
            assert contains(alg, unit(3, i, i))

    def test_clock_shift_spans_everything(self, full3):
        u, v = build_weyl_finite(3).generators
        words = np.stack(
            [
                (np.linalg.matrix_power(u, a) @ np.linalg.matrix_power(v, b)).ravel()
                for a in range(3)
                for b in range(3)
            ]
        )
        assert np.linalg.matrix_rank(words) == 9
        assert full3.dim == 9
        for a in range(3):
            for b in range(3):
                assert contains(full3, np.linalg.matrix_power(u, a) @ np.linalg.matrix_power(v, b))

    def test_basis_is_hs_orthonormal(self, full3):
        k = full3.dim
        gram = np.array(
            [[hs_inner(full3.basis[i], full3.basis[j]) for j in range(k)] for i in range(k)]
        )
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12

    def test_span_is_star_and_product_closed(self, two_blocks):
        for a in two_blocks.basis:
            assert contains(two_blocks, a.conj().T)
        rng = np.random.default_rng(2)
        for _ in range(20):
            i, j = rng.integers(0, two_blocks.dim, size=2)
            assert contains(two_blocks, two_blocks.basis[i] @ two_blocks.basis[j])

    def test_generator_order_independent(self):
        gens = build_weyl_finite(3).generators
        a = close(GeneratorSet(ambient_dim=3, generators=gens))
        b = close(GeneratorSet(ambient_dim=3, generators=gens[::-1]))
        assert same_span(a, b)

    def test_tiny_rank_tol_stops_at_m_d(self):
        # rounding noise passes a 1e-300 cutoff; the search still ends at d^2 directions
        assert close(build_weyl_finite(3), Tolerance(rank_tol=1e-300)).dim == 9

    @pytest.mark.parametrize(
        "gens, dim",
        [(build_sectors([(2, 1), (1, 2)]), 5), (build_weyl_finite(3), 9), (build_weyl_finite(4), 16)],
        ids=["sectors-2+1x2", "weyl-3", "weyl-4"],
    )
    def test_tiny_rank_tol_accepts_no_rounding_noise(self, gens, dim):
        alg = close(gens, Tolerance(rank_tol=1e-300))
        assert alg.dim == dim
        flat = alg.basis.reshape(alg.dim, -1)
        assert np.max(np.abs(flat.conj() @ flat.T - np.eye(alg.dim))) <= 1e-12

    def test_dimension_never_exceeds_ambient_square(self, full4, diag8, two_blocks):
        for alg in (full4, diag8, two_blocks):
            assert alg.dim <= alg.ambient_dim**2
            assert commutant(alg).dim >= 1

    def test_rounding_noise_in_a_vanishing_product_is_not_a_direction(self):
        p, q = two_orthogonal_real_lines()
        alg = close(GeneratorSet(ambient_dim=3, generators=(p, q)))
        assert alg.dim == 3
        assert is_commutative(alg)


def random_unitary(kind, d, rng):
    if kind == "haar":
        return haar_unitary(d, rng)
    if kind == "phase":
        return np.diag(np.exp(2j * np.pi * rng.random(d)))
    return np.eye(d, dtype=complex)[rng.permutation(d)]


def sector_blocks(alg):
    return sorted((s.block_size, s.multiplicity) for s in block_decomposition(alg).sectors)


BUILDERS = {
    "classical-4": lambda: build_classical(4),
    "weyl-3": lambda: build_weyl_finite(3),
    "sectors-2+3": lambda: build_sectors([(2, 1), (3, 1)]),
    "sectors-2x2+1": lambda: build_sectors([(2, 2), (1, 1)]),
}
ROTATIONS = ["haar", "phase", "permutation"]


def conjugated_generators(gens, u):
    return GeneratorSet(
        ambient_dim=gens.ambient_dim, generators=tuple(u @ g @ u.conj().T for g in gens.generators)
    )


class TestUnitaryCovariance:
    """close(U G U*) must be U close(G) U*: same dimension, same sector blocks."""

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("kind", ROTATIONS)
    def test_conjugated_generators_close_to_the_conjugated_algebra(self, build, kind):
        gens = build()
        d = gens.ambient_dim
        u = random_unitary(kind, d, np.random.default_rng(7))
        rotated = close(conjugated_generators(gens, u))
        alg = close(gens)
        assert rotated.dim == alg.dim
        assert sector_blocks(rotated) == sector_blocks(alg)
        # the structural verdict (every block of size 1) against the pairwise reference
        assert lattice_report(rotated, 0, 0).boolean_lattice == is_commutative(rotated)
        conjugated = AlgebraBasis(ambient_dim=d, basis=[u @ b @ u.conj().T for b in alg.basis])
        assert same_span(rotated, conjugated)


def assert_orthonormal(alg):
    flat = alg.basis.reshape(alg.dim, -1)
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(alg.dim))) <= 1e-12


def assert_matches_reference(gens):
    alg, ref = close(gens), reference_close(gens)
    assert alg.dim == ref.dim
    assert same_span(alg, ref)
    assert_orthonormal(alg)
    return alg


class TestCloseMatchesReference:
    """`close` (BLAS Gram-Schmidt on a preallocated basis) against the plain loop."""

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("kind", ["none", *ROTATIONS])
    def test_builders_and_their_rotations(self, build, kind):
        gens = build()
        u = np.eye(gens.ambient_dim)
        if kind != "none":
            u = random_unitary(kind, gens.ambient_dim, np.random.default_rng(7))
        assert_matches_reference(conjugated_generators(gens, u))

    def test_two_orthogonal_real_lines(self):
        assert assert_matches_reference(GeneratorSet(3, two_orthogonal_real_lines())).dim == 3

    def test_classical_16(self):
        assert assert_matches_reference(build_classical(16)).dim == 16

    def test_full_m12_fills_the_preallocated_basis(self):
        assert assert_matches_reference(build_weyl_finite(12)).dim == 144

    def test_a_round_of_more_candidates_than_one_block_holds(self):
        # weyl 5's third round: 8 new words times 4 multipliers, 32 candidates against blocks
        # of at most d^2 = 25 rows, so the round runs as two blocks
        assert assert_matches_reference(build_weyl_finite(5)).dim == 25

    def test_more_multipliers_than_one_block_holds(self):
        # three Pauli matrices and their adjoints: 6 candidates per frontier row, d^2 = 4
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        assert assert_matches_reference(GeneratorSet(2, (x, y, z))).dim == 4

    def test_duplicates_inside_one_block(self):
        # ZX = w XZ: both words come up in the second round, whose 5 x 4 candidates are one
        # block of at most 64 rows
        x, z = build_weyl_finite(8).generators
        assert operator_norm(z @ x - np.exp(2j * np.pi / 8) * x @ z) <= 1e-12
        assert assert_matches_reference(build_weyl_finite(8)).dim == 64

    def test_dependent_seeds(self):
        p = unit(3, 0, 0) + unit(3, 1, 1)
        q = unit(3, 0, 1) + unit(3, 1, 0)  # hermitian, so its adjoint repeats it
        gens = GeneratorSet(3, (p, np.eye(3) - p, 2.0 * p, q))
        assert assert_matches_reference(gens).dim == 3  # e33, p and q

    def test_memory_stays_within_three_basis_arrays(self):
        gens = build_weyl_finite(24)
        basis_bytes = 576 * 576 * 16
        tracemalloc.start()
        try:
            alg = close(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alg.dim == 576
        assert peak <= 3 * basis_bytes


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("kind", ["none", *ROTATIONS])
class TestCommutantMatchesReference:
    """The decomposition and eigenbasis routes against the full Kronecker system."""

    @pytest.fixture
    def case(self, build, kind):
        gens = build()
        if kind != "none":
            u = random_unitary(kind, gens.ambient_dim, np.random.default_rng(7))
            gens = conjugated_generators(gens, u)
        alg = close(gens)
        return gens, alg, reference_commutant(alg.basis, alg.ambient_dim)

    def test_commutant(self, case):
        _, alg, ref = case
        com = commutant(alg)
        assert same_span(com, ref)
        assert_orthonormal(com)

    def test_generator_commutant(self, case):
        gens, _, ref = case
        com = generator_commutant(gens)
        assert same_span(com, ref)
        assert_orthonormal(com)

    def test_baire_envelope(self, case):
        _, alg, ref = case
        env = baire_envelope(alg)
        assert same_span(env, reference_commutant(ref.basis, alg.ambient_dim))
        assert same_span(env, alg)
        assert_orthonormal(env)


class TestGeneratorCommutantCertificate:
    def test_a_corrupted_kernel_raises_with_its_residual(self, monkeypatch):
        def corrupted(m, tol):
            kernel = np.zeros((m.shape[1], 1), dtype=complex)
            kernel[1] = 1.0  # an off-diagonal unit inside one cluster: commutes with nothing
            return kernel

        monkeypatch.setattr(algebra_module, "null_space", corrupted)
        with pytest.raises(NumericalError, match="commutant misses by") as got:
            generator_commutant(build_sectors([(2, 2)]))
        assert got.value.residual > 0.1


class TestSameSpan:
    def test_a_rotated_basis_of_the_same_span_is_the_same_algebra(self, two_blocks):
        u = haar_unitary(two_blocks.dim, np.random.default_rng(3))
        mixed = AlgebraBasis(5, np.tensordot(u, two_blocks.basis, axes=(1, 0)))
        assert same_span(two_blocks, mixed)

    def test_equal_dimensions_with_one_direction_apart_differ(self):
        e11 = close(GeneratorSet(ambient_dim=3, generators=(unit(3, 0, 0),)))
        e22 = close(GeneratorSet(ambient_dim=3, generators=(unit(3, 1, 1),)))
        assert e11.dim == e22.dim == 2
        assert not same_span(e11, e22)
        assert not same_span(e22, e11)


class TestCommutant:
    def test_generator_commutant_matches_closure_commutant(self):
        for gens in (build_weyl_finite(3), build_sectors([(2, 1), (1, 2)]), build_classical(4)):
            assert same_span(generator_commutant(gens), commutant(close(gens)))

    def test_full_matrix_algebra_has_scalar_commutant(self, full2):
        units = [unit(2, i, j) for i in range(2) for j in range(2)]
        assert brute_commutant_nullity(units, 2) == 1
        com = commutant(full2)
        assert com.dim == 1
        assert contains(com, np.eye(2))

    def test_diagonal_algebra_is_its_own_commutant(self, diag3):
        diag_units = [unit(3, i, i) for i in range(3)]
        assert brute_commutant_nullity(diag_units, 3) == 3
        com = commutant(diag3)
        assert com.dim == 3
        assert same_span(com, diag3)

    def test_scalars_commute_with_everything(self):
        scalars = close(GeneratorSet(ambient_dim=2, generators=(np.eye(2),)))
        com = commutant(scalars)
        assert brute_commutant_nullity([np.eye(2, dtype=complex)], 2) == 4
        assert com.dim == 4

    def test_commutant_elements_commute(self, two_blocks):
        com = commutant(two_blocks)
        for x in com.basis:
            for a in two_blocks.basis:
                assert operator_norm(x @ a - a @ x) <= 1e-10

    def test_double_commutant_contains_algebra(self, full4, diag8, two_blocks):
        for alg in (full4, diag8, two_blocks):
            env = commutant(commutant(alg))
            for a in alg.basis:
                assert contains(env, a)

    def test_triple_commutant_equals_single(self, two_blocks, diag3):
        for alg in (two_blocks, diag3):
            once = commutant(alg)
            thrice = commutant(commutant(once))
            assert same_span(once, thrice)


class TestBaireEnvelope:
    def test_full_algebra_fixed(self, full3):
        assert same_span(baire_envelope(full3), full3)

    def test_unit_and_rank_one_projector(self):
        # closure of {e11} is span{1, e11}; its commutant is the diagonal
        # algebra and the bicommutant returns the same 2-dim span
        alg = close(GeneratorSet(ambient_dim=2, generators=(unit(2, 0, 0),)))
        assert alg.dim == 2
        env = baire_envelope(alg)
        assert env.dim == 2
        assert same_span(env, alg)

    def test_rank_one_projector_in_m3(self):
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        p = np.outer(v, v).astype(complex)
        alg = close(GeneratorSet(ambient_dim=3, generators=(p,)))
        assert alg.dim == 2
        env = baire_envelope(alg)
        assert same_span(env, alg)
        assert contains(env, p)
        assert contains(env, np.eye(3) - p)

    def test_idempotent(self, two_blocks):
        env = baire_envelope(two_blocks)
        assert same_span(baire_envelope(env), env)

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("rotation", [0, 1])
    def test_a_certified_algebra_is_its_own_envelope(self, build, rotation):
        gens = build()
        u = haar_unitary(gens.ambient_dim, np.random.default_rng([11, rotation]))
        alg = close(conjugated_generators(gens, u))
        assert baire_envelope(alg) is alg

    def test_a_span_that_is_no_algebra_is_refused(self):
        # the unit and the weyl 3 generators without their products: 5 of the 9 dimensions
        gens = build_weyl_finite(3).generators
        words = [np.eye(3), *gens, *(g.conj().T for g in gens)]
        q, _ = np.linalg.qr(np.stack([w.ravel() for w in words], axis=1))
        with pytest.raises(CenterDiagonalizationFailed):
            baire_envelope(AlgebraBasis(ambient_dim=3, basis=q.T.reshape(-1, 3, 3)))


class TestCenter:
    def test_full_matrix_algebra(self, full3):
        assert center(full3).dim == 1

    def test_abelian_algebra_is_its_own_center(self, diag3):
        ctr = center(diag3)
        assert same_span(ctr, diag3)

    def test_two_block_algebra(self):
        # M_2 + M_2 inside M_4: the center is spanned by the block identities
        gens = []
        for g in build_weyl_finite(2).generators:
            top = np.zeros((4, 4), dtype=complex)
            top[:2, :2] = g
            bottom = np.zeros((4, 4), dtype=complex)
            bottom[2:, 2:] = g
            gens += [top, bottom]
        alg = close(GeneratorSet(ambient_dim=4, generators=tuple(gens)))
        assert alg.dim == 8
        ctr = center(alg)
        assert ctr.dim == 2
        assert contains(ctr, np.diag([1.0, 1.0, 0.0, 0.0]))
        assert contains(ctr, np.diag([0.0, 0.0, 1.0, 1.0]))

    def test_center_is_commutative_and_unital(self, two_blocks):
        ctr = center(two_blocks)
        assert is_commutative(ctr)
        assert contains(ctr, np.eye(5))


class TestIsCommutative:
    def test_diagonal(self, diag3):
        assert is_commutative(diag3)

    def test_full(self, full2):
        assert not is_commutative(full2)

    def test_clock_shift_4(self, full4):
        assert not is_commutative(full4)


class TestContains:
    def test_diagonal_matrix_in_diagonal_algebra(self, diag3):
        assert contains(diag3, np.diag([5.0, -1.0, 2.5]))

    def test_e11_not_scalar(self):
        scalars = close(GeneratorSet(ambient_dim=2, generators=(np.eye(2),)))
        assert not contains(scalars, unit(2, 0, 0))

    def test_dimension_mismatch(self, diag3):
        with pytest.raises(DimensionMismatch):
            contains(diag3, np.eye(2))
        with pytest.raises(DimensionMismatch):
            contains(diag3, np.zeros((2, 2, 2)))

    def test_stack_gives_one_verdict_per_matrix(self, two_blocks):
        mats = [two_blocks.basis[0], np.eye(5), unit(5, 0, 4), 3.0 * unit(5, 1, 0), unit(5, 2, 1)]
        verdicts = contains(two_blocks, np.stack(mats))
        assert verdicts.tolist() == [contains(two_blocks, m) for m in mats]
        assert verdicts.tolist() == [True, True, False, True, False]

    def test_generated_von_neumann_algebra_contains_meets(self, two_blocks):
        # meets of projectors of a bicommutant-stable algebra stay inside it
        from oplattice import meet, random_projector

        v = np.array([1.0, 2.0, 2.0]) / 3.0
        p = np.outer(v, v).astype(complex)
        env = baire_envelope(close(GeneratorSet(ambient_dim=3, generators=(p,))))
        assert contains(env, meet(p, np.eye(3) - p))
        assert contains(env, meet(p, np.eye(3)))
        for i in range(10):
            a = random_projector(two_blocks, 7000 + i)
            b = random_projector(two_blocks, 7100 + i)
            assert contains(two_blocks, meet(a, b))


class TestAlgebraBasisValue:
    def test_basis_is_read_only(self, diag3):
        with pytest.raises(ValueError):
            diag3.basis[0, 0, 0] = 1.0

    def test_shape_validated(self):
        with pytest.raises(DimensionMismatch):
            AlgebraBasis(ambient_dim=3, basis=np.zeros((1, 2, 2)))
