import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    CenterDiagonalizationFailed,
    GeneratorSet,
    NotInAlgebra,
    NotProjector,
    NumericalError,
    ReducedRankNotDivisible,
    SectorDimensionMismatch,
    TensorFormDefect,
    Tolerance,
    block_decomposition,
    build_sectors,
    build_weyl_finite,
    close,
    contains,
    equivalence_isometry,
    is_factor,
    lattice_report,
    meet,
    minimal_central_projectors,
    mvn_dimension,
    operator_norm,
    orthocomplement,
    projectors_equivalent,
    random_projector,
)
from oplattice import sectors as sectors_module
from tests.conftest import haar_unitary, unit


@pytest.fixture(scope="module")
def doubled_m2():
    """M_2 acting with multiplicity two: every generator embedded as g + g."""
    gens = []
    for g in build_weyl_finite(2).generators:
        big = np.zeros((4, 4), dtype=complex)
        big[:2, :2] = g
        big[2:, 2:] = g
        gens.append(big)
    return close(GeneratorSet(ambient_dim=4, generators=tuple(gens)))


def orthogonal_projector_pair(alg, seed):
    p = random_projector(alg, seed)
    q = meet(random_projector(alg, seed + 7919), orthocomplement(p))
    return p, q


class TestMinimalCentralProjectors:
    def test_factor_has_only_identity(self, full3):
        projs = minimal_central_projectors(full3)
        assert len(projs) == 1
        assert operator_norm(projs[0] - np.eye(3)) <= 1e-10

    def test_two_block_identities(self, two_blocks):
        projs = minimal_central_projectors(two_blocks)
        assert len(projs) == 2
        total = sum(projs)
        assert operator_norm(total - np.eye(5)) <= 1e-10
        ranks = sorted(int(round(np.trace(p).real)) for p in projs)
        assert ranks == [2, 3]

    def test_maximal_abelian_gives_coordinate_projectors(self, diag3):
        projs = minimal_central_projectors(diag3)
        assert len(projs) == 3
        for p in projs:
            assert int(round(np.trace(p).real)) == 1

    def test_pairwise_orthogonal(self, two_blocks):
        projs = minimal_central_projectors(two_blocks)
        assert operator_norm(projs[0] @ projs[1]) <= 1e-10

    def test_degenerate_tolerance_raises(self, diag3):
        # with a gap threshold this coarse, three clusters can never separate
        with pytest.raises(CenterDiagonalizationFailed):
            minimal_central_projectors(diag3, Tolerance(rank_tol=0.999))


class TestBlockDecomposition:
    def test_full_matrix_algebra(self, full4):
        decomp = block_decomposition(full4)
        assert [(s.block_size, s.multiplicity) for s in decomp.sectors] == [(4, 1)]

    def test_scalars(self):
        alg = close(GeneratorSet(ambient_dim=3, generators=(np.eye(3),)))
        decomp = block_decomposition(alg)
        assert [(s.block_size, s.multiplicity) for s in decomp.sectors] == [(1, 3)]

    def test_multiplicity_two(self, doubled_m2):
        decomp = block_decomposition(doubled_m2)
        assert [(s.block_size, s.multiplicity) for s in decomp.sectors] == [(2, 2)]

    def test_sizes_fill_ambient_dimension(self, two_blocks, doubled_m2, diag8):
        for alg in (two_blocks, doubled_m2, diag8):
            decomp = block_decomposition(alg)
            assert sum(s.block_size * s.multiplicity for s in decomp.sectors) == alg.ambient_dim

    def test_isometries_have_orthonormal_columns(self, two_blocks):
        for s in block_decomposition(two_blocks).sectors:
            cols = s.isometry.shape[1]
            assert cols == s.block_size * s.multiplicity
            gram = s.isometry.conj().T @ s.isometry
            assert operator_norm(gram - np.eye(cols)) <= 1e-10

    def test_transported_blocks_respan_the_algebra(self, two_blocks, doubled_m2):
        for alg in (two_blocks, doubled_m2):
            decomp = block_decomposition(alg)
            transported = []
            for s in decomp.sectors:
                n, m = s.block_size, s.multiplicity
                for j in range(n):
                    for k in range(n):
                        mat = s.isometry @ np.kron(unit(n, j, k), np.eye(m)) @ s.isometry.conj().T
                        transported.append(mat)
                        assert contains(alg, mat)
            stacked = np.stack([t.ravel() for t in transported])
            assert np.linalg.matrix_rank(stacked) == alg.dim

    def test_factor_iff_single_sector(self, full4, diag3, two_blocks, doubled_m2):
        for alg in (full4, diag3, two_blocks, doubled_m2):
            decomp = block_decomposition(alg)
            assert is_factor(alg) == (len(decomp.sectors) == 1)


class TestIsFactor:
    def test_full_m2(self, full2):
        assert is_factor(full2)

    def test_two_blocks(self, two_blocks):
        assert not is_factor(two_blocks)

    def test_diagonal(self, diag2):
        assert not is_factor(diag2)


class TestProjectorEquivalence:
    def test_coordinate_lines_equivalent_in_full_algebra(self, full3):
        # the shift unit e21 is an explicit isometry between the two lines
        v = unit(3, 1, 0)
        assert np.allclose(v.conj().T @ v, unit(3, 0, 0))
        assert np.allclose(v @ v.conj().T, unit(3, 1, 1))
        assert projectors_equivalent(full3, unit(3, 0, 0), unit(3, 1, 1))

    def test_rank_mismatch_never_equivalent(self, full3):
        assert not projectors_equivalent(full3, unit(3, 0, 0), np.diag([1.0, 1.0, 0.0]))

    def test_diagonal_algebra_separates_coordinates(self, diag2):
        # any diagonal V has V*V and VV* supported on the same coordinates:
        # sweep a dense grid of diagonal candidates as the brute-force check
        e1, e2 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        for phase in np.linspace(0, 2 * np.pi, 37):
            v = np.diag([np.exp(1j * phase), 0.0])
            assert np.allclose(v.conj().T @ v, e1)
            assert not np.allclose(v @ v.conj().T, e2)
        assert not projectors_equivalent(diag2, e1, e2)
        assert equivalence_isometry(diag2, e1, e2) is None

    def test_requires_membership(self, diag3):
        off_diagonal = 0.5 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(NotInAlgebra):
            projectors_equivalent(diag3, off_diagonal, unit(3, 0, 0))

    def test_requires_projector(self, full3):
        with pytest.raises(NotProjector):
            projectors_equivalent(full3, np.diag([0.5, 0, 0]), unit(3, 0, 0))

    def test_verdict_matches_explicit_isometry(self, full4, two_blocks, diag3):
        for alg in (full4, two_blocks, diag3):
            decomp = block_decomposition(alg)
            for i in range(60):
                p = random_projector(alg, 5000 + i)
                q = random_projector(alg, 9000 + i)
                verdict = projectors_equivalent(alg, p, q)
                witness = equivalence_isometry(alg, p, q)
                assert verdict == (witness is not None)
                if witness is not None:
                    assert operator_norm(witness.conj().T @ witness - p) <= 1e-8
                    assert operator_norm(witness @ witness.conj().T - q) <= 1e-8
                    assert contains(alg, witness)


class TestMvnDimension:
    def test_zero_projector_maps_to_zero(self, two_blocks):
        zero = np.zeros((5, 5), dtype=complex)
        assert mvn_dimension(two_blocks, zero) == [0, 0]

    def test_identity_in_full_m4(self, full4):
        assert mvn_dimension(full4, np.eye(4)) == [4]

    def test_blockwise_rank_count(self):
        gens = []
        for g in build_weyl_finite(2).generators:
            top = np.zeros((4, 4), dtype=complex)
            top[:2, :2] = g
            bottom = np.zeros((4, 4), dtype=complex)
            bottom[2:, 2:] = g
            gens += [top, bottom]
        alg = close(GeneratorSet(ambient_dim=4, generators=tuple(gens)))
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        dims = mvn_dimension(alg, p)
        assert sorted(dims) == [0, 2]

    def test_additive_on_orthogonal_pairs(self, full4, two_blocks, diag8):
        for alg in (full4, two_blocks, diag8):
            decomp = block_decomposition(alg)
            for i in range(40):
                p, q = orthogonal_projector_pair(alg, 300 + i)
                dp = mvn_dimension(alg, p)
                dq = mvn_dimension(alg, q)
                dsum = mvn_dimension(alg, p + q)
                assert [a + b for a, b in zip(dp, dq)] == dsum

    def test_monotone_under_subprojection(self, full4):
        decomp = block_decomposition(full4)
        for i in range(30):
            q = random_projector(full4, 600 + i)
            p = meet(random_projector(full4, 800 + i), q)
            dp = mvn_dimension(full4, p)
            dq = mvn_dimension(full4, q)
            assert all(a <= b for a, b in zip(dp, dq))

    def test_commutative_algebra_has_boolean_dimensions(self, diag3):
        decomp = block_decomposition(diag3)
        for i in range(30):
            p = random_projector(diag3, 950 + i)
            dims = mvn_dimension(diag3, p)
            assert set(dims) <= {0, 1}
        # the atoms of the boolean lattice are the minimal central projectors
        for z in minimal_central_projectors(diag3):
            dims = mvn_dimension(diag3, z)
            assert sorted(dims) == [0, 0, 1]


class TestDecompositionMemo:
    def test_structure_is_computed_once_per_tolerance(self, monkeypatch):
        real_center = sectors_module.center
        calls = []

        def counting_center(alg, tol):
            calls.append(tol)
            return real_center(alg, tol)

        monkeypatch.setattr(sectors_module, "center", counting_center)
        alg = close(build_sectors([(2, 1), (1, 2)]))
        first = block_decomposition(alg)
        assert not is_factor(alg)
        z = first.sectors[0].central_projector
        assert mvn_dimension(alg, z) == [first.sectors[0].block_size, 0]
        lattice_report(alg, trials=0, seed=0)
        assert block_decomposition(alg) is first
        assert len(calls) == 1

        other = Tolerance(eq_tol=1e-10)
        second = block_decomposition(alg, other)
        assert second is not first
        assert block_decomposition(alg, other) is second
        assert calls == [DEFAULT_TOL, other]

    def test_shared_arrays_are_read_only(self, two_blocks):
        for sector in block_decomposition(two_blocks).sectors:
            assert not sector.central_projector.flags.writeable
            assert not sector.isometry.flags.writeable


class TestStructureChecks:
    """Violated structural identities raise NumericalError subclasses, not asserts."""

    def test_tensor_form_defect_carries_its_residual(self, monkeypatch):
        wrong = haar_unitary(4, np.random.default_rng(5))
        monkeypatch.setattr(sectors_module, "_block_isometry", lambda comp, n, m, r, tol: wrong)
        with pytest.raises(TensorFormDefect) as info:
            block_decomposition(close(build_sectors([(2, 2)])))
        assert isinstance(info.value, NumericalError)
        assert info.value.residual > 1e-8

    def test_missing_sector_is_a_dimension_mismatch(self, monkeypatch):
        real = sectors_module.minimal_central_projectors
        monkeypatch.setattr(
            sectors_module, "minimal_central_projectors", lambda alg, tol: real(alg, tol)[:1]
        )
        with pytest.raises(SectorDimensionMismatch) as info:
            block_decomposition(close(build_sectors([(2, 1), (1, 1)])))
        assert info.value.counts in ([(2, 1)], [(1, 1)])

    def test_reduced_rank_must_divide_by_multiplicity(self):
        scalars_twice = close(build_sectors([(1, 2)]))
        decomp = block_decomposition(scalars_twice)
        with pytest.raises(ReducedRankNotDivisible) as info:
            sectors_module._reduced_ranks(decomp, unit(2, 0, 0), DEFAULT_TOL)
        assert info.value.counts == (1, 2)
