import math

import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    AlgebraBasis,
    CenterDiagonalizationFailed,
    GeneratorSet,
    NotInAlgebra,
    NotProjector,
    NumericalError,
    ReducedRankNotDivisible,
    SectorDimensionMismatch,
    SectorStructureError,
    TensorFormDefect,
    Tolerance,
    block_decomposition,
    build_classical,
    build_sectors,
    build_weyl_finite,
    center,
    close,
    commutant,
    contains,
    generated_algebra,
    is_atom,
    is_factor,
    lattice_report,
    meet,
    minimal_central_projectors,
    mvn_dimension,
    operator_norm,
    orthocomplement,
    projectors_equivalent,
    random_projector,
    same_span,
)
from oplattice import logic as logic_module
from oplattice import numerics as numerics_module
from oplattice import sectors as sectors_module
from oplattice import states as states_module
from oplattice.seeding import uniforms
from tests.conftest import (drawn_families, drawn_projectors, equivalence_isometry, haar_unitary,
                            rational_clock_shift, reference_close, reference_project_onto,
                            reference_same_span, rotated, star, unit)


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


def undecomposed(gens):
    """The generated algebra's span as a fresh `AlgebraBasis` that carries no memoized
    sectors, so that `block_decomposition` runs `_decompose` on it."""
    alg = close(gens)
    return AlgebraBasis(alg.ambient_dim, alg.basis)


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

    @pytest.mark.parametrize("d", [7, 24, 32])
    def test_rotated_points_are_exact_to_rounding(self, d):
        # every z of a rotated classical algebra within 1e-12 of its exact u e_i e_i* u*
        # (3.0e-14 at worst over seeds 1-20)
        for seed in range(1, 21):
            u = haar_unitary(d, np.random.default_rng(seed))  # the rotation `rotated` applies
            zs = np.stack(minimal_central_projectors(close(rotated(build_classical(d), seed))))
            points = np.argmax(np.einsum("xi,kxy,yi->ki", u.conj(), zs, u).real, axis=1)
            assert sorted(points) == list(range(d))
            exact = np.einsum("xk,yk->kxy", u[:, points], u[:, points].conj())
            assert np.linalg.norm(zs - exact, axis=(1, 2)).max() <= 1e-12

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


class TestCanonicalSectorOrder:
    """Sectors come in the order of their blocks along the ambient basis."""

    @pytest.mark.parametrize(
        "blocks",
        [[(3, 1), (2, 2)], [(2, 2), (3, 1)], [(1, 1), (2, 1), (1, 2)], [(2, 1), (2, 1)],
         [(1, 3), (1, 1), (2, 1)]],
        ids=str,
    )
    def test_order_survives_a_change_of_basis_of_the_span(self, blocks):
        alg = close(build_sectors(blocks))
        reference = block_decomposition(alg).sectors
        assert [(s.block_size, s.multiplicity) for s in reference] == blocks
        rng = np.random.default_rng(11)
        for _ in range(5):
            # the same span, written in a mixed orthonormal basis
            u = haar_unitary(alg.dim, rng)
            mixed = AlgebraBasis(alg.ambient_dim, np.tensordot(u, alg.basis, axes=(1, 0)))
            sectors = block_decomposition(mixed).sectors
            assert [(s.block_size, s.multiplicity) for s in sectors] == blocks
            for s, ref in zip(sectors, reference):
                assert operator_norm(s.central_projector - ref.central_projector) <= 1e-10

    def test_interleaved_sectors_with_equal_mean_positions(self):
        alg = close(GeneratorSet(ambient_dim=4, generators=(np.diag([1.0, 0.0, 0.0, 1.0]),)))
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = haar_unitary(alg.dim, rng)
            mixed = AlgebraBasis(alg.ambient_dim, np.tensordot(u, alg.basis, axes=(1, 0)))
            first, second = (s.central_projector for s in block_decomposition(mixed).sectors)
            assert operator_norm(first - np.diag([1.0, 0.0, 0.0, 1.0])) <= 1e-10
            assert operator_norm(second - np.diag([0.0, 1.0, 1.0, 0.0])) <= 1e-10


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

    def test_the_gate_converts_a_proposition_once(self, two_blocks, monkeypatch):
        # `ensure_projector` converts p, and the gate hands its array to `_inside`: one
        # `_as_operators` per public call, where `contains` would convert it again
        p = minimal_central_projectors(two_blocks)[0]
        value = states_module.LogicalState(states_module.random_state(5, 1), two_blocks).value
        convert, calls = sectors_module._as_operators, []
        for module in (numerics_module, sectors_module):
            monkeypatch.setattr(module, "_as_operators", lambda m: calls.append(1) or convert(m))
        for call in (lambda: mvn_dimension(two_blocks, p), lambda: value(p)):
            call()  # the decomposition is memoized by the first call
            calls.clear()
            call()
            assert len(calls) == 1

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


def reference_dimension(alg, p):
    """Per sector, ``rank(V V* p) / m`` by SVD, V the sector's isometry: the rank route, which
    the trace of `mvn_dimension` replaces."""
    out = []
    for s in block_decomposition(alg).sectors:
        z = s.isometry @ s.isometry.conj().T
        r = np.linalg.matrix_rank(z @ p, tol=1e-8)
        assert r % s.multiplicity == 0
        out.append(int(r // s.multiplicity))
    return out


# Haar-rotated inputs of the trace route: multiplicities above 1, many sectors, one factor
TRACE_CASES = {
    "sectors-2x2+1x3": lambda: build_sectors([(2, 2), (1, 3)]),
    "classical-8": lambda: build_classical(8),
    "weyl-4": lambda: build_weyl_finite(4),
}


class TestTraceRoute:
    """`mvn_dimension` reads ``tr(V* p V) / m`` per sector; the rank of ``z p`` is the
    independent reference, on random projectors and orthogonal sums of them."""

    @staticmethod
    def projectors(alg, seed):
        out = [random_projector(alg, 100 * seed + i) for i in range(8)]
        for i in range(4):
            p, q = orthogonal_projector_pair(alg, 200 * seed + i)
            out += [q, p + q]
        return out

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", TRACE_CASES)
    def test_trace_equals_the_rank_reference(self, name, seed):
        alg = close(rotated(TRACE_CASES[name](), seed))
        d, rng = alg.ambient_dim, np.random.default_rng(seed)
        for p in self.projectors(alg, seed):
            ref = reference_dimension(alg, p)
            assert mvn_dimension(alg, p) == ref
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (h + h.conj().T) * (DEFAULT_TOL.eq_tol / 10 / operator_norm(h + h.conj().T))
            assert mvn_dimension(alg, p + h) == ref
            assert is_atom(alg, p) == (sorted(ref)[-1] == 1 and sum(ref) == 1)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", TRACE_CASES)
    def test_equivalence_agrees_with_the_rank_reference(self, name, seed):
        alg = close(rotated(TRACE_CASES[name](), seed))
        ps = self.projectors(alg, seed)
        refs = [reference_dimension(alg, p) for p in ps]
        for (p, a), (q, b) in zip(zip(ps, refs), zip(ps[1:] + ps[:1], refs[1:] + refs[:1])):
            assert projectors_equivalent(alg, p, q) == (a == b)
        assert projectors_equivalent(alg, ps[0], ps[0])


class TestSectorIdentity:
    def test_sectors_compare_by_identity(self):
        s, t = block_decomposition(close(build_sectors([(2, 1), (1, 2)]))).sectors
        assert s == s and s != t
        assert s in [t, s] and t not in [s]
        assert {s, t, s} == {t, s} and len({s, t}) == 2


class TestDecompositionMemo:
    def test_structure_is_computed_once_per_tolerance(self, monkeypatch):
        real_decompose = sectors_module._decompose
        calls = []

        def counting_decompose(alg, tol):
            calls.append(tol)
            return real_decompose(alg, tol)

        monkeypatch.setattr(sectors_module, "_decompose", counting_decompose)
        alg = undecomposed(build_sectors([(2, 1), (1, 2)]))
        first = block_decomposition(alg)
        assert not is_factor(alg)
        z = first.sectors[0].central_projector
        assert mvn_dimension(alg, z) == [first.sectors[0].block_size, 0]
        assert center(alg).dim == len(minimal_central_projectors(alg)) == 2
        lattice_report(alg, trials=0, seed=0)
        assert block_decomposition(alg) is first
        assert len(calls) == 1

        other = Tolerance(eq_tol=1e-10)
        second = block_decomposition(alg, other)
        assert second is not first
        assert block_decomposition(alg, other) is second
        assert calls == [DEFAULT_TOL, other]

    def test_the_commutant_carries_its_swapped_sectors(self, monkeypatch):
        alg = close(rotated(build_sectors([(2, 2), (1, 3)]), seed=5))
        own = block_decomposition(alg).sectors

        def never(alg, tol):
            raise AssertionError("decomposed again")

        monkeypatch.setattr(sectors_module, "_decompose", never)
        comm = commutant(alg)
        swapped = block_decomposition(comm).sectors
        assert [(s.block_size, s.multiplicity) for s in swapped] == [
            (s.multiplicity, s.block_size) for s in own]
        double = commutant(comm)
        assert same_span(double, alg)
        for s, t in zip(block_decomposition(double).sectors, own):
            assert np.array_equal(s.central_projector, t.central_projector)
            assert (s.block_size, s.multiplicity) == (t.block_size, t.multiplicity)
            assert np.array_equal(s.isometry, t.isometry)

    def test_shared_arrays_are_read_only(self, two_blocks):
        for sector in block_decomposition(two_blocks).sectors:
            assert not sector.isometry.flags.writeable
            z = sector.central_projector
            before = z.copy()
            z[...] = 7.0  # a returned z is the caller's own
            assert np.array_equal(sector.central_projector, before)


def decomposed_as(monkeypatch, change) -> list:
    """Make each `_generated_sectors` call of the sectors module, `_decompose`'s, return
    ``change(sectors)`` as the generated algebra's sectors; returns the list of each call's
    generators. `generated_algebra` calls the name `algebra` binds, which stays the real one."""
    real, calls = sectors_module._generated_sectors, []

    def changed(ambient_dim, generators, tol):
        calls.append(generators)
        sectors, defect = real(ambient_dim, generators, tol)
        return change(list(sectors)), defect

    monkeypatch.setattr(sectors_module, "_generated_sectors", changed)
    return calls


class TestStructureChecks:
    """Violated structural identities raise NumericalError subclasses, not asserts."""

    def test_tensor_form_defect_carries_its_residual(self, monkeypatch):
        wrong = haar_unitary(4, np.random.default_rng(5))
        alg = undecomposed(build_sectors([(2, 2)]))
        decomposed_as(monkeypatch, lambda sectors: [sectors_module.Sector(2, 2, wrong)])
        with pytest.raises(CenterDiagonalizationFailed) as info:
            block_decomposition(alg)
        defect = info.value.__cause__
        assert isinstance(defect, TensorFormDefect) and isinstance(defect, NumericalError)
        assert defect.residual > 1e-8
        assert info.value.residual == defect.residual

    @pytest.mark.parametrize("wrong", [False, True], ids=["certified", "wrong-frame"])
    def test_a_caller_basis_is_read_once(self, monkeypatch, wrong):
        # one pair drawn and chained, whether its certificate passes or fails
        alg = undecomposed(build_sectors([(2, 2)]))
        frame = haar_unitary(4, np.random.default_rng(6))
        calls = decomposed_as(monkeypatch, lambda sectors: (
            [sectors_module.Sector(2, 2, frame)] if wrong else sectors))
        if wrong:
            with pytest.raises(CenterDiagonalizationFailed):
                block_decomposition(alg)
        else:
            assert [(s.block_size, s.multiplicity) for s in block_decomposition(alg).sectors] == [
                (2, 2)]
        assert len(calls) == 1 and len(calls[0]) == 2

    def test_missing_sector_is_a_dimension_mismatch(self, monkeypatch):
        alg = undecomposed(build_sectors([(2, 1), (1, 1)]))
        decomposed_as(monkeypatch, lambda sectors: sectors[:1])
        with pytest.raises(CenterDiagonalizationFailed) as info:
            block_decomposition(alg)
        assert isinstance(info.value.__cause__, SectorDimensionMismatch)
        assert info.value.__cause__.counts in ([(2, 1)], [(1, 1)])
        assert info.value.counts == info.value.__cause__.counts  # carried through the re-raise

    @pytest.mark.parametrize("blocks", [[(2, 1)], [(3, 1), (1, 2)], [(2, 2), (1, 1)]], ids=str)
    def test_under_split_decomposition_never_returns(self, monkeypatch, blocks):
        def split(sectors):  # each block's n clusters read as n sectors of size 1
            out = []
            for s in sectors:
                m = s.multiplicity
                for j in range(s.block_size):
                    cols = s.isometry[:, j * m : (j + 1) * m]
                    out.append(sectors_module.Sector(1, m, cols))
            return out

        alg = undecomposed(build_sectors(blocks))
        decomposed_as(monkeypatch, split)
        with pytest.raises(CenterDiagonalizationFailed) as info:
            block_decomposition(alg)
        assert isinstance(info.value.__cause__, SectorStructureError)
        assert alg._decompositions == {}

    def test_reduced_rank_must_divide_by_multiplicity(self):
        scalars_twice = close(build_sectors([(1, 2)]))
        decomp = block_decomposition(scalars_twice)
        with pytest.raises(ReducedRankNotDivisible) as info:
            sectors_module._reduced_ranks(decomp, unit(2, 0, 0))
        assert info.value.counts == (1, 2)


class TestBlockPart:
    """The block part ``x - U r U*``, r the `_residual` in `commutant(alg)`'s memoized frame U,
    is the projection onto its span."""

    @pytest.mark.parametrize("blocks", [[(1, 3)], [(3, 1)], [(2, 2), (1, 1)], [(1, 2), (2, 1)]],
                             ids=str)
    def test_equals_the_projection_onto_the_commutant(self, blocks):
        u = haar_unitary(sum(n * m for n, m in blocks), np.random.default_rng(3))
        gens = build_sectors(blocks)
        alg = close(GeneratorSet(gens.ambient_dim,
                                 tuple(u @ g @ u.conj().T for g in gens.generators)))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, alg.ambient_dim, alg.ambient_dim, 2)) @ [1, 1j]
        comm = commutant(alg)
        frame = block_decomposition(comm).frame

        def block_part(mats):
            return mats - frame.u @ sectors_module._residual(frame, mats) @ frame.uh

        want = reference_project_onto(comm, x)
        assert np.allclose(block_part(x), want, rtol=1e-10, atol=1e-12)
        outside = np.linalg.norm(x - want, axis=(1, 2))
        assert comm.dim == alg.ambient_dim ** 2 or (outside > 0.1).all()  # M_d holds every x
        inside = comm.basis - block_part(comm.basis)
        assert (np.linalg.norm(inside, axis=(1, 2)) < 1e-12).all()


# Haar-rotated builders and the star units, whose chain walks only after a split pass
FRAME_CASES = {
    "classical-6": lambda: rotated(build_classical(6), seed=5),
    "weyl-5": lambda: rotated(build_weyl_finite(5), seed=5),
    "sectors-2x2+1x3": lambda: rotated(build_sectors([(2, 2), (1, 3)]), seed=5),
    "star-6": lambda: star(6),
}


class TestFrameOrder:
    """`Frame.sectors` is the frame's one sector order: each group's run of it has the group's
    shape and count, keeps the decomposition's order, and holds the columns from its start."""

    @pytest.mark.parametrize("gens", [*FRAME_CASES.values(), lambda: rotated(
        build_sectors([(2, 1), (1, 2), (2, 1), (1, 1), (1, 2)]), seed=3)],
        ids=[*FRAME_CASES, "interleaved-shapes"])
    def test_each_group_is_its_run_of_the_frame_sectors(self, gens):
        decomp = block_decomposition(close(gens()))
        frame, place = decomp.frame, {id(s): i for i, s in enumerate(decomp.sectors)}
        assert sorted(map(id, frame.sectors)) == sorted(place)
        shapes, k = [], 0
        for n, m, count, start in frame.groups:
            run = frame.sectors[k:k + count]
            assert len(run) == count and {(s.block_size, s.multiplicity) for s in run} == {(n, m)}
            assert [place[id(s)] for s in run] == sorted(place[id(s)] for s in run)
            for i, s in enumerate(run):
                assert np.array_equal(frame.u[:, start + i * n * m:start + (i + 1) * n * m],
                                      s.isometry)
            shapes.append((n, m))
            k += count
        assert k == len(decomp.sectors) and shapes == sorted(set(shapes))


class TestFrameCrossCheck:
    """Membership and the draws read and write the sectors' frame; `reference_project_onto` on
    the word closure's basis (`reference_close`), which knows no sectors, is the independent
    check."""

    @pytest.mark.parametrize("name", FRAME_CASES)
    def test_contains_gives_the_projection_residual_verdict(self, name):
        gens = FRAME_CASES[name]()
        alg, ref = close(gens), reference_close(gens)
        d, rng = gens.ambient_dim, np.random.default_rng(8)
        inside = np.tensordot(rng.standard_normal((10, ref.dim, 2)) @ [1, 1j], ref.basis, axes=1)
        noise = rng.standard_normal((10, d, d, 2)) @ [1, 1j]
        mats = np.concatenate([inside + scale * noise for scale in (0.0, 1e-13, 1e-5, 1.0)])
        residual = mats - reference_project_onto(ref, mats)
        want = operator_norm(residual) <= DEFAULT_TOL.eq_tol * (1 + operator_norm(mats))
        assert contains(alg, mats).tolist() == want.tolist()
        assert want[:20].all() and (want[20:].all() if ref.dim == d * d else not want[20:].any())

    @pytest.mark.parametrize("name", FRAME_CASES)
    def test_every_draw_lies_in_the_algebra(self, name):
        gens = FRAME_CASES[name]()
        alg, ref = close(gens), reference_close(gens)
        u = uniforms(1, 0, 40, states_module._family_width(alg))
        families = drawn_families(alg, u[:20])
        frame = block_decomposition(alg).frame
        draws = np.stack([
            *sectors_module._ambient(frame, sectors_module._random_self_adjoint(
                frame, u[:, :2 * alg.dim])),
            *drawn_projectors(alg, u),
            *(p for family in families for p in family)])
        outside = np.linalg.norm(draws - reference_project_onto(ref, draws), axis=(1, 2))
        assert (outside <= 1e-12 * (1 + operator_norm(draws))).all()

    def test_draws_have_the_law_of_coefficients_on_an_orthonormal_basis(self):
        # the Hermitian part of a standard complex Gaussian on any HS-orthonormal basis has
        # E ||h||_F^2 = dim; without the 1 / sqrt(m) of the betas it would be m times that
        alg = close(build_sectors([(2, 3)]))
        frame = block_decomposition(alg).frame
        h = sectors_module._ambient(frame, sectors_module._random_self_adjoint(
            frame, uniforms(1, 0, 2000, 2 * alg.dim)))
        mean = float(np.mean(np.linalg.norm(h, axis=(1, 2)) ** 2))
        assert abs(mean - alg.dim) <= 0.05 * alg.dim


# every builder at d = 4, 8, 16; the sector sets have two block sizes and multiplicities
GENERATED_CASES = {
    **{f"classical-{d}": (lambda d=d: build_classical(d)) for d in (4, 8, 16)},
    **{f"weyl-{d}": (lambda d=d: build_weyl_finite(d)) for d in (4, 8, 16)},
    "sectors-4": lambda: build_sectors([(2, 1), (1, 2)]),
    "sectors-8": lambda: build_sectors([(2, 2), (1, 2), (2, 1)]),
    "sectors-16": lambda: build_sectors([(4, 2), (2, 2), (4, 1)]),
}


class TestOneDraw:
    """Every builder's caller basis, its commutant's and its center's decompose in the one
    pair `_decompose` draws and chains, unrotated and under two Haar rotations."""

    @pytest.mark.parametrize("seed", [None, 1, 2], ids=["unrotated", "haar-1", "haar-2"])
    @pytest.mark.parametrize("name", sorted(GENERATED_CASES))
    def test_caller_bases_decompose_in_one_draw(self, monkeypatch, name, seed):
        gens = GENERATED_CASES[name]()
        alg = close(gens if seed is None else rotated(gens, seed))
        algebras = [alg, commutant(alg), center(alg)]
        want = [sorted((s.block_size, s.multiplicity) for s in block_decomposition(a).sectors)
                for a in algebras]
        calls = decomposed_as(monkeypatch, lambda sectors: sectors)
        got = [sorted((s.block_size, s.multiplicity) for s in block_decomposition(
            AlgebraBasis(a.ambient_dim, a.basis)).sectors) for a in algebras]
        assert got == want
        assert len(calls) == 3


class TestGeneratedAlgebra:
    """`generated_algebra` reads the algebra off the generators' commutant; the word closure
    `reference_close` is the independent check that the commutant was not too small."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(GENERATED_CASES))
    def test_spans_the_word_closure_of_rotated_generators(self, name, seed):
        gens = rotated(GENERATED_CASES[name](), seed)
        assert reference_same_span(generated_algebra(gens), reference_close(gens))

    @pytest.mark.parametrize("route", ["generated", "commutant-of-close"])
    @pytest.mark.parametrize("blocks", [[(1, 3)], [(3, 1)], [(2, 2), (1, 1)], [(1, 2), (2, 1)]],
                             ids=str)
    def test_memoized_sectors_are_the_decomposed_ones(self, blocks, route):
        gens = rotated(build_sectors(blocks), seed=3)
        alg = generated_algebra(gens) if route == "generated" else commutant(close(gens))
        d = alg.ambient_dim
        flat = alg.basis.reshape(alg.dim, -1)
        assert np.allclose(flat.conj() @ flat.T, np.eye(alg.dim), atol=1e-12)
        members = gens.generators if route == "generated" else ()
        assert contains(alg, np.stack([np.eye(d), *members])).all()
        seeded = list(block_decomposition(alg).sectors)
        sectors_module._certify(alg, seeded, DEFAULT_TOL)  # each element is its blocks' tensor form
        fresh = sectors_module._decompose(alg, DEFAULT_TOL).sectors
        assert [(s.block_size, s.multiplicity) for s in seeded] == [
            (s.block_size, s.multiplicity) for s in fresh]
        for s, f in zip(seeded, fresh):
            assert np.allclose(s.central_projector, f.central_projector, atol=1e-12)
            assert not s.isometry.flags.writeable
            z = s.central_projector
            z[...] = 0.0
            assert np.allclose(s.central_projector, f.central_projector, atol=1e-12)
            iso = s.isometry
            assert np.allclose(iso.conj().T @ iso, np.eye(iso.shape[1]), atol=1e-12)

    @pytest.mark.parametrize("d, p", [(12, 0), (12, 2), (12, 3), (24, 4), (24, 6), (32, 8)])
    def test_rational_clock_shift_is_gcd_copies_of_one_factor(self, d, p):
        # dense, non-diagonal structure with a closed form, and no rotation applied
        gens = rational_clock_shift(d, p)
        g = math.gcd(p, d)
        alg = generated_algebra(gens)
        assert [(s.block_size, s.multiplicity) for s in block_decomposition(alg).sectors] == [
            (d // g, 1)] * g
        assert alg.dim == g * (d // g) ** 2
        w = np.linalg.matrix_power(gens.generators[1], d // g)
        powers = np.stack([np.linalg.matrix_power(w, k) for k in range(g)]) / np.sqrt(d)
        assert reference_same_span(center(alg), AlgebraBasis(d, powers))
