import tracemalloc
import warnings

import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    AlgebraBasis,
    CenterDiagonalizationFailed,
    DimensionMismatch,
    GeneratorSet,
    NumericalError,
    SectorStructureError,
    Tolerance,
    ValidationError,
    algebra_to_json,
    baire_envelope,
    block_decomposition,
    build_classical,
    build_sectors,
    build_weyl_finite,
    center,
    close,
    commutant,
    contains,
    decomposition_to_json,
    dumps,
    generated_algebra,
    generator_commutant,
    generator_set_from_json,
    generator_set_to_json,
    is_commutative,
    lattice_report,
    operator_norm,
    run_scenario,
    same_span,
    scenario_from_json,
)
from oplattice import algebra as algebra_module
from oplattice import sectors as sectors_module
from oplattice.numerics import hs_norm, hs_unit
from tests.conftest import (
    KERNEL_ALGEBRAS,
    chain_changed,
    chain_replaced,
    haar_unitary,
    kernel_algebra,
    reference_close,
    reference_commutant,
    reference_is_commutative,
    reference_same_span,
    rotated,
    star,
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

    @pytest.mark.parametrize("dim, gen", [
        (2.0, np.diag([1.0, 2.0])), (True, np.eye(1)), ("2", np.eye(2)), (0, np.eye(2)),
    ], ids=["float", "bool", "str", "zero"])
    def test_ambient_dim_is_a_positive_integer(self, dim, gen):
        with pytest.raises(ValidationError, match="ambient_dim must be a positive integer"):
            close(GeneratorSet(dim, (gen,)))

    def test_a_numpy_integer_dim_is_written_as_an_int(self):
        gens = GeneratorSet(np.int64(2), (np.diag([1.0, 2.0]),))
        assert type(gens.ambient_dim) is int
        alg = close(gens)
        decomp = block_decomposition(alg)
        assert type(alg.ambient_dim) is int and type(decomp.ambient_dim) is int
        assert dumps(algebra_to_json(alg)).startswith('{"ambient_dim": 2, "dim": 2, ')
        sectors = {"ambient_dim": decomp.ambient_dim, "sectors": decomposition_to_json(decomp)}
        assert dumps(sectors).startswith('{"ambient_dim": 2, "sectors": [')

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
            [[np.vdot(full3.basis[i], full3.basis[j]) for j in range(k)] for i in range(k)]
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

    @pytest.mark.parametrize(
        "gens",
        [build_sectors([(2, 1), (1, 2)]), build_weyl_finite(3), build_weyl_finite(4)],
        ids=["sectors-2+1x2", "weyl-3", "weyl-4"],
    )
    def test_a_degenerate_rank_tol_is_a_numerical_error(self, gens):
        # under a 1e-300 cutoff rounding noise counts: no commutator vanishes that closely
        with pytest.raises(NumericalError, match="1e-300"):
            close(gens, Tolerance(rank_tol=1e-300))

    def test_dimension_never_exceeds_ambient_square(self, full4, diag8, two_blocks):
        for alg in (full4, diag8, two_blocks):
            assert alg.dim <= alg.ambient_dim**2
            assert commutant(alg).dim >= 1

    def test_rounding_noise_in_a_vanishing_product_is_not_a_direction(self):
        p, q = two_orthogonal_real_lines()
        alg = close(GeneratorSet(ambient_dim=3, generators=(p, q)))
        assert alg.dim == 3
        assert reference_is_commutative(alg)


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
        assert (lattice_report(rotated, 0, 0).boolean_lattice == is_commutative(rotated)
                == reference_is_commutative(rotated))
        conjugated = AlgebraBasis(ambient_dim=d, basis=[u @ b @ u.conj().T for b in alg.basis])
        assert same_span(rotated, conjugated)


def assert_orthonormal(alg):
    flat = alg.basis.reshape(alg.dim, -1)
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(alg.dim))) <= 1e-12


def assert_matches_reference(gens):
    alg, ref = close(gens), reference_close(gens)
    assert alg.dim == ref.dim
    assert reference_same_span(alg, ref)
    assert_orthonormal(alg)
    return alg


class TestCloseMatchesReference:
    """`close`, the bicommutant, against the span of the words (`reference_close`)."""

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

    def test_full_m12(self):
        assert assert_matches_reference(build_weyl_finite(12)).dim == 144

    def test_weyl_5(self):
        assert assert_matches_reference(build_weyl_finite(5)).dim == 25

    def test_three_pauli_generators(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        assert assert_matches_reference(GeneratorSet(2, (x, y, z))).dim == 4

    def test_words_equal_up_to_a_phase(self):
        # ZX = w XZ: two words of length two span one direction
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
            alg.basis  # built on first read: inside the bound too
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
        assert reference_same_span(com, ref)
        assert_orthonormal(com)

    def test_generator_commutant(self, case):
        gens, _, ref = case
        com = generator_commutant(gens)
        assert reference_same_span(com, ref)
        assert_orthonormal(com)

    def test_baire_envelope(self, case):
        _, alg, ref = case
        env = baire_envelope(alg)
        assert reference_same_span(env, reference_commutant(ref.basis, alg.ambient_dim))
        assert same_span(env, alg)
        assert_orthonormal(env)


def counted(monkeypatch, targets) -> dict:
    """Count the calls of each ``(module, name)`` in ``targets``, by name."""
    calls = {}
    for module, name in targets:
        fn = getattr(module, name)
        calls[name] = 0

        def wrapper(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


CHAINED = {
    **BUILDERS,
    "weyl-16": lambda: build_weyl_finite(16),
    "classical-32": lambda: build_classical(32),
    "sectors-2x16": lambda: build_sectors([(2, 16)]),
    "sectors-1x8": lambda: build_sectors([(1, 8)]),
}


def split_passes(monkeypatch) -> list:
    """Record each `sectors._refined` pass as its ``(clusters before, clusters after)``."""
    real, passes = sectors_module._refined, []

    def refined(v, clusters, g, rng, tol):
        out = real(v, clusters, g, rng, tol)
        passes.append((len(clusters), len(out[1])))
        return out

    monkeypatch.setattr(sectors_module, "_refined", refined)
    return passes


def star_commutant(d):
    gens = star(d)
    return reference_commutant([m for g in gens.generators for m in (g, g.conj().T)], d)


class TestGeneratorCommutantRoutes:
    """The chain of h's clusters refines nothing and decomposes nothing on the inputs it walks;
    on the others a split pass refines the clusters until it walks, and a chain that no split
    mends raises `NumericalError` with its certificate's residual (or counts)."""

    @pytest.mark.parametrize("rotation", [None, 1, 2])
    @pytest.mark.parametrize("name", CHAINED)
    def test_chainable_inputs_refine_no_cluster(self, monkeypatch, name, rotation):
        gens = CHAINED[name]()
        if rotation is not None:
            u = haar_unitary(gens.ambient_dim, np.random.default_rng(rotation))
            gens = conjugated_generators(gens, u)
        calls = counted(monkeypatch, [(sectors_module, "_refined"),
                                      (sectors_module, "_decompose")])
        alg = generated_algebra(gens)
        assert calls == {"_refined": 0, "_decompose": 0}
        assert alg.dim == close(CHAINED[name]()).dim
        assert_orthonormal(alg)

    def test_star_generators_refine_h_clusters(self, monkeypatch):
        gens = star(5)
        passes = split_passes(monkeypatch)
        alg = generated_algebra(gens)
        assert passes == [(3, 5)]  # h's zero cluster, 3-fold, splits once into singletons
        assert alg.dim == 25
        assert reference_same_span(alg, reference_close(gens))
        assert reference_same_span(generator_commutant(gens), star_commutant(5))

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_star_generators_decompose_nothing(self, monkeypatch, d):
        # at d = 3 the star generators chain as they are: no pass splits anything
        calls = counted(monkeypatch, [(sectors_module, "_decompose")])
        passes = split_passes(monkeypatch)
        alg = generated_algebra(star(d))
        assert calls == {"_decompose": 0}
        assert alg.dim == d * d
        assert len(passes) == int(d > 3) and all(after > before for before, after in passes)
        assert reference_same_span(generator_commutant(star(d)), star_commutant(d))
        assert calls == {"_decompose": 0}

    @pytest.mark.parametrize("d", [24, 48])
    def test_star_generators_within_a_memory_bound(self, d):
        # one split pass and two chains: 3 MB at d = 24 and 25 MB at d = 48
        tracemalloc.start()
        try:
            alg = generated_algebra(star(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alg.dim == d * d
        assert peak < 100 * 2**20

    def test_the_refined_commutant_carries_its_sectors(self, monkeypatch):
        comm = generator_commutant(star(5))
        calls = counted(monkeypatch, [(sectors_module, "_decompose")])
        assert [(s.block_size, s.multiplicity) for s in block_decomposition(comm).sectors] == [
            (1, 5)]
        assert calls == {"_decompose": 0}
        assert comm.dim == 1 and np.allclose(comm.basis[0], np.eye(5) / np.sqrt(5))

    def chained_then(self, monkeypatch, change):
        """The split passes, with the chain's first call returning ``change(sectors)``."""
        chain_changed(monkeypatch, change)
        return split_passes(monkeypatch)

    def test_a_perturbed_frame_raises_with_its_residual(self, monkeypatch):
        # E_11 vanishes on the 2-dimensional sector, so its scaled frame keeps every generator
        # at its block part: only the frame's orthonormality can catch it. h's 2-fold cluster
        # is E_11's kernel, where every K is 0: no split mends the frame
        gens = GeneratorSet(3, (unit(3, 0, 0),))
        passes = self.chained_then(monkeypatch, lambda sectors: [
            sectors_module.Sector(s.block_size, s.multiplicity,
                                  s.isometry * (1 + 1e-6 * (s.multiplicity == 2)))
            for s in sectors])
        with pytest.raises(NumericalError, match=r"rank_tol 1e-08: .*commutant misses by .*: of "
                                                 r"dimension 5 in M_3, .*orthonormal to") as got:
            generator_commutant(gens)
        assert passes == [(2, 2)]
        assert got.value.residual == got.value.__cause__.residual > 2e-6  # sqrt(2) (2e-6 + 1e-12)
        assert reference_same_span(generator_commutant(gens),
                                   reference_commutant(gens.generators, 3))

    def test_a_dropped_link_raises_with_its_miss(self, monkeypatch):
        # weyl 3's one sector, split after its first cluster: an orthonormal frame whose
        # algebra misses the generators; h's clusters are single vectors, so nothing splits
        def split(sectors):
            (s,) = sectors
            return [sectors_module.Sector(v.shape[1], 1, v)
                    for v in (s.isometry[:, :1], s.isometry[:, 1:])]

        gens = build_weyl_finite(3)
        passes = self.chained_then(monkeypatch, split)
        with pytest.raises(NumericalError, match=r"rank_tol 1e-08: .*commutant misses by .*: of "
                                                 r"dimension 2 in M_3, its commutant has "
                                                 r"dimension 5") as got:
            generator_commutant(gens)
        assert passes == [(3, 3)]
        assert got.value.residual > 0.1
        assert reference_same_span(generator_commutant(gens),
                                   reference_commutant(gens.generators, 3))

    def test_a_count_failure_raises_with_its_counts(self, monkeypatch):
        # linked clusters of unequal size, on E_11 whose clusters no K splits: the certificate's
        # count failed, which measures no residual; its counts are carried instead
        def unequal(sectors):
            raise SectorStructureError("linked eigenvalue clusters of sizes [1, 2] are not copies "
                                       "of one block", counts=[1, 2])

        passes = self.chained_then(monkeypatch, unequal)
        with pytest.raises(NumericalError, match="h's 2 clusters split no further under "
                                                 "rank_tol 1e-08: linked eigenvalue") as got:
            generator_commutant(GeneratorSet(3, (unit(3, 0, 0),)))
        assert passes == [(2, 2)]
        assert isinstance(got.value.__cause__, SectorStructureError)
        assert got.value.residual is got.value.__cause__.residual is None
        assert got.value.counts == got.value.__cause__.counts == [1, 2]

    @pytest.mark.parametrize("splits", [True, False], ids=["refined", "no-split"])
    def test_a_chain_that_misses_the_generators_is_refined_or_raises(self, monkeypatch, splits):
        # each of h's clusters a sector of its own: C is each cluster's full matrix algebra,
        # a *-algebra that commutes with none of the star generators. A split pass mends it;
        # without one, the miss is raised
        chain_replaced(monkeypatch, lambda v, clusters, gv, tol: [
            sectors_module.Sector(1, b - a, v[:, a:b])
            for a, b in clusters])
        if splits:
            passes = split_passes(monkeypatch)
            assert reference_same_span(generator_commutant(star(5)), star_commutant(5))
            assert passes == [(3, 5)]
            return
        monkeypatch.setattr(sectors_module, "_refined",
                            lambda v, clusters, g, rng, tol: (v, clusters))
        with pytest.raises(NumericalError, match="h's 3 clusters split no further under rank_tol "
                                                 "1e-08: the generators' commutant misses by .*: "
                                                 "of dimension 11 in M_5, its commutant has "
                                                 "dimension 3") as got:
            generator_commutant(star(5))
        assert got.value.residual > 0.1

    def test_the_chained_commutant_carries_its_sectors(self, monkeypatch):
        comm = generator_commutant(rotated(build_sectors([(2, 2), (1, 3)]), seed=5))
        calls = counted(monkeypatch, [(sectors_module, "_decompose")])
        carried = block_decomposition(comm)
        assert calls == {"_decompose": 0}
        assert sorted((s.block_size, s.multiplicity) for s in carried.sectors) == [(2, 2), (3, 1)]
        sectors_module._certify(comm, list(carried.sectors), DEFAULT_TOL)
        fresh = sectors_module._decompose(AlgebraBasis(comm.ambient_dim, comm.basis), DEFAULT_TOL)
        for s, f in zip(carried.sectors, fresh.sectors):  # the order `_decompose` gives
            assert (s.block_size, s.multiplicity) == (f.block_size, f.multiplicity)
            assert np.allclose(s.central_projector, f.central_projector, atol=1e-12)


class TestLazyBasis:
    """An algebra read off sectors builds its basis on first read, once; a zero-trial scenario
    never reads one, and the chain route certifies C without its units."""

    @pytest.mark.parametrize("kind, dim, parameters, algebra_dim", [
        ("classical", 8, {"point_count": 8}, 8),
        ("classical", 32, {"point_count": 32}, 32),
        ("weyl_finite", 16, {"modulus": 16}, 256),
        ("weyl_finite", 32, {"modulus": 32}, 1024),
        ("sectors", 7, {"blocks": [[2, 2], [1, 3]]}, 5),
        ("sectors", 32, {"blocks": [[2, 16]]}, 4),
        ("sectors", 32, {"blocks": [[1, 32]]}, 1),
    ], ids=["classical-8", "classical-32", "weyl-16", "weyl-32", "sectors-7", "sectors-2x16",
            "sectors-1x32"])
    def test_a_zero_trial_scenario_builds_no_basis(self, monkeypatch, kind, dim, parameters,
                                                   algebra_dim):
        calls = counted(monkeypatch, [(algebra_module, "_units"),
                                      (sectors_module, "_refined"),
                                      (sectors_module, "_decompose")])
        scenario = scenario_from_json({"name": "lazy", "kind": kind, "dim": dim,
                                       "parameters": parameters, "trials": 0, "seed": 1})
        assert run_scenario(scenario).algebra_dim == algebra_dim
        assert calls == {"_units": 0, "_refined": 0, "_decompose": 0}

    @pytest.mark.parametrize("kind, dim, parameters", [
        ("weyl_finite", 16, {"modulus": 16}),
        ("classical", 16, {"point_count": 16}),
        ("sectors", 6, {"blocks": [[2, 3]]}),
    ], ids=["weyl-16", "classical-16", "sectors-2x3"])
    def test_a_scenario_with_trials_builds_no_basis(self, monkeypatch, kind, dim, parameters):
        # the draws and the membership checks of every trial read the sectors' frame
        calls = counted(monkeypatch, [(algebra_module, "_units"),
                                      (sectors_module, "_decompose")])
        scenario = scenario_from_json({"name": "lazy", "kind": kind, "dim": dim, "trials": 4,
                                       "parameters": parameters, "seed": 1})
        assert run_scenario(scenario).orthoadditivity["trials"] == 4
        assert calls == {"_units": 0, "_decompose": 0}

    def test_dim_is_read_off_the_sectors_and_the_basis_built_once(self, monkeypatch):
        alg = generated_algebra(rotated(build_sectors([(2, 3), (1, 2), (3, 1)]), seed=4))
        calls = counted(monkeypatch, [(algebra_module, "_units")])
        sectors = block_decomposition(alg).sectors
        assert alg.dim == sum(s.block_size ** 2 for s in sectors) == 14
        assert calls == {"_units": 0}
        basis = alg.basis
        assert basis is alg.basis and not basis.flags.writeable
        assert calls == {"_units": 1}
        assert basis.shape == (14, 11, 11) and alg.dim == 14
        assert_orthonormal(alg)

    @pytest.mark.parametrize("built", ["generated", "commutant", "center"])
    def test_a_second_decomposition_keeps_the_algebra(self, built):
        # an algebra read off sectors keeps its own: a decomposition at another tolerance,
        # read through its basis, neither changes its dim nor its basis, and spans the same
        alg = generated_algebra(rotated(build_sectors([(2, 3), (1, 2), (3, 1)]), seed=4))
        x = {"generated": alg, "commutant": commutant(alg), "center": center(alg)}[built]
        first, dim = block_decomposition(x), x.dim
        other = Tolerance(eq_tol=1e-10)
        second = block_decomposition(x, other)
        basis = x.basis
        assert second is not first and block_decomposition(x) is first
        assert x.dim == dim == basis.shape[0] and x.basis is basis
        assert same_span(x, algebra_module._with_sectors(second, other))
        assert sorted((s.block_size, s.multiplicity) for s in second.sectors) == sorted(
            (s.block_size, s.multiplicity) for s in first.sectors)

    def test_a_given_basis_is_validated_and_copied(self):
        given = np.eye(2, dtype=complex)[None] / np.sqrt(2)
        alg = AlgebraBasis(2, given)
        given[0, 0, 0] = 5.0
        assert alg.basis[0, 0, 0] == 1 / np.sqrt(2) and not alg.basis.flags.writeable
        with pytest.raises(DimensionMismatch):
            AlgebraBasis(3, given)

    def test_the_chain_route_measures_the_generator_defect_once(self, monkeypatch):
        gens = build_weyl_finite(6)
        calls = counted(monkeypatch, [(sectors_module, "_outside")])
        generated_algebra(gens)
        assert calls == {"_outside": 1}


class TestExtremeScales:
    """Unit-norming survives a Hilbert-Schmidt norm that over- or underflows."""

    @pytest.mark.parametrize("s", [1e-300, 1e-170, 1e154, 1e300])
    def test_scaled_generators_generate_m2(self, s):
        inputs = [s * np.array([[1, 1], [0, 2]], dtype=complex)]
        if s > 1:
            inputs.append(np.array([[s, s], [0, 1]], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in inputs:
                assert generated_algebra(GeneratorSet(2, (g,))).dim == 4

    def test_normal_norms_keep_their_bits(self):
        g = build_weyl_finite(5).generators[0] * 3.7
        a, s = hs_unit(g)
        assert a is g and s == hs_norm(g)
        a, s = hs_unit(np.zeros((2, 2), dtype=complex))
        assert s == 1.0 and not a.any()


class TestCanonicalUnits:
    """`commutant` writes matrix units in a frame fixed by the sectors, with exact zeros."""

    @pytest.mark.parametrize("blocks", [[(3, 1), (2, 2)], [(2, 3), (1, 2)], [(1, 4)], [(16, 1)]],
                             ids=str)
    def test_coordinate_sectors_give_coordinate_units(self, blocks):
        # frames of coordinate blocks become their identity, so a unit of M_n (x) 1_m is m
        # entries 1/sqrt(m) and one of 1_n (x) M_m is n entries 1/sqrt(n), written exactly
        gens = build_sectors(blocks)
        alg = close(gens)
        comm = commutant(alg)
        for x, count, sizes in [(alg, sum(n * n * m for n, m in blocks), {m for _, m in blocks}),
                                (comm, sum(n * m * m for n, m in blocks), {n for n, _ in blocks})]:
            assert np.count_nonzero(x.basis) == count
            assert set(np.round(np.abs(x.basis[x.basis != 0]) ** -2, 9)) <= set(map(float, sizes))
        assert reference_same_span(comm, reference_commutant(gens.generators, gens.ambient_dim))


def _on_factor(left):
    """M_2 (x) 1_2 (``left``) or 1_2 (x) M_2 in M_4: dimension 4 and commutant dimension 4."""
    eye = np.eye(2)
    return close(GeneratorSet(4, tuple(np.kron(g, eye) if left else np.kron(eye, g)
                                       for g in build_weyl_finite(2).generators)))


def _kernel_pair(name, other):
    """A kernel input rotated, against a second build of the same rotated generators
    ("again"), the plain build ("plain") or a second Haar rotation ("rerotated")."""
    gens = KERNEL_ALGEBRAS[name]()
    second = {"again": rotated(gens, seed=21), "plain": gens, "rerotated": rotated(gens, seed=22)}
    return close(rotated(gens, seed=21)), close(second[other])


# (pair, same algebra): a rotated input is the plain or a second rotation only where both
# sides generate M_d, as weyl does
SAME_SPAN_PAIRS = {
    **{f"{name}-{other}": (lambda name=name, other=other: _kernel_pair(name, other),
                           other == "again" or name.startswith("weyl"))
       for name in KERNEL_ALGEBRAS for other in ("again", "plain", "rerotated")},
    "m2-left-vs-right": (lambda: (_on_factor(True), _on_factor(False)), False),
}


class TestSameSpan:
    """`same_span` reads dimensions and membership off the sectors; the HS projections of
    `reference_same_span`, which know no sectors, are the independent check."""

    @pytest.mark.parametrize("name", SAME_SPAN_PAIRS)
    def test_agrees_with_the_projection_reference(self, name):
        pair, same = SAME_SPAN_PAIRS[name]
        a, b = pair()
        assert same_span(a, b) is same_span(b, a) is reference_same_span(a, b) is same

    @pytest.mark.parametrize("name", ["classical-3", "weyl-3", "sectors-2+1x2", "sectors-2+3"])
    def test_a_scaled_basis_of_the_same_algebra_is_the_same_algebra(self, name):
        # `contains`' bound, not an HS residual: a basis need not be orthonormal
        alg = kernel_algebra(name)
        scaled = AlgebraBasis(alg.ambient_dim, 2 * alg.basis)
        assert same_span(alg, scaled) and same_span(scaled, alg)

    def test_weyl_builds_no_basis(self):
        # weyl's commutant is the scalars: its unit is all that is tested
        a, b = close(build_weyl_finite(32)), close(rotated(build_weyl_finite(32), seed=3))
        assert same_span(a, b)
        assert a._basis is None and b._basis is None

    def test_a_span_that_is_no_algebra_is_refused(self):
        scalars = close(GeneratorSet(2, (np.eye(2),)))
        with pytest.raises(CenterDiagonalizationFailed):
            same_span(AlgebraBasis(2, [unit(2, 0, 0)]), scalars)

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
        assert reference_is_commutative(ctr)
        assert contains(ctr, np.eye(5))


    def test_a_center_carries_its_sectors(self, monkeypatch):
        alg = generated_algebra(rotated(build_sectors([(2, 3), (1, 2), (3, 1)]), seed=4))
        zs = [s.central_projector for s in block_decomposition(alg).sectors]
        ctr = center(alg)
        calls = counted(monkeypatch, [(sectors_module, "_decompose"),
                                      (algebra_module, "_units")])
        sectors = block_decomposition(ctr).sectors
        assert [(s.block_size, s.multiplicity) for s in sectors] == [(1, 6), (1, 2), (1, 3)]
        assert all(np.array_equal(s.central_projector, z) for s, z in zip(sectors, zs))
        assert contains(ctr, np.stack(zs)).all() and ctr.dim == 3
        w = next(s for s in block_decomposition(alg).sectors if s.block_size == 2).isometry
        w = w.reshape(-1, 2, 3)  # V (E_01 (x) 1_3) V* lies in the algebra, not in its center
        assert not contains(ctr, w[:, 0] @ w[:, 1].conj().T)
        assert calls == {"_decompose": 0, "_units": 0}
        units = np.stack([z / np.sqrt(np.trace(z).real) for z in zs])
        assert np.allclose(ctr.basis, units, rtol=0, atol=1e-13)
        assert calls == {"_decompose": 0, "_units": 1}


class TestIsCommutative:
    def test_diagonal(self, diag3):
        assert is_commutative(diag3)

    def test_full(self, full2):
        assert not is_commutative(full2)

    def test_clock_shift_4(self, full4):
        assert not is_commutative(full4)

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_agrees_with_the_pairwise_reference(self, name):
        alg = close(KERNEL_ALGEBRAS[name]())
        assert is_commutative(alg) == reference_is_commutative(alg)

    def test_agrees_on_a_basis_passed_in(self, full2, two_blocks):
        for alg in (full2, two_blocks, center(two_blocks)):
            given = AlgebraBasis(alg.ambient_dim, alg.basis)
            assert is_commutative(given) == reference_is_commutative(given)

    def test_reads_no_basis(self):
        # the verdict is the memoized decomposition's: classical 64 builds none of its 64 units
        alg = close(build_classical(64))
        assert is_commutative(alg) and alg._basis is None

    def test_a_span_that_is_no_algebra_raises(self):
        with pytest.raises(CenterDiagonalizationFailed):
            is_commutative(AlgebraBasis(2, unit(2, 0, 0)[None]))


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

    def test_a_caller_basis_is_decomposed_once(self, monkeypatch, two_blocks):
        given = AlgebraBasis(5, two_blocks.basis)
        calls = counted(monkeypatch, [(sectors_module, "_decompose")])
        mats = [two_blocks.basis[3], unit(5, 0, 4)]
        assert [contains(given, m) for m in mats] == [True, False]
        assert contains(given, np.stack(mats)).tolist() == [True, False]
        assert calls == {"_decompose": 1}

    def test_a_span_that_is_no_algebra_raises(self):
        # e11 alone is no unital algebra: its decomposition, which membership reads, fails
        with pytest.raises(CenterDiagonalizationFailed):
            contains(AlgebraBasis(2, unit(2, 0, 0)[None]), unit(2, 0, 0))

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

    @pytest.mark.parametrize("dim, d", [(2.0, 2), (True, 1), ("2", 2), (0, 1)],
                             ids=["float", "bool", "str", "zero"])
    def test_ambient_dim_is_an_integer(self, dim, d):
        with pytest.raises(ValidationError, match="ambient_dim must be a positive integer"):
            sectors_module.is_factor(AlgebraBasis(dim, np.eye(d)[None] / np.sqrt(d)))

    def test_a_numpy_integer_dim_is_stored_as_an_int(self):
        alg = AlgebraBasis(np.int64(2), np.eye(2)[None] / np.sqrt(2))
        assert type(alg.ambient_dim) is int and sectors_module.is_factor(alg)
        assert dumps(algebra_to_json(alg)).startswith('{"ambient_dim": 2, "dim": 1, ')

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", [
        block_decomposition, lambda alg: contains(alg, np.eye(2)), baire_envelope,
    ], ids=["block_decomposition", "contains", "baire_envelope"])
    def test_non_finite_entries_are_refused(self, entry, call):
        with pytest.raises(ValidationError, match="finite"):
            call(AlgebraBasis(2, np.full((1, 2, 2), entry)))

    def test_a_nan_defect_fails_the_certificate(self):
        scalars = close(GeneratorSet(ambient_dim=2, generators=(np.eye(2),)))
        nan_frame = sectors_module.Sector(1, 2, np.full((2, 2), np.nan))
        with pytest.raises(sectors_module.TensorFormDefect):
            sectors_module._certify(scalars, [nan_frame], DEFAULT_TOL)
