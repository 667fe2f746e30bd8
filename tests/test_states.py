import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    DimensionMismatch,
    GeneratorSet,
    LogicalState,
    NotCommutative,
    NotHermitian,
    NotInAlgebra,
    NotNormalized,
    NotOrthogonalFamily,
    NotPositive,
    Tolerance,
    baire_envelope,
    build_weyl_finite,
    check_sigma_orthoadditive,
    close,
    dirac_characters,
    evaluate,
    is_pure,
    is_separating,
    join,
    make_state,
    meet,
    operator_norm,
    orthocomplement,
    random_orthogonal_family,
    random_projector,
    random_state,
    restrict_logical,
    sigma_orthoadditivity_residuals,
)
from oplattice import states as states_module
from oplattice.seeding import STREAM_FAMILY_BASE, STREAM_FAMILY_SPLIT, derive_seed
from tests.conftest import (
    INVALID_PROJECTORS,
    KERNEL_ALGEBRAS,
    kernel_algebra,
    line_projector,
    unit,
)


def vector_state(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return make_state(np.outer(v, v.conj()))


def spanning_vector_states(d):
    """d^2 rank-1 densities built from a basis grid; they span the hermitians."""
    states = []
    for j in range(d):
        e_j = np.zeros(d)
        e_j[j] = 1.0
        states.append(vector_state(e_j))
        for k in range(j + 1, d):
            e_k = np.zeros(d)
            e_k[k] = 1.0
            states.append(vector_state(e_j + e_k))
            states.append(vector_state(e_j + 1j * e_k))
    return states


@pytest.fixture(scope="module")
def doubled_m2():
    gens = []
    for g in build_weyl_finite(2).generators:
        big = np.zeros((4, 4), dtype=complex)
        big[:2, :2] = g
        big[2:, 2:] = g
        gens.append(big)
    return close(GeneratorSet(ambient_dim=4, generators=tuple(gens)))


class TestMakeState:
    def test_maximally_mixed(self):
        make_state(np.eye(2) / 2)

    def test_vector_state(self):
        vector_state([1.0, 1.0])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositive):
            make_state(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotNormalized):
            make_state(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            make_state(np.array([[0.5, 0.5], [0.0, 0.5]]))


class TestEvaluate:
    def test_maximally_mixed_weights_uniformly(self):
        st = make_state(np.eye(2) / 2)
        assert evaluate(st, unit(2, 0, 0)) == pytest.approx(0.5)

    def test_eigenvector_expectation(self):
        st = vector_state([1.0, 0.0])
        assert evaluate(st, np.diag([3.0, 7.0])) == pytest.approx(3.0)

    def test_normalization(self):
        st = random_state(4, seed=3)
        assert evaluate(st, np.eye(4)) == pytest.approx(1.0)

    def test_real_on_self_adjoint(self):
        st = random_state(3, seed=4)
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (m + m.conj().T) / 2
        assert abs(evaluate(st, h).imag) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(make_state(np.eye(2) / 2), np.eye(3))

    def test_affine_in_mixtures(self):
        a = random_state(3, seed=11)
        b = random_state(3, seed=12)
        obs = np.diag([1.0, -2.0, 0.5])
        for t in (0.25, 0.5, 0.9):
            mix = make_state(t * a.density + (1 - t) * b.density)
            expected = t * evaluate(a, obs) + (1 - t) * evaluate(b, obs)
            assert abs(evaluate(mix, obs) - expected) <= 1e-12


class TestRestrictLogical:
    def test_mixed_state_on_diagonal_line(self, diag2):
        ls = restrict_logical(make_state(np.eye(2) / 2), diag2)
        assert ls.value(np.diag([1.0, 0.0])) == pytest.approx(0.5)

    def test_certainty_on_containing_range(self, full2):
        st = vector_state([1.0, 0.0])
        ls = restrict_logical(st, full2)
        assert ls.value(np.diag([1.0, 0.0])) == pytest.approx(1.0)

    def test_tilted_vector_state_splits_evenly(self, full2):
        st = vector_state([np.cos(np.pi / 4), np.sin(np.pi / 4)])
        ls = restrict_logical(st, full2)
        assert ls.value(np.diag([1.0, 0.0])) == pytest.approx(0.5)

    def test_values_stay_in_unit_interval(self, full4):
        env = baire_envelope(full4)
        for i in range(40):
            ls = LogicalState(underlying=random_state(4, seed=100 + i), domain=env)
            v = ls.value(random_projector(full4, 200 + i))
            assert -1e-9 <= v <= 1 + 1e-9

    def test_rejects_projector_outside_domain(self, diag2):
        ls = restrict_logical(make_state(np.eye(2) / 2), diag2)
        with pytest.raises(NotInAlgebra):
            ls.value(line_projector(np.pi / 4))


class TestSigmaOrthoadditivity:
    def test_coordinate_family_matches_direct_sums(self):
        # oracle: both sides computed directly from traces
        family = [unit(3, 0, 0), unit(3, 1, 1)]
        for seed in range(10):
            st = random_state(3, seed=seed)
            full3 = close(build_weyl_finite(3))
            ls = restrict_logical(st, full3)
            joined = join(family[0], family[1])
            direct_lhs = np.trace(st.density @ joined).real
            direct_rhs = sum(np.trace(st.density @ p).real for p in family)
            assert abs(direct_lhs - direct_rhs) <= 1e-12
            assert check_sigma_orthoadditive(ls, family)

    def test_complement_pair_sums_to_one(self, full4):
        st = random_state(4, seed=77)
        ls = restrict_logical(st, full4)
        p = random_projector(full4, 31)
        assert abs(ls.value(p) + ls.value(orthocomplement(p)) - 1.0) <= 1e-9
        assert check_sigma_orthoadditive(ls, [p, orthocomplement(p)])

    def test_empty_family_passes(self, full2):
        ls = restrict_logical(make_state(np.eye(2) / 2), full2)
        assert check_sigma_orthoadditive(ls, [])

    def test_rejects_non_orthogonal_family(self, full2):
        ls = restrict_logical(make_state(np.eye(2) / 2), full2)
        with pytest.raises(NotOrthogonalFamily):
            check_sigma_orthoadditive(ls, [line_projector(0.0), line_projector(0.1)])

    @pytest.mark.parametrize(
        "residuals, loose",
        [((1e-6, 0.0), Tolerance(rank_tol=1e-6)), ((0.0, 5e-9), Tolerance(eq_tol=1e-8))],
        ids=["additivity-law_tol", "complement-eq_tol"],
    )
    def test_verdict_thresholds_come_from_the_tolerance(self, full2, monkeypatch, residuals, loose):
        monkeypatch.setattr(
            states_module, "sigma_orthoadditivity_residuals", lambda ls, family, tol: residuals
        )
        ls = restrict_logical(make_state(np.eye(2) / 2), full2)
        assert not check_sigma_orthoadditive(ls, [])
        assert check_sigma_orthoadditive(ls, [], loose)

    def test_every_state_passes_on_sampled_families(self, full4, two_blocks):
        for alg in (full4, two_blocks):
            env = baire_envelope(alg)
            for i in range(25):
                ls = LogicalState(underlying=random_state(alg.ambient_dim, seed=i), domain=env)
                family = random_orthogonal_family(alg, seed=i)
                add_res, comp_res = sigma_orthoadditivity_residuals(ls, family)
                assert add_res <= 1e-7
                assert comp_res <= 1e-9


def reference_random_orthogonal_family(alg, seed):
    """The one-family loop the stacked rounds replaced, on the public one-pair calls."""
    remaining = random_projector(alg, derive_seed(seed, STREAM_FAMILY_BASE, 0))
    parts, cap, attempts = [], alg.ambient_dim, 0
    while float(np.trace(remaining).real) > 0.5 and len(parts) < cap:
        attempts += 1
        if attempts > 4 * cap:
            break
        candidate = random_projector(alg, derive_seed(seed, STREAM_FAMILY_SPLIT, attempts))
        piece = meet(candidate, remaining)
        if float(np.trace(piece).real) > 0.5:
            parts.append(piece)
            remaining = remaining - piece
    if float(np.trace(remaining).real) > 0.5:
        parts.append(remaining)
    return parts


class TestStackedFamilies:
    """Each family of a stacked draw has the bits of its one-family loop."""

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_families_equal_the_one_family_loop(self, name):
        alg = kernel_algebra(name)
        seeds = range(300, 320)
        families = states_module._random_orthogonal_families(alg, seeds, DEFAULT_TOL)
        for family, seed in zip(families, seeds):
            for want in (reference_random_orthogonal_family(alg, seed),
                         random_orthogonal_family(alg, seed)):
                assert len(family) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(family, want))

    def test_no_seeds_no_families(self, two_blocks):
        assert states_module._random_orthogonal_families(two_blocks, [], DEFAULT_TOL) == []

    def test_stacked_running_joins_equal_each_case_alone(self, two_blocks):
        # cases of every length, the empty family included: no zero padding
        env = baire_envelope(two_blocks)
        families = states_module._random_orthogonal_families(two_blocks, range(40), DEFAULT_TOL)
        assert len({len(f) for f in families}) >= 3 and [] in families
        cases = [(f"case {i}", random_state(5, seed=i).density, f) for i, f in enumerate(families)]
        together = states_module._orthoadditivity(env, cases, DEFAULT_TOL)
        assert together == [states_module._orthoadditivity(env, [c], DEFAULT_TOL)[0] for c in cases]

    def test_a_zero_base_gives_an_empty_family_with_join_0(self):
        scalars = close(GeneratorSet(ambient_dim=2, generators=(np.eye(2),)))
        empty = [s for s in range(20) if not random_orthogonal_family(scalars, s)]
        assert empty
        for seed in empty:
            assert not random_projector(scalars, derive_seed(seed, STREAM_FAMILY_BASE, 0)).any()
        # a full-rank state gives a nonzero projector a positive value, so a zero
        # additivity residual means the family's running join is 0
        ls = restrict_logical(random_state(2, seed=3), scalars)
        assert sigma_orthoadditivity_residuals(ls, []) == (0.0, 0.0)


class TestRandomOrthogonalFamily:
    def test_members_partition_a_projector(self, full4):
        for seed in range(15):
            family = random_orthogonal_family(full4, seed=seed)
            for i in range(len(family)):
                for j in range(i + 1, len(family)):
                    assert operator_norm(family[i] @ family[j]) <= 1e-9
            if family:
                total = sum(family)
                assert operator_norm(total @ total - total) <= 1e-9


class TestIsPure:
    def test_vector_state_on_full_algebra(self, full3):
        assert is_pure(vector_state([1.0, 2.0, -1.0]), full3)

    def test_maximally_mixed_is_not_pure(self, full2):
        assert not is_pure(make_state(np.eye(2) / 2), full2)

    def test_straddling_vector_state_is_mixed_on_block_algebra(self):
        gens = []
        for g in build_weyl_finite(2).generators:
            top = np.zeros((4, 4), dtype=complex)
            top[:2, :2] = g
            bottom = np.zeros((4, 4), dtype=complex)
            bottom[2:, 2:] = g
            gens += [top, bottom]
        alg = close(GeneratorSet(ambient_dim=4, generators=tuple(gens)))
        straddle = vector_state([1.0, 0.0, 1.0, 0.0])
        assert not is_pure(straddle, alg)
        # cross-check: the per-block vector states reproduce it on the algebra
        left = vector_state([1.0, 0.0, 0.0, 0.0])
        right = vector_state([0.0, 0.0, 1.0, 0.0])
        mix = 0.5 * left.density + 0.5 * right.density
        for a in alg.basis:
            got = np.trace(straddle.density @ a)
            want = np.trace(mix @ a)
            assert abs(got - want) <= 1e-12

    def test_ambient_mixed_state_can_be_pure_on_subalgebra(self, doubled_m2):
        # rank-2 ambient density, but its reduced block density is rank 1
        v = np.array([1.0, 1j]) / np.sqrt(2)
        block = np.outer(v, v.conj())
        rho = np.zeros((4, 4), dtype=complex)
        rho[:2, :2] = block / 2
        rho[2:, 2:] = block / 2
        st = make_state(rho)
        assert np.linalg.matrix_rank(rho) == 2
        assert is_pure(st, doubled_m2)


class TestDiracCharacters:
    def test_coordinate_characters_read_diagonal_entries(self, diag3):
        chars = dirac_characters(diag3)
        assert len(chars) == 3
        probe = np.diag([5.0, 6.0, 7.0])
        values = sorted(evaluate(c, probe).real for c in chars)
        assert values == pytest.approx([5.0, 6.0, 7.0])

    def test_scalars_have_one_character(self):
        scalars = close(GeneratorSet(ambient_dim=2, generators=(np.eye(2),)))
        chars = dirac_characters(scalars)
        assert len(chars) == 1
        assert operator_norm(chars[0].density - np.eye(2) / 2) <= 1e-12

    def test_degenerate_spectrum_clusters(self):
        alg = close(GeneratorSet(ambient_dim=3, generators=(np.diag([1.0, 1.0, 2.0]),)))
        chars = dirac_characters(alg)
        assert len(chars) == 2
        assert len(chars) == alg.dim

    def test_multiplicative(self, diag3):
        rng = np.random.default_rng(21)
        for chi in dirac_characters(diag3):
            for _ in range(20):
                a = np.diag(rng.standard_normal(3)).astype(complex)
                b = np.diag(rng.standard_normal(3)).astype(complex)
                lhs = evaluate(chi, a @ b)
                rhs = evaluate(chi, a) * evaluate(chi, b)
                assert abs(lhs - rhs) <= 1e-8

    def test_characters_are_pure(self, diag3):
        for chi in dirac_characters(diag3):
            assert is_pure(chi, diag3)

    def test_count_equals_dimension_for_maximal_abelian(self, diag8):
        assert len(dirac_characters(diag8)) == diag8.dim == 8

    def test_rejects_noncommutative(self, full2):
        with pytest.raises(NotCommutative):
            dirac_characters(full2)


class TestIsSeparating:
    def test_characters_jointly_see_everything(self, diag3):
        assert is_separating(dirac_characters(diag3), diag3)

    def test_single_character_misses_a_positive_element(self, diag2):
        chars = dirac_characters(diag2)
        only_first = [chars[0]]
        # that character annihilates the positive element supported on the
        # other coordinate
        missed = unit(2, 1, 1)
        assert abs(evaluate(chars[0], missed.conj().T @ missed)) <= 1e-12
        assert not is_separating(only_first, diag2)

    def test_faithful_trace_separates_alone(self, full2):
        assert is_separating([make_state(np.eye(2) / 2)], full2)

    def test_pure_state_grid_separates_full_algebra(self, full3):
        grid = spanning_vector_states(3)
        assert len(grid) == 9
        assert all(is_pure(st, full3) for st in grid)
        assert is_separating(grid, full3)

    def test_block_algebra_has_separating_pure_family(self, two_blocks):
        from oplattice import block_decomposition

        decomp = block_decomposition(two_blocks)
        family = []
        for sector in decomp.sectors:
            n, m = sector.block_size, sector.multiplicity
            for st in spanning_vector_states(n):
                lifted = np.zeros((5, 5), dtype=complex)
                block = np.kron(st.density, np.eye(m) / m)
                lifted = sector.isometry @ block @ sector.isometry.conj().T
                family.append(make_state(lifted))
        assert all(is_pure(st, two_blocks) for st in family)
        assert is_separating(family, two_blocks)


class TestPurityFalsificationSweep:
    def test_pure_state_is_no_sampled_proper_mixture(self, full3):
        target = vector_state([1.0, 1.0, 0.0])
        ls_target = restrict_logical(target, full3)
        probes = [random_projector(full3, 500 + i) for i in range(20)]
        target_values = np.array([ls_target.value(p) for p in probes])
        rng = np.random.default_rng(17)
        for i in range(50):
            a = random_state(3, seed=1000 + i)
            b = random_state(3, seed=2000 + i)
            t = float(rng.uniform(0.1, 0.9))
            mixed = make_state(t * a.density + (1 - t) * b.density)
            ls_mixed = restrict_logical(mixed, full3)
            mixed_values = np.array([ls_mixed.value(p) for p in probes])
            assert np.max(np.abs(mixed_values - target_values)) > 1e-6


class TestBoundaryValidation:
    @pytest.mark.parametrize("case", sorted(INVALID_PROJECTORS))
    def test_value_validates_its_projector(self, diag2, case):
        bad, error = INVALID_PROJECTORS[case]
        ls = restrict_logical(make_state(np.eye(2) / 2), diag2)
        with pytest.raises(error):
            ls.value(bad)

    @pytest.mark.parametrize("case", sorted(INVALID_PROJECTORS))
    @pytest.mark.parametrize("fn", [sigma_orthoadditivity_residuals, check_sigma_orthoadditive])
    def test_family_members_are_validated(self, diag2, fn, case):
        bad, error = INVALID_PROJECTORS[case]
        ls = restrict_logical(make_state(np.eye(2) / 2), diag2)
        for family in ([bad, unit(2, 1, 1)], [unit(2, 0, 0), bad]):
            with pytest.raises(error):
                fn(ls, family)

    def test_family_outside_the_domain_is_rejected(self, diag2):
        ls = restrict_logical(make_state(np.eye(2) / 2), diag2)
        with pytest.raises(NotInAlgebra):
            sigma_orthoadditivity_residuals(ls, [line_projector(a) for a in (0.3, 0.3 + np.pi / 2)])
