import functools
import json
import re
import tracemalloc

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
    Scenario,
    Tolerance,
    ValidationError,
    baire_envelope,
    block_decomposition,
    build_classical,
    build_sectors,
    build_weyl_finite,
    check_sigma_orthoadditive,
    close,
    dirac_characters,
    evaluate,
    is_pure,
    is_separating,
    join,
    make_state,
    mvn_dimension,
    operator_norm,
    orthocomplement,
    random_orthogonal_family,
    random_projector,
    random_state,
    restrict_logical,
    run_scenario,
    sigma_orthoadditivity_residuals,
    state_from_json,
    state_to_json,
)
from oplattice import logic as logic_module
from oplattice import sectors as sectors_module
from oplattice import states as states_module
from oplattice.algebra import contains
from oplattice.numerics import matrix_to_json, range_projector
from oplattice.seeding import STREAM_FAMILY, STREAM_SWEEP_FAMILY, uniforms
from tests.conftest import (
    INVALID_PROJECTORS,
    KERNEL_ALGEBRAS,
    drawn_families,
    drawn_projectors,
    kernel_algebra,
    line_projector,
    reference_clusters,
    reference_run,
    reference_spectrum,
    reference_uniforms,
    rotated,
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

    @pytest.mark.parametrize("rho", [[[1, 0], [0, "x"]], [[1, 0], [0]], {"a": 1}],
                             ids=["string-entry", "ragged", "dict"])
    def test_entries_numpy_cannot_convert_are_a_validation_error(self, rho):
        with pytest.raises(ValidationError, match="^matrix entries must be complex numbers"):
            make_state(rho)


class TestStateFromJson:
    @pytest.mark.parametrize("data", [[[[0.5, 0.0]]], "rho", None, {}, {"rho": [[[1.0, 0.0]]]}],
                             ids=["list", "string", "null", "empty", "no-density"])
    def test_an_object_with_a_density_is_required(self, data):
        with pytest.raises(ValidationError, match='^state JSON needs a "density" key'):
            state_from_json(data)

    @pytest.mark.parametrize("error, rho, loose", [
        (NotHermitian, [[0.5, 1e-7], [0.0, 0.5]], Tolerance(eq_tol=1e-6)),
        (NotPositive, [[1.0 + 1e-7, 0.0], [0.0, -1e-7]], Tolerance(rank_tol=1e-6)),
        (NotNormalized, [[0.5 + 1e-7, 0.0], [0.0, 0.5]], Tolerance(eq_tol=1e-6)),
    ], ids=["hermitian", "positive", "normalized"])
    def test_the_density_is_checked_under_the_tolerance_passed_in(self, error, rho, loose):
        # each defect is 1e-7: refused at the defaults, accepted where the tolerance allows it
        data = {"density": matrix_to_json(np.array(rho, dtype=complex))}
        with pytest.raises(error):
            state_from_json(data)
        assert np.array_equal(state_from_json(data, loose).density, np.array(rho, dtype=complex))

    @pytest.mark.parametrize("dim, seed", [(1, 0), (3, 1), (8, 2)])
    def test_a_round_trip_through_json_text_keeps_every_bit(self, dim, seed):
        rho = random_state(dim, seed).density
        back = state_from_json(json.loads(json.dumps(state_to_json(make_state(rho))))).density
        assert back.tobytes() == rho.tobytes()


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

    @pytest.mark.parametrize("make", [restrict_logical, LogicalState],
                             ids=["restrict_logical", "LogicalState"])
    def test_a_state_of_another_dimension_is_refused(self, make):
        # refused where the logical state is made, so `value` (which misnamed the mismatch),
        # `sigma_orthoadditivity_residuals` and `check_sigma_orthoadditive` (which leaked
        # numpy's ValueError) never receive one
        with pytest.raises(DimensionMismatch, match="state of dimension 2 vs algebra in M_3"):
            make(random_state(2, 0), close(build_classical(3)))


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


class TestComplementResidual:
    """The complement law ``phi(1 - p) = 1 - phi(p)`` holds for each member up to
    ``|tr rho - 1|``, since ``phi(1) = tr rho``: that is the second residual."""

    @pytest.mark.parametrize("name", ["weyl-4", "sectors-2+1x2", "haar-sectors-2+1x2"])
    def test_it_is_the_trace_defect_and_the_member_wise_law_within_rounding(self, name):
        alg = kernel_algebra(name)
        d = alg.ambient_dim
        for i in range(10):
            rho = random_state(d, seed=i).density * (1.0 + 1e-10 * (i - 5))  # tr within eq_tol
            ls = restrict_logical(make_state(rho), alg)
            family = random_orthogonal_family(alg, seed=i)
            assert family
            _, complement = sigma_orthoadditivity_residuals(ls, family)
            assert complement == abs(np.trace(rho).real - 1.0)
            member_wise = max(abs(ls.value(orthocomplement(p)) - (1.0 - ls.value(p)))
                              for p in family)
            assert abs(member_wise - complement) <= 1e-14

    def test_an_empty_family_has_none(self, full2):
        ls = restrict_logical(make_state(np.diag([0.5 + 4e-10, 0.5])), full2)
        assert sigma_orthoadditivity_residuals(ls, []) == (0.0, 0.0)
        assert sigma_orthoadditivity_residuals(ls, [np.eye(2)])[1] == pytest.approx(4e-10)


def reference_random_orthogonal_family(alg, u, tol=DEFAULT_TOL):
    """One family on one row of uniforms `u`: the row's first 2k + 1 replay `random_projector`'s
    element h and cut (so the kept clusters of h span the base p), the next d - 1 are the cut
    bits (u < 1/2) at h's d - 1 ambient eigenvalue gaps; a loop over the kept clusters cuts
    them into consecutive members, each the projector of its run of h's spectrum (in each
    sector, the columns of its eigenvalues there)."""
    d, k = alg.ambient_dim, alg.dim
    sectors, eig, spectrum = reference_spectrum(alg, u, tol)
    clusters = reference_clusters(spectrum, tol)
    n = len(clusters)  # `random_projector`'s cut: 1 to n - 1 of n >= 2 clusters, 0 or 1 of one
    kept = 1 + int(u[2 * k] * (n - 1)) if n > 1 else int(u[2 * k] * 2)
    cut = u[2 * k + 1:2 * k + d] < 0.5
    clusters = clusters[n - kept:]  # the first place of each kept cluster
    p = reference_run(sectors, eig, spectrum, clusters[0] if clusters else d, d)
    assert np.array_equal(p, base_projector(alg, u))
    starts = clusters[:1] + [i for i in clusters[1:] if cut[i - 1]]
    return [reference_run(sectors, eig, spectrum, start, stop)
            for start, stop in zip(starts, starts[1:] + [d])]


def in_blocks(alg, cases):
    """Ambient ``(label, density, members)`` cases as `states._orthoadditivity` takes them: the
    density stack, case 0's label, and the member counts with the members' sector blocks (the
    partial traces over m, over m) and each family's join, the sum of its orthogonal members,
    in one stack per shape group."""
    d, frame = alg.ambient_dim, block_decomposition(alg).frame
    members = np.array([p for *_, f in cases for p in f], dtype=complex).reshape(-1, d, d)
    joins = np.array([sum(f, np.zeros((d, d))) for *_, f in cases], dtype=complex)
    blocks, join_blocks = ([t / m for (_, m, _, _), t in zip(
        frame.groups, sectors_module._partial_traces(frame, x))] for x in (members, joins))
    sizes = np.array([len(f) for *_, f in cases])
    rho = np.array([density for _, density, _ in cases], dtype=complex)
    return rho, cases[0][0], (sizes, blocks, join_blocks)


def family_uniforms(alg, seed, count, stream=STREAM_FAMILY):
    """Rows 0 .. count - 1 of `stream` under `seed`, as wide as a family draw reads."""
    return uniforms(seed, stream, count, states_module._family_width(alg))


def families_of(alg, seed, count, stream=STREAM_FAMILY):
    """The families of rows 0 .. count - 1 of `stream` under `seed`, drawn as one stack."""
    return drawn_families(alg, family_uniforms(alg, seed, count, stream))


def base_projector(alg, u):
    """The base p of the family of the uniform row `u`: `random_projector`'s draw on it."""
    return drawn_projectors(alg, u[None])[0]


class TestStackedFamilies:
    """Each family of a stacked draw has the bits of its one-family reference."""

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_families_equal_the_one_family_loop(self, name):
        alg = kernel_algebra(name)
        width = states_module._family_width(alg)
        families = families_of(alg, 300, 20, STREAM_SWEEP_FAMILY)
        for i, family in enumerate(families):
            want = reference_random_orthogonal_family(
                alg, reference_uniforms(300, STREAM_SWEEP_FAMILY, i, width))
            assert len(family) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(family, want))
        for seed in range(300, 305):  # a public call is row 0 of its own stream
            family = random_orthogonal_family(alg, seed)
            want = reference_random_orthogonal_family(
                alg, reference_uniforms(seed, STREAM_FAMILY, 0, width))
            assert len(family) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(family, want))

    @pytest.mark.parametrize("gens", [build_weyl_finite(3), build_weyl_finite(5),
                                      build_weyl_finite(8), build_sectors([(2, 1), (3, 1)])],
                             ids=["weyl-3", "weyl-5", "weyl-8", "sectors-2+3"])
    def test_a_one_member_family_is_its_base_projector(self, gens):
        # an uncut range is the run the base draw keeps: the same columns, the same bits
        alg = close(gens)
        u = family_uniforms(alg, 0, 400)
        families = drawn_families(alg, u)
        single = [(f[0], row) for f, row in zip(families, u) if len(f) == 1]
        assert len(single) >= 20
        for member, row in single:
            assert np.array_equal(member, base_projector(alg, row))

    @pytest.mark.parametrize("builder", [build_weyl_finite, build_classical])
    def test_a_draw_holds_no_d_by_d_copy_per_member(self, builder):
        # each member is formed from its own columns: a d x d gather of v and a full masked
        # product per member peaked at 96-109 MiB on these draws. The sweep's draw is the
        # block form; the public sampler maps its one family to M_d
        alg = close(builder(32))
        u = family_uniforms(alg, 1, 200, STREAM_SWEEP_FAMILY)
        states_module._random_orthogonal_families(alg, u[:2], DEFAULT_TOL)  # the sectors
        tracemalloc.start()
        try:
            sizes, *_ = states_module._random_orthogonal_families(alg, u, DEFAULT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes.sum() >= 200
        assert peak < 48 * 2**20

    def test_no_seeds_no_families(self, two_blocks):
        assert families_of(two_blocks, 1, 0) == []

    def test_families_of_a_joined_batch_equal_each_batch_alone(self, two_blocks):
        # the scenario runner draws its state checks' and its sweep's families in one call
        batches = [family_uniforms(two_blocks, 3, 10, 23), family_uniforms(two_blocks, 3, 25, 22)]
        joined = drawn_families(two_blocks, np.concatenate(batches))
        apart = [f for b in batches
                 for f in drawn_families(two_blocks, b)]
        assert [len(f) for f in joined] == [len(f) for f in apart]
        assert all(np.array_equal(a, b) for f, g in zip(joined, apart) for a, b in zip(f, g))

    @pytest.mark.parametrize("family, message", [
        ([unit(3, 0, 0), unit(3, 1, 1), unit(3, 0, 0)], "^family: members 0 and 2 are not"),
        ([unit(3, 0, 0), unit(3, 0, 0) + unit(3, 1, 1)], "^family: members 0 and 1 are not"),
    ], ids=["repeated", "nested"])
    def test_a_failure_names_its_own_case(self, diag3, family, message):
        # a family from outside is checked where it enters, naming its member indices: the
        # sweep's drawn members are runs of one guarded eigenbasis, orthogonal by construction
        ls = restrict_logical(make_state(np.eye(3) / 3), diag3)
        for entry in (sigma_orthoadditivity_residuals, check_sigma_orthoadditive):
            with pytest.raises(NotOrthogonalFamily, match=message):
                entry(ls, family)

    def test_the_first_failing_case_is_named(self, diag3):
        # pairs are checked one lower index at a time, in itertools.combinations' order: the
        # pair named is (1, 4), though (2, 3) has the lower upper index
        family = [unit(3, 0, 0), unit(3, 1, 1), unit(3, 2, 2), unit(3, 2, 2), unit(3, 1, 1)]
        ls = restrict_logical(make_state(np.eye(3) / 3), diag3)
        with pytest.raises(NotOrthogonalFamily, match="^family: members 1 and 4 are not"):
            sigma_orthoadditivity_residuals(ls, family)

    def test_a_member_outside_the_domain_is_caught_where_it_enters(self, diag3, monkeypatch):
        # block stacks lie in the algebra by construction: an outside projector can only enter
        # as an ambient matrix, through the public call or case 0's map back to M_d
        outside = np.outer([1, 1, 0], [1, 1, 0]).astype(complex) / 2
        ls = restrict_logical(make_state(np.eye(3) / 3), diag3)
        with pytest.raises(NotInAlgebra, match="^family: projector not in the domain"):
            sigma_orthoadditivity_residuals(ls, [unit(3, 2, 2), outside])
        monkeypatch.setattr(states_module, "_ambient", lambda frame, blocks: outside[None])
        cases = [("a", np.eye(3) / 3, [unit(3, 0, 0)]), ("b", np.eye(3) / 3, [unit(3, 1, 1)])]
        with pytest.raises(NotInAlgebra, match="^a: projector not in the domain"):
            states_module._orthoadditivity(diag3, *in_blocks(diag3, cases), DEFAULT_TOL)

    def test_stacked_joins_equal_each_case_alone(self, two_blocks):
        # cases of every length, the empty family included (a draw on an algebra whose
        # elements have two clusters or more is never empty, so one is added)
        env = baire_envelope(two_blocks)
        families = families_of(two_blocks, 2, 40) + [[]]
        assert len({len(f) for f in families}) >= 3 and [] in families
        cases = [(f"case {i}", random_state(5, seed=i).density, f) for i, f in enumerate(families)]
        rho, label, (sizes, blocks, joins) = in_blocks(env, cases)
        together = states_module._orthoadditivity(env, rho, label, (sizes, blocks, joins),
                                                  DEFAULT_TOL)
        at = np.cumsum(sizes) - sizes
        alone = [states_module._orthoadditivity(env, rho[i:i + 1], f"case {i}", (
            sizes[i:i + 1], [b[at[i]:at[i] + sizes[i]] for b in blocks],
            [j[i:i + 1] for j in joins]), DEFAULT_TOL) for i in range(len(cases))]
        # the densities' partial traces are a product per matrix: no bit depends on the stack
        for residuals, one_each in zip(together, zip(*alone)):  # additivity, then complement
            assert np.array_equal(residuals, np.concatenate(one_each))

    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_a_familys_join_is_the_fold_of_pair_joins(self, name):
        alg = kernel_algebra(name)
        families = [f for f in families_of(alg, 2, 40) if f]
        assert families
        for family in families:
            fold = functools.reduce(join, family)
            assert operator_norm(logic_module._join(*family, tol=DEFAULT_TOL) - fold) <= 1e-12

    @pytest.mark.parametrize("seed", [2, 9])
    @pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
    def test_the_join_kernel_gives_each_drawn_familys_base(self, name, seed):
        # the sweep reads a drawn family's join as its base; the n-ary `_join` of the members,
        # solved by SVD, must find the same projector: a check of the kernel that can fail
        alg = kernel_algebra(name)
        families, bases = drawn_families(alg, family_uniforms(alg, seed, 40), with_joins=True)
        assert any(families)
        for family, base in zip(families, bases):
            solved = (logic_module._join(*family, tol=DEFAULT_TOL) if family
                      else np.zeros_like(base))
            assert operator_norm(solved - base) <= DEFAULT_TOL.law_tol
            assert np.rint(np.trace(solved).real) == np.rint(np.trace(base).real) == sum(
                np.rint(np.trace(p).real) for p in family)

    def test_the_sweep_solves_no_join_and_a_public_family_one_per_shape_group(
            self, two_blocks, monkeypatch):
        # a drawn family's join is read, its base; a family from outside has its one n-ary
        # join per shape group solved, of all its members at once
        env = baire_envelope(two_blocks)
        families = families_of(two_blocks, 2, 40)
        cases = [(f"case {i}", random_state(5, seed=i).density, f) for i, f in enumerate(families)]
        join_sizes, join_ = [], states_module._join

        def join_counted(*ps, tol):
            join_sizes.append(len(ps))
            return join_(*ps, tol=tol)

        monkeypatch.setattr(states_module, "_join", join_counted)
        states_module._orthoadditivity(env, *in_blocks(env, cases), DEFAULT_TOL)
        run_scenario(Scenario(name="s", kind="sectors", dim=5, trials=40, seed=2,
                              parameters={"blocks": [[2, 1], [1, 1], [2, 1]]}))
        assert join_sizes == []
        family = max(families, key=len)
        sigma_orthoadditivity_residuals(restrict_logical(random_state(5, seed=1), env), family)
        groups = len(block_decomposition(env).frame.groups)
        assert join_sizes == [len(family)] * groups

    def test_a_zero_base_gives_an_empty_family_with_join_0(self):
        scalars = close(GeneratorSet(ambient_dim=2, generators=(np.eye(2),)))
        u = family_uniforms(scalars, 0, 20)
        families = drawn_families(scalars, u)
        empty = [row for row, family in zip(u, families) if not family]
        assert empty
        for row in empty:
            assert not base_projector(scalars, row).any()
        # a full-rank state gives a nonzero projector a positive value, so a zero
        # additivity residual means the family's join is 0
        ls = restrict_logical(random_state(2, seed=3), scalars)
        assert sigma_orthoadditivity_residuals(ls, []) == (0.0, 0.0)


class TestRandomOrthogonalFamily:
    @pytest.mark.parametrize("name", ["weyl-4", "sectors-2+1x2", "classical-5",
                                      "haar-sectors-2+1x2"])
    def test_members_are_orthogonal_projectors_in_the_algebra_summing_to_the_base(self, name):
        alg = kernel_algebra(name)
        u = family_uniforms(alg, 0, 40)
        families = drawn_families(alg, u)
        for row, family in zip(u, families):
            for i, p in enumerate(family):
                assert operator_norm(p @ p - p) <= 1e-12 and operator_norm(p - p.conj().T) == 0
                assert contains(alg, p)
                for q in family[i + 1:]:
                    assert operator_norm(p @ q) <= 1e-12
            base = base_projector(alg, row)
            assert operator_norm(sum(family, np.zeros_like(base)) - base) <= 1e-12
        sizes = [len(f) for f in families]
        assert max(sizes) >= 2 and 1 in sizes

    def test_members_partition_a_projector(self, full4):
        for seed in range(15):
            family = random_orthogonal_family(full4, seed=seed)
            for i in range(len(family)):
                for j in range(i + 1, len(family)):
                    assert operator_norm(family[i] @ family[j]) <= 1e-9
            if family:
                total = sum(family)
                assert operator_norm(total @ total - total) <= 1e-9


class TestSamplerArguments:
    """The seeded samplers reject what `lattice_report` rejects, with its message."""

    @pytest.mark.parametrize("call, message", [
        (lambda alg: random_state(0, 1), "dim must be a positive integer, got 0"),
        (lambda alg: random_state(-2, 1), "dim must be a positive integer, got -2"),
        (lambda alg: random_state(2.0, 1), "dim must be a positive integer, got 2.0"),
        (lambda alg: random_state(2, True), "seed must be a nonnegative integer, got True"),
        (lambda alg: random_state(2, -1), "seed must be a nonnegative integer, got -1"),
        (lambda alg: random_projector(alg, True), "seed must be a nonnegative integer, got True"),
        (lambda alg: random_projector(alg, 1.5), "seed must be a nonnegative integer, got 1.5"),
        (lambda alg: random_projector(alg, -3), "seed must be a nonnegative integer, got -3"),
        (lambda alg: random_orthogonal_family(alg, True),
         "seed must be a nonnegative integer, got True"),
        (lambda alg: random_orthogonal_family(alg, 1.5),
         "seed must be a nonnegative integer, got 1.5"),
        (lambda alg: random_orthogonal_family(alg, -1),
         "seed must be a nonnegative integer, got -1"),
    ])
    def test_bad_arguments_raise_value_error(self, full2, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(full2)

    def test_numpy_integers_are_seeds(self, full2):
        assert np.array_equal(random_state(np.int64(2), np.uint64(5)).density,
                              random_state(2, 5).density)
        assert np.array_equal(random_projector(full2, np.int32(5)), random_projector(full2, 5))


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

    @pytest.mark.parametrize("seed", [None, 3], ids=["unrotated", "haar-3"])
    def test_characters_are_the_validated_densities_read_only(self, seed):
        gens = build_classical(6)
        alg = close(gens if seed is None else rotated(gens, seed))
        zs = [s.central_projector for s in block_decomposition(alg).sectors]
        chars = dirac_characters(alg)
        assert len(chars) == len(zs) == 6
        for chi, z in zip(chars, zs):
            assert not chi.density.flags.writeable
            assert np.array_equal(chi.density, make_state(z / np.trace(z).real).density)


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

    @pytest.mark.parametrize("name", ["diag2", "full2", "two_blocks"])
    def test_an_empty_family_separates_nothing(self, request, name):
        # every algebra holds the unit, which no state of an empty family sees
        assert is_separating([], request.getfixturevalue(name)) is False

    def test_faithful_trace_separates_alone(self, full2):
        assert is_separating([make_state(np.eye(2) / 2)], full2)

    def test_pure_state_grid_separates_full_algebra(self, full3):
        grid = spanning_vector_states(3)
        assert len(grid) == 9
        assert all(is_pure(st, full3) for st in grid)
        assert is_separating(grid, full3)

    def test_block_algebra_has_separating_pure_family(self, two_blocks):
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

    @staticmethod
    def loop_verdict(family, alg, tol=DEFAULT_TOL) -> bool:
        """The Gram matrix summed trace by trace, ``sum_i tr(rho_i b_j† b_l)``."""
        gram = np.zeros((alg.dim, alg.dim), dtype=complex)
        for st in family:
            for j, bj in enumerate(alg.basis):
                for l, bl in enumerate(alg.basis):
                    gram[j, l] += np.trace(st.density @ bj.conj().T @ bl)
        w = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        return bool(w[-1] > 0.0 and w[0] > tol.rank_tol * max(1.0, w[-1]))

    # block sizes and multiplicities above 1 (M_2 twice, C three times), also Haar-rotated
    MULTIPLICITY_ALGEBRAS = {
        "multiplicities": lambda: close(build_sectors([(2, 2), (1, 3)])),
        "rotated-multiplicities": lambda: close(rotated(build_sectors([(2, 2), (1, 3)]), 4)),
    }

    @pytest.mark.parametrize("name", ["diag3", "full2", "full3", "two_blocks",
                                      *MULTIPLICITY_ALGEBRAS])
    def test_verdict_equals_the_trace_by_trace_gram(self, request, name):
        build = self.MULTIPLICITY_ALGEBRAS.get(name)
        alg = build() if build else request.getfixturevalue(name)
        d = alg.ambient_dim
        chars = dirac_characters(alg) if name == "diag3" else []
        sectors = block_decomposition(alg).sectors
        # every sector weighted evenly but the one of largest multiplicity m, whose form then
        # has the eigenvalue 2 rank_tol / m: below the cut only through the division by m
        faint = max(sectors, key=lambda s: s.multiplicity)
        weights = [2 * DEFAULT_TOL.rank_tol * s.block_size * (len(sectors) - 1) if s is faint
                   else 1.0 for s in sectors]
        rho = sum(w * s.central_projector / np.trace(s.central_projector).real
                  for w, s in zip(weights, sectors))
        families = {
            "a faint sector": [make_state(rho / np.trace(rho).real)] if len(sectors) > 1 else [],
            "one random state": [random_state(d, seed=3)],
            "two vector states": [vector_state(np.eye(d)[0]), vector_state(np.eye(d)[-1])],
            "a vector of the first sector": [vector_state(sectors[0].isometry[:, 0])],
            "spanning vector states": spanning_vector_states(d),
            "first character": chars[:1],
            "all characters": chars,
        }
        verdicts = []
        for family in filter(None, families.values()):
            verdict = is_separating(family, alg)
            assert verdict == self.loop_verdict(family, alg)
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_each_state_must_match_the_ambient_dimension(self, full2):
        with pytest.raises(DimensionMismatch):
            is_separating([make_state(np.eye(2) / 2), make_state(np.eye(3) / 3)], full2)


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

    def test_one_message_for_a_projector_outside_the_algebra(self, diag3):
        # the dimension function, a logical state's value and a family pass one gate, so they
        # refuse an outside projector with one message, named by the call or the argument
        outside = np.outer([1, 1, 0], [1, 1, 0]).astype(complex) / 2
        ls = restrict_logical(make_state(np.eye(3) / 3), diag3)
        calls = {"mvn_dimension": lambda: mvn_dimension(diag3, outside),
                 "LogicalState.value": lambda: ls.value(outside),
                 "family": lambda: sigma_orthoadditivity_residuals(ls, [unit(3, 2, 2), outside])}
        for label, call in calls.items():
            with pytest.raises(NotInAlgebra) as info:
                call()
            assert str(info.value) == f"{label}: projector not in the domain"

    def test_family_outside_the_domain_is_rejected(self, diag2):
        ls = restrict_logical(make_state(np.eye(2) / 2), diag2)
        with pytest.raises(NotInAlgebra):
            sigma_orthoadditivity_residuals(ls, [line_projector(a) for a in (0.3, 0.3 + np.pi / 2)])
