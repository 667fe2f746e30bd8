import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    DimensionMismatch,
    NotProjector,
    NumericalError,
    Tolerance,
    ValidationError,
    adjoint,
    as_matrix,
    ensure_projector,
    hs_norm,
    is_projector,
    matrix_from_json,
    matrix_to_json,
    null_space,
    operator_norm,
    rank_of,
)
from oplattice import build_weyl_finite, close, meet
from oplattice.numerics import _array_text, dumps, norm_at_most, range_projector, run_projectors
from tests.conftest import haar_unitary


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.eq_tol == 1e-9
        assert tol.rank_tol == 1e-8

    def test_the_two_thresholds_are_the_only_fields(self):
        assert tuple(f.name for f in dataclasses.fields(Tolerance)) == ("eq_tol", "rank_tol")

    @pytest.mark.parametrize("bad", [{"eq_tol": 0.0}, {"rank_tol": 1.0}, {"rank_tol": -1e-3}])
    def test_thresholds_must_be_in_unit_interval(self, bad):
        with pytest.raises(ValueError):
            Tolerance(**bad)

    def test_law_tol_is_ten_rank_tols(self):
        assert DEFAULT_TOL.law_tol == 1e-7
        # 10 * 1e-6 is 9.999999999999999e-06 in binary floating point
        assert Tolerance(rank_tol=1e-6).law_tol == pytest.approx(1e-5, rel=1e-15)


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_matrix(np.array([[np.nan, 0], [0, 1]]))

    def test_result_is_read_only(self):
        a = as_matrix(np.eye(2))
        with pytest.raises(ValueError):
            a[0, 0] = 5.0


class TestAdjoint:
    def test_identity_self_adjoint(self):
        assert np.array_equal(adjoint(np.eye(3)), np.eye(3))

    def test_real_matrix_transposes(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(adjoint(m), np.array([[0, 0], [1, 0]]))

    def test_conjugates(self):
        m = np.array([[0, 1j], [0, 0]])
        assert np.array_equal(adjoint(m), np.array([[0, 0], [-1j, 0]]))

    def test_involution(self):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 4)
        assert np.array_equal(adjoint(adjoint(m)), m)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal_takes_largest_modulus(self):
        assert operator_norm(np.diag([2.0, -3.0])) == pytest.approx(3.0)

    def test_nilpotent(self):
        # eigenvalues of m*m are {0, 4}
        assert operator_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0)

    def test_cstar_identity_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            m = random_matrix(rng, d)
            lhs = operator_norm(m.conj().T @ m)
            rhs = operator_norm(m) ** 2
            assert abs(lhs - rhs) <= 1e-8 * (1 + rhs)

    def test_adjoint_preserves_norm(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            m = random_matrix(rng, 5)
            assert abs(operator_norm(adjoint(m)) - operator_norm(m)) <= 1e-10

    def test_submultiplicative(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4)
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


class TestExportedNormsValidate:
    """`operator_norm` and `hs_norm` raise `ValidationError` for what NumPy cannot read as
    complex numbers, and take 2-D matrices of any shape and stacks as before."""

    @pytest.mark.parametrize("bad", [[[1, "x"]], [[1, 2], [3]], [[[1, 0], [0, 1]], [[1, 0]]]],
                             ids=["string", "ragged", "ragged-stack"])
    @pytest.mark.parametrize("norm", [operator_norm, hs_norm])
    def test_unreadable_entries(self, norm, bad):
        with pytest.raises(ValidationError, match="complex numbers"):
            norm(bad)

    @pytest.mark.parametrize("bad", [None, [[np.nan]], np.full((3, 2, 2), np.nan)],
                             ids=["none", "nan", "nan-stack"])
    def test_operator_norm_of_nan_entries(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            operator_norm(bad)

    @pytest.mark.parametrize("bad", [
        [[np.inf, 0], [0, 1]], [[np.nan]], [[np.inf]], [[1, -np.inf]], [[complex(0, np.inf)]],
        np.stack([np.eye(2), np.full((2, 2), np.inf)]),
    ], ids=["inf-diagonal", "nan", "inf", "minus-inf-row", "imaginary-inf", "inf-stack"])
    @pytest.mark.parametrize("norm", [operator_norm, hs_norm])
    def test_non_finite_entries(self, norm, bad):
        # a norm that comes out NaN or Inf sends the input to the finiteness check
        with pytest.raises(ValidationError, match="finite"):
            norm(bad)

    def test_a_finite_input_may_overflow(self):
        # only the entries are checked: a finite matrix whose norm exceeds the floats is inf
        big = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"):
            assert hs_norm(big) == np.inf
        assert operator_norm(big) == np.inf

    def test_shapes_still_taken(self):
        rect = np.ones((2, 3))
        assert operator_norm(rect) == pytest.approx(np.sqrt(6))
        assert hs_norm(rect) == pytest.approx(np.sqrt(6))
        stack = np.stack([np.eye(2), 2 * np.eye(2)])
        assert np.allclose(operator_norm(stack), [1, 2])
        assert hs_norm(stack) == pytest.approx(np.sqrt(10))
        assert operator_norm([[3, 4j]]) == pytest.approx(5.0)
        assert operator_norm(np.zeros((0, 0))) == 0.0


class TestRankAndNullSpace:
    def test_zero_matrix(self):
        assert rank_of(np.zeros((3, 3))) == 0
        assert null_space(np.zeros((3, 3))).shape == (3, 3)

    def test_noise_scale_matrix_counts_as_zero(self):
        assert rank_of(1e-14 * np.ones((2, 2))) == 0

    def test_diagonal_projector(self):
        assert rank_of(np.diag([1.0, 1.0, 0.0])) == 2

    def test_rank_one_outer_product(self):
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        assert rank_of(np.outer(v, v)) == 1

    def test_identity_has_trivial_kernel(self):
        assert null_space(np.eye(2)).shape == (2, 0)

    def test_coordinate_kernel(self):
        basis = null_space(np.diag([1.0, 0.0, 0.0]))
        assert basis.shape == (3, 2)
        assert operator_norm(basis.conj().T @ basis - np.eye(2)) <= 1e-12
        assert np.allclose(np.diag([1.0, 0.0, 0.0]) @ basis, 0.0)

    def test_rank_nullity(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = int(rng.integers(1, 8))
            r = int(rng.integers(0, d + 1))
            left = random_matrix(rng, d)[:, :r]
            right = random_matrix(rng, d)[:r, :]
            m = left @ right if r else np.zeros((d, d), dtype=complex)
            assert rank_of(m) + null_space(m).shape[1] == d

    def test_kernel_vectors_are_annihilated(self):
        rng = np.random.default_rng(10)
        m = random_matrix(rng, 5)
        m[:, 2] = m[:, 0] + m[:, 1]  # force rank deficiency
        basis = null_space(m)
        assert basis.shape[1] >= 1
        assert operator_norm(m @ basis) <= DEFAULT_TOL.rank_tol * operator_norm(m)


    def test_tall_system_kernel_matches_full_svd(self):
        # the thin SVD must keep exactly the kernel the full one gives
        rng = np.random.default_rng(11)
        for rows, cols, rank in [(80, 16, 11), (40, 9, 9), (30, 6, 0), (12, 5, 3)]:
            m = random_matrix(rng, rows)[:, :rank] @ random_matrix(rng, cols)[:rank, :]
            kernel = null_space(m)
            full = np.linalg.svd(m, full_matrices=True)[2][rank:].conj().T
            assert kernel.shape == full.shape == (cols, cols - rank)
            assert np.allclose(kernel @ kernel.conj().T, full @ full.conj().T, atol=1e-12)


def with_singular_values(rng, values):
    """A random complex matrix with the given singular values (and zeros past them)."""
    d = 6
    u, _ = np.linalg.qr(random_matrix(rng, d))
    v, _ = np.linalg.qr(random_matrix(rng, d))
    return u @ np.diag(np.pad(np.asarray(values, dtype=float), (0, d - len(values)))) @ v


class TestRunProjectors:
    def test_each_run_has_the_bits_of_its_slice(self):
        # runs in any order, repeated ranges from different bases, empty runs among them
        rng = np.random.default_rng(5)
        v = np.linalg.qr(rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6)))[0]
        k = rng.integers(0, 4, 60)
        starts = rng.integers(0, 7, 60)
        stops = np.minimum(starts + rng.integers(0, 4, 60), 6)
        out = run_projectors(v, k, starts, stops, DEFAULT_TOL)
        assert out.shape == (60, 6, 6) and out.dtype == complex
        assert 0 < np.count_nonzero(starts == stops) < 60
        for p, i, a, b in zip(out, k, starts, stops):
            want = range_projector(v[i][:, a:b]) if a < b else np.zeros((6, 6))
            assert np.array_equal(p, want)

    def test_scalar_bounds_broadcast_and_no_runs_give_an_empty_stack(self):
        v = np.linalg.qr(random_matrix(np.random.default_rng(6), 5))[0][None]
        assert np.array_equal(run_projectors(v, np.array([0, 0]), [1, 5], 5, DEFAULT_TOL),
                              np.stack([range_projector(v[0][:, 1:]), np.zeros((5, 5))]))
        assert run_projectors(v, np.array([], dtype=int), [], [], DEFAULT_TOL).shape == (0, 5, 5)

    def test_a_basis_off_unitary_is_a_numerical_error_with_its_defect(self):
        # the one guard of every proposition: ||v* v - 1|| <= eq_tol / 2 for each basis read,
        # whether or not a run reads it; an empty k still checks the stack
        v = np.stack([np.eye(3, dtype=complex), 1.001 * np.eye(3, dtype=complex)])
        for k in (np.array([0, 1]), np.array([0]), np.array([], dtype=int)):
            with pytest.raises(NumericalError, match="not unitary") as caught:
                run_projectors(v, k, [0] * len(k), 2, DEFAULT_TOL)
            assert caught.value.residual == pytest.approx(1.001**2 - 1, rel=1e-9)

    def test_an_eigh_basis_passes_and_the_bound_is_half_eq_tol(self):
        rng = np.random.default_rng(7)
        h = random_matrix(rng, 8)
        v = np.linalg.eigh(h + h.conj().T)[1][None]
        assert run_projectors(v, np.array([0]), [0], 3, DEFAULT_TOL).shape == (1, 8, 8)
        off = v * np.sqrt(1 + np.array([0.45, 0.55])[:, None, None, None] * DEFAULT_TOL.eq_tol)
        run_projectors(off[:1], np.array([0]), [0], 3, DEFAULT_TOL)  # 0.45 eq_tol: passes
        with pytest.raises(NumericalError):
            run_projectors(off[1:], np.array([0]), [0], 3, DEFAULT_TOL)  # 0.55 eq_tol


class TestNormAtMost:
    """`norm_at_most` is `operator_norm(m) <= bound`, whatever the Frobenius screen decides."""

    def agrees(self, stack, bound):
        want = operator_norm(stack) <= bound
        got = norm_at_most(stack, bound)
        assert got.dtype == bool and np.array_equal(got, want)
        for m, b, w in zip(stack, np.broadcast_to(bound, len(stack)), want):
            one = norm_at_most(m, b)
            assert type(one) is bool and one == w
        return got

    def test_random_stacks(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 5, 9):
            stack = np.stack([random_matrix(rng, d) for _ in range(40)])
            stack *= rng.uniform(1e-3, 1.0, size=(40, 1, 1))
            norms = operator_norm(stack)
            for bound in (0.5 * np.median(norms), float(np.median(norms)), 1e-9, 10.0 * d):
                self.agrees(stack, bound)
            self.agrees(stack, norms * rng.uniform(0.5, 1.5, size=40))  # a bound per matrix

    def test_frobenius_above_half_the_bound(self):
        # the screen cannot decide these: Frobenius norm past bound / 2, spectral norm on
        # either side of the bound (and Frobenius above the bound with spectral below it)
        rng = np.random.default_rng(12)
        stack = np.stack([with_singular_values(rng, [s] * count)
                          for s in (0.3, 0.45, 0.6, 0.9, 0.999, 1.001, 1.2)
                          for count in (1, 2, 4, 6)])
        frobenius = np.linalg.norm(stack, axis=(1, 2))
        assert (frobenius > 0.5).sum() >= 20
        got = self.agrees(stack, 1.0)
        assert got.any() and not got.all()

    def test_rank_one_at_the_bound(self):
        rng = np.random.default_rng(13)
        for bound in (1e-9, 1.0, 3.5):
            stack = np.stack([with_singular_values(rng, [bound * (1 + e)])
                              for e in (-1e-12, 1e-12, -1e-12, 1e-12)])
            got = self.agrees(stack, bound)
            assert got.tolist() == [True, False, True, False]

    def test_underflowing_squares_do_not_pass_the_screen(self):
        tiny = np.diag([1e-200, 0.0]).astype(complex)  # its squares round to 0
        assert norm_at_most(tiny, 1e-250) is False
        assert norm_at_most(tiny, 1e-190) is True
        assert norm_at_most(tiny[None], 1e-250).tolist() == [False]

    def test_empty_stack(self):
        out = norm_at_most(np.zeros((0, 3, 3), dtype=complex), 1.0)
        assert out.shape == (0,) and out.dtype == bool


class TestProjectorValidation:
    def test_accepts_rank_one(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        ensure_projector(np.outer(v, v.conj()))

    def test_stack_is_checked_entry_by_entry(self):
        good = np.stack([np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2))]).astype(complex)
        out = ensure_projector(good)
        assert out.shape == (3, 2, 2) and not out.flags.writeable
        for bad, law in [(np.diag([0.5, 0.5]), "idempotent"),
                         (np.array([[1, 1], [0, 0]]), "self-adjoint")]:
            stack = np.concatenate([good, bad[None]])
            with pytest.raises(NotProjector, match=f"stack entry 3 not {law}") as info:
                ensure_projector(stack)
            assert not is_projector(stack)
            # the message prints the failing entry's spectral norm, not the screen's norm
            defect = bad @ bad - bad if law == "idempotent" else bad - bad.conj().T
            assert str(info.value).endswith(f" = {operator_norm(defect):.3e}")
        # the first entry breaking either law is named, with the law it breaks: entry 1 is
        # self-adjoint but not idempotent, entry 3 is idempotent but not self-adjoint
        half, p = 0.5 * np.eye(2), np.diag([1.0, 0.0])
        stack = np.stack([p, half, p, np.array([[1.0, 1.0], [0.0, 0.0]])]).astype(complex)
        with pytest.raises(NotProjector, match="^stack entry 1 not idempotent") as info:
            ensure_projector(stack)
        assert str(info.value).endswith(f" = {operator_norm(half @ half - half):.3e}")
        # an entry breaking both laws is named for self-adjointness
        both = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotProjector, match="^stack entry 1 not self-adjoint"):
            ensure_projector(np.stack([p, both, half]).astype(complex))

    def test_stack_rejects_nan_and_non_square(self):
        with pytest.raises(ValidationError):
            ensure_projector(np.full((2, 2, 2), np.nan))
        with pytest.raises(DimensionMismatch):
            ensure_projector(np.zeros((2, 2, 3)))

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotProjector):
            ensure_projector(np.diag([0.5, 0.5]))

    def test_rejects_non_hermitian(self):
        assert not is_projector(np.array([[1, 1], [0, 0]], dtype=complex))


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 3)
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_writes_the_bytes_of_the_per_entry_loop(self):
        rng = np.random.default_rng(4)
        special = np.array([[-0.0 + 5e-324j, 1e308 - 0.0j], [2.2250738585072014e-308, -1e-300j]])
        for m in (random_matrix(rng, 5), special, np.eye(3)):
            loop = [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, complex)]
            assert json.dumps(matrix_to_json(m), indent=2) == json.dumps(loop, indent=2)

    def test_reads_the_bits_of_complex_re_im(self):
        rows = [[[-0.0, 0.0], [1, -0.0]], [[2**70, -(2**64) + 3], [5e-324, 1.5 * 2.0**1023]]]
        want = np.array([[complex(re, im) for re, im in row] for row in rows])
        assert matrix_from_json(rows).tobytes() == want.tobytes()

    def test_rejects_an_integer_outside_the_float_range(self):
        with pytest.raises(ValidationError, match="float range"):
            matrix_from_json([[[10**400, 0]]])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[[1.0, 0.0]], 7], "rows must be arrays"),
            ([[[1.0]], 7], "entries must be"),
            ([[[1.0, "0"]]], "entries must be"),
            ([[(1.0, 0.0)]], "entries must be"),
            ([[]], "must be nonempty"),
        ],
    )
    def test_the_first_bad_row_or_entry_names_the_error(self, rows, message):
        with pytest.raises((ValidationError, DimensionMismatch), match=message):
            matrix_from_json(rows)

    def test_rejects_bare_numbers(self):
        with pytest.raises(ValidationError):
            matrix_from_json([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_booleans_as_numbers(self):
        with pytest.raises(ValidationError):
            matrix_from_json([[[True, False]]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValidationError):
            matrix_from_json([[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])

    def test_expected_dim_enforced(self):
        with pytest.raises(DimensionMismatch):
            matrix_from_json(matrix_to_json(np.eye(2)), expected_dim=3)


# Signed zeros, a subnormal, numbers whose repr switches notation, a sum that is not the
# decimal it looks like, and the values json spells NaN and Infinity where repr does not.
SPECIAL = np.array([
    [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)],
    [5e-324, 1e16, 1e-05, 0.1 + 0.2],
    [np.nan, np.inf, -np.inf, complex(np.nan, -np.inf)],
])


def read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


class TestDumps:
    """`dumps` writes the bytes of `json.dumps` over `matrix_to_json`, on dense arrays and on
    mostly-zero ones, whose distinct bit patterns it formats once."""

    @pytest.mark.parametrize(
        "base", [SPECIAL, np.pad(SPECIAL, ((0, 6), (0, 8)))], ids=["dense", "mostly-zero"]
    )
    @pytest.mark.parametrize(
        "view",
        [
            lambda b: b,
            lambda b: b.real,
            lambda b: b.T,
            lambda b: b[::-1, ::-2],
            lambda b: b[-1:, :1],
            read_only,
            lambda b: np.stack([b, -b, b.conj()]),
        ],
        ids=["complex", "real-dtype", "transposed", "negative-strides", "1x1", "read-only",
             "stack"],
    )
    def test_writes_the_bytes_of_json_dumps(self, base, view):
        a = view(base)
        assert dumps({"m": a}) == json.dumps({"m": matrix_to_json(a)})

    def test_keys_the_distinct_set_on_bits(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1], a[2, 3], a[3, 0] = -0.0, complex(0.0, -0.0), 1.0
        text = dumps({"m": a})
        assert text == json.dumps({"m": matrix_to_json(a)})
        assert "[-0.0, 0.0]" in text and "[0.0, -0.0]" in text

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0), (0,)])
    def test_an_empty_array(self, shape):
        a = np.zeros(shape, dtype=complex)
        assert dumps({"m": a}) == json.dumps({"m": matrix_to_json(a)})

    def test_other_values_keep_their_order_and_bytes(self):
        payload = {"a": 1, "m": np.eye(2), "z": [1.5, None, "x\u00e9", {"n": -0.0}], "t": True}
        want = json.dumps({**payload, "m": matrix_to_json(np.eye(2))})
        assert dumps(payload) == want

    @pytest.mark.parametrize(
        "payload", [{"lattice": {"p": [[[0.1, -0.0]]]}, "n": 3}, [1, 2.5], "text", {}],
        ids=["nested-lists", "list", "string", "empty"],
    )
    def test_a_payload_without_a_top_level_array_is_json_dumps(self, payload):
        assert dumps(payload) == json.dumps(payload)


def meet_of_two_planes():
    # two random real planes of C^3 meet in a line: a dense rank-1 projector
    rng = np.random.default_rng(8)
    p, q = (v @ np.linalg.pinv(v) for v in (rng.standard_normal((3, 2)) for _ in range(2)))
    return meet(p, q)


def negative_zero_rows(part):
    a = np.zeros((2, 3, 3), dtype=complex)
    a.view(float).reshape(2, 3, 3, 2)[1, 2, 0, part] = -0.0  # one row's only nonzero bit
    a[0, 1, 1] = 1.0
    return a


class TestArrayText:
    """`_array_text` on the edge cases of its row sharing and pattern formatting."""

    @pytest.mark.parametrize("make", [
        lambda: np.zeros((3, 4, 4)),
        lambda: negative_zero_rows(0),
        lambda: negative_zero_rows(1),
        meet_of_two_planes,
        lambda: np.array([[2.5 - 1j]]),
        lambda: np.zeros((1, 1)),
        lambda: np.tensordot(close(build_weyl_finite(4)).basis,
                             haar_unitary(4, np.random.default_rng(2)), axes=(2, 0)),
        lambda: np.array([[5e-324, 1e300 - 2e-310j, 0], [0, 0, 0], [0, -1e300, 2.2e-308]]),
    ], ids=["all-zero", "negative-zero-real", "negative-zero-imaginary", "meet-2d", "1x1",
            "1x1-zero", "dense-rotated-basis", "subnormal-and-1e300"])
    def test_writes_the_bytes_of_json_dumps(self, make):
        a = make()
        assert "".join(_array_text(a)) == json.dumps(matrix_to_json(a))

    @pytest.mark.parametrize("part", [0, 1])
    def test_a_negative_zero_row_does_not_share_the_zero_text(self, part):
        text = "".join(_array_text(negative_zero_rows(part)))
        assert ("[-0.0, 0.0]", "[0.0, -0.0]")[part] in text

    def test_peak_memory_is_near_the_text_length(self):
        payload = {"basis": close(build_weyl_finite(32)).basis}  # canonical units, built here
        tracemalloc.start()
        try:
            text = dumps(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(text)
