"""Dense complex linear algebra with one explicit tolerance policy.

Every other module funnels its numerical decisions (equality thresholds,
rank cutoffs, iteration limits) through a `Tolerance` value defined here,
so the policy lives in a single place instead of scattered magic numbers.
All matrices are dense ``complex128``; the hot kernels work on stacks
and BLAS products rather than Python loops (measured envelope in the README).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotProjector,
    ValidationError,
)


def is_int(x) -> bool:
    """An integer proper, not a bool, float or string: nothing gets truncated."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Tolerance:
    """Shared numerical policy.

    eq_tol
        Operator-norm threshold below which two matrices count as equal.
    rank_tol
        Relative singular-value cutoff for rank and null-space decisions.
    conv_tol
        Convergence threshold for iterative limits.
    max_iter
        Iteration cap for those limits.
    """

    eq_tol: float = 1e-9
    rank_tol: float = 1e-8
    conv_tol: float = 1e-10
    max_iter: int = 10_000

    def __post_init__(self):
        for name in ("eq_tol", "rank_tol", "conv_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
        if not is_int(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")

    @property
    def law_tol(self) -> float:
        """Law-verdict threshold ``10 * rank_tol``: law residuals follow the rank cutoff."""
        return 10 * self.rank_tol

    @property
    def rounding_floor(self) -> float:
        """Residual ``1024 * eps`` (2.3e-13), relative to a vector's own norm, that float64
        rounding alone can leave: `close` never takes one this small for a direction, however
        small ``rank_tol`` is."""
        return 1024 * float(np.finfo(float).eps)


DEFAULT_TOL = Tolerance()
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def as_matrix(m, square: bool = True) -> np.ndarray:
    """Coerce ``m`` to a read-only complex matrix, validating shape and finiteness."""
    a = np.array(m, dtype=complex, order="C")
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got array of shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be nonempty, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite (no NaN or Inf)")
    a.setflags(write=False)
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m, square=False).conj().T


def operator_norm(m):
    """Spectral norm (largest singular value); per matrix of an ``(n, d, d)`` stack."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    if a.ndim == 2 and a.size == 0:
        return 0.0
    norms = np.linalg.svd(a, compute_uv=False)[..., 0]  # as norm(ord=2), without its overhead
    return float(norms) if a.ndim == 2 else norms


def norm_at_most(m, bound):
    """``operator_norm(m) <= bound``, per matrix of a stack (a bound each, or one), a ``bool``
    for a 2-D ``m``. As ``||m||_2 <= ||m||_F``, a Frobenius norm within ``bound / 2`` answers
    True and only the rest take the SVD; the 2 outweighs both norms' rounding (no tolerance:
    every verdict is the SVD's), with squares compared where ``(bound / 2)^2`` is normal."""
    a = np.ascontiguousarray(m, dtype=complex)
    if a.ndim == 2:  # a public one-matrix call: plain floats, no stack set-up
        quarter = (bound / 2) ** 2
        return bool(quarter >= _TINY and np.vdot(a, a).real <= quarter or operator_norm(a) <= bound)
    quarter = np.square(np.divide(bound, 2))
    x = a.view(float)  # re, im pairs: the squared norms are real products only
    out = (quarter >= _TINY) & (np.einsum("...ij,...ij->...", x, x) <= quarter)
    if not out.all():
        out[~out] = operator_norm(a[~out]) <= np.broadcast_to(bound, out.shape)[~out]
    return out


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``tr(a† b)``."""
    return complex(np.vdot(a, b))


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def hermitian_eig(m, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a self-adjoint matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    descending order and matching orthonormal eigenvector columns, so
    that ``m == V @ diag(w) @ V†`` up to rounding.

    Raises
    ------
    NotHermitian
        If ``||m - m*||`` exceeds ``tol.eq_tol``.
    """
    a = as_matrix(m)
    defect = a - a.conj().T
    if not norm_at_most(defect, tol.eq_tol):
        raise NotHermitian(f"matrix is not self-adjoint: ||m - m*|| = {operator_norm(defect):.3e}")
    w, v = np.linalg.eigh(a)
    return w[::-1].copy(), v[:, ::-1].copy()


def rank_of(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above ``rank_tol`` times the largest.

    A matrix whose largest singular value does not exceed ``rank_tol``
    itself counts as zero and has rank 0. The operators handled by this
    package have O(1) scale, so a purely relative cutoff would mistake
    accumulated rounding noise for full rank.
    """
    return int(singular_rank(np.linalg.svd(as_matrix(m, square=False), compute_uv=False), tol))


def singular_rank(s: np.ndarray, tol: Tolerance):
    """`rank_of`'s rule on descending singular values, per row of an ``(..., r)`` stack: the
    count above ``rank_tol`` times the row's largest, 0 when that largest is at most
    ``rank_tol`` itself."""
    top = s[..., :1]
    keep = (s > tol.rank_tol * top) & (top > tol.rank_tol)
    # an axis sends count_nonzero through a generic sum, ~4 us a call on one row
    return np.count_nonzero(keep, axis=-1) if s.ndim > 1 else np.count_nonzero(keep)


def null_space(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ``ker(m)``, returned as matrix columns.

    Accepts rectangular input (used for stacked systems); the kernel
    lives in the column dimension. The returned columns ``b`` satisfy
    ``||m b|| <= rank_tol * ||m||`` and the column count equals
    ``columns(m) - rank_of(m)``; the zero-matrix convention matches
    `rank_of`.
    """
    a = as_matrix(m, square=False)
    # the kernel needs all d columns of V, but never the rows x rows U of a tall system
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[singular_rank(s, tol):].conj().T.copy()


def is_projector(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``m`` is self-adjoint and idempotent within ``tol.eq_tol``."""
    try:
        ensure_projector(m, tol)
    except ValidationError:
        return False
    return True


def ensure_projector(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate that ``m`` is an orthogonal projector and return it read-only.

    Self-adjointness plus idempotence forces the spectrum into {0, 1},
    so no separate eigenvalue check is needed. An ``(n, d, d)`` stack is
    checked matrix by matrix; a failure names the first bad entry and the first law it
    breaks, self-adjointness before idempotence.
    """
    a = _as_operators(m)
    herm, idem = a - a.conj().swapaxes(-2, -1), a @ a - a
    herm_ok = norm_at_most(herm, tol.eq_tol)
    if not np.all(ok := herm_ok & norm_at_most(idem, tol.eq_tol)):
        i = int(np.argmin(ok))  # the first entry breaking either law
        law, defect = (("self-adjoint: ||p - p*||", herm) if not np.ravel(herm_ok)[i]
                       else ("idempotent: ||p^2 - p||", idem))
        where, defect = (f"stack entry {i} ", defect[i]) if a.ndim == 3 else ("", defect)
        raise NotProjector(f"{where}not {law} = {operator_norm(defect):.3e}")
    return a


def _as_operators(m) -> np.ndarray:
    """`as_matrix` for one square matrix, or its checks on an ``(n, d, d)`` stack."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        return as_matrix(a)
    return as_matrix(a.reshape(a.shape[0] * a.shape[1], a.shape[2]), square=False).reshape(a.shape)


def spectral_clusters(h, tol: Tolerance) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Eigenvectors ``v`` of the self-adjoint ``h`` (ascending eigenvalues) and the
    ``[start, stop)`` column runs of its eigenvalue clusters (see `cluster_breaks`)."""
    w, v = np.linalg.eigh(h)
    bounds = [0, *(np.flatnonzero(cluster_breaks(w, tol)) + 1).tolist(), w.size]
    return v, list(zip(bounds[:-1], bounds[1:]))


def cluster_breaks(w: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Per row of ascending eigenvalues, ``breaks[..., i]`` is true where ``w[..., i]`` and
    ``w[..., i + 1]`` differ by more than ``rank_tol * max(1, spread)``: a new cluster starts."""
    spread = w[..., -1:] - w[..., :1]
    return np.diff(w, axis=-1) > tol.rank_tol * np.maximum(1.0, spread)


def range_projector(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projector ``cols cols*`` onto orthonormal columns, symmetrised; per
    matrix of an ``(n, d, r)`` stack."""
    p = cols @ cols.conj().swapaxes(-2, -1)
    return (p + p.conj().swapaxes(-2, -1)) / 2.0


def suffix_projectors(v: np.ndarray, starts) -> np.ndarray:
    """``range_projector(v[i][:, starts[i]:])`` for each matrix of an ``(..., d, d)`` stack, one
    product per start: bit-identical to the call on each slice (a masked full product is not)."""
    out = np.zeros(v.shape, dtype=complex)
    starts = np.asarray(starts)
    for start in set(starts.ravel().tolist()) - {v.shape[-1]}:  # an empty suffix projects to 0
        group = starts == start
        out[group] = range_projector(v[group][..., start:])
    return out


def matrix_to_json(m) -> list:
    """Serialize a matrix as a JSON array of rows; each entry is ``[re, im]``."""
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def dumps(payload) -> str:
    """The one JSON text writer: the bytes of ``json.dumps(payload)``, an ndarray value of a
    payload dict (string keys) written as its `matrix_to_json` list, but without building those
    lists (their garbage collection cost more than their numbers) and, in a mostly-zero array,
    formatting each distinct ``(re, im)`` bit pattern once."""
    if not (isinstance(payload, dict) and any(isinstance(v, np.ndarray) for v in payload.values())):
        return json.dumps(payload)  # compact, so CPython's C encoder writes it
    return "{" + ", ".join(
        f"{json.dumps(k)}: {_array_text(v) if isinstance(v, np.ndarray) else json.dumps(v)}"
        for k, v in payload.items()
    ) + "}"


def _array_text(m) -> str:
    """``json.dumps(matrix_to_json(m))``: json formats the numbers, a template nests them."""
    a = np.asarray(m, dtype=complex)
    values, codes = a.ravel(), None  # contiguous, row-major
    # sorting pays where patterns repeat; on a dense basis it would add ~15 % and save nothing
    if 2 * np.count_nonzero(values) < values.size:
        bits = values.view(np.uint64).reshape(-1, 2)
        nonzero = np.flatnonzero(bits[:, 0] | bits[:, 1])  # so -0.0 is a pattern of its own
        distinct, inverse = np.unique(values[nonzero].view("V16"), return_inverse=True)
        codes = np.zeros(values.size, dtype=np.intp)
        codes[nonzero] = inverse + 1
        values = np.concatenate([[0j], distinct.view(complex)])
    # json, not repr, so that NaN and Infinity are spelled as json spells them
    texts = json.dumps(values.view(float).tolist())[1:-1].split(", ") if values.size else []
    if codes is not None:
        texts = np.array(texts, dtype=object).reshape(-1, 2)[codes].ravel().tolist()
    template = "[%s, %s]"
    for n in reversed(a.shape):
        template = "[" + ", ".join([template] * n) + "]"
    return template % tuple(texts)


def matrix_from_json(rows, expected_dim: int | None = None, square: bool = True) -> np.ndarray:
    """Parse the ``[re, im]``-pair row format back into a complex matrix, checked in bulk."""
    if not isinstance(rows, list) or not rows:
        raise ValidationError("matrix JSON must be a nonempty array of rows")
    bad_row = next((i for i, row in enumerate(rows) if not isinstance(row, list)), len(rows))
    entries = list(chain.from_iterable(rows[:bad_row]))  # a row-major scan's first error wins
    if not (
        all(issubclass(t, list) for t in set(map(type, entries)))
        and set(map(len, entries)) <= {2}
        and all(
            issubclass(t, (int, float)) and not issubclass(t, bool)
            for t in set(map(type, chain.from_iterable(entries)))
        )
    ):
        raise ValidationError("matrix entries must be [re, im] pairs of numbers")
    if bad_row < len(rows):
        raise ValidationError("matrix JSON rows must be arrays")
    if len(set(map(len, rows))) != 1:
        raise ValidationError("matrix JSON rows must all have the same length")
    try:  # float64 pairs viewed as complex128 hold the bits of complex(re, im)
        a = as_matrix(np.array(rows, dtype=float).view(complex).reshape(len(rows), -1), square)
    except OverflowError as exc:
        raise ValidationError(f"matrix entries must lie in the float range: {exc}") from exc
    if expected_dim is not None and a.shape != (expected_dim, expected_dim):
        raise DimensionMismatch(
            f"expected a {expected_dim}x{expected_dim} matrix, got shape {a.shape}"
        )
    return a
