"""Dense complex linear algebra with one explicit tolerance policy.

Every other module funnels its numerical decisions (equality thresholds,
rank cutoffs) through a `Tolerance` value defined here,
so the policy lives in a single place instead of scattered magic numbers.
All matrices are dense ``complex128``; the hot kernels work on stacks
and BLAS products rather than Python loops (measured envelope in the README).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .errors import DimensionMismatch, NotProjector, NumericalError, ValidationError


def is_int(x) -> bool:
    """An integer proper, not a bool, float or string: nothing gets truncated."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def require_count(name: str, value, positive: bool = False) -> None:
    """The one count check: ValidationError unless `value` is an integer (`is_int`) >= positive."""
    if not is_int(value) or value < int(positive):
        kind = "positive" if positive else "nonnegative"
        raise ValidationError(f"{name} must be a {kind} integer, got {value!r}")


@dataclass(frozen=True)
class Tolerance:
    """Shared numerical policy.

    eq_tol
        Operator-norm threshold below which two matrices count as equal.
    rank_tol
        Relative singular-value cutoff for rank and null-space decisions.
    """

    eq_tol: float = 1e-9
    rank_tol: float = 1e-8

    def __post_init__(self):
        for name in ("eq_tol", "rank_tol"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and 0.0 < value < 1.0):
                raise ValidationError(f"{name} must lie strictly between 0 and 1, got {value}")

    @property
    def law_tol(self) -> float:
        """Law-verdict threshold ``10 * rank_tol``: law residuals follow the rank cutoff."""
        return 10 * self.rank_tol


DEFAULT_TOL = Tolerance()
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def as_matrix(m, square: bool = True) -> np.ndarray:
    """Coerce ``m`` to a read-only complex matrix, validating shape and finiteness."""
    try:
        a = np.array(m, dtype=complex, order="C")
    except (TypeError, ValueError, OverflowError) as exc:  # a non-number entry, ragged rows
        raise ValidationError(f"matrix entries must be complex numbers: {exc}") from exc
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
    try:
        a = np.atleast_2d(np.asarray(m, dtype=complex))
    except (TypeError, ValueError, OverflowError):  # `as_matrix` names what NumPy cannot convert
        a = as_matrix(m, square=False)
    if a.ndim == 2 and a.size == 0:
        return 0.0
    try:
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]  # as norm(ord=2), without its overhead
    except np.linalg.LinAlgError:  # NaN entries (NumPy reads None as NaN) are the input's fault
        if np.isfinite(a).all():
            raise
        norms = np.nan
    if not np.isfinite(norms).all() and not np.isfinite(a).all():  # a finite input may overflow
        raise ValidationError("matrix entries must be finite (no NaN or Inf)")
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


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    try:
        s = float(np.linalg.norm(a))
    except (TypeError, ValueError, OverflowError):  # `as_matrix` names what NumPy cannot read
        return float(np.linalg.norm(as_matrix(a, square=False)))
    if np.isfinite(s) or np.isfinite(np.asarray(a, dtype=complex)).all():  # it may overflow
        return s
    raise ValidationError("matrix entries must be finite (no NaN or Inf)")


def hs_unit(g: np.ndarray) -> tuple[np.ndarray, float]:
    """``(a, s)`` with ``a / s`` the matrix g at unit HS norm (s = 1 for a zero g): ``(g,
    ||g||)``, unless that norm over- or underflowed; then a is g over its largest part."""
    with np.errstate(over="ignore"):
        s = hs_norm(g)
    if not _TINY <= s < np.inf and g.any():  # no normal float: rescaled, the norm lies in [1, 2d]
        g = g / max(np.abs(g.real).max(), np.abs(g.imag).max())
        s = hs_norm(g)
    return g, s or 1.0


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
    try:
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # `as_matrix` names what NumPy cannot convert
        return as_matrix(m)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        return as_matrix(a)
    return as_matrix(a.reshape(a.shape[0] * a.shape[1], a.shape[2]), square=False).reshape(a.shape)


def _one_matrix(m):
    """``m``, unless it is an ``(n, d, d)`` stack: a call on one proposition refuses that with
    DimensionMismatch before any check or kernel. No copy: an array's own ``ndim`` is read."""
    try:
        stacked = np.ndim(m) == 3
    except ValueError:  # ragged rows, which `as_matrix` names
        return m
    if stacked:
        raise DimensionMismatch(f"expected one matrix per proposition, got shape {np.shape(m)}")
    return m


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


def run_projectors(v: np.ndarray, k, starts, stops, tol: Tolerance) -> np.ndarray:
    """``range_projector(v[k[i]][:, starts[i]:stops[i]])`` per run i (the bounds broadcast to k's
    n): one product per column range, so each run has its slice's bits (a masked one has not).
    The one maker of propositions, and their one guard: every basis of the ``(m, d, d)`` stack
    `v` must be unitary, ``||v* v - 1|| <= eq_tol / 2``, else NumericalError with the worst."""
    # p = C C* is symmetrised (exactly self-adjoint), and ||p^2 - p|| = max s^2 |s^2 - 1| <= (1 +
    # e) e, s the singular values of C: e <= eq_tol / 2 keeps p and 1 - p within eq_tol
    d = v.shape[-1]
    defect = v.conj().swapaxes(-2, -1) @ v - np.eye(d)
    if not (unitary := norm_at_most(defect, tol.eq_tol / 2)).all():
        residual = float(operator_norm(defect[~unitary]).max())
        raise NumericalError(f"eigenbasis not unitary: ||v* v - 1|| = {residual:.3e}", residual)
    ranges = np.asarray(starts) * (d + 1) + stops  # columns [a, b) as a (d + 1) + b
    out = np.zeros((len(k), d, d), dtype=complex)
    for r in set(ranges.tolist()) - {a * (d + 2) for a in range(d + 1)}:  # an empty run is 0
        run, (start, stop) = ranges == r, divmod(r, d + 1)
        out[run] = range_projector(v[k[run]][..., start:stop])
    return out


def matrix_to_json(m) -> list:
    """Serialize a matrix as a JSON array of rows; each entry is ``[re, im]``."""
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def dumps(payload) -> str:
    """The one JSON text writer: the bytes of ``json.dumps(payload)``, an ndarray value of a
    payload dict (string keys) written as its `matrix_to_json` list, but without building those
    lists (their garbage collection cost more than their numbers), as pieces joined once."""
    if not (isinstance(payload, dict) and any(isinstance(v, np.ndarray) for v in payload.values())):
        return json.dumps(payload)  # compact, so CPython's C encoder writes it
    pieces = []
    for k, v in payload.items():
        pieces += [", " if pieces else "{", json.dumps(k), ": "]
        pieces += _array_text(v) if isinstance(v, np.ndarray) else [json.dumps(v)]
    pieces.append("}")
    return "".join(pieces)


def _array_text(m) -> list:
    """``json.dumps(matrix_to_json(m))`` as pieces to join: a text per row (along the last
    axis), one shared by all-zero rows, between the brackets and commas that nest them. The
    other rows fill one ``%`` template with numbers json formats (it spells NaN and Infinity
    its own way), each distinct ``(re, im)`` bit pattern once where most of them are zero."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.size == 0:
        return [json.dumps(matrix_to_json(a))]
    rows = np.ascontiguousarray(a).reshape(-1, a.shape[-1])
    row = "[" + ", ".join(["[%s, %s]"] * a.shape[-1]) + "]"  # every row's template
    depth, pieces = a.ndim - 1, np.empty(2 * len(rows) + 1, dtype=object)
    pieces[0], pieces[-1] = "[" * depth, "]" * depth
    pieces[1::2] = row % (("0.0",) * 2 * a.shape[-1])  # one text, shared
    # row i + 1 closes and opens a bracket per axis it starts anew: a matrix, a stack of them...
    closes = sum(np.arange(1, len(rows)) % n == 0 for n in np.cumprod(a.shape[-2:0:-1]))
    pieces[2:-1:2] = np.array(["]" * t + ", " + "[" * t for t in range(depth)], object)[closes]
    live = np.flatnonzero(rows.view(np.uint64).any(axis=1))  # so -0.0 is not zero
    if live.size:
        values, codes = rows[live].ravel(), None
        # sorting pays where patterns repeat; on a dense basis it would add ~15 % and save nothing
        if 2 * np.count_nonzero(values) < values.size:
            nonzero = np.flatnonzero(values.view(np.uint64).reshape(-1, 2).any(axis=1))
            distinct, inverse = np.unique(values[nonzero].view("V16"), return_inverse=True)
            codes = np.zeros(values.size, dtype=np.intp)
            codes[nonzero], values = inverse + 1, np.concatenate([[0j], distinct.view(complex)])
        numbers = np.array(json.dumps(values.view(float).tolist())[1:-1].split(", "), object)
        numbers = numbers if codes is None else numbers.reshape(-1, 2)[codes]
        pieces[1 + 2 * live] = [row % tuple(r) for r in numbers.reshape(live.size, -1).tolist()]
    return pieces.tolist()


def matrix_from_json(rows, expected_dim: int | None = None) -> np.ndarray:
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
        a = as_matrix(np.array(rows, dtype=float).view(complex).reshape(len(rows), -1))
    except OverflowError as exc:
        raise ValidationError(f"matrix entries must lie in the float range: {exc}") from exc
    if expected_dim is not None and a.shape != (expected_dim, expected_dim):
        raise DimensionMismatch(
            f"expected a {expected_dim}x{expected_dim} matrix, got shape {a.shape}"
        )
    return a
