"""Unital *-closed matrix algebras.

An algebra is carried concretely as a Hilbert-Schmidt orthonormal basis
of its span inside M_d; two results are "the same algebra" when their
spans agree, which `same_span` tests. `close` generates the smallest
unital *-algebra containing a set of matrices. `commutant` and `center` are read
off the memoized block decomposition, which also certifies an algebra as its own
`baire_envelope`, and `generator_commutant` is solved in the eigenbasis of one
random element."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalError, ValidationError
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _as_operators,
    as_matrix,
    hs_norm,
    is_int,
    matrix_from_json,
    matrix_to_json,
    norm_at_most,
    null_space,
    operator_norm,
    spectral_clusters,
)
from .seeding import STREAM_COMMUTANT, attempt_generator


@dataclass(frozen=True)
class GeneratorSet:
    """A nonempty list of d x d matrices that will generate an algebra."""

    ambient_dim: int
    generators: tuple = field(repr=False)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValidationError(f"ambient_dim must be positive, got {self.ambient_dim}")
        gens = tuple(self.generators)
        if not gens:
            raise ValidationError("a generator set needs at least one generator")
        checked = []
        for g in gens:
            m = as_matrix(g)
            if m.shape != (self.ambient_dim, self.ambient_dim):
                raise DimensionMismatch(
                    f"generator of shape {m.shape} does not match ambient dimension "
                    f"{self.ambient_dim}"
                )
            checked.append(m)
        object.__setattr__(self, "generators", tuple(checked))


@dataclass(frozen=True)
class AlgebraBasis:
    """Hilbert-Schmidt orthonormal basis of a unital *-closed subspace of M_d.

    `basis` is a read-only array of shape (k, d, d). The span is closed
    under products and adjoints and contains the identity; `close` and
    `commutant` only ever construct bases with these properties, and the
    test suite verifies them as invariants.

    `_decompositions` memoizes `sectors.block_decomposition` per
    `Tolerance`; the basis is immutable, so its structure never changes.
    """

    ambient_dim: int
    basis: np.ndarray = field(repr=False)
    _decompositions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 3 or b.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise DimensionMismatch(
                f"basis stack of shape {b.shape} does not match ambient dimension "
                f"{self.ambient_dim}"
            )
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        """Linear dimension of the span."""
        return int(self.basis.shape[0])


def project_onto(alg: AlgebraBasis, m) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection of ``m`` (or of a stack) onto the span of ``alg``."""
    coeffs = np.tensordot(alg.basis.conj(), np.asarray(m, dtype=complex), axes=([1, 2], [-2, -1]))
    return np.tensordot(coeffs, alg.basis, axes=(0, 0))


def contains(alg: AlgebraBasis, m, tol: Tolerance = DEFAULT_TOL):
    """True iff ``m`` lies in the span of ``alg``.

    Decided by projecting in the Hilbert-Schmidt geometry and comparing
    the residual against ``eq_tol * (1 + ||m||)``, per matrix of an ``(n, d, d)`` stack.
    """
    a = _as_operators(m)
    if a.shape[-1] != alg.ambient_dim:
        raise DimensionMismatch(
            f"matrix of dimension {a.shape[-1]} vs algebra in M_{alg.ambient_dim}"
        )
    residual = a - project_onto(alg, a)
    inside = norm_at_most(residual, tol.eq_tol)  # the bound is at least eq_tol: no norm of a
    return inside if np.all(inside) else norm_at_most(residual, tol.eq_tol * (1 + operator_norm(a)))


def same_span(a: AlgebraBasis, b: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Subspace equality: every basis vector of each side lies in the other.

    Basis choices are non-canonical, so this is the meaningful notion of
    equality between algebra values.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("cannot compare algebras in different ambient dimensions")
    if a.dim != b.dim:
        return False

    def covered(x: AlgebraBasis, y: AlgebraBasis) -> bool:
        residuals = np.linalg.norm(x.basis - project_onto(y, x.basis), axis=(1, 2))
        return bool((residuals <= tol.eq_tol).all())

    return covered(a, b) and covered(b, a)


def close(gens: GeneratorSet, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Smallest unital *-closed, product-closed subspace of M_d containing the generators.

    Breadth-first over words in the generators and their adjoints: the
    unit is adjoined first, then each round multiplies the newly found
    directions on the left by every generator and adjoint (every word
    ``g1 g2 ... gn`` is ``g1 (g2 ... gn)``, so after n rounds the span is
    that of all words of length at most n). The orthonormal basis is the
    first k rows of one preallocated ``(d^2, d^2)`` array, and the
    directions a round adds are the rows after those of the round before.

    A round works on blocks of candidates, never more than d^2 rows each
    (one block per chunk of the frontier): all ``g x`` of the chunk come
    from one stacked product, frontier-major then multiplier, and are
    normalised with one norm call. The block is projected off the span so
    far by block classical Gram-Schmidt run twice (BCGS2), each pass two
    BLAS products ``R -= (R B*) B``. A candidate ``g x`` counts as new only
    if its component outside the span exceeds ``rank_tol * ||g||`` (``x``
    has unit norm), so rounding noise in products that vanish is never
    promoted to a direction, and only if that component exceeds
    ``tol.rounding_floor`` of its own norm. A residual only shrinks as the
    span grows, so candidates that fail here are dropped at once; the
    survivors are taken in order, each projected twice more off the
    directions its block has added before it and judged by the same rule.
    The search ends at a round that adds nothing or at a span of d^2, all
    of M_d, so within d^2 rounds. The span depends neither on the generator
    ordering nor on the basis the generators are written in.
    """
    d = gens.ambient_dim
    mults = np.stack([m for g in gens.generators for m in (g, g.conj().T)])
    mult_norms = np.linalg.norm(mults, axis=(1, 2))
    floor = tol.rounding_floor

    basis = np.empty((d * d, d * d), dtype=complex)  # rows 0..k-1 hold the span
    k = 0

    def is_new(residual, scale, ref):
        """The acceptance rule, elementwise over arrays: ``ref`` is the factor scale."""
        return (residual * scale > tol.rank_tol * ref) & (residual > floor)

    def extend(block: np.ndarray, refs: np.ndarray) -> None:
        """Append the new directions among the rows of ``block`` (overwritten), in order;
        ``refs`` holds each row's factor scale."""
        nonlocal k
        scales = np.linalg.norm(block, axis=1)
        scales[scales == 0.0] = 1.0  # a zero row stays zero and fails both tests below
        block /= scales[:, None]
        old = basis[:k]
        for _ in range(2):  # block classical Gram-Schmidt, re-orthogonalized once
            block -= (block @ old.conj().T) @ old
        residuals = np.linalg.norm(block, axis=1)
        start = k
        for i in np.flatnonzero(is_new(residuals, scales, refs)).tolist():
            if k == d * d:  # all of M_d: a tiny rank_tol would otherwise accept rounding noise
                return
            r, residual = block[i], residuals[i]
            if k > start:  # off the directions this block added before row i
                added = basis[start:k]
                for _ in range(2):
                    r -= (added @ r.conj()).conj() @ added
                residual = np.linalg.norm(r)
                if not is_new(residual, scales[i], refs[i]):
                    continue
            basis[k] = r / residual
            k += 1

    seeds = np.concatenate([np.eye(d, dtype=complex)[None], mults]).reshape(-1, d * d)
    extend(seeds, np.linalg.norm(seeds, axis=1))  # seeds: their own norm
    chunk = max(1, d * d // len(mults))  # frontier rows per block of at most d^2 candidates
    lo = 0
    while lo < k < d * d:  # a span of d^2 is all of M_d
        frontier, lo = range(lo, k), k  # the rows the last round added
        for a in frontier[::chunk]:
            if k == d * d:
                break
            x = basis[a:min(a + chunk, frontier.stop)].reshape(-1, 1, d, d)
            # x has unit HS norm, so the factor scale of g x is ||g||
            extend(np.matmul(mults, x).reshape(-1, d * d), np.tile(mult_norms, len(x)))
    return AlgebraBasis(ambient_dim=d, basis=basis[:k].reshape(k, d, d))


def commutant(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All of M_d commuting with ``alg``, read off its certified block decomposition: a
    sector ``V (M_n (x) 1_m) V*`` contributes ``V (1_n (x) E_ab) V* / sqrt(n)``, orthonormal
    as V's columns and the sectors are."""
    from .sectors import block_decomposition  # sectors builds on this module

    d, parts = alg.ambient_dim, []
    for s in block_decomposition(alg, tol).sectors:
        w = s.isometry.reshape(d, s.block_size, s.multiplicity)
        parts.append(np.einsum("xja,yjb->abxy", w, w.conj() / np.sqrt(s.block_size)))
    return AlgebraBasis(d, np.concatenate([u.reshape(-1, d, d) for u in parts]))


def generator_commutant(gens: GeneratorSet, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All of M_d commuting with every generator and its adjoint, without the closure.

    Solutions commute with a random ``h = sum_i c_i g_i + conj(c_i) g_i*`` (unit-normed g_i),
    so in h's eigenbasis v they are block diagonal on its eigenvalue clusters: with
    ``g~ = v* g v``, unknown (a, b) of a cluster adds ``g~[:, a] e_b^T - e_a g~[b, :]`` to a
    commutator. That ``(2 g d^2, sum_j s_j^2)`` system's null space, rotated back by v, is
    the result; `NumericalError` (with the residual) if its stacked commutators with the
    unit-normed generators and adjoints exceed ``rank_tol``.
    """
    d = gens.ambient_dim
    mats = np.stack([m / (hs_norm(g) or 1.0) for g in gens.generators for m in (g, g.conj().T)])
    c = attempt_generator(STREAM_COMMUTANT, 0).standard_normal((2, len(gens.generators)))
    h = np.tensordot(c[0] + 1j * c[1], mats[0::2], axes=1)
    v, clusters = spectral_clusters(h + h.conj().T, tol)
    rows, cols = np.hstack([np.indices((b - a, b - a)).reshape(2, -1) + a for a, b in clusters])
    g, e = v.conj().T @ mats @ v, np.eye(d)  # g~ for every g and g*
    # entry (k, x, y, unknown (a, b)) of the system: g~_k[x, a] e[y, b] - e[x, a] g~_k[b, y]
    system = g[:, :, None, rows] * e[:, cols] - e[:, None, rows] * g[:, None, cols].swapaxes(2, 3)
    kernel = null_space(system.reshape(-1, rows.size), tol)
    x = np.zeros((kernel.shape[1], d, d), dtype=complex)
    x[:, rows, cols] = kernel.T
    basis = v @ x @ v.conj().T
    defects = (basis[:, None] @ mats - mats @ basis[:, None]).reshape(len(basis), -1)
    residual = float(np.linalg.norm(defects, axis=1).max(initial=0.0))
    if residual > tol.rank_tol:
        raise NumericalError(f"the generators' commutant misses by {residual:.3e}", residual)
    return AlgebraBasis(ambient_dim=d, basis=basis)


def baire_envelope(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Monotone sequential closure of ``alg``, at finite dimension its bicommutant: ``alg``
    itself, once its memoized block decomposition certifies the span a unital *-algebra
    (`CenterDiagonalizationFailed` otherwise), as `AlgebraBasis` promises of every basis."""
    from .sectors import block_decomposition  # sectors builds on this module

    block_decomposition(alg, tol)
    return alg


def center(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Intersection of ``alg`` with its commutant.

    Spanned by the minimal central projectors z, read off the memoized
    `sectors.block_decomposition`; each basis element is ``z / sqrt(tr z)``,
    Hilbert-Schmidt orthonormal since the z are orthogonal projectors. The
    center is commutative and contains the identity.
    """
    from .sectors import block_decomposition  # sectors builds on this module

    zs = np.stack([s.central_projector for s in block_decomposition(alg, tol).sectors])
    traces = np.trace(zs, axis1=1, axis2=2).real
    return AlgebraBasis(alg.ambient_dim, zs / np.sqrt(traces)[:, None, None])


def is_commutative(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff all basis pairs commute within ``eq_tol``."""
    b = alg.basis  # each element against the later ones, as one stack
    return all(norm_at_most(a @ b[i + 1:] - b[i + 1:] @ a, tol.eq_tol).all()
               for i, a in enumerate(b))


def generator_set_to_json(gens: GeneratorSet) -> dict:
    """Serialize as ``{"dim": d, "generators": [matrix, ...]}``."""
    return {
        "dim": gens.ambient_dim,
        "generators": [matrix_to_json(g) for g in gens.generators],
    }


def generator_set_from_json(data) -> GeneratorSet:
    if not isinstance(data, dict) or "dim" not in data or "generators" not in data:
        raise ValidationError('generator set JSON needs "dim" and "generators" keys')
    dim = data["dim"]
    if not is_int(dim) or dim < 1:
        raise ValidationError(f'"dim" must be a positive integer, got {dim!r}')
    gens = data["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValidationError('"generators" must be a nonempty array')
    mats = [matrix_from_json(g, expected_dim=dim) for g in gens]
    return GeneratorSet(ambient_dim=dim, generators=tuple(mats))


def algebra_to_json(alg: AlgebraBasis) -> dict:
    """The CLI payload of an algebra basis (ambient dimension, span dimension, basis), with
    the basis left an array for `numerics.dumps` to write."""
    return {"ambient_dim": alg.ambient_dim, "dim": alg.dim, "basis": alg.basis}
