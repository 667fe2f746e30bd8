"""Unital *-closed matrix algebras.

An algebra is its sectors: membership (`contains`) and the random draws read the frame of
its memoized block decomposition. A Hilbert-Schmidt orthonormal basis of its span inside M_d
is passed in, or built only when read (`same_span` compares two spans). `close` generates
the smallest unital *-algebra containing a set of matrices, as their bicommutant, off the
sectors `_generated_sectors` chains from the eigenvalue clusters of one random element,
refined until the chain walks; `generator_commutant` holds those sectors swapped.
`commutant` and `center` are read off the block decomposition, which also certifies an
algebra as its own `baire_envelope`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalError, SectorStructureError, ValidationError
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _as_operators,
    as_matrix,
    hs_norm,
    hs_unit,
    is_int,
    matrix_from_json,
    matrix_to_json,
    norm_at_most,
    operator_norm,
    spectral_clusters,
)
from .seeding import STREAM_COMMUTANT, attempt_generator

_ROUNDING = 64 * float(np.finfo(float).eps)  # 1.4e-14: a smaller part of a matrix unit is rounding


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


class AlgebraBasis:
    """Hilbert-Schmidt orthonormal basis of a unital *-closed subspace of M_d.

    `basis` is a read-only array of shape (k, d, d). The span is closed
    under products and adjoints and contains the identity; `close` and
    `commutant` only ever construct bases with these properties, and the
    test suite verifies them as invariants. A basis passed in is validated
    and copied. An algebra read off sectors (`_with_sectors`: `close`, `commutant`, `center`,
    `generator_commutant`) holds its own certified decomposition, reads `dim` (sum n^2) off it
    and builds `basis`, its matrix units (`_units`), on first read. Only `project_onto` (so
    `same_span`), `is_commutative`, `algebra_to_json` and the decomposition of a basis passed
    in read `basis`.

    `_decompositions` memoizes `sectors.block_decomposition` per `Tolerance` (the span is
    immutable); an algebra read off sectors holds the ones it was built from first.
    """

    def __init__(self, ambient_dim: int, basis):
        b = _as_operators(basis)  # a read-only copy, its entries finite
        if b.ndim != 3 or b.shape[1:] != (ambient_dim, ambient_dim):
            raise DimensionMismatch(f"basis stack of shape {b.shape} does not match ambient "
                                    f"dimension {ambient_dim}")
        self.ambient_dim, self._basis, self._decompositions = ambient_dim, b, {}

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:  # the units, built once, read-only and not copied
            self._basis = _units(self._built_from())
            self._basis.setflags(write=False)
        return self._basis

    @property
    def dim(self) -> int:
        """Linear dimension of the span."""
        if self._basis is None:
            return sum(s.block_size ** 2 for s in self._built_from())
        return int(self._basis.shape[0])

    def _built_from(self) -> tuple:
        """The sectors an algebra read off sectors was built from: its first memoized ones."""
        return next(iter(self._decompositions.values())).sectors


def _with_sectors(decomposition, tol: Tolerance) -> AlgebraBasis:
    """The algebra of a certified `sectors.SectorDecomposition`, which it holds memoized under
    ``tol``; its basis is built on first read."""
    alg = object.__new__(AlgebraBasis)
    alg.ambient_dim, alg._basis = decomposition.ambient_dim, None
    alg._decompositions = {tol: decomposition}
    return alg


def project_onto(alg: AlgebraBasis, m) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection of ``m`` (or of a stack) onto the span of ``alg``."""
    coeffs = np.tensordot(alg.basis.conj(), np.asarray(m, dtype=complex), axes=([1, 2], [-2, -1]))
    return np.tensordot(coeffs, alg.basis, axes=(0, 0))


def contains(alg: AlgebraBasis, m, tol: Tolerance = DEFAULT_TOL):
    """True iff ``m`` lies in the span of ``alg``, per matrix of an ``(n, d, d)`` stack: its
    residual in the frame of the memoized `sectors.block_decomposition` (`sectors._residual`,
    the HS projection's) against ``eq_tol * (1 + ||m||)``. A span that is no algebra raises
    `CenterDiagonalizationFailed`."""
    from .sectors import _residual, block_decomposition  # sectors builds on this module

    a = _as_operators(m)
    if a.shape[-1] != alg.ambient_dim:
        raise DimensionMismatch(
            f"matrix of dimension {a.shape[-1]} vs algebra in M_{alg.ambient_dim}"
        )
    residual = _residual(block_decomposition(alg, tol).frame, a)
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
    """Smallest unital *-closed, product-closed subspace of M_d containing the generators:
    `sectors.generated_algebra`, their bicommutant, which at finite dimension is the span of
    their words. It depends neither on the generator ordering nor on the basis the generators
    are written in."""
    from .sectors import generated_algebra  # sectors builds on this module

    return generated_algebra(gens, tol)


def _block_frame(w0: np.ndarray) -> np.ndarray:
    """The inverse of the unitary polar part of n rows of the ``d x n`` copy ``w0``, picked
    greedily: each the largest once those before it are projected out."""
    r, rows = w0.copy(), []
    for _ in range(w0.shape[1]):
        rows.append(int(np.argmax(np.linalg.norm(r, axis=1))))
        q = r[rows[-1]] / np.linalg.norm(r[rows[-1]])
        r -= np.outer(r @ q.conj(), q)
    u, _, vh = np.linalg.svd(w0[rows])
    return (u @ vh).conj().T


def _units(sectors) -> np.ndarray:
    """The algebra's matrix units: a sector ``V (M_n (x) 1_m) V*`` contributes
    ``V (E_ab (x) 1_m) V* / sqrt(m)``, orthonormal as V's columns and the sectors are. Only
    the block frame of V moves them, fixed by `_block_frame` (for n = 1 it is a phase, which
    cancels), so a sparse V writes sparse units; parts below `_ROUNDING` are 0."""
    d = sectors[0].isometry.shape[0]
    units = np.empty((sum(s.block_size ** 2 for s in sectors), d, d), dtype=complex)
    at = 0
    for s in sectors:
        n, m = s.block_size, s.multiplicity
        w = s.isometry.reshape(d, n, m).swapaxes(1, 2).copy()  # [x, j, a], contiguous
        if n > 1:
            w = w @ _block_frame(w[:, 0])
        np.einsum("xja,yjb->abxy", w, w.conj() / np.sqrt(m),
                  out=units[at:at + n * n].reshape(n, n, d, d))
        at += n * n
    parts = units.view(float)
    parts[np.abs(parts) < _ROUNDING] = 0.0
    return units


def commutant(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All of M_d commuting with ``alg``: the algebra of the `sectors._swapped` sectors of its
    memoized block decomposition, so the commutant is never decomposed again."""
    from .sectors import SectorDecomposition, _swapped, block_decomposition  # builds on this

    sectors = block_decomposition(alg, tol).sectors
    return _with_sectors(SectorDecomposition(alg.ambient_dim, tuple(map(_swapped, sectors))), tol)


def _refined(v: np.ndarray, clusters: list, g: np.ndarray, rng, tol: Tolerance) -> tuple:
    """h's eigenbasis v and clusters, each cluster split by the eigenvalue clusters of the
    block it cuts from ``K = sum_k g~_k W_k g~_k* + (sum_k c_k g~_k + h.c.)``, ``W_k`` positive
    random weights per cluster of columns and c complex Gaussian. K lies in the generated
    algebra (h's cluster projectors do), so its blocks commute with every X of the commutant,
    which is block diagonal: a split keeps every solution. v moves only on split clusters."""
    w = 1.0 + rng.random((len(g), len(clusters)))
    c = rng.standard_normal((2, len(g)))
    x = g * np.sqrt(np.repeat(w, [b - a for a, b in clusters], axis=1))[:, None]
    x = x.swapaxes(0, 1).reshape(len(v), -1)  # [g~_1 W_1^(1/2), g~_2 W_2^(1/2), ...]
    lin = np.tensordot(c[0] + 1j * c[1], g, axes=1)
    k = x @ x.conj().T + lin + lin.conj().T
    v, out = v.copy(), []
    for a, b in clusters:
        vk, parts = spectral_clusters(k[a:b, a:b], tol)
        if len(parts) > 1:
            v[:, a:b] = v[:, a:b] @ vk
        out += [(a + start, a + stop) for start, stop in parts]
    return v, out


def _generated_sectors(gens: GeneratorSet, tol: Tolerance) -> tuple:
    """The sectors of the algebra the generators generate, and the largest HS distance of a
    unit-normed generator or adjoint to it, without the word closure.

    Their commutant's elements commute with a random ``h = sum_i c_i g_i + conj(c_i) g_i*``
    (unit-normed g_i), so in h's eigenbasis v they are block diagonal on its clusters. These
    give the sectors, chained along the blocks of every ``g~ = v* g v`` (`sectors._chained_
    sectors`) and certified: the frames must be orthonormal (``||U* U - 1|| <= rank_tol``) and
    every unit-normed generator and adjoint must lie within ``rank_tol`` of their algebra
    (`sectors._outside`). A chain that fails refines the clusters (`_refined`) and walks
    again (Maehara and Murota, SIAM J. Matrix Anal. Appl. 2011); once no cluster splits, it
    raises `NumericalError` with the failed check's residual or counts.
    """
    from .sectors import SectorDecomposition, _chained_sectors, _outside

    d = gens.ambient_dim
    mats = np.stack([m / s for a, s in map(hs_unit, gens.generators) for m in (a, a.conj().T)])
    rng = attempt_generator(STREAM_COMMUTANT, 0)
    c = rng.standard_normal((2, len(gens.generators)))
    h = np.tensordot(c[0] + 1j * c[1], mats[0::2], axes=1)
    v, clusters = spectral_clusters(h + h.conj().T, tol)
    while True:
        g = v.conj().T @ mats @ v  # g~ for every g and g*
        try:
            sectors = _chained_sectors(v, clusters, g, tol)
            frame = SectorDecomposition(d, tuple(sectors)).frame
            skew, defect = hs_norm(frame.uh @ frame.u - np.eye(d)), _outside(frame, mats)
            if skew <= tol.rank_tol and defect <= tol.rank_tol:
                return sectors, defect
            failed = NumericalError(
                f"the generators' commutant misses by {defect:.3e}: of dimension "
                f"{sum(s.multiplicity ** 2 for s in sectors)} in M_{d}, its commutant has "
                f"dimension {sum(s.block_size ** 2 for s in sectors)}, its frames orthonormal to "
                f"{skew:.3e}", defect if skew <= tol.rank_tol else skew)
        except SectorStructureError as exc:
            failed = exc
        count = len(clusters)
        v, clusters = _refined(v, clusters, g, rng, tol)
        if len(clusters) == count:
            raise NumericalError(f"h's {count} clusters split no further under rank_tol "
                                 f"{tol.rank_tol}: {failed}", failed.residual,
                                 failed.counts) from failed


def generator_commutant(gens: GeneratorSet, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All of M_d commuting with every generator and its adjoint, without the closure: the
    algebra of the `sectors._swapped` sectors `_generated_sectors` chains, which it holds in
    `sectors.block_decomposition`'s order."""
    from .sectors import _settled, _swapped

    sectors, _ = _generated_sectors(gens, tol)
    return _with_sectors(_settled(gens.ambient_dim, list(map(_swapped, sectors)), tol), tol)


def baire_envelope(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Monotone sequential closure of ``alg``, at finite dimension its bicommutant: ``alg``
    itself, once its memoized block decomposition certifies the span a unital *-algebra
    (`CenterDiagonalizationFailed` otherwise), as `AlgebraBasis` promises of every basis."""
    from .sectors import block_decomposition  # sectors builds on this module

    block_decomposition(alg, tol)
    return alg


def center(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Intersection of ``alg`` with its commutant: the algebra of the sectors ``(1, n m)`` on
    the isometries V of its memoized `sectors.block_decomposition`, one per minimal central
    projector ``z = V V*``. Its basis, built on first read, is ``z / sqrt(tr z)``."""
    from .sectors import Sector, SectorDecomposition, block_decomposition

    sectors = [Sector(1, s.block_size * s.multiplicity, s.isometry)
               for s in block_decomposition(alg, tol).sectors]
    return _with_sectors(SectorDecomposition(alg.ambient_dim, tuple(sectors)), tol)


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
