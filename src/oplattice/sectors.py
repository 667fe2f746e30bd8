"""Superselection sectors of a closed matrix algebra, and the one home of their format.

A unital *-closed algebra inside M_d splits along the minimal projectors of its center into
blocks, each unitarily equivalent to ``M_n (x) 1_m`` (a full matrix factor of size n acting
with multiplicity m). This module owns how a sector is held and read: the chain that finds
sectors from the eigenvalue clusters of one combination of matrices (`_generated_sectors`,
refined by `_refined`), the frame of a decomposition and its readers (`contains`, the random
draws), and the matrix units (`_units`). It reads an algebra's block structure, and with it
the center, off the sectors the chain finds for one generic pair of algebra elements, and
certifies it against the whole basis. It classifies factors and computes the integer-valued
dimension function on projector equivalence classes (two projectors are equivalent when a
partial isometry inside the algebra maps one range onto the other; in each block the
complete invariant is the reduced rank). It imports nothing from `algebra` at run time;
`algebra` builds algebras on it.

Only type I structure exists at finite dimension; algebras without
minimal projectors (types II and III) have no matrix realization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (CenterDiagonalizationFailed, DimensionMismatch, NotInAlgebra, NotProjector,
                     NumericalError, ReducedRankNotDivisible, SectorDimensionMismatch,
                     SectorStructureError, TensorFormDefect)
from .numerics import (_ROUNDING, DEFAULT_TOL, Tolerance, _as_operators, _one_matrix,
                       ensure_projector, hs_norm, hs_unit, matrix_to_json, norm_at_most,
                       operator_norm, range_projector, singular_rank, spectral_clusters)
from .seeding import STREAM_BLOCK, STREAM_COMMUTANT, complex_normals, stream_generator

if TYPE_CHECKING:
    from .algebra import AlgebraBasis


@dataclass(frozen=True, eq=False)
class Sector:
    """One block of the decomposition.

    `block_size` (n) is the size of the full matrix factor, `multiplicity`
    (m) how many identical copies it acts on, and `isometry` V a d x (n*m)
    matrix with orthonormal columns mapping block coordinates into ambient
    space: compressing any algebra element by V yields ``beta (x) 1_m`` for
    an n x n matrix beta. Sectors compare by identity.
    """

    block_size: int
    multiplicity: int
    isometry: np.ndarray = field(repr=False)

    @property
    def central_projector(self) -> np.ndarray:
        """The minimal central projector ``V V*`` carving out the block, built on each read."""
        return range_projector(self.isometry)


class Frame(NamedTuple):
    """The sectors' isometries side by side, ``u`` (a unitary) and ``uh = u*``, grouped by shape
    ascending and each group in sector order; per group ``(n, m, count, start)``, its sectors'
    columns from ``start`` on, and `sectors` the sectors in that frame order. Membership, the
    draws, `_ambient`, the certificate, the reduced ranks, the sampled values and `is_pure` read
    it through this module's readers; `logic._spectral_cuts`, `states.is_separating` and
    `states.sigma_orthoadditivity_residuals` also unpack its `groups` themselves."""

    u: np.ndarray
    uh: np.ndarray
    groups: tuple
    sectors: tuple


@dataclass(frozen=True)
class SectorDecomposition:
    ambient_dim: int
    sectors: tuple

    @cached_property
    def frame(self) -> Frame:
        """The sectors' `Frame`, built on first read."""
        shape = attrgetter("block_size", "multiplicity")
        ordered = tuple(sorted(self.sectors, key=shape))  # stable
        groups, at = [], 0
        for (n, m), same in itertools.groupby(ordered, shape):
            groups.append((n, m, len(list(same)), at))
            at += groups[-1][2] * n * m
        u = np.hstack([s.isometry for s in ordered])
        return Frame(u, u.conj().T.copy(), tuple(groups), ordered)


def minimal_central_projectors(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Pairwise-orthogonal minimal projectors of the center, summing to 1: the
    sectors' central projectors, built from the memoized `block_decomposition`'s isometries."""
    return [s.central_projector for s in block_decomposition(alg, tol).sectors]


def _blocks(frame: Frame, y: np.ndarray) -> list:
    """Per shape group, the writeable view ``(..., count, n, n, m)`` of the sector blocks of y,
    a stack in frame coordinates: ``[a, j, k, s]`` is sector a's ``(j, s), (k, s)`` entry."""
    return [np.einsum("...ajsaks->...ajks", y[..., at:at + c * n * m, at:at + c * n * m].reshape(
        *y.shape[:-2], c, n, m, c, n, m)) for n, m, c, at in frame.groups]


def _in_frame(frame: Frame, x: np.ndarray) -> np.ndarray:
    """``U* x U``, per matrix of a stack: a product per matrix, as in `_ambient`, so an entry's
    bits do not depend on the stack."""
    return frame.uh @ x @ frame.u


def _partial_traces(frame: Frame, x: np.ndarray) -> list:
    """Per shape group, the ``(..., count, n, n)`` traces over m of ``U* x U``'s sector blocks."""
    return [b.sum(axis=-1) for b in _blocks(frame, _in_frame(frame, x))]


def _residual(frame: Frame, x: np.ndarray) -> np.ndarray:
    """``U* x U - blockdiag(beta / m (x) 1_m)``, beta the partial traces, per matrix of a stack:
    in the (unitary) frame, the HS projection of x off the sectors' algebra."""
    y = _in_frame(frame, x)
    for (_, m, _, _), b in zip(frame.groups, _blocks(frame, y)):
        b -= b.sum(axis=-1, keepdims=True) / m
    return y


def _outside(frame: Frame, mats: np.ndarray) -> float:
    """The largest HS distance of a matrix of the stack to the sectors' algebra."""
    return float(np.linalg.norm(_residual(frame, mats), axis=(1, 2)).max())


def contains(alg: AlgebraBasis, m, tol: Tolerance = DEFAULT_TOL):
    """True iff ``m`` lies in the span of ``alg``, per matrix of an ``(n, d, d)`` stack: its
    residual in the frame of the memoized `block_decomposition` (`_residual`, the HS
    projection's) against ``eq_tol * (1 + ||m||)``. A span that is no algebra raises
    `CenterDiagonalizationFailed`."""
    return _inside(alg, _as_operators(m), tol)


def _inside(alg: AlgebraBasis, a: np.ndarray, tol: Tolerance):
    """`contains` on ``a``, a matrix or stack `_as_operators` has already converted."""
    if a.shape[-1] != alg.ambient_dim:
        raise DimensionMismatch(f"matrix of dimension {a.shape[-1]} vs algebra in "
                                f"M_{alg.ambient_dim}")
    residual = _residual(block_decomposition(alg, tol).frame, a)
    inside = norm_at_most(residual, tol.eq_tol)  # the bound is at least eq_tol: no norm of a
    return inside if np.all(inside) else norm_at_most(residual, tol.eq_tol * (1 + operator_norm(a)))


def _projectors_in(alg: AlgebraBasis, p, label: str, tol: Tolerance) -> np.ndarray:
    """The one check that ``p``, a matrix or each of a stack (none if empty), is a projector in
    ``alg``: `ensure_projector`, then `_inside`, a failure named by `label`; p read-only."""
    if isinstance(p, np.ndarray) and p.ndim == 3 and not len(p):
        return p
    try:
        mats = ensure_projector(p, tol)
    except NotProjector as exc:
        raise NotProjector(f"{label}: {exc}") from exc
    if not np.all(_inside(alg, mats, tol)):
        raise NotInAlgebra(f"{label}: projector not in the domain")
    return mats


def _random_self_adjoint(frame: Frame, u: np.ndarray) -> list:
    """Per row of the uniforms `u` (``2k`` columns, k = sum n^2) and shape group, the blocks h
    of ``U blockdiag(h (x) 1_m) U*``, each the Hermitian part of a beta: the row's k complex
    normals (`complex_normals`) over sqrt(m). The units ``V (E_ab (x) 1_m) V* / sqrt(m)`` are
    HS-orthonormal: the law of coefficients on any orthonormal basis."""
    coeffs, out, at = complex_normals(u), [], 0
    for n, m, c, _ in frame.groups:
        beta = coeffs[:, at:at + c * n * n].reshape(-1, c, n, n) / np.sqrt(m)
        out.append((beta + beta.conj().swapaxes(-2, -1)) / 2.0)
        at += c * n * n
    return out


def _ambient(frame: Frame, blocks: list) -> np.ndarray:
    """``U blockdiag(x (x) 1_m) U*``, symmetrised, per entry of the per-group block stacks
    ``(rows, count, n, n)``: a product per matrix, so an entry's bits do not depend on the
    stack. The partial traces over m (`_partial_traces`), over m, map back."""
    y = np.zeros((len(blocks[0]), *frame.u.shape), dtype=complex)
    for x, b in zip(blocks, _blocks(frame, y)):
        b[...] = x[..., None]
    x = frame.u @ y @ frame.uh
    return (x + x.conj().swapaxes(-2, -1)) / 2.0


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


def _chained_sectors(v: np.ndarray, clusters: list, gv: np.ndarray, tol: Tolerance) -> list:
    """The sectors the eigenvalue clusters of a self-adjoint h exhibit, uncertified.

    Two clusters are linked when the block between them of some matrix of ``gv`` (compressed
    to h's eigenbasis v) exceeds ``rank_tol``. Each linked class, walked breadth-first
    from its first cluster, is a sector: its n clusters of size m, each frame carried over
    from its parent's by the strongest block's unitary polar part (Murota, Kanno, Kojima and
    Kojima, JJIAM 2010). `SectorStructureError` if linked clusters differ in size or a tree
    edge's block is rank deficient.
    """
    starts = [start for start, _ in clusters]
    weight = np.add.reduceat(np.add.reduceat(np.abs(gv) ** 2, starts, axis=1), starts, axis=2)
    strongest = np.argmax(weight, axis=0)  # per (child, parent): the matrix to carry by
    linked = np.sqrt(weight.max(axis=0)) > tol.rank_tol
    linked |= linked.T
    unseen = np.ones(len(clusters), dtype=bool)
    sectors = []
    for root in range(len(clusters)):
        if not unseen[root]:
            continue
        unseen[root] = False
        order, edges = [root], []
        for a in order:  # breadth-first: `order` grows while it is walked
            for b in np.flatnonzero(linked[a] & unseen).tolist():
                unseen[b] = False
                order.append(b)
                edges.append((a, b))
        sizes = [clusters[i][1] - clusters[i][0] for i in sorted(order)]
        if len(set(sizes)) != 1:
            raise SectorStructureError(f"linked eigenvalue clusters of sizes {sizes} are not "
                                       "copies of one block", counts=sizes)
        m = sizes[0]
        frames = {root: np.eye(m)}
        if edges:
            uu, ss, vv = np.linalg.svd(np.stack([
                gv[strongest[b, a], slice(*clusters[b]), slice(*clusters[a])] for a, b in edges]))
            if (singular_rank(ss, tol) < m).any():
                raise SectorStructureError(
                    "a block between linked clusters is rank deficient", residual=ss.min())
            for (a, b), polar in zip(edges, uu @ vv):
                frames[b] = polar @ frames[a]
        isometry = np.hstack([v[:, slice(*clusters[i])] @ frames[i] for i in sorted(order)])
        sectors.append(Sector(len(order), m, isometry))
    return sectors


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


def _generated_sectors(ambient_dim: int, generators, tol: Tolerance) -> tuple:
    """The sectors of the algebra the ``ambient_dim``-square matrices ``generators`` generate,
    and the largest HS distance of a unit-normed generator or adjoint to it, without the word
    closure.

    Their commutant's elements commute with a random ``h = sum_i c_i g_i + conj(c_i) g_i*``
    (unit-normed g_i), so in h's eigenbasis v they are block diagonal on its clusters. These
    give the sectors, chained along the blocks of every ``g~ = v* g v`` (`_chained_sectors`)
    and certified: the frames must be orthonormal (``||U* U - 1|| <= rank_tol``) and every
    unit-normed generator and adjoint must lie within ``rank_tol`` of their algebra
    (`_outside`). A chain that fails refines the clusters (`_refined`) and walks
    again (Maehara and Murota, SIAM J. Matrix Anal. Appl. 2011); once no cluster splits, it
    raises `NumericalError` with the failed check's residual or counts.
    """
    d = ambient_dim
    mats = np.stack([m / s for a, s in map(hs_unit, generators) for m in (a, a.conj().T)])
    rng = stream_generator(STREAM_COMMUTANT)
    c = rng.standard_normal((2, len(generators)))
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


def _swapped(sector: Sector) -> Sector:
    """The commutant's sector ``V (1_n (x) M_m) V*`` of ``V (M_n (x) 1_m) V*``: the isometry's
    ``(n, m)`` column index transposed, the same range."""
    n, m = sector.block_size, sector.multiplicity
    isometry = sector.isometry.reshape(-1, n, m).swapaxes(1, 2).reshape(-1, m * n)
    isometry.setflags(write=False)
    return Sector(m, n, isometry)


def _settled(ambient_dim: int, sectors: list, tol: Tolerance) -> SectorDecomposition:
    """Certified sectors as a decomposition: isometries read-only, sectors sorted by their
    central projectors z, built once each for the key and compared row by row (each row's
    real parts, then its imaginary parts; on the ``rank_tol`` grid, larger first)."""
    def key(s: Sector) -> list:
        z = s.central_projector
        # Python floats: NumPy scalars compare ~10x slower
        return np.round(np.hstack([z.real, z.imag]).ravel() / -tol.rank_tol).tolist()

    for s in sectors:
        s.isometry.setflags(write=False)
    return SectorDecomposition(ambient_dim, tuple(sorted(sectors, key=key)))


def _certify(alg: AlgebraBasis, sectors: list, tol: Tolerance) -> None:
    """Raise unless the sectors are the algebra's: their blocks' ``n^2`` sum to its
    dimension and no basis element lies outside them (`_outside`). The algebra then lies in the
    direct sum of the blocks and has its dimension, so is all of it: a split or a merged
    sector cannot pass."""
    counts = [(s.block_size, s.multiplicity) for s in sectors]
    if sum(n * n for n, _ in counts) != alg.dim:
        raise SectorDimensionMismatch(f"sector blocks (size, multiplicity) {counts} do not "
                                      f"span the algebra's dimension {alg.dim}", counts=counts)
    defect = _outside(SectorDecomposition(alg.ambient_dim, tuple(sectors)).frame, alg.basis)
    if not defect <= tol.rank_tol:
        raise TensorFormDefect(f"the algebra deviates from its blocks' tensor form by "
                               f"{defect:.3e}", residual=defect)


def block_decomposition(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> SectorDecomposition:
    """Full block structure of a closed algebra, computed once per tolerance.

    One generic pair of algebra elements, drawn once, generates the algebra, so the sectors
    `_generated_sectors` chains for it are the blocks; one stacked check of the whole basis
    certifies them (`_certify`). A failed chain or check raises `CenterDiagonalizationFailed`
    from it, with its residual or counts. Sectors come in `_settled`'s order of their central
    projectors: the algebra fixes that order, its basis and rounding do not, and the sector
    holding e_0 comes first (for `build_sectors`, the block order). The result is memoized on
    ``alg`` (keyed by ``tol``) and its arrays are read-only, so every structural query on the
    same algebra shares one decomposition.
    """
    memo = alg._decompositions
    if tol not in memo:
        memo[tol] = _decompose(alg, tol)
    return memo[tol]


def _decompose(alg: AlgebraBasis, tol: Tolerance) -> SectorDecomposition:
    k, d = alg.dim, alg.ambient_dim  # a generic pair (h, g) generates the algebra
    z = stream_generator(STREAM_BLOCK).standard_normal((2, 1, 2 * k))  # k real, k imaginary
    x, g = np.matmul(z[..., :k] + 1j * z[..., k:], alg.basis.reshape(k, d * d)).reshape(2, d, d)
    pair = ((x + x.conj().T) / 2.0, g)
    try:
        sectors, _ = _generated_sectors(alg.ambient_dim, pair, tol)
        _certify(alg, sectors, tol)
    except NumericalError as exc:
        raise CenterDiagonalizationFailed(f"the pair drawn did not exhibit the block structure "
                                          f"({exc}); rank_tol {tol.rank_tol} is likely degenerate",
                                          exc.residual, exc.counts) from exc
    return _settled(alg.ambient_dim, sectors, tol)


def is_factor(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the center consists of multiples of the identity only, i.e. the memoized
    `block_decomposition` has exactly one sector."""
    return len(block_decomposition(alg, tol).sectors) == 1


def _reduced_ranks(decomp: SectorDecomposition, p: np.ndarray) -> list[int]:
    """Per sector, the center-valued trace ``tr(V* p V)`` over the multiplicity. The callers
    validate p as a projector in the algebra, so it commutes with ``z = V V*`` and ``V* p V``
    is a projector within ``eq_tol``: its trace, rounded, is its rank. One product over the
    frame gives each column's ``<u_j, p u_j>``; a sector's trace is the sum over its columns."""
    frame = decomp.frame
    traces = np.add.reduceat(np.einsum("ij,ij->j", frame.u.conj(), p @ frame.u).real,  # frame order
                             [at + n * m * a for n, m, c, at in frame.groups for a in range(c)])
    rank = dict(zip(frame.sectors, traces.tolist()))
    out = []
    for s in decomp.sectors:
        r, m = round(rank[s]), s.multiplicity
        if r % m:
            raise ReducedRankNotDivisible(f"blockwise rank {r} is not divisible by multiplicity "
                                          f"{m}", counts=(r, m))
        out.append(r // m)
    return out


def mvn_dimension(alg: AlgebraBasis, p, tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """Per-sector reduced rank of a projector in the algebra.

    Entry i is the center-valued trace ``tr(z_i p) = tr(V_i* p V_i)``
    divided by block i's multiplicity m_i: the rank of p compressed to the
    block, over m_i. The vector is zero exactly for p = 0, additive
    on orthogonal pairs, monotone under sub-projections, and a complete
    equivalence invariant. Extending the single-factor dimension
    function to one entry per sector is a convention of this package.
    """
    mat = _projectors_in(alg, _one_matrix(p), "mvn_dimension", tol)
    return _reduced_ranks(block_decomposition(alg, tol), mat)


def projectors_equivalent(alg: AlgebraBasis, p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a partial isometry V in the algebra has V*V = p and VV* = q.

    Decided by comparing the per-sector reduced ranks, the complete
    invariant for finite type I algebras; no V is built.
    """
    return mvn_dimension(alg, p, tol) == mvn_dimension(alg, q, tol)


def decomposition_to_json(decomp: SectorDecomposition) -> list[dict]:
    """Serialize as a list of ``{block_size, multiplicity, central_projector}``."""
    return [
        {
            "block_size": s.block_size,
            "multiplicity": s.multiplicity,
            "central_projector": matrix_to_json(s.central_projector),
        }
        for s in decomp.sectors
    ]
