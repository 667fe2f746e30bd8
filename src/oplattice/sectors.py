"""Superselection sectors of a closed matrix algebra.

A unital *-closed algebra inside M_d splits along the minimal projectors
of its center into blocks, each unitarily equivalent to ``M_n (x) 1_m``
(a full matrix factor of size n acting with multiplicity m). This module
finds that block structure, classifies factors, and computes the
integer-valued dimension function on projector equivalence classes
(two projectors are equivalent when a partial isometry inside the
algebra maps one range onto the other; in each block the complete
invariant is the reduced rank).

Only type I structure exists at finite dimension; algebras without
minimal projectors (types II and III) have no matrix realization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .algebra import AlgebraBasis, center, contains
from .errors import (
    CenterDiagonalizationFailed,
    NotInAlgebra,
    ReducedRankNotDivisible,
    SectorDimensionMismatch,
    TensorFormDefect,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    ensure_projector,
    hs_norm,
    matrix_to_json,
    operator_norm,
    range_projector,
    rank_of,
    spectral_clusters,
)

# Internal reproducibility seeds; every randomized subroutine in this
# module derives its generator from one of these plus the attempt index,
# so identical inputs always produce identical output.
_CENTER_STREAM = 101
_BLOCK_STREAM = 102
_GENERIC_STREAM = 103

_MAX_ATTEMPTS = 5
_ISOMETRY_ATTEMPTS = 8  # generic elements `equivalence_isometry` tries


def _internal_rng(stream: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((stream, attempt)))


@dataclass(frozen=True)
class Sector:
    """One block of the decomposition.

    `central_projector` is the minimal central projector carving out the
    block, `block_size` (n) the size of the full matrix factor,
    `multiplicity` (m) how many identical copies it acts on, and
    `isometry` a d x (n*m) matrix with orthonormal columns mapping block
    coordinates into ambient space: compressing any algebra element by
    the isometry yields ``beta (x) 1_m`` for an n x n matrix beta.
    """

    central_projector: np.ndarray = field(repr=False)
    block_size: int
    multiplicity: int
    isometry: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SectorDecomposition:
    ambient_dim: int
    sectors: tuple


def minimal_central_projectors(
    alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Pairwise-orthogonal minimal projectors of the center, summing to 1.

    A generic real combination of a self-adjoint basis of the center
    separates the joint spectrum with probability 1: its eigenvalue
    clusters are exactly the minimal central projectors. On cluster
    ambiguity the combination is redrawn, up to five times.
    """
    ctr = center(alg, tol)
    k = ctr.dim
    sa = []
    for b in ctr.basis:
        sa.append((b + b.conj().T) / 2.0)
        sa.append((b - b.conj().T) / 2.0j)

    for attempt in range(_MAX_ATTEMPTS):
        rng = _internal_rng(_CENTER_STREAM, attempt)
        h = np.zeros((alg.ambient_dim, alg.ambient_dim), dtype=complex)
        for s in sa:
            h = h + rng.standard_normal() * s
        h = (h + h.conj().T) / 2.0
        v, clusters = spectral_clusters(h, tol)
        if len(clusters) != k:
            continue
        projs = [range_projector(v[:, start:stop]) for start, stop in clusters]
        if contains(ctr, np.stack(projs), tol).all():
            return projs

    raise CenterDiagonalizationFailed(
        f"could not separate the center into {k} eigenvalue clusters after "
        f"{_MAX_ATTEMPTS} attempts; the rank tolerance {tol.rank_tol} is likely degenerate"
    )


def _random_span_elements(comp_basis: np.ndarray, rngs: list, hermitian: bool) -> np.ndarray:
    """One random span element per generator in `rngs`, each a ``1 x k`` by ``k x d^2``
    product: the bits of its own ``tensordot`` (a stacked one is a GEMM and rounds apart)."""
    k, d = comp_basis.shape[0], comp_basis.shape[-1]
    coeffs = np.empty((len(rngs), 1, k), dtype=complex)
    for c, rng in zip(coeffs, rngs):
        c[0] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x = np.matmul(coeffs, comp_basis.reshape(k, d * d)).reshape(-1, d, d)
    return (x + x.conj().swapaxes(-2, -1)) / 2.0 if hermitian else x


def _block_isometry(
    comp_basis: np.ndarray, n: int, m: int, r: int, tol: Tolerance
) -> np.ndarray:
    """Orthonormal columns of C^r exhibiting the compressed span as M_n (x) 1_m.

    A generic self-adjoint element of the span has n eigenvalue clusters
    of size m; the clusters are the minimal projectors of the block. A
    generic span element then supplies the partial isometries aligning
    the multiplicity spaces of the clusters (polar parts of its
    compressions between cluster ranges).
    """
    for attempt in range(_MAX_ATTEMPTS):
        rng = _internal_rng(_BLOCK_STREAM, attempt)
        h = _random_span_elements(comp_basis, [rng], hermitian=True)[0]
        v, clusters = spectral_clusters(h, tol)
        if len(clusters) != n or any(stop - start != m for start, stop in clusters):
            continue
        copies = [v[:, start:stop] for start, stop in clusters]
        if n == 1:
            return copies[0]
        g = _random_span_elements(comp_basis, [rng], hermitian=False)[0]
        cols = [copies[0]]
        aligned = True
        for j in range(1, n):
            w_j = copies[j].conj().T @ g @ copies[0]
            uu, ss, vv = np.linalg.svd(w_j)
            if ss[-1] <= tol.rank_tol * ss[0]:
                aligned = False
                break
            cols.append(copies[j] @ (uu @ vv))
        if aligned:
            return np.hstack(cols)

    raise CenterDiagonalizationFailed(
        f"could not exhibit a block of size {r} as a {n}-dimensional factor with "
        f"multiplicity {m} after {_MAX_ATTEMPTS} attempts"
    )


def _tensor_form_defect(isometry: np.ndarray, alg: AlgebraBasis, n: int, m: int) -> float:
    """Largest deviation of compressed basis elements from beta (x) 1_m form."""
    worst = 0.0
    eye_m = np.eye(m)
    for a in alg.basis:
        c = isometry.conj().T @ a @ isometry
        c4 = c.reshape(n, m, n, m)
        beta = np.einsum("jsks->jk", c4) / m
        worst = max(worst, hs_norm(c4 - np.einsum("jk,st->jskt", beta, eye_m)))
    return worst


def block_decomposition(
    alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> SectorDecomposition:
    """Full block structure of a closed algebra, computed once per tolerance.

    Per minimal central projector z: compress the algebra to the range
    of z, read the block size n off the compressed span dimension (which
    is n^2 for a full matrix factor), require the multiplicity
    m = rank(z)/n to be integral, and build the isometry exhibiting the
    ``M_n (x) 1_m`` form. *-closed matrix algebras are always semisimple,
    so a violated structural identity raises a `SectorStructureError`
    carrying what it measured. Sectors are sorted by their central
    projectors z, compared row by row (each row's real parts, then its
    imaginary parts; on the ``rank_tol`` grid, larger first): the algebra
    fixes that order, its basis and rounding do not, and the sector
    holding e_0 comes first (for `build_sectors`, the block order). The
    result is memoized on ``alg`` (keyed by ``tol``) and its arrays are
    read-only, so every structural query on the same algebra shares one
    decomposition.
    """
    memo = alg._decompositions
    if tol not in memo:
        memo[tol] = _decompose(alg, tol)
    return memo[tol]


def _decompose(alg: AlgebraBasis, tol: Tolerance) -> SectorDecomposition:
    d = alg.ambient_dim
    zs = minimal_central_projectors(alg, tol)
    zs.sort(key=lambda z: tuple(np.round(np.hstack([z.real, z.imag]).ravel() / -tol.rank_tol)))
    sectors = []
    for z in zs:
        r = int(round(float(np.trace(z).real)))
        w, v = np.linalg.eigh(z)
        q = v[:, d - r :]
        flat = np.stack([q.conj().T @ a @ q for a in alg.basis]).reshape(alg.dim, r * r)
        _, s, vh = np.linalg.svd(flat, full_matrices=False)
        keep = s > tol.rank_tol * s[0]
        span_dim = int(np.count_nonzero(keep))
        n = isqrt(span_dim)
        if n * n != span_dim:
            raise CenterDiagonalizationFailed(
                f"compressed block span has dimension {span_dim}, not a perfect square; "
                "tolerances are likely degenerate"
            )
        m, rem = divmod(r, n)
        if rem != 0:
            raise CenterDiagonalizationFailed(
                f"block rank {r} is not divisible by block size {n}"
            )
        comp_basis = vh[keep].reshape(-1, r, r)
        isometry = q @ _block_isometry(comp_basis, n, m, r, tol)
        defect = _tensor_form_defect(isometry, alg, n, m)
        if defect > tol.rank_tol:
            raise TensorFormDefect(
                f"transported block deviates from tensor form by {defect:.3e}", residual=defect
            )
        z.setflags(write=False)
        isometry.setflags(write=False)
        sectors.append(
            Sector(central_projector=z, block_size=n, multiplicity=m, isometry=isometry)
        )
    counts = [(s.block_size, s.multiplicity) for s in sectors]
    if sum(n * m for n, m in counts) != d:
        raise SectorDimensionMismatch(
            f"sector blocks (size, multiplicity) {counts} do not fill dimension {d}",
            counts=counts,
        )
    return SectorDecomposition(ambient_dim=d, sectors=tuple(sectors))


def is_factor(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the center consists of multiples of the identity only,
    i.e. the algebra has exactly one sector."""
    return len(block_decomposition(alg, tol).sectors) == 1


def _validated_projector_in(alg: AlgebraBasis, p, tol: Tolerance) -> np.ndarray:
    mat = ensure_projector(p, tol)
    if not contains(alg, mat, tol):
        raise NotInAlgebra("projector does not lie in the algebra span")
    return mat


def _reduced_ranks(
    decomp: SectorDecomposition, p: np.ndarray, tol: Tolerance
) -> list[int]:
    out = []
    for sector in decomp.sectors:
        r = rank_of(sector.central_projector @ p, tol)
        reduced, rem = divmod(r, sector.multiplicity)
        if rem != 0:
            raise ReducedRankNotDivisible(
                f"blockwise rank {r} is not divisible by multiplicity {sector.multiplicity}",
                counts=(r, sector.multiplicity),
            )
        out.append(int(reduced))
    return out


def mvn_dimension(alg: AlgebraBasis, p, tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """Per-sector reduced rank of a projector in the algebra.

    Entry i is the rank of p compressed to block i divided by that
    block's multiplicity. The vector is zero exactly for p = 0, additive
    on orthogonal pairs, monotone under sub-projections, and a complete
    equivalence invariant. Extending the single-factor dimension
    function to one entry per sector is a convention of this package.
    """
    mat = _validated_projector_in(alg, p, tol)
    return _reduced_ranks(block_decomposition(alg, tol), mat, tol)


def projectors_equivalent(alg: AlgebraBasis, p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a partial isometry V in the algebra has V*V = p and VV* = q.

    Decided by comparing the per-sector reduced ranks, the complete
    invariant for finite type I algebras; `equivalence_isometry` builds
    an explicit V as an independent cross-check.
    """
    pm = _validated_projector_in(alg, p, tol)
    qm = _validated_projector_in(alg, q, tol)
    decomp = block_decomposition(alg, tol)
    return _reduced_ranks(decomp, pm, tol) == _reduced_ranks(decomp, qm, tol)


def equivalence_isometry(
    alg: AlgebraBasis,
    p,
    q,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray | None:
    """Explicit partial isometry V in the algebra with V*V = p, VV* = q, or None.

    Debug oracle for `projectors_equivalent`: takes the polar part of
    ``q w p`` for a generic algebra element w. When the projectors are
    equivalent, a generic w makes that compression full-rank and its
    polar part is the required isometry (and stays inside the algebra);
    when they are not, no attempt can succeed.
    """
    pm = _validated_projector_in(alg, p, tol)
    qm = _validated_projector_in(alg, q, tol)
    rp = rank_of(pm, tol)
    if rank_of(qm, tol) != rp:
        return None
    if rp == 0:
        return np.zeros_like(pm)
    for attempt in range(_ISOMETRY_ATTEMPTS):
        rng = _internal_rng(_GENERIC_STREAM, attempt)
        w = _random_span_elements(alg.basis, [rng], hermitian=False)[0]
        x = qm @ w @ pm
        if rank_of(x, tol) != rp:
            continue
        uu, _, vv = np.linalg.svd(x)
        v_iso = uu[:, :rp] @ vv[:rp, :]
        if (
            operator_norm(v_iso.conj().T @ v_iso - pm) <= tol.rank_tol
            and operator_norm(v_iso @ v_iso.conj().T - qm) <= tol.rank_tol
            and contains(alg, v_iso, tol)
        ):
            return v_iso
    return None


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
