"""Projector-lattice calculus.

Projectors (self-adjoint idempotents) model elementary yes-no
propositions; this module implements their orthocomplement, meet, join
and order, plus the law checkers (orthomodularity, distributivity,
atomicity) and a seeded sampler used by the verification sweeps.

The meet projects onto the joint null space of the range complements:
one SVD, with no iteration to converge and no spectral gap to round
across. Stacked meets settle the lattice's bounds (``p ∧ 0 = 0``,
``p ∧ 1 = p``) by identity; a case with no operand 0 or 1, or with a 1
beside two or more proper operands, takes the SVD with the bits of its
one-pair call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .algebra import AlgebraBasis
from .errors import DimensionMismatch, NotProjector, PreconditionFailed
from .numerics import (DEFAULT_TOL, Tolerance, cluster_breaks, ensure_projector,
                       is_projector, matrix_to_json, norm_at_most, null_space, operator_norm,
                       range_projector, require_count, run_projectors, singular_rank)
from .sectors import _random_self_adjoint, block_decomposition, mvn_dimension
from .seeding import (STREAM_DISTRIBUTIVE_P, STREAM_DISTRIBUTIVE_Q, STREAM_DISTRIBUTIVE_R,
                      STREAM_ORTHOMODULAR_Q, STREAM_ORTHOMODULAR_R, STREAM_PROJECTOR, uniforms)


def _projectors(*ps, tol: Tolerance) -> list[np.ndarray]:
    ms = [ensure_projector(p, tol) for p in ps]
    if len({m.shape for m in ms}) > 1:
        raise DimensionMismatch(f"projector shapes differ: {[m.shape for m in ms]}")
    return ms


def _complement(p: np.ndarray) -> np.ndarray:
    return np.eye(p.shape[-1], dtype=complex) - p


def _meet(*ps: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Projector onto the common range of ``ps``: the null space of the stacked complements
    ``[1 - p_1; ...; 1 - p_n]``, one SVD. Like every kernel here it takes one matrix each, or
    ``(..., d, d)`` stacks of cases. In a stack the lattice's bounds settle a case by identity
    (a projector's rank is its rounded trace): a 0 among its operands gives 0; else, its 1s
    dropped, it is its one proper operand, or 1 if none is left. Every other case takes one
    gathered SVD with the bits of its one-matrix call."""
    a = np.concatenate([_complement(p) for p in ps], axis=-2)
    if a.ndim == 2:  # a public one-pair call stays a (traced) `null_space` call, same bits
        return range_projector(null_space(a, tol))
    d = a.shape[-1]
    # each operand's nullity d - rank: the trace of its complement, a d x d block of `a`
    nullity = np.rint(a.reshape(a.shape[:-2] + (len(ps), d, d)).diagonal(0, -2, -1).real.sum(-1))
    bound = (nullity == 0) | (nullity == d)
    if not bound.any():  # family joins and proper meets: one SVD, as before
        return _null_projectors(a, tol)
    zero, proper = (nullity == d).any(axis=-1), ~bound
    settled = zero | bound.any(axis=-1) & (np.count_nonzero(proper, axis=-1) < 2)
    out = np.zeros(a.shape[:-2] + (d, d), dtype=complex)  # a 0 operand's cases stay 0
    if not settled.all():
        out[~settled] = _null_projectors(a[~settled], tol)
    kept = settled & ~zero
    out[kept & ~proper.any(axis=-1)] = np.eye(d)
    for i, p in enumerate(ps):
        out[kept & proper[..., i]] = p[kept & proper[..., i]]
    return out


def _null_projectors(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Projector onto the null space of each matrix of an ``(..., n, d)`` stack, n >= d: one SVD."""
    d = a.shape[-1]
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.conj().swapaxes(-2, -1).reshape(-1, d, d)
    return run_projectors(v, np.arange(len(v)), singular_rank(s, tol).ravel(), d).reshape(vh.shape)


def _join(*ps: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Projector onto the span of the ranges of ``ps``: ``1 - ⋀(1 - p_i)``, one `_meet`."""
    return _complement(_meet(*[_complement(p) for p in ps], tol=tol))


def _leq(p, q, tol: Tolerance):
    return norm_at_most(q @ p - p, tol.eq_tol)


def _orthomodularity(p, q, tol: Tolerance) -> tuple[np.ndarray, tuple]:  # differences, derived
    inner = _meet(_complement(p), q, tol=tol)
    outer = _join(p, inner, tol=tol)
    return q - outer, (inner, outer)


def _distributivity(p, q, r, tol: Tolerance) -> tuple[np.ndarray, tuple]:  # differences, derived
    # stacked meets: q ∨ r (a meet of complements) with p ∧ q and p ∧ r; then lhs with rhs
    not_q_or_r, p_and_q, p_and_r = _meet(np.stack([_complement(q), p, p]),
                                         np.stack([_complement(r), q, r]), tol=tol)
    q_or_r = _complement(not_q_or_r)
    lhs, not_rhs = _meet(np.stack([p, _complement(p_and_q)]),
                         np.stack([q_or_r, _complement(p_and_r)]), tol=tol)
    rhs = _complement(not_rhs)
    return lhs - rhs, (q_or_r, lhs, p_and_q, p_and_r, rhs)


def _ensure_projectors(stack: np.ndarray, label_of, tol: Tolerance) -> None:
    """One `ensure_projector` over a stack; a failure names its first non-projector i's
    ``label_of(i)``, which only a failure calls."""
    try:
        ensure_projector(stack, tol)
    except NotProjector as exc:
        bad = next((i for i, m in enumerate(stack) if not is_projector(m, tol)), None)
        raise NotProjector(f"{'stack' if bad is None else label_of(bad)}: {exc}") from exc


def orthocomplement(p, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The negation ``1 - p``. Applying it twice returns ``p`` up to one rounding per entry."""
    return _complement(ensure_projector(p, tol))


def meet(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projector onto ``range(p) ∩ range(q)``.

    Computed from the joint null space of the stacked complements
    ``1 - p`` and ``1 - q``: a vector is in both ranges exactly when
    both complements kill it. Distinct non-orthogonal lines meet at the
    origin, the hallmark separating this lattice from a Boolean one.
    """
    return _meet(*_projectors(p, q, tol=tol), tol=tol)


def join(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projector onto ``range(p) + range(q)``, as the De Morgan dual of meet."""
    return _join(*_projectors(p, q, tol=tol), tol=tol)


def leq(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Order relation: ``p <= q`` iff the range of p sits inside the range of q.

    Equivalent to ``p = p ∧ q``; decided by the cheaper range-containment
    form ``||q p - p|| <= eq_tol``.
    """
    return _leq(*_projectors(p, q, tol=tol), tol)


def orthogonal(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``p <= 1 - q``; symmetric in its arguments."""
    pm, qm = _projectors(p, q, tol=tol)
    return _leq(pm, _complement(qm), tol)


def orthomodularity_residual(p, q, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual ``||q - (p ∨ (p⊥ ∧ q))||``; zero when the orthomodular law holds.

    Callers must ensure ``p <= q``.
    """
    return operator_norm(_orthomodularity(*_projectors(p, q, tol=tol), tol)[0])


def check_orthomodular(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Orthomodular law at the pair (p, q), residual at most ``tol.law_tol``.

    Requires ``p <= q``, else PreconditionFailed.
    """
    pm, qm = _projectors(p, q, tol=tol)
    if not _leq(pm, qm, tol):
        raise PreconditionFailed("orthomodularity is only stated for p <= q")
    return norm_at_most(_orthomodularity(pm, qm, tol)[0], tol.law_tol)


def distributivity_residual(p, q, r, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual ``||p ∧ (q ∨ r) - ((p ∧ q) ∨ (p ∧ r))||``."""
    return operator_norm(_distributivity(*_projectors(p, q, r, tol=tol), tol)[0])


def check_distributive(p, q, r, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Distributive law at the triple (p, q, r): residual at most ``tol.law_tol``."""
    return norm_at_most(_distributivity(*_projectors(p, q, r, tol=tol), tol)[0], tol.law_tol)


def is_atom(alg: AlgebraBasis, p, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``p`` is a minimal nonzero projector of the algebra.

    Equivalently, its dimension vector has a single nonzero entry equal
    to 1 (the zero projector is not an atom).
    """
    nonzero = [x for x in mvn_dimension(alg, p, tol) if x != 0]
    return len(nonzero) == 1 and nonzero[0] == 1


def random_projector(alg: AlgebraBasis, seed: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Seeded random projector inside the algebra.

    Draws a random self-adjoint element of the span, splits its spectrum
    into eigenvalue clusters, and keeps a top segment of clusters as a
    spectral projector: of n >= 2 clusters a uniform number from 1 to
    n - 1, so the draw is never 0 or 1; of a single cluster none or all
    (0 or 1, each with probability 1/2). Spectral projectors of an element
    stay inside a product-closed span, and whole clusters must be kept
    together so degenerate eigenvalues are never split. Deterministic
    given the algebra basis and the seed: row 0 of `STREAM_PROJECTOR`
    under it (`seeding.uniforms`), drawn by `_random_projectors`.
    """
    require_count("seed", seed)
    return _random_projectors(alg, uniforms(seed, STREAM_PROJECTOR, 1, _draw_width(alg)), tol)[0]


def _draw_width(alg: AlgebraBasis) -> int:
    """Uniforms a spectral draw reads: the element's 2k (k = alg.dim), then its cut."""
    return 2 * alg.dim + 1


def _random_projectors(alg: AlgebraBasis, u: np.ndarray, tol: Tolerance) -> np.ndarray:
    """`random_projector` on each row of the uniforms `u`, as one ``(n, d, d)`` stack."""
    v, _, first = _spectral_cuts(alg, u, tol)
    return run_projectors(v, np.arange(len(v)), first, alg.ambient_dim)


def _spectral_cuts(alg: AlgebraBasis, u: np.ndarray, tol: Tolerance) -> tuple:
    """The spectral draw of `random_projector` on each row of the uniforms `u`
    (`_draw_width` columns or more): eigenvectors ``v`` of a random self-adjoint element
    (ascending eigenvalues, one stacked ``eigh``) from the row's first 2k, its
    `cluster_breaks`, and the first column of the top clusters kept (d when none is): of n >= 2
    clusters ``1 + floor(u (n - 1))``, of one ``floor(2 u)``, u the row's next uniform."""
    k = alg.dim
    w, v = np.linalg.eigh(_random_self_adjoint(block_decomposition(alg, tol).frame, u[:, :2 * k]))
    breaks = cluster_breaks(w, tol)
    starts = np.ones((len(u), alg.ambient_dim + 1), dtype=bool)  # of each cluster, then d
    starts[:, 1:-1] = breaks
    seen = np.cumsum(starts, axis=1)  # the last column counts the clusters, plus one
    proper = seen[:, -1] > 2
    kept = proper + np.floor(u[:, 2 * k] * np.where(proper, seen[:, -1] - 2, 2)).astype(int)
    # the top `kept` clusters start where all starts but `kept` are seen (0 kept: at d)
    return v, breaks, np.argmax(seen >= seen[:, -1:] - kept[:, None], axis=1)


@dataclass(frozen=True)
class LatticeReport:
    """Verdicts of the sampled and structural lattice checks on one algebra."""

    orthomodular_pass_rate: float
    distributive: bool
    counterexample: tuple | None
    boolean_lattice: bool
    atomic: bool
    hilbertian: bool
    factor: bool
    sector_count: int
    trials: int
    seed: int

    def __post_init__(self):
        if (self.counterexample is None) == (not self.distributive):
            raise ValueError("counterexample must be present exactly when distributive is false")


def lattice_report(
    alg: AlgebraBasis, trials: int, seed: int, tol: Tolerance = DEFAULT_TOL
) -> LatticeReport:
    """Run the law-checking suite on one algebra.

    Orthomodularity is sampled on `trials` constrained pairs (the smaller
    projector is forced below the larger by taking a meet), and
    distributivity on `trials` random triples, recording the first
    counterexample. Each of the five draws (q and r, then p, q and r) is
    one stage: trial i's projector is row i of the stage's stream under
    `seed` (`seeding.uniforms`), so it does not depend on how many trials
    run, and all five stages are one `_random_projectors` call. Each
    stage of meets and joins is one stacked call over all trials. A meet
    or join with no operand 0 or 1 has the bits of its public one-matrix
    call; the others are settled by identity (see `_meet`).
    Every projector drawn or derived is checked in one stacked
    `ensure_projector` before any verdict (NotProjector names the lowest
    failing trial). A law holds at a trial when its difference has operator
    norm at most ``tol.law_tol`` (`norm_at_most`); `distributive` reports
    what the sampling saw.

    The rest is read off the memoized block decomposition:
    `boolean_lattice` (a commutative algebra) is every sector of block
    size 1, `factor` a single sector, `hilbertian` (lattice of all
    subspaces) a single sector of multiplicity 1. `atomic` is always
    true: each block ``M_n (x) 1_m`` has the atoms ``e (x) 1_m``, e of
    rank 1, and `block_decomposition` certifies that form for every sector.
    """
    require_count("trials", trials)
    require_count("seed", seed)
    decomp = block_decomposition(alg, tol)
    pass_rate, counterexample = 1.0, None  # zero trials draw nothing
    if trials:
        d = alg.ambient_dim
        streams = (STREAM_ORTHOMODULAR_Q, STREAM_ORTHOMODULAR_R,
                   STREAM_DISTRIBUTIVE_P, STREAM_DISTRIBUTIVE_Q, STREAM_DISTRIBUTIVE_R)
        u = [uniforms(seed, s, trials, _draw_width(alg)) for s in streams]
        q, r, dp, dq, dr = _random_projectors(alg, np.concatenate(u), tol).reshape(5, -1, d, d)
        del u  # 16 MiB at weyl 32 with 200 trials, not held through the meets
        p = _meet(r, q, tol=tol)
        om_differences, om_derived = _orthomodularity(p, q, tol)
        dist_differences, dist_derived = _distributivity(dp, dq, dr, tol)
        om = np.stack([q, r, p, *om_derived], axis=1).reshape(-1, d, d)  # trial by trial
        dist = np.stack([dp, dq, dr, *dist_derived], axis=1).reshape(-1, d, d)
        _ensure_projectors(np.concatenate([om, dist]), lambda i: (
            f"orthomodular trial {i // 5}" if i < 5 * trials
            else f"distributive trial {(i - 5 * trials) // 8}"), tol)
        failed = np.flatnonzero(~norm_at_most(dist_differences, tol.law_tol))
        counterexample = (dp[failed[0]], dq[failed[0]], dr[failed[0]]) if failed.size else None
        pass_rate = np.count_nonzero(norm_at_most(om_differences, tol.law_tol)) / trials

    factor = len(decomp.sectors) == 1
    return LatticeReport(
        orthomodular_pass_rate=pass_rate,
        distributive=counterexample is None,
        counterexample=counterexample,
        boolean_lattice=all(s.block_size == 1 for s in decomp.sectors),
        atomic=True,
        hilbertian=factor and decomp.sectors[0].multiplicity == 1,
        factor=factor,
        sector_count=len(decomp.sectors),
        trials=int(trials),  # a NumPy integer in, a JSON-writable int out
        seed=int(seed),
    )


def lattice_report_to_json(report: LatticeReport) -> dict:
    """Stable JSON layout: the report's fields in order; a counterexample embeds its three
    projectors."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    if report.counterexample is not None:
        out["counterexample"] = dict(zip("pqr", map(matrix_to_json, report.counterexample)))
    return out
