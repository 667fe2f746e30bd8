"""Projector-lattice calculus.

Projectors (self-adjoint idempotents) model elementary yes-no
propositions; this module implements their orthocomplement, meet, join
and order, plus the law checkers (orthomodularity, distributivity,
atomicity) and a seeded sampler used by the verification sweeps.

The meet is computed two ways. The authoritative route projects onto
the joint null space of the two range complements. The iterated-product
route realizes the limit of ``(p q p)^n``, whose eigenvalue-1 eigenspace
is exactly the range intersection; it converges at rate ``cos^2`` of the
smallest principal angle between the ranges, so it is kept as a
fidelity cross-check rather than the production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraBasis
from .errors import ConvergenceFailed, DimensionMismatch, NotProjector, PreconditionFailed
from .numerics import (DEFAULT_TOL, Tolerance, cluster_breaks, ensure_projector, is_int,
                       is_projector, matrix_to_json, norm_at_most, null_space, operator_norm,
                       range_projector, singular_rank, suffix_projectors)
from .sectors import _random_span_elements, block_decomposition, mvn_dimension
from .seeding import (STREAM_DISTRIBUTIVE_P, STREAM_DISTRIBUTIVE_Q, STREAM_DISTRIBUTIVE_R,
                      STREAM_ORTHOMODULAR_Q, STREAM_ORTHOMODULAR_R, derive_seeds, generators)


def _projectors(*ps, tol: Tolerance) -> list[np.ndarray]:
    ms = [ensure_projector(p, tol) for p in ps]
    if len({m.shape for m in ms}) > 1:
        raise DimensionMismatch(f"projector shapes differ: {[m.shape for m in ms]}")
    return ms


def _complement(p: np.ndarray) -> np.ndarray:
    return np.eye(p.shape[-1], dtype=complex) - p


def _meet(p: np.ndarray, q: np.ndarray, tol: Tolerance) -> np.ndarray:
    # like every kernel here: one matrix, or an (n, d, d) stack with each trial's one-matrix bits
    a = np.concatenate([_complement(p), _complement(q)], axis=-2)
    if a.ndim == 2:  # a public one-pair call stays a (traced) `null_space` call, same bits
        return range_projector(null_space(a, tol))
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return suffix_projectors(vh.conj().swapaxes(-2, -1), singular_rank(s, tol))


def _join(p: np.ndarray, q: np.ndarray, tol: Tolerance) -> np.ndarray:
    return _complement(_meet(_complement(p), _complement(q), tol))


def _leq(p, q, tol: Tolerance):
    return norm_at_most(q @ p - p, tol.eq_tol)


def _orthomodularity(p, q, tol: Tolerance) -> tuple[np.ndarray, tuple]:  # residuals, derived
    inner = _meet(_complement(p), q, tol)
    outer = _join(p, inner, tol)
    return operator_norm(q - outer), (inner, outer)


def _distributivity(p, q, r, tol: Tolerance) -> tuple[np.ndarray, tuple]:  # residuals, derived
    # stacked meets: q ∨ r (a meet of complements) with p ∧ q and p ∧ r; then lhs with rhs
    not_q_or_r, p_and_q, p_and_r = _meet(np.stack([_complement(q), p, p]),
                                         np.stack([_complement(r), q, r]), tol)
    q_or_r = _complement(not_q_or_r)
    lhs, not_rhs = _meet(np.stack([p, _complement(p_and_q)]),
                         np.stack([q_or_r, _complement(p_and_r)]), tol)
    rhs = _complement(not_rhs)
    return operator_norm(lhs - rhs), (q_or_r, lhs, p_and_q, p_and_r, rhs)


def _ensure_projectors(stack: np.ndarray, label_of, tol: Tolerance) -> None:
    """One `ensure_projector` over a stack; a failure names its first non-projector i's
    ``label_of(i)``, which only a failure calls."""
    try:
        ensure_projector(stack, tol)
    except NotProjector as exc:
        bad = next((i for i, m in enumerate(stack) if not is_projector(m, tol)), None)
        raise NotProjector(f"{'stack' if bad is None else label_of(bad)}: {exc}") from exc


def orthocomplement(p, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The negation ``1 - p``. Applying it twice returns ``p`` exactly."""
    return _complement(ensure_projector(p, tol))


def meet(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projector onto ``range(p) ∩ range(q)``.

    Computed from the joint null space of the stacked complements
    ``1 - p`` and ``1 - q``: a vector is in both ranges exactly when
    both complements kill it. Distinct non-orthogonal lines meet at the
    origin, the hallmark separating this lattice from a Boolean one.
    """
    return _meet(*_projectors(p, q, tol=tol), tol)


def meet_iterative(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Meet as the limit of iterated products.

    The iterates are the hermitian powers ``(p q p)^n``; after the
    successive-difference residual drops below ``conv_tol`` the
    eigenvalues are rounded to {0, 1} and the projector is rebuilt, so
    the output is an exact projector. Rounding needs a gap wider than 0.1
    around 1/2, a property of a converged projector spectrum, not a
    tolerance.

    Raises
    ------
    ConvergenceFailed
        If ``max_iter`` is reached with residual above ``conv_tol``
        (ranges meeting at a very small principal angle), or if the
        converged spectrum has no clean gap around 1/2 to round across.
    """
    pm, qm = _projectors(p, q, tol=tol)
    core = pm @ qm @ pm
    s = core.copy()
    residual = np.inf
    for _ in range(tol.max_iter):
        s_next = s @ core
        s_next = (s_next + s_next.conj().T) / 2.0
        residual = operator_norm(s_next - s)
        s = s_next
        if residual < tol.conv_tol:
            break
    else:
        raise ConvergenceFailed(
            f"iterated product did not converge within {tol.max_iter} iterations; "
            f"last residual {residual:.3e}",
            residual=residual,
        )
    w, v = np.linalg.eigh(s)
    ones = w >= 0.5
    low = float(w[~ones].max()) if np.any(~ones) else 0.0
    high = float(w[ones].min()) if np.any(ones) else 1.0
    if high - low <= 0.1:
        raise ConvergenceFailed(
            f"converged spectrum has no rounding gap: nearest eigenvalues to 1/2 are "
            f"{low:.6f} and {high:.6f}",
            residual=high - low,
        )
    return range_projector(v[:, ones])


def join(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projector onto ``range(p) + range(q)``, as the De Morgan dual of meet."""
    return _join(*_projectors(p, q, tol=tol), tol)


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
    return _orthomodularity(*_projectors(p, q, tol=tol), tol)[0]


def check_orthomodular(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Orthomodular law at the pair (p, q), residual at most ``tol.law_tol``.

    Requires ``p <= q``, else PreconditionFailed.
    """
    pm, qm = _projectors(p, q, tol=tol)
    if not _leq(pm, qm, tol):
        raise PreconditionFailed("orthomodularity is only stated for p <= q")
    return _orthomodularity(pm, qm, tol)[0] <= tol.law_tol


def distributivity_residual(p, q, r, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual ``||p ∧ (q ∨ r) - ((p ∧ q) ∨ (p ∧ r))||``."""
    return _distributivity(*_projectors(p, q, r, tol=tol), tol)[0]


def check_distributive(p, q, r, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Distributive law at the triple (p, q, r): residual at most ``tol.law_tol``."""
    return distributivity_residual(p, q, r, tol) <= tol.law_tol


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
    into eigenvalue clusters, and keeps a uniformly chosen top segment of
    clusters as a spectral projector. Spectral projectors of an element
    stay inside a product-closed span, and whole clusters must be kept
    together so degenerate eigenvalues are never split. Deterministic
    given the algebra basis and the seed; on a scalars-only algebra the
    output is 0 or 1. Runs `_random_projectors` on one seed: a draw does
    not depend on the others made with it.
    """
    return _random_projectors(alg, [seed], tol)[0]


def _random_projectors(alg: AlgebraBasis, seeds, tol: Tolerance) -> np.ndarray:
    """`random_projector` for each seed, as one ``(n, d, d)`` stack."""
    return _random_projectors_from(alg, generators(seeds), tol)


def _random_projectors_from(alg: AlgebraBasis, rngs: list, tol: Tolerance) -> np.ndarray:
    """`_random_projectors` on the seeds' generators. Each seed keeps its own generator and
    draw order: span coefficients, then (after one stacked ``eigh``) the cut."""
    w, v = np.linalg.eigh(_random_span_elements(alg.basis, rngs, hermitian=True))
    starts = np.ones((len(rngs), alg.ambient_dim + 1), dtype=bool)  # of each cluster, then d
    starts[:, 1:-1] = cluster_breaks(w, tol)
    seen = np.cumsum(starts, axis=1)  # the last column counts the clusters, plus one
    kept = np.array([rng.integers(0, n) for rng, n in zip(rngs, seen[:, -1].tolist())])
    # the top `kept` clusters start where all starts but `kept` are seen (0 kept: at d)
    return suffix_projectors(v, np.argmax(seen >= seen[:, -1:] - kept[:, None], axis=1))


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
    counterexample; each trial derives its own sub-seed from `seed` and
    its index. Each stage is one stacked call over all trials (one draw for
    all five streams, meets, joins), with the bits of the public one-matrix
    calls on the same kernels.
    Every projector drawn or derived is checked in one stacked
    `ensure_projector` before any verdict (NotProjector names the lowest
    failing trial). A law holds at a trial when its residual is at most
    ``tol.law_tol``; `distributive` reports what the sampling saw.

    The rest is read off the memoized block decomposition:
    `boolean_lattice` (a commutative algebra) is every sector of block
    size 1, `factor` a single sector, `hilbertian` (lattice of all
    subspaces) a single sector of multiplicity 1. `atomic` is always
    true: each block ``M_n (x) 1_m`` has the atoms ``e (x) 1_m``, e of
    rank 1, and `block_decomposition` certifies that form for every sector.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if not is_int(value) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    decomp = block_decomposition(alg, tol)
    pass_rate, counterexample = 1.0, None  # zero trials draw nothing
    if trials:
        d = alg.ambient_dim
        streams = (STREAM_ORTHOMODULAR_Q, STREAM_ORTHOMODULAR_R,
                   STREAM_DISTRIBUTIVE_P, STREAM_DISTRIBUTIVE_Q, STREAM_DISTRIBUTIVE_R)
        seeds = derive_seeds(seed, np.repeat(streams, trials), np.tile(np.arange(trials), 5))
        q, r, dp, dq, dr = _random_projectors(alg, seeds, tol).reshape(5, -1, d, d)
        p = _meet(r, q, tol)
        om_residuals, om_derived = _orthomodularity(p, q, tol)
        dist_residuals, dist_derived = _distributivity(dp, dq, dr, tol)
        om = np.stack([q, r, p, *om_derived], axis=1).reshape(-1, d, d)  # trial by trial
        dist = np.stack([dp, dq, dr, *dist_derived], axis=1).reshape(-1, d, d)
        _ensure_projectors(np.concatenate([om, dist]), lambda i: (
            f"orthomodular trial {i // 5}" if i < 5 * trials
            else f"distributive trial {(i - 5 * trials) // 8}"), tol)
        failed = np.flatnonzero(~(dist_residuals <= tol.law_tol))
        counterexample = (dp[failed[0]], dq[failed[0]], dr[failed[0]]) if failed.size else None
        pass_rate = np.count_nonzero(om_residuals <= tol.law_tol) / trials

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
    """Stable JSON layout; a counterexample embeds its three projectors."""
    counterexample = None
    if report.counterexample is not None:
        p, q, r = report.counterexample
        counterexample = {
            "p": matrix_to_json(p),
            "q": matrix_to_json(q),
            "r": matrix_to_json(r),
        }
    return {
        "orthomodular_pass_rate": report.orthomodular_pass_rate,
        "distributive": report.distributive,
        "counterexample": counterexample,
        "boolean_lattice": report.boolean_lattice,
        "atomic": report.atomic,
        "hilbertian": report.hilbertian,
        "factor": report.factor,
        "sector_count": report.sector_count,
        "trials": report.trials,
        "seed": report.seed,
    }
