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

from .algebra import AlgebraBasis, is_commutative
from .errors import ConvergenceFailed, DimensionMismatch, PreconditionFailed
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    ensure_projector,
    gap_clusters,
    matrix_to_json,
    null_space,
    operator_norm,
)
from .sectors import block_decomposition, mvn_dimension
from .seeding import (
    STREAM_DISTRIBUTIVE_P,
    STREAM_DISTRIBUTIVE_Q,
    STREAM_DISTRIBUTIVE_R,
    STREAM_ORTHOMODULAR_Q,
    STREAM_ORTHOMODULAR_R,
    derive_seed,
)

# Residual threshold for the lattice-law checkers.
LAW_TOL = 1e-7


def _pair(p, q, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    pm = ensure_projector(p, tol)
    qm = ensure_projector(q, tol)
    if pm.shape != qm.shape:
        raise DimensionMismatch(f"projector shapes differ: {pm.shape} vs {qm.shape}")
    return pm, qm


def orthocomplement(p, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The negation ``1 - p``. Applying it twice returns ``p`` exactly."""
    pm = ensure_projector(p, tol)
    return np.eye(pm.shape[0], dtype=complex) - pm


def meet(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projector onto ``range(p) ∩ range(q)``.

    Computed from the joint null space of the stacked complements
    ``1 - p`` and ``1 - q``: a vector is in both ranges exactly when
    both complements kill it. Distinct non-orthogonal lines meet at the
    origin, the hallmark separating this lattice from a Boolean one.
    """
    pm, qm = _pair(p, q, tol)
    d = pm.shape[0]
    eye = np.eye(d, dtype=complex)
    stacked = np.vstack([eye - pm, eye - qm])
    kernel = null_space(stacked, tol)
    out = kernel @ kernel.conj().T
    return (out + out.conj().T) / 2.0


def meet_iterative(
    p, q, tol: Tolerance = DEFAULT_TOL, symmetrized: bool = True
) -> np.ndarray:
    """Meet as the limit of iterated products.

    With ``symmetrized=True`` (default) the iterates are the hermitian
    powers ``(p q p)^n``; after the successive-difference residual drops
    below ``conv_tol`` the eigenvalues are rounded to {0, 1} and the
    projector is rebuilt, so the output is an exact projector. With
    ``symmetrized=False`` the raw power ``(p q)^n`` at convergence is
    returned unrounded; it approximates the same limit and is only used
    as a relaxed cross-check.

    Raises
    ------
    ConvergenceFailed
        If ``max_iter`` is reached with residual above ``conv_tol``
        (ranges meeting at a very small principal angle), or if the
        converged spectrum has no clean gap around 1/2 to round across.
    """
    pm, qm = _pair(p, q, tol)
    core = pm @ qm @ pm if symmetrized else pm @ qm
    s = core.copy()
    residual = np.inf
    for _ in range(tol.max_iter):
        s_next = s @ core
        if symmetrized:
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
    if not symmetrized:
        return s
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
    cols = v[:, ones]
    out = cols @ cols.conj().T
    return (out + out.conj().T) / 2.0


def join(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projector onto ``range(p) + range(q)``, as the De Morgan dual of meet."""
    pm, qm = _pair(p, q, tol)
    return orthocomplement(meet(orthocomplement(pm), orthocomplement(qm), tol), tol)


def leq(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Order relation: ``p <= q`` iff the range of p sits inside the range of q.

    Equivalent to ``p = p ∧ q``; decided by the cheaper range-containment
    form ``||q p - p|| <= eq_tol``.
    """
    pm, qm = _pair(p, q, tol)
    return operator_norm(qm @ pm - pm) <= tol.eq_tol


def orthogonal(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``p <= 1 - q``; symmetric in its arguments."""
    pm, qm = _pair(p, q, tol)
    return leq(pm, orthocomplement(qm), tol)


def orthomodularity_residual(p, q, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual ``||q - (p ∨ (p⊥ ∧ q))||``; zero when the orthomodular law holds.

    Callers must ensure ``p <= q``.
    """
    pm, qm = _pair(p, q, tol)
    inner = meet(orthocomplement(pm), qm, tol)
    return operator_norm(qm - join(pm, inner, tol))


def check_orthomodular(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Orthomodular law at the pair (p, q): requires ``p <= q``.

    Raises PreconditionFailed when the order relation does not hold.
    """
    pm, qm = _pair(p, q, tol)
    if not leq(pm, qm, tol):
        raise PreconditionFailed("orthomodularity is only stated for p <= q")
    return orthomodularity_residual(pm, qm, tol) <= LAW_TOL


def distributivity_residual(p, q, r, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual ``||p ∧ (q ∨ r) - ((p ∧ q) ∨ (p ∧ r))||``."""
    pm, qm = _pair(p, q, tol)
    rm = ensure_projector(r, tol)
    if rm.shape != pm.shape:
        raise DimensionMismatch(f"projector shapes differ: {pm.shape} vs {rm.shape}")
    lhs = meet(pm, join(qm, rm, tol), tol)
    rhs = join(meet(pm, qm, tol), meet(pm, rm, tol), tol)
    return operator_norm(lhs - rhs)


def check_distributive(p, q, r, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Distributive law at the triple (p, q, r)."""
    return distributivity_residual(p, q, r, tol) <= LAW_TOL


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
    output is 0 or 1.
    """
    rng = np.random.default_rng(int(seed))
    k = alg.dim
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x = np.tensordot(coeffs, alg.basis, axes=(0, 0))
    h = (x + x.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    spread = float(w[-1] - w[0]) if w.size else 0.0
    clusters = gap_clusters(w, tol.rank_tol * max(1.0, spread))
    cut = int(rng.integers(0, len(clusters) + 1))
    if cut == 0:
        return np.zeros((alg.ambient_dim, alg.ambient_dim), dtype=complex)
    start = clusters[len(clusters) - cut][0]
    cols = v[:, start:]
    p = cols @ cols.conj().T
    return (p + p.conj().T) / 2.0


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
    its index. The boolean verdict is structural (commutativity of the
    algebra), while `distributive` reports what the sampling saw.

    The rest is read off the memoized block decomposition: `factor` is
    a single sector, `hilbertian` (lattice of all subspaces) a single
    sector of multiplicity 1. `atomic` is always true: each block
    ``M_n (x) 1_m`` has the atoms ``e (x) 1_m``, e of rank 1, and
    `block_decomposition` certifies that form for every sector.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    decomp = block_decomposition(alg, tol)

    def om_trial(i: int) -> bool:
        q = random_projector(alg, derive_seed(seed, STREAM_ORTHOMODULAR_Q, i), tol)
        r = random_projector(alg, derive_seed(seed, STREAM_ORTHOMODULAR_R, i), tol)
        p = meet(r, q, tol)
        return orthomodularity_residual(p, q, tol) <= LAW_TOL

    om_results = [om_trial(i) for i in range(trials)]
    pass_rate = (sum(om_results) / trials) if trials else 1.0

    def dist_trial(i: int):
        p = random_projector(alg, derive_seed(seed, STREAM_DISTRIBUTIVE_P, i), tol)
        q = random_projector(alg, derive_seed(seed, STREAM_DISTRIBUTIVE_Q, i), tol)
        r = random_projector(alg, derive_seed(seed, STREAM_DISTRIBUTIVE_R, i), tol)
        ok = distributivity_residual(p, q, r, tol) <= LAW_TOL
        return (ok, None if ok else (p, q, r))

    dist_results = [dist_trial(i) for i in range(trials)]
    distributive = all(ok for ok, _ in dist_results)
    counterexample = next((triple for ok, triple in dist_results if not ok), None)

    factor = len(decomp.sectors) == 1
    return LatticeReport(
        orthomodular_pass_rate=pass_rate,
        distributive=distributive,
        counterexample=counterexample,
        boolean_lattice=is_commutative(alg, tol),
        atomic=True,
        hilbertian=factor and decomp.sectors[0].multiplicity == 1,
        factor=factor,
        sector_count=len(decomp.sectors),
        trials=trials,
        seed=seed,
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
