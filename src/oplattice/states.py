"""States as density-matrix functionals and their restriction to propositions.

A state is carried by a density matrix rho on the ambient space and acts
on observables as ``a -> tr(rho a)``. Restricting a state to the
projectors of the generated von Neumann algebra yields its logical
state: a [0,1]-valued assignment of probabilities to propositions that
is additive over orthogonal families. The same density serves both the
state on a subalgebra and its extension to the generated algebra, so the
extension step is literally the identity here.

Purity is relative to an algebra: an ambient-mixed density can still be
pure as a state on a subalgebra (its per-sector reduced matrix decides).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .algebra import AlgebraBasis, baire_envelope, contains
from .errors import (
    DimensionMismatch,
    NotCommutative,
    NotHermitian,
    NotInAlgebra,
    NotNormalized,
    NotOrthogonalFamily,
    NotPositive,
    ValidationError,
)
from .logic import _complement, _ensure_projectors, _join, _leq, _meet, _random_projectors
from .logic import meet  # noqa: F401  `meet` stays bound here for the benchmark's tracer test
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    ensure_projector,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    rank_of,
)
from .sectors import SectorDecomposition, block_decomposition
from .seeding import STREAM_FAMILY_BASE, STREAM_FAMILY_SPLIT, derive_seed


@dataclass(frozen=True)
class StateFunctional:
    """A density matrix rho inducing the functional ``a -> tr(rho a)``."""

    density: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return int(self.density.shape[0])


def make_state(rho, tol: Tolerance = DEFAULT_TOL) -> StateFunctional:
    """Validate a density matrix and wrap it as a state.

    Raises NotHermitian, NotPositive (an eigenvalue below ``-rank_tol``)
    or NotNormalized (trace off 1 by more than ``eq_tol``).
    """
    a = as_matrix(rho)
    herm = operator_norm(a - a.conj().T)
    if herm > tol.eq_tol:
        raise NotHermitian(f"density is not self-adjoint: defect {herm:.3e}")
    eigenvalues = np.linalg.eigvalsh(a)
    if eigenvalues[0] < -tol.rank_tol:
        raise NotPositive(f"density has negative eigenvalue {eigenvalues[0]:.3e}")
    trace = complex(np.trace(a))
    if abs(trace - 1.0) > tol.eq_tol:
        raise NotNormalized(f"density has trace {trace}, expected 1")
    return StateFunctional(density=a)


def evaluate(state: StateFunctional, a) -> complex:
    """Expectation value ``tr(rho a)``; real for self-adjoint observables."""
    mat = as_matrix(a)
    if mat.shape[0] != state.dim:
        raise DimensionMismatch(
            f"observable of dimension {mat.shape[0]} vs state of dimension {state.dim}"
        )
    return complex(np.trace(state.density @ mat))


@dataclass(frozen=True)
class LogicalState:
    """Restriction of a state to the projectors of an algebra.

    `domain` is the algebra whose projectors the state is evaluated on;
    `value` checks membership and returns the probability that the
    proposition holds.
    """

    underlying: StateFunctional
    domain: AlgebraBasis

    def value(self, p, tol: Tolerance = DEFAULT_TOL) -> float:
        pm = ensure_projector(p, tol)
        if not contains(self.domain, pm, tol):
            raise NotInAlgebra("projector does not lie in the logical state's domain")
        return _probability(evaluate(self.underlying, pm), tol)


def _probability(raw: complex, tol: Tolerance) -> float:  # must be real, inside [0, 1]
    if abs(raw.imag) > tol.eq_tol:
        raise ValidationError(f"projector expectation has imaginary part {raw.imag:.3e}")
    v = float(raw.real)
    if v < -tol.eq_tol or v > 1.0 + tol.eq_tol:
        raise ValidationError(f"projector expectation {v} escapes [0, 1]")
    return v


def restrict_logical(
    state: StateFunctional, alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> LogicalState:
    """Logical state ``p -> tr(rho p)`` on the projectors of the generated
    von Neumann algebra of ``alg``.

    Values are range-checked against [0, 1] at evaluation time, never
    clamped.
    """
    return LogicalState(underlying=state, domain=baire_envelope(alg, tol))


def sigma_orthoadditivity_residuals(
    ls: LogicalState, family, tol: Tolerance = DEFAULT_TOL
) -> tuple[float, float]:
    """(additivity residual, worst complement-law residual) for a family.

    The additivity residual is ``|phi(∨ p_i) - sum phi(p_i)|``. The
    family must be pairwise orthogonal, else NotOrthogonalFamily. Any
    orthogonal family in M_d has at most d nonzero members, so finite
    families capture the countable case here.
    """
    members = [as_matrix(p) for p in family]  # projector checks run once, stacked, below
    if any(p.shape != (ls.domain.ambient_dim,) * 2 for p in members):
        raise DimensionMismatch(f"family members must be in M_{ls.domain.ambient_dim}")
    return _orthoadditivity(ls.domain, [("family", ls.underlying.density, members)], tol)[0]


def _orthoadditivity(domain: AlgebraBasis, cases: list, tol: Tolerance) -> list:
    """`sigma_orthoadditivity_residuals` of ``(label, density, members)`` cases, after
    one stacked check of all members, complements and running joins: projectors in
    `domain`, each case's members pairwise orthogonal. A failure names its case. Join
    step j is one `_join` over the cases with more than j members (zero padding would
    change the last join's bits)."""
    if not cases:
        return []
    joins = [[np.zeros((domain.ambient_dim,) * 2, dtype=complex)] for _ in cases]
    for j in range(max(len(members) for *_, members in cases)):
        live = [c for c, (*_, members) in enumerate(cases) if len(members) > j]
        step = _join(np.stack([joins[c][-1] for c in live]),
                     np.stack([cases[c][2][j] for c in live]), tol)
        for c, m in zip(live, step):
            joins[c].append(m)
    terms, checked, labels, pairs = [], [], [], []
    for (label, density, members), case_joins in zip(cases, joins):
        comps = [_complement(p) for p in members]
        terms.append((density, len(members), (*members, *comps, case_joins[-1])))
        checked += [*members, *comps, *case_joins]
        labels += [label] * (2 * len(members) + len(case_joins))
        pairs += [(f"{label}: members {i} and {j}", members[i], comps[j])
                  for i, j in combinations(range(len(members)), 2)]
    checked = np.stack(checked)
    _ensure_projectors(checked, labels, tol)
    if pairs:
        apart = _leq(np.stack([p for _, p, _ in pairs]), np.stack([c for *_, c in pairs]), tol)
        if not apart.all():
            raise NotOrthogonalFamily(f"{pairs[int(np.argmin(apart))][0]} are not orthogonal")
    inside = contains(domain, checked, tol)
    if not np.all(inside):
        raise NotInAlgebra(f"{labels[int(np.argmin(inside))]}: projector not in the domain")
    out = []
    for density, n, projectors in terms:
        v = [_probability(complex(np.trace(density @ p)), tol) for p in projectors]
        worst = max([0.0] + [abs(c - (1.0 - x)) for x, c in zip(v[:n], v[n : 2 * n])])
        out.append((abs(v[-1] - sum(v[:n])), worst))
    return out


def check_sigma_orthoadditive(
    ls: LogicalState, family, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """True iff the state is additive over the orthogonal family (residual
    at most ``tol.law_tol``) and the complement law holds for each member
    (residual at most ``tol.eq_tol``).

    The empty family passes vacuously (empty join is 0, empty sum is 0).
    """
    additivity, complement = sigma_orthoadditivity_residuals(ls, family, tol)
    return additivity <= tol.law_tol and complement <= tol.eq_tol


def _sector_reductions(
    state: StateFunctional, decomp: SectorDecomposition
) -> list[tuple[float, np.ndarray]]:
    """Per sector: (weight, reduced density on the block factor).

    The compressed density on block coordinates (j, t) is partial-traced
    over the multiplicity index t.
    """
    out = []
    for sector in decomp.sectors:
        n, m = sector.block_size, sector.multiplicity
        compressed = sector.isometry.conj().T @ state.density @ sector.isometry
        c4 = compressed.reshape(n, m, n, m)
        reduced = np.einsum("jsks->jk", c4)
        weight = float(np.trace(reduced).real)
        out.append((weight, reduced))
    return out


def is_pure(state: StateFunctional, alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Purity of the state as a functional on the algebra.

    True iff exactly one sector carries weight above ``rank_tol`` and the
    reduced density on that block has rank 1. A proper mixture of
    distinct sectors, or a higher-rank reduced matrix, admits a convex
    decomposition into distinct states on the algebra.
    """
    if state.dim != alg.ambient_dim:
        raise DimensionMismatch("state and algebra live in different ambient dimensions")
    weighted = [
        (weight, reduced)
        for weight, reduced in _sector_reductions(state, block_decomposition(alg, tol))
        if weight > tol.rank_tol
    ]
    if len(weighted) != 1:
        return False
    _, reduced = weighted[0]
    return rank_of(reduced, tol) == 1


def dirac_characters(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> list[StateFunctional]:
    """The multiplicative states of a commutative algebra, one per joint eigenspace.

    Jointly diagonalizing a commutative algebra splits the space into
    eigenspaces on which every element acts as a scalar; normalizing the
    eigenspace projectors gives states that read off those scalars, the
    finite analogue of evaluation at a point. Their count equals the
    span dimension of the algebra. NotCommutative unless every sector
    of the block decomposition has block size 1.
    """
    sectors = block_decomposition(alg, tol).sectors
    if any(sector.block_size != 1 for sector in sectors):
        raise NotCommutative("characters exist only for commutative algebras")
    # a commutative algebra is its own center, so the central projectors
    # of its sectors are exactly the joint eigenspace projectors
    out = []
    for sector in sectors:
        z = sector.central_projector
        out.append(make_state(z / float(np.trace(z).real), tol))
    return out


def is_separating(family, alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no nonzero positive element of the algebra is invisible to the family.

    The quadratic form ``a -> sum_i phi_i(a* a)`` on the span is encoded
    by the Gram matrix ``G[j, l] = sum_i tr(rho_i b_j† b_l)`` over the
    algebra basis; the family separates exactly when G is positive
    definite.
    """
    states = list(family)
    if not states:
        return alg.dim == 0
    k = alg.dim
    gram = np.zeros((k, k), dtype=complex)
    for st in states:
        if st.dim != alg.ambient_dim:
            raise DimensionMismatch("state and algebra live in different ambient dimensions")
        for j in range(k):
            bj = alg.basis[j]
            for l in range(k):
                gram[j, l] += np.trace(st.density @ bj.conj().T @ alg.basis[l])
    gram = (gram + gram.conj().T) / 2.0
    eigenvalues = np.linalg.eigvalsh(gram)
    top = float(eigenvalues[-1])
    if top <= 0.0:
        return False
    return float(eigenvalues[0]) > tol.rank_tol * max(1.0, top)


def random_state(dim: int, seed: int) -> StateFunctional:
    """Seeded full-rank random density matrix (Wishart-style draw)."""
    rng = np.random.default_rng(int(seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return StateFunctional(density=as_matrix(rho))


def random_orthogonal_family(
    alg: AlgebraBasis, seed: int, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Pairwise-orthogonal projectors in the algebra, splitting a random range.

    Draws a base projector, then repeatedly carves off the part of a
    fresh random projector lying under what remains, for at most
    ``4 * d`` attempts and ``d`` pieces. The pieces plus the final
    remainder partition the base range, so the family sums to the base
    projector. May be empty (base = 0). Runs `_random_orthogonal_families`
    on one seed: a family does not depend on the others drawn with it.
    """
    return _random_orthogonal_families(alg, [seed], tol)[0]


def _random_orthogonal_families(alg: AlgebraBasis, seeds, tol: Tolerance) -> list[list]:
    """`random_orthogonal_family` for each seed, in stacked stages: the base draws, then
    one round per attempt over the families still splitting (a draw and a meet each)."""
    remaining = _random_projectors(alg, [derive_seed(s, STREAM_FAMILY_BASE, 0) for s in seeds], tol)
    parts: list[list] = [[] for _ in seeds]
    cap = alg.ambient_dim
    for attempt in range(1, 4 * cap + 1):
        counts = np.array([len(family) for family in parts])
        active = np.flatnonzero((np.trace(remaining, axis1=1, axis2=2).real > 0.5) & (counts < cap))
        if not active.size:
            break
        draws = [derive_seed(seeds[i], STREAM_FAMILY_SPLIT, attempt) for i in active]
        pieces = _meet(_random_projectors(alg, draws, tol), remaining[active], tol)
        kept = np.trace(pieces, axis1=1, axis2=2).real > 0.5
        for i, piece in zip(active[kept], pieces[kept]):
            parts[i].append(piece)
        remaining[active[kept]] = remaining[active[kept]] - pieces[kept]
    for i in np.flatnonzero(np.trace(remaining, axis1=1, axis2=2).real > 0.5):
        parts[i].append(remaining[i])
    return parts


def state_to_json(state: StateFunctional) -> dict:
    return {"density": matrix_to_json(state.density)}


def state_from_json(data, tol: Tolerance = DEFAULT_TOL) -> StateFunctional:
    if not isinstance(data, dict) or "density" not in data:
        raise ValidationError('state JSON needs a "density" key')
    return make_state(matrix_from_json(data["density"]), tol)
