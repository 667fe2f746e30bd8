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

import numpy as np

from .algebra import AlgebraBasis, baire_envelope, contains
from .errors import (DimensionMismatch, NotCommutative, NotHermitian, NotInAlgebra, NotNormalized,
                     NotOrthogonalFamily, NotPositive, ValidationError)
from .logic import _complement, _draw_width, _ensure_projectors, _join, _leq, _spectral_cuts
from .logic import meet  # noqa: F401  `meet` stays bound here for the benchmark's tracer test
from .numerics import (DEFAULT_TOL, Tolerance, as_matrix, matrix_from_json, matrix_to_json,
                       norm_at_most, operator_norm, rank_of, require_count, run_projectors)
from .sectors import _partial_traces, _validated_projector_in, block_decomposition
from .seeding import STREAM_FAMILY, STREAM_STATE, complex_normals, uniforms


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
    herm = a - a.conj().T
    if not norm_at_most(herm, tol.eq_tol):
        raise NotHermitian(f"density is not self-adjoint: defect {operator_norm(herm):.3e}")
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

    def __post_init__(self):
        if self.underlying.dim != self.domain.ambient_dim:
            raise DimensionMismatch(f"state of dimension {self.underlying.dim} vs algebra in "
                                    f"M_{self.domain.ambient_dim}")

    def value(self, p, tol: Tolerance = DEFAULT_TOL) -> float:
        pm = _validated_projector_in(self.domain, p, tol)
        return float(_probabilities(np.array([evaluate(self.underlying, pm)]), tol)[0])


def _probabilities(raw: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The real parts of expectations, each real and inside [0, 1], else the first is named."""
    v = raw.real
    bad = np.flatnonzero((abs(raw.imag) > tol.eq_tol) | (v < -tol.eq_tol) | (v > 1.0 + tol.eq_tol))
    if bad.size and abs(raw.imag[bad[0]]) > tol.eq_tol:
        raise ValidationError(f"projector expectation has imaginary part {raw.imag[bad[0]]:.3e}")
    if bad.size:
        raise ValidationError(f"projector expectation {float(v[bad[0]])} escapes [0, 1]")
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
    """`sigma_orthoadditivity_residuals` of one or more ``(label, density, members)`` cases,
    after one stacked check of each case's n members, their complements (one stacked
    ``1 - p``) and its join: projectors in `domain`, each case's members pairwise orthogonal.
    A failure names its case. The joins of the cases with n members are one n-ary `_join`
    (zero padding would change their bits); an empty family's join is 0."""
    d, count = domain.ambient_dim, len(cases)
    sizes = np.array([len(members) for *_, members in cases])
    starts, total = np.cumsum(sizes) - sizes, int(sizes.sum())
    members = np.array([p for *_, ms in cases for p in ms], dtype=complex).reshape(total, d, d)
    complements = _complement(members)
    joins = np.zeros((count, d, d), dtype=complex)
    for size in set(sizes.tolist()) - {0}:
        sized = sizes == size
        at = starts[sized][:, None] + np.arange(size)  # (cases, size) member rows
        joins[sized] = _join(*members[at].swapaxes(0, 1), tol=tol)
    # case by case: its n members, their n complements and its join
    checked = np.concatenate([x for c, (at, n) in enumerate(zip(starts.tolist(), sizes.tolist()))
                              for x in (members[at:at + n], complements[at:at + n], joins[c:c + 1])])
    case = np.repeat(np.arange(count), 2 * sizes + 1)
    _ensure_projectors(checked, lambda i: cases[case[i]][0], tol)
    top = sizes.max(initial=0)
    apart = np.ones((count, top, top), dtype=bool)
    for a in range(top - 1):  # pairs (a, b > a) of every case: one lower index a per `_leq`
        c, b = np.nonzero((np.arange(top) > a) & (np.arange(top) < sizes[:, None]))
        apart[c, a, b] = _leq(members[starts[c] + a], complements[starts[c] + b], tol)
    if not apart.all():  # the first failure in case, then itertools.combinations' order
        c, a, b = np.argwhere(~apart)[0].tolist()
        raise NotOrthogonalFamily(f"{cases[c][0]}: members {a} and {b} are not orthogonal")
    inside = contains(domain, checked, tol)
    if not np.all(inside):
        raise NotInAlgebra(f"{cases[case[int(np.argmin(inside))]][0]}: projector not in the domain")
    densities = np.stack([density for _, density, _ in cases])[case]
    values = np.trace(densities @ checked, axis1=1, axis2=2)
    v, out = iter(_probabilities(values, tol).tolist()), []
    for size in sizes.tolist():
        x = [next(v) for _ in range(2 * size + 1)]  # members, complements, join; summed in order
        worst = max([0.0] + [abs(c - (1.0 - p)) for p, c in zip(x[:size], x[size : 2 * size])])
        out.append((abs(x[2 * size] - sum(x[:size])), worst))
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


def is_pure(state: StateFunctional, alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Purity of the state as a functional on the algebra.

    True iff exactly one sector carries weight above ``rank_tol`` and the
    reduced density on that block has rank 1. A proper mixture of
    distinct sectors, or a higher-rank reduced matrix, admits a convex
    decomposition into distinct states on the algebra.
    """
    if state.dim != alg.ambient_dim:
        raise DimensionMismatch("state and algebra live in different ambient dimensions")
    traces = _partial_traces(block_decomposition(alg, tol).frame, state.density)
    weighted = [r for t in traces for r in t if float(np.trace(r).real) > tol.rank_tol]
    return len(weighted) == 1 and rank_of(weighted[0], tol) == 1


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
    # of its sectors are exactly the joint eigenspace projectors: each z / tr z is a density by
    # construction, so it is wrapped read-only without `make_state`'s checks
    densities = [z / float(np.trace(z).real) for z in (s.central_projector for s in sectors)]
    for rho in densities:
        rho.setflags(write=False)
    return [StateFunctional(rho) for rho in densities]


def is_separating(family, alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no nonzero positive element of the algebra is invisible to the family.

    The family separates exactly when the form ``a -> tr(a* a sigma)``, sigma the sum of the
    densities, is positive definite on the algebra. On a sector ``a = V (beta (x) 1_m) V*`` it
    is ``tr(beta* beta s) / m``, s the partial trace of sigma over m: its eigenvalues (the Gram
    matrix's over any orthonormal basis) are those of ``s / m``, sector by sector.
    """
    states = list(family)
    if not states:
        return False  # every algebra holds 1, which an empty family does not see
    if any(st.dim != alg.ambient_dim for st in states):
        raise DimensionMismatch("state and algebra live in different ambient dimensions")
    sigma = sum(st.density for st in states)
    frame = block_decomposition(alg, tol).frame
    eigenvalues = np.concatenate([np.linalg.eigvalsh(t).ravel() / m for (_, m, _, _), t in
                                  zip(frame.groups, _partial_traces(frame, sigma))])
    top = float(eigenvalues.max())
    if top <= 0.0:
        return False
    return float(eigenvalues.min()) > tol.rank_tol * max(1.0, top)


def random_state(dim: int, seed: int) -> StateFunctional:
    """Seeded full-rank random density matrix (Wishart-style draw): row 0 of `STREAM_STATE`
    under the seed (`seeding.uniforms`), drawn by `_random_states`."""
    require_count("dim", dim, positive=True)
    require_count("seed", seed)
    return _random_states(dim, uniforms(seed, STREAM_STATE, 1, 2 * dim * dim))[0]


def _random_states(dim: int, u: np.ndarray) -> list[StateFunctional]:
    """`random_state` on each row of the uniforms `u` (``2 d^2`` columns): ``g g* / tr(g g*)``,
    g the row's d^2 complex normals (`complex_normals`) row-major, one stacked product."""
    g = complex_normals(u[:, :2 * dim * dim]).reshape(-1, dim, dim)
    rho = g @ g.conj().swapaxes(-2, -1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    rho.setflags(write=False)
    return [StateFunctional(density=r) for r in rho]


def random_orthogonal_family(
    alg: AlgebraBasis, seed: int, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Pairwise-orthogonal projectors in the algebra, cutting a random range.

    Draws the base projector p as `random_projector` does (the top clusters of a random
    self-adjoint element h of the span: 1 to n - 1 of n >= 2 clusters, 0 or all of one) and
    groups those clusters into consecutive pieces, cut before each cluster with probability
    1/2 (one uniform below 1/2 per eigenvalue gap, read after the base's). Each piece is the
    projector of its own run of h's eigenvector columns, a spectral projector of h, so it lies
    in the algebra; the pieces are orthogonal, sum to p and number at most ``rank p``, and a
    single piece has the bits of p. Empty where p = 0, which only an element of one cluster
    draws. Row 0 of `STREAM_FAMILY` under the seed (`seeding.uniforms`), drawn by
    `_random_orthogonal_families`.
    """
    require_count("seed", seed)
    return _random_orthogonal_families(
        alg, uniforms(seed, STREAM_FAMILY, 1, _family_width(alg)), tol)[0]


def _family_width(alg: AlgebraBasis) -> int:
    """Uniforms a family draw reads: its base's `_draw_width`, then d - 1 cut bits."""
    return _draw_width(alg) + alg.ambient_dim - 1


def _random_orthogonal_families(alg: AlgebraBasis, u: np.ndarray, tol: Tolerance) -> list[list]:
    """`random_orthogonal_family` on each row of the uniforms `u` (`_family_width` columns), in
    stacked stages: the base's spectral cuts (one ``eigh``), the cut bits, and each member as
    the projector of its own run of eigenvector columns (`run_projectors`)."""
    d, count = alg.ambient_dim, len(u)
    v, breaks, first = _spectral_cuts(alg, u, tol)
    cut = u[:, _draw_width(alg):_family_width(alg)] < 0.5
    edges = np.ones((count, d + 1), dtype=bool)  # each member's first column, then d
    edges[:, :d] = np.arange(d) == first[:, None]
    edges[:, 1:d] |= (np.arange(1, d) > first[:, None]) & breaks & cut
    family, column = np.nonzero(edges)  # in order: each family's members, then its end d
    run = np.flatnonzero(column < d)  # a member's first column; the next edge ends the member
    members = run_projectors(v, family[run], column[run], column[run + 1])
    bounds = np.searchsorted(family[run], np.arange(count + 1))
    return [list(members[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def state_to_json(state: StateFunctional) -> dict:
    return {"density": matrix_to_json(state.density)}


def state_from_json(data, tol: Tolerance = DEFAULT_TOL) -> StateFunctional:
    if not isinstance(data, dict) or "density" not in data:
        raise ValidationError('state JSON needs a "density" key')
    return make_state(matrix_from_json(data["density"]), tol)
