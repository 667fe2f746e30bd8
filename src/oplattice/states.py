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

from .algebra import AlgebraBasis, baire_envelope, is_commutative
from .errors import (DimensionMismatch, NotCommutative, NotHermitian, NotNormalized,
                     NotOrthogonalFamily, NotPositive, ValidationError)
from .logic import _draw_width, _first_kept, _join, _run_blocks, _spectral_cuts
from .logic import meet  # noqa: F401  `meet` stays bound here for the benchmark's tracer test
from .numerics import (DEFAULT_TOL, Tolerance, _one_matrix, as_matrix, matrix_from_json,
                       matrix_to_json, norm_at_most, operator_norm, rank_of, require_count)
from .sectors import (_ambient, _partial_traces, _projectors_in, block_decomposition,
                      minimal_central_projectors)
from .seeding import (STREAM_FAMILY, STREAM_STATE, STREAM_STATE_CHECK, STREAM_SWEEP_FAMILY,
                      STREAM_SWEEP_STATE, complex_normals, uniforms)

_STATE_FAMILY_CHECKS = 10  # families checked per configured state


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
        pm = _projectors_in(self.domain, _one_matrix(p), "LogicalState.value", tol)
        return float(_probabilities(np.array([np.trace(self.underlying.density @ pm)]), tol)[0])


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
    """(additivity residual, complement residual) for a family.

    The additivity residual is ``|phi(∨ p_i) - sum phi(p_i)|``; the complement residual
    ``|tr rho - 1|`` (0 for an empty family), up to which ``phi(1 - p) = 1 - phi(p)`` holds for
    each member. The family must be pairwise orthogonal projectors in the domain, else
    NotOrthogonalFamily, NotProjector or NotInAlgebra. Any orthogonal family in M_d has at most
    d nonzero members, so finite families capture the countable case here.
    """
    members, d = [as_matrix(p) for p in family], ls.domain.ambient_dim  # checked below, stacked
    if any(p.shape != (d, d) for p in members):
        raise DimensionMismatch(f"family members must be in M_{d}")
    stack = np.array(members, dtype=complex).reshape(-1, d, d)
    _projectors_in(ls.domain, stack, "family", tol)
    for a in range(len(stack) - 1):  # pairs (a, b > a) in itertools.combinations' order
        if not (apart := norm_at_most(stack[a + 1:] @ stack[a], tol.eq_tol)).all():
            raise NotOrthogonalFamily(f"family: members {a} and {a + 1 + np.argmin(apart)} are "
                                      "not orthogonal")
    frame = block_decomposition(ls.domain, tol).frame  # in the algebra: a member is its blocks
    blocks = [t / m for (_, m, _, _), t in zip(frame.groups, _partial_traces(frame, stack))]
    joins = [_join(*x[:, None], tol=tol) if len(x) else np.zeros((1, *x.shape[1:]), complex)
             for x in blocks]  # one n-ary join per shape group
    additivity, complement = _orthoadditivity(ls.domain, ls.underlying.density[None], "family",
                                              (np.array([len(stack)]), blocks, joins), tol)
    return float(additivity[0]), float(complement[0])


def _orthoadditivity(alg: AlgebraBasis, rho, label: str, families: tuple, tol: Tolerance) -> tuple:
    """`sigma_orthoadditivity_residuals` of the density stack `rho`, per case as two arrays
    (additivity, complement), case i's family the i-th of ``families = (sizes, blocks, joins)``
    (per group, every member's blocks in order, and each family's join). Case 0's members and
    join are checked in M_d by `sectors._projectors_in` (a failure named by case 0's `label`)
    before the values ``tr(rho p) = sum tr(s p_a)``, s the partial traces. Members come
    orthogonal: a public family is checked, a drawn one's are runs of one guarded eigenbasis
    (`run_projectors`) of defect e, so ``||p_b p_a|| <= (1 + e) e < eq_tol`` (1 x 1 blocks are
    masks of disjoint places: their products are 0)."""
    (sizes, blocks, joins), count = families, len(rho)
    frame, case = block_decomposition(alg, tol).frame, np.repeat(np.arange(count), sizes)
    _projectors_in(alg, _ambient(frame, [np.concatenate([b[:sizes[0]], j[:1]])
                                         for b, j in zip(blocks, joins)]), label, tol)
    reduced = _partial_traces(frame, rho)  # per group (cases, count, n, n)
    values = sum(np.einsum("icjk,ickj->i", s[case], b) for s, b in zip(reduced, blocks))
    joined = sum(np.einsum("icjk,ickj->i", s, j) for s, j in zip(reduced, joins))
    # each case's member values summed in order, as `sum` would
    total = np.bincount(case, weights=_probabilities(values, tol), minlength=count)
    off = np.where(sizes > 0, abs(np.trace(rho, axis1=1, axis2=2).real - 1.0), 0.0)
    return abs(_probabilities(joined, tol) - total), off


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


def _orthoadditivity_checks(alg: AlgebraBasis, states, trials, seed, tol: Tolerance) -> tuple:
    """Each configured state's verdict over its own families, and the sweep's summary (trial
    i: a random family under a random state), each case held by `check_sigma_orthoadditive`'s
    rule and ``max_residual`` the sweep's largest residual. State i's family j is row ``10 i +
    j`` of the state checks' stream under `seed` (`seeding.uniforms`), trial i's family and
    state row i of the sweep's streams: all families are one draw, and all cases one check."""
    checks = _STATE_FAMILY_CHECKS * len(states)
    verdicts, failures, top = [], 0, 0.0  # 0.0 for the largest of no residuals
    if checks + trials:  # zero trials and no states draw nothing
        d, width = alg.ambient_dim, _family_width(alg)
        families = _random_orthogonal_families(alg, np.concatenate([
            uniforms(seed, STREAM_STATE_CHECK, checks, width),
            uniforms(seed, STREAM_SWEEP_FAMILY, trials, width)]), tol)
        densities = np.concatenate([
            *(np.broadcast_to(st.density, (_STATE_FAMILY_CHECKS, d, d)) for st in states),
            _random_states(d, uniforms(seed, STREAM_SWEEP_STATE, trials, 2 * d * d))])
        additivity, complement = _orthoadditivity(alg, densities, "family" if checks else
                                                  "orthoadditivity trial 0", families, tol)
        held = (additivity <= tol.law_tol) & (complement <= tol.eq_tol)
        verdicts = held[:checks].reshape(len(states), _STATE_FAMILY_CHECKS).all(axis=1).tolist()
        if trials:
            failures = int(np.count_nonzero(~held[checks:]))
            top = float(np.maximum(additivity[checks:], complement[checks:]).max())
    return verdicts, {"trials": trials, "failures": failures, "max_residual": top}


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
    span dimension of the algebra. NotCommutative unless `is_commutative`.
    """
    if not is_commutative(alg, tol):
        raise NotCommutative("characters exist only for commutative algebras")
    # a commutative algebra is its own center, so its minimal central projectors are exactly
    # the joint eigenspace projectors: each z / tr z is a density by construction, so it is
    # wrapped read-only without `make_state`'s checks
    densities = [z / float(np.trace(z).real) for z in minimal_central_projectors(alg, tol)]
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
    return StateFunctional(_random_states(dim, uniforms(seed, STREAM_STATE, 1, 2 * dim * dim))[0])


def _random_states(dim: int, u: np.ndarray) -> np.ndarray:
    """`random_state`'s density on each row of the uniforms `u` (``2 d^2`` columns), one read-only
    stack: ``g g* / tr(g g*)``, g the row's d^2 complex normals (`complex_normals`) row-major."""
    g = complex_normals(u[:, :2 * dim * dim]).reshape(-1, dim, dim)
    rho = g @ g.conj().swapaxes(-2, -1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    rho.setflags(write=False)
    return rho


def random_orthogonal_family(
    alg: AlgebraBasis, seed: int, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Pairwise-orthogonal projectors in the algebra, cutting a random range.

    Draws the base projector p as `random_projector` does (the top clusters of a random
    self-adjoint element h of the span: 1 to n - 1 of n >= 2 clusters, 0 or all of one) and
    cuts those clusters into consecutive pieces, before each with probability 1/2 (one uniform
    below 1/2 per ambient eigenvalue gap, read after the base's). Each piece is a spectral
    projector of h, so it lies in the algebra; the pieces are orthogonal, sum to p and number
    at most ``rank p``, and a single piece has the bits of p. Empty where p = 0, which only an
    element of one cluster draws. Row 0 of `STREAM_FAMILY` under the seed
    (`seeding.uniforms`), drawn in blocks by `_random_orthogonal_families`.
    """
    require_count("seed", seed)
    (size,), blocks, _ = _random_orthogonal_families(
        alg, uniforms(seed, STREAM_FAMILY, 1, _family_width(alg)), tol)
    return list(_ambient(block_decomposition(alg, tol).frame, blocks)) if size else []


def _family_width(alg: AlgebraBasis) -> int:
    """Uniforms a family draw reads: its base's `_draw_width`, then d - 1 cut bits."""
    return _draw_width(alg) + alg.ambient_dim - 1


def _random_orthogonal_families(alg: AlgebraBasis, u: np.ndarray, tol: Tolerance) -> tuple:
    """`random_orthogonal_family` on each row of the uniforms `u` (`_family_width` columns): the
    member counts, and per shape group every member's blocks and each row's join. A gap of the
    base's merged spectrum (`_spectral_cuts`) reads the cut bit of its ambient gap (the copies
    below, less one); each member is its run of places, and the join of the members is the
    base, the run ``[first kept place, end)``: all runs of one `_run_blocks` call."""
    _, _, copies, breaks, seen, kept = cuts = _spectral_cuts(alg, u, tol)
    first = _first_kept(seen, kept)
    places, gaps = breaks.shape[1] + 1, np.cumsum(copies[:, :-1], axis=1) - 1
    cut = np.take_along_axis(u[:, _draw_width(alg):_family_width(alg)], gaps, axis=1) < 0.5
    edges = np.ones((len(u), places + 1), dtype=bool)  # each member's first place, then the end
    edges[:, :places] = np.arange(places) == first[:, None]
    edges[:, 1:places] |= (np.arange(1, places) > first[:, None]) & breaks & cut
    family, place = np.nonzero(edges)  # in order: each family's members, then its end
    run = np.flatnonzero(place < places)  # a member's first place; the next edge ends the member
    n = len(run)  # the members' runs, then each row's base [first, end): their join
    blocks = _run_blocks(cuts, np.r_[family[run], :len(u)], np.r_[place[run], first],
                         np.r_[place[run + 1], [places] * len(u)], tol)
    return (np.bincount(family[run], minlength=len(u)), [b[:n] for b in blocks],
            [b[n:] for b in blocks])


def state_to_json(state: StateFunctional) -> dict:
    return {"density": matrix_to_json(state.density)}


def state_from_json(data, tol: Tolerance = DEFAULT_TOL) -> StateFunctional:
    if not isinstance(data, dict) or "density" not in data:
        raise ValidationError('state JSON needs a "density" key')
    return make_state(matrix_from_json(data["density"]), tol)
