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

from .algebra import AlgebraBasis, baire_envelope, contains, is_commutative
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
from .logic import join, meet, orthocomplement, orthogonal, random_projector
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

# Law-checking thresholds for logical states.
ORTHOADDITIVITY_TOL = 1e-7
COMPLEMENT_TOL = 1e-9


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
        raw = evaluate(self.underlying, pm)
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
    members = [ensure_projector(p, tol) for p in family]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not orthogonal(members[i], members[j], tol):
                raise NotOrthogonalFamily(f"family members {i} and {j} are not orthogonal")
    d = ls.domain.ambient_dim
    joined = np.zeros((d, d), dtype=complex)
    total = 0.0
    complement_worst = 0.0
    for p in members:
        joined = join(joined, p, tol)
        v = ls.value(p, tol)
        total += v
        v_comp = ls.value(orthocomplement(p, tol), tol)
        complement_worst = max(complement_worst, abs(v_comp - (1.0 - v)))
    additivity = abs(ls.value(joined, tol) - total)
    return additivity, complement_worst


def check_sigma_orthoadditive(
    ls: LogicalState, family, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """True iff the state is additive over the orthogonal family and the
    complement law holds for each member.

    The empty family passes vacuously (empty join is 0, empty sum is 0).
    """
    additivity, complement = sigma_orthoadditivity_residuals(ls, family, tol)
    return additivity <= ORTHOADDITIVITY_TOL and complement <= COMPLEMENT_TOL


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
    span dimension of the algebra.
    """
    if not is_commutative(alg, tol):
        raise NotCommutative("characters exist only for commutative algebras")
    # a commutative algebra is its own center, so the central projectors
    # of its sectors are exactly the joint eigenspace projectors
    out = []
    for sector in block_decomposition(alg, tol).sectors:
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
    fresh random projector lying under what remains. The pieces plus the
    final remainder partition the base range, so the family sums to the
    base projector. May be empty (base = 0).
    """
    base = random_projector(alg, derive_seed(seed, STREAM_FAMILY_BASE, 0), tol)
    remaining = base
    parts: list[np.ndarray] = []
    cap = alg.ambient_dim
    attempts = 0
    while float(np.trace(remaining).real) > 0.5 and len(parts) < cap:
        attempts += 1
        if attempts > 4 * cap:
            break
        candidate = random_projector(alg, derive_seed(seed, STREAM_FAMILY_SPLIT, attempts), tol)
        piece = meet(candidate, remaining, tol)
        if float(np.trace(piece).real) > 0.5:
            parts.append(piece)
            remaining = remaining - piece
    if float(np.trace(remaining).real) > 0.5:
        parts.append(remaining)
    return parts


def state_to_json(state: StateFunctional) -> dict:
    return {"density": matrix_to_json(state.density)}


def state_from_json(data, tol: Tolerance = DEFAULT_TOL) -> StateFunctional:
    if not isinstance(data, dict) or "density" not in data:
        raise ValidationError('state JSON needs a "density" key')
    return make_state(matrix_from_json(data["density"]), tol)
