"""Unital *-closed matrix algebras.

An algebra is carried concretely as a Hilbert-Schmidt orthonormal basis
of its span inside M_d. Bases are non-canonical: two results are "the
same algebra" when their spans agree, which is what `same_span` tests.
The main entry points are `close` (generate the smallest unital
*-algebra containing a set of matrices), `commutant`, `baire_envelope`
(the generated von Neumann algebra, i.e. the bicommutant) and `center`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClosureNotReached, DimensionMismatch, ValidationError
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _as_operators,
    as_matrix,
    hs_norm,
    is_int,
    matrix_from_json,
    matrix_to_json,
    null_space,
    operator_norm,
)


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


@dataclass(frozen=True)
class AlgebraBasis:
    """Hilbert-Schmidt orthonormal basis of a unital *-closed subspace of M_d.

    `basis` is a read-only array of shape (k, d, d). The span is closed
    under products and adjoints and contains the identity; `close` and
    `commutant` only ever construct bases with these properties, and the
    test suite verifies them as invariants.

    `_decompositions` memoizes `sectors.block_decomposition` per
    `Tolerance`; the basis is immutable, so its structure never changes.
    """

    ambient_dim: int
    basis: np.ndarray = field(repr=False)
    _decompositions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 3 or b.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise DimensionMismatch(
                f"basis stack of shape {b.shape} does not match ambient dimension "
                f"{self.ambient_dim}"
            )
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        """Linear dimension of the span."""
        return int(self.basis.shape[0])


def project_onto(alg: AlgebraBasis, m) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection of ``m`` (or of a stack) onto the span of ``alg``."""
    coeffs = np.tensordot(alg.basis.conj(), np.asarray(m, dtype=complex), axes=([1, 2], [-2, -1]))
    return np.tensordot(coeffs, alg.basis, axes=(0, 0))


def contains(alg: AlgebraBasis, m, tol: Tolerance = DEFAULT_TOL):
    """True iff ``m`` lies in the span of ``alg``.

    Decided by projecting in the Hilbert-Schmidt geometry and comparing
    the residual against ``eq_tol * (1 + ||m||)``, per matrix of an ``(n, d, d)`` stack.
    """
    a = _as_operators(m)
    if a.shape[-1] != alg.ambient_dim:
        raise DimensionMismatch(
            f"matrix of dimension {a.shape[-1]} vs algebra in M_{alg.ambient_dim}"
        )
    residual = operator_norm(a - project_onto(alg, a))
    return residual <= tol.eq_tol * (1.0 + operator_norm(a))


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


def close(
    gens: GeneratorSet,
    tol: Tolerance = DEFAULT_TOL,
    word_cap: int | None = None,
) -> AlgebraBasis:
    """Smallest unital *-closed, product-closed subspace of M_d containing the generators.

    Breadth-first over words in the generators and their adjoints: the
    unit is adjoined first, then each round multiplies the newly found
    directions on the left by every generator and adjoint (every word
    ``g1 g2 ... gn`` is ``g1 (g2 ... gn)``, so after n rounds the span is
    that of all words of length at most n). The orthonormal basis is the
    first k rows of one preallocated ``(d^2, d^2)`` array; each candidate
    is projected off it by classical Gram-Schmidt run twice ("twice is
    enough"), each pass two BLAS products ``r -= (B* r) B``. A candidate
    ``g x`` counts as new only if its component outside the span exceeds
    ``rank_tol * ||g||`` (``x`` has unit norm), so rounding noise in
    products that vanish is never promoted to a direction. The search ends
    at a round that adds nothing or at a span of d^2, all of M_d. The span
    depends neither on the generator ordering nor on the basis the
    generators are written in.

    Raises
    ------
    ClosureNotReached
        If new directions still appear at word length ``word_cap``
        (default ``2 d^2``), which signals the cap is too small.
    """
    d = gens.ambient_dim
    cap = 2 * d * d if word_cap is None else word_cap
    if not is_int(cap) or cap < 1:
        raise ValidationError(f"word_cap must be a positive integer, got {cap!r}")

    multipliers = [(m, hs_norm(g)) for g in gens.generators for m in (g, g.conj().T)]

    basis = np.empty((d * d, d * d), dtype=complex)  # rows 0..k-1 hold the span
    k = 0

    def extend(candidates) -> list[np.ndarray]:
        """Append the new directions among ``(matrix, factor scale)`` pairs, in order."""
        nonlocal k
        added = []
        for candidate, ref in candidates:
            if k == d * d:  # all of M_d: a tiny rank_tol would otherwise accept rounding noise
                break
            scale = hs_norm(candidate)
            if scale == 0.0:
                continue
            r = candidate.ravel() / scale
            for _ in range(2):  # classical Gram-Schmidt, re-orthogonalized once
                r -= (basis[:k] @ r.conj()).conj() @ basis[:k]
            residual = hs_norm(r)
            if residual * scale > tol.rank_tol * ref:  # ref: scale of the factors
                basis[k] = r / residual
                added.append(basis[k].reshape(d, d))
                k += 1
        return added

    unit = np.eye(d, dtype=complex)
    frontier = extend([(unit, hs_norm(unit)), *multipliers])  # seeds: their own norm
    word_len = 1
    while frontier and k < d * d:  # a span of d^2 is all of M_d
        if word_len >= cap:
            raise ClosureNotReached(
                f"closure still growing at word length {word_len} (cap {cap}); "
                f"span dimension so far {k}"
            )
        word_len += 1
        # x has unit HS norm, so the factor scale of g x is ||g||
        frontier = extend((g @ x, norm) for x in frontier for g, norm in multipliers)

    return AlgebraBasis(ambient_dim=d, basis=basis[:k].reshape(k, d, d))


def _commutant_of(mats, d: int, tol: Tolerance) -> AlgebraBasis:
    eye = np.eye(d)
    system = np.vstack([np.kron(eye, a) - np.kron(a.T, eye) for a in mats])
    kernel = null_space(system, tol)
    basis = [kernel[:, j].reshape(d, d, order="F") for j in range(kernel.shape[1])]
    return AlgebraBasis(ambient_dim=d, basis=np.stack(basis))


def commutant(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All of M_d commuting with every element of ``alg``.

    Assembles the joint linear system ``x a - a x = 0`` over the matrix
    entries (one d^2 x d^2 block per basis element, in the column-major
    vectorization where ``vec(a x) = (I (x) a) vec(x)``) and extracts its
    null space. The kernel vectors are orthonormal in C^{d^2}, hence the
    reshaped matrices are Hilbert-Schmidt orthonormal. The result is
    itself unital and *-closed.
    """
    return _commutant_of(alg.basis, alg.ambient_dim, tol)


def generator_commutant(gens: GeneratorSet, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All of M_d commuting with every generator and its adjoint.

    Equal to the commutant of the generated algebra but computed without
    the closure; its commutant, the generators' bicommutant, is the
    generated von Neumann algebra, which `run_scenario` compares with
    ``close(gens)`` to check `close` independently. Generators are scaled
    to unit norm so the null-space cutoff weighs them alike.
    """
    mats = []
    for g in gens.generators:
        scale = hs_norm(g) or 1.0
        mats += [g / scale, g.conj().T / scale]
    return _commutant_of(mats, gens.ambient_dim, tol)


def baire_envelope(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Monotone sequential closure of ``alg``.

    At finite dimension this is the von Neumann algebra generated by
    ``alg``, i.e. the bicommutant, which is how it is computed. It
    contains ``alg`` and applying it twice adds nothing.
    """
    return commutant(commutant(alg, tol), tol)


def center(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Intersection of ``alg`` with its commutant.

    Spanned by the minimal central projectors z, read off the memoized
    `sectors.block_decomposition`; each basis element is ``z / sqrt(tr z)``,
    Hilbert-Schmidt orthonormal since the z are orthogonal projectors. The
    center is commutative and contains the identity.
    """
    from .sectors import block_decomposition  # sectors builds on this module

    zs = np.stack([s.central_projector for s in block_decomposition(alg, tol).sectors])
    traces = np.trace(zs, axis1=1, axis2=2).real
    return AlgebraBasis(alg.ambient_dim, zs / np.sqrt(traces)[:, None, None])


def is_commutative(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff all basis pairs commute within ``eq_tol``."""
    k = alg.dim
    for i in range(k):
        a = alg.basis[i]
        for j in range(i + 1, k):
            b = alg.basis[j]
            if operator_norm(a @ b - b @ a) > tol.eq_tol:
                return False
    return True


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
    """Serialize an algebra basis (ambient dimension, span dimension, basis)."""
    return {
        "ambient_dim": alg.ambient_dim,
        "dim": alg.dim,
        "basis": [matrix_to_json(b) for b in alg.basis],
    }
