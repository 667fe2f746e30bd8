"""Unital *-closed matrix algebras, built on the sector format of `sectors`.

An algebra is its sectors: `sectors` owns their chain, frame, matrix units and membership
(`contains`, bound here too), and this module, which imports it once, builds algebras on
them. A basis of an algebra's span inside M_d is passed in, or built only when read.
`generated_algebra` (`close`) is the smallest unital *-algebra containing a set of matrices,
their bicommutant, read off the sectors `sectors._generated_sectors` chains;
`generator_commutant` is its `commutant`. `commutant` and `center` are read off the block
decomposition, which also certifies an algebra as its own `baire_envelope`, and `same_span`
compares two algebras by their dimensions and membership."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalError, ValidationError
from .numerics import (DEFAULT_TOL, Tolerance, _as_operators, as_matrix, matrix_from_json,
                       matrix_to_json, require_count)
from .sectors import (Sector, SectorDecomposition, _generated_sectors, _settled, _swapped, _units,
                      block_decomposition, contains)


@dataclass(frozen=True)
class GeneratorSet:
    """A nonempty list of d x d matrices that will generate an algebra."""

    ambient_dim: int
    generators: tuple = field(repr=False)

    def __post_init__(self):
        require_count("ambient_dim", self.ambient_dim, positive=True)
        object.__setattr__(self, "ambient_dim", int(self.ambient_dim))  # JSON writes Python ints
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


class AlgebraBasis:
    """Basis of a unital *-closed subspace of M_d.

    `basis` is a read-only array of shape (k, d, d). The span is closed
    under products and adjoints and contains the identity; `close` and
    `commutant` only ever construct bases with these properties, and the
    test suite verifies them as invariants. A basis passed in is validated
    and copied; nothing relies on it being Hilbert-Schmidt orthonormal, and its linear
    independence is checked where it is decomposed (`sectors._certify`: sum n^2 = k). An
    algebra read off sectors (`_with_sectors`: `generated_algebra`, `commutant`, `center`,
    `generator_commutant`) holds its own certified decomposition, reads `dim` (sum n^2) off
    it and builds `basis`, its HS-orthonormal matrix units (`sectors._units`), on first read.
    Only `algebra_to_json`, `same_span` (the units of its smaller side) and the decomposition
    of a basis passed in read `basis`. ``ambient_dim`` is a positive Python int
    (`require_count`).

    `_decompositions` memoizes `sectors.block_decomposition` per `Tolerance` (the span is
    immutable); an algebra read off sectors holds the ones it was built from first.
    """

    def __init__(self, ambient_dim: int, basis):
        require_count("ambient_dim", ambient_dim, positive=True)
        b = _as_operators(basis)  # a read-only copy, its entries finite
        if b.ndim != 3 or b.shape[1:] != (ambient_dim, ambient_dim):
            raise DimensionMismatch(f"basis stack of shape {b.shape} does not match ambient "
                                    f"dimension {ambient_dim}")
        self.ambient_dim, self._basis, self._decompositions = int(ambient_dim), b, {}

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:  # the units, built once, read-only and not copied
            self._basis = _units(self._built_from())
            self._basis.setflags(write=False)
        return self._basis

    @property
    def dim(self) -> int:
        """Linear dimension of the span."""
        if self._basis is None:
            return sum(s.block_size ** 2 for s in self._built_from())
        return int(self._basis.shape[0])

    def _built_from(self) -> tuple:
        """The sectors an algebra read off sectors was built from: its first memoized ones."""
        return next(iter(self._decompositions.values())).sectors


def _with_sectors(decomposition, tol: Tolerance) -> AlgebraBasis:
    """The algebra of a certified `sectors.SectorDecomposition`, which it holds memoized under
    ``tol``; its basis is built on first read."""
    alg = object.__new__(AlgebraBasis)
    alg.ambient_dim, alg._basis = decomposition.ambient_dim, None
    alg._decompositions = {tol: decomposition}
    return alg


def same_span(a: AlgebraBasis, b: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Algebra equality, read off the sectors: unequal dimensions or unequal commutant
    dimensions differ. Two algebras of equal dimension are equal iff one contains the other,
    and A ⊆ B iff B' ⊆ A' (the bicommutant theorem), so the units of the smaller of A and A'
    are tested against the other side's frame (`contains`). Weyl's commutant is the scalars:
    its dense basis is never built. A span that is no algebra raises
    `CenterDiagonalizationFailed` once the dimensions agree."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("cannot compare algebras in different ambient dimensions")
    if a.dim != b.dim:
        return False
    ca, cb = commutant(a, tol), commutant(b, tol)
    if ca.dim != cb.dim:
        return False
    x, y = (a, b) if a.dim <= ca.dim else (ca, cb)
    return bool(np.all(contains(y, x.basis, tol)))


def generated_algebra(gens: GeneratorSet, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """The unital *-algebra the generators generate: the algebra of the sectors
    `_generated_sectors` chains and certifies for them, without the word closure, which it
    holds in `block_decomposition`'s order.

    At finite dimension that is their generated von Neumann algebra. Every generator, scaled
    to unit HS norm, must lie within ``eq_tol`` of the result (the distance the chain's
    certificate measured), else `NumericalError`.
    """
    sectors, defect = _generated_sectors(gens.ambient_dim, gens.generators, tol)
    alg = _with_sectors(_settled(gens.ambient_dim, sectors, tol), tol)
    if not defect <= tol.eq_tol:
        raise NumericalError(f"a generator lies {defect:.3e} outside the algebra (dimension "
                             f"{alg.dim}) of its sectors in M_{gens.ambient_dim}; the "
                             "tolerances are likely degenerate", defect)
    return alg


def close(gens: GeneratorSet, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Smallest unital *-closed, product-closed subspace of M_d containing the generators:
    `generated_algebra`, their bicommutant, which at finite dimension is the span of their
    words. It depends neither on the generator ordering nor on the basis the generators are
    written in. A function of its own, so a trace of `close` counts only its own callers."""
    return generated_algebra(gens, tol)


def commutant(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All of M_d commuting with ``alg``: the algebra of the `sectors._swapped` sectors of its
    memoized block decomposition, so the commutant is never decomposed again."""
    sectors = block_decomposition(alg, tol).sectors
    return _with_sectors(SectorDecomposition(alg.ambient_dim, tuple(map(_swapped, sectors))), tol)


def generator_commutant(gens: GeneratorSet, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All of M_d commuting with every generator and its adjoint: the `commutant` of their
    `generated_algebra`, which raises where that does. Its sectors are the generated
    algebra's, swapped, in the same order: a swap keeps each central projector."""
    return commutant(generated_algebra(gens, tol), tol)


def baire_envelope(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Monotone sequential closure of ``alg``, at finite dimension its bicommutant: ``alg``
    itself, once its memoized block decomposition certifies the span a unital *-algebra
    (`CenterDiagonalizationFailed` otherwise), as `AlgebraBasis` promises of every basis."""
    block_decomposition(alg, tol)
    return alg


def center(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Intersection of ``alg`` with its commutant: the algebra of the sectors ``(1, n m)`` on
    the isometries V of its memoized `sectors.block_decomposition`, one per minimal central
    projector ``z = V V*``. Its basis, built on first read, is ``z / sqrt(tr z)``."""
    sectors = [Sector(1, s.block_size * s.multiplicity, s.isometry)
               for s in block_decomposition(alg, tol).sectors]
    return _with_sectors(SectorDecomposition(alg.ambient_dim, tuple(sectors)), tol)


def is_commutative(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every sector of the memoized `sectors.block_decomposition` has block size 1:
    the algebra is its own center. It reads no basis; a span that is no algebra raises
    `CenterDiagonalizationFailed`, as every structural query does."""
    return all(s.block_size == 1 for s in block_decomposition(alg, tol).sectors)


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
    require_count('"dim"', dim, positive=True)
    gens = data["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValidationError('"generators" must be a nonempty array')
    mats = [matrix_from_json(g, expected_dim=dim) for g in gens]
    return GeneratorSet(ambient_dim=dim, generators=tuple(mats))


def algebra_to_json(alg: AlgebraBasis) -> dict:
    """The CLI payload of an algebra basis (ambient dimension, span dimension, basis), with
    the basis left an array for `numerics.dumps` to write."""
    return {"ambient_dim": alg.ambient_dim, "dim": alg.dim, "basis": alg.basis}
