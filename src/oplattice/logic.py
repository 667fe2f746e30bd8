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

from .algebra import AlgebraBasis, is_commutative
from .errors import DimensionMismatch, NumericalError, PreconditionFailed, ValidationError
from .numerics import (DEFAULT_TOL, Tolerance, _one_matrix, cluster_breaks, ensure_projector,
                       matrix_to_json, norm_at_most, null_space, operator_norm, range_projector,
                       require_count, run_projectors, singular_rank)
from .sectors import (_ambient, _projectors_in, _random_self_adjoint, block_decomposition,
                      is_factor, mvn_dimension)
from .seeding import STREAM_ORTHOMODULAR_Q, STREAM_PROJECTOR, uniforms


def _projectors(*ps, tol: Tolerance) -> list[np.ndarray]:
    ms = [ensure_projector(_one_matrix(p), tol) for p in ps]
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
    return run_projectors(v, np.arange(len(v)), singular_rank(s, tol).ravel(), d,
                          tol).reshape(vh.shape)


def _join(*ps: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Projector onto the span of the ranges of ``ps``: ``1 - ⋀(1 - p_i)``, one `_meet`."""
    return _complement(_meet(*[_complement(p) for p in ps], tol=tol))


def _leq(p, q, tol: Tolerance):
    return norm_at_most(q @ p - p, tol.eq_tol)


def _orthomodularity(p, q, tol: Tolerance) -> tuple[np.ndarray, tuple]:  # differences, derived
    """``q - (p ∨ (p⊥ ∧ q))`` with one meet: ``p⊥ ∧ q <= 1 - p``, so the join is a sum."""
    inner = _meet(_complement(p), q, tol=tol)
    return q - p - inner, (inner, p + inner)


def _distributivity(p, q, r, tol: Tolerance) -> tuple[np.ndarray, tuple]:  # differences, derived
    # stacked meets: q ∨ r (a meet of complements) with p ∧ q and p ∧ r; then lhs with rhs
    not_q_or_r, p_and_q, p_and_r = _meet(np.stack([_complement(q), p, p]),
                                         np.stack([_complement(r), q, r]), tol=tol)
    q_or_r = _complement(not_q_or_r)
    lhs, not_rhs = _meet(np.stack([p, _complement(p_and_q)]),
                         np.stack([q_or_r, _complement(p_and_r)]), tol=tol)
    rhs = _complement(not_rhs)
    return lhs - rhs, (q_or_r, lhs, p_and_q, p_and_r, rhs)


def _settled_laws(p, q) -> tuple:
    """`_orthomodularity`'s derived propositions where every block is 0 or 1 (a group of 1 x 1
    blocks): the meet is the product, the bits with which `_meet` settles such operands by
    identity, and the complement is ``1 - p``."""
    inner = _complement(p) * q
    return inner, p + inner


def orthocomplement(p, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The negation ``1 - p``. Applying it twice returns ``p`` up to one rounding per entry."""
    return _complement(*_projectors(p, tol=tol))


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

    ``p⊥ ∧ q`` is orthogonal to p, so the join is read as the sum ``p + (p⊥ ∧ q)``: one meet.
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
    return sum(mvn_dimension(alg, p, tol)) == 1  # the entries are nonnegative integers


def random_projector(alg: AlgebraBasis, seed: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Seeded random projector inside the algebra.

    Draws a random self-adjoint element of the span, splits its spectrum into eigenvalue
    clusters, and keeps a top segment of clusters as a spectral projector: of n >= 2 clusters a
    uniform number from 1 to n - 1, so the draw is never 0 or 1; of a single cluster none or all
    (0 or 1, each with probability 1/2). Spectral projectors of an element stay inside a
    product-closed span, and whole clusters must be kept together so degenerate eigenvalues are
    never split. Deterministic given the algebra basis and the seed: row 0 of `STREAM_PROJECTOR`
    under it (`seeding.uniforms`), drawn in blocks (`_random_projectors`).
    """
    require_count("seed", seed)
    drawn = _random_projectors(alg, uniforms(seed, STREAM_PROJECTOR, 1, _draw_width(alg)), tol)
    return _ambient(block_decomposition(alg, tol).frame, drawn)[0]


def _draw_width(alg: AlgebraBasis) -> int:
    """Uniforms a spectral draw reads: the element's 2k (k = alg.dim), then its cut."""
    return 2 * alg.dim + 1


def _random_projectors(alg: AlgebraBasis, u: np.ndarray, tol: Tolerance) -> list:
    """`random_projector` on each row of the uniforms `u`, per shape group its ``(rows, count,
    n, n)`` sector blocks: the top clusters the row's cut keeps."""
    cuts = _spectral_cuts(alg, u, tol)
    return _run_blocks(cuts, np.arange(len(u)), _first_kept(*cuts[-2:]), np.inf, tol)


def _spectral_cuts(alg: AlgebraBasis, u: np.ndarray, tol: Tolerance, least=1) -> tuple:
    """The spectral draw of `random_projector` on each row of the uniforms `u` (`_draw_width`
    columns or more): a random self-adjoint element from the row's first 2k, one ``eigh`` per
    shape group of its blocks, their eigenvalues merged (m ambient copies lie in one cluster)
    and cut: of n >= 2 clusters the top ``least + floor(u (n - 1))`` (`least` 1, or 2 for the
    orthomodular pair's q), of one ``floor(2 u)``, u the row's next uniform. Per group
    the eigenvectors and each eigenvalue's place in the merged order; per place its copies, the
    `cluster_breaks` and the clusters seen up to it, with the end's column; the kept count. A
    group of 1 x 1 blocks takes no ``eigh``: its eigenvalues are the blocks' real parts and its
    eigenvectors are 1, the bits LAPACK returns, so none are held (None)."""
    k, frame = alg.dim, block_decomposition(alg, tol).frame
    w, v = zip(*[(h[..., 0].real, None) if h.shape[-1] == 1 else np.linalg.eigh(h)
                 for h in _random_self_adjoint(frame, u[:, :2 * k])])
    sizes = [c * n for n, _, c, _ in frame.groups]
    flat = np.concatenate([x.reshape(len(u), size) for x, size in zip(w, sizes)], axis=1)
    order = np.argsort(flat, axis=1, kind="stable")
    merged, places = np.take_along_axis(flat, order, axis=1), np.argsort(order, axis=1)
    copies = np.repeat([m for _, m, _, _ in frame.groups], sizes)[order]
    breaks = cluster_breaks(merged, tol)
    starts = np.ones((len(u), merged.shape[1] + 1), dtype=bool)  # of each cluster, then the end
    starts[:, 1:-1] = breaks
    seen = np.cumsum(starts, axis=1)  # the last column counts the clusters, plus one
    proper = seen[:, -1] > 2
    kept = least * proper + np.floor(u[:, 2 * k] * np.where(proper, seen[:, -1] - 2, 2)).astype(int)
    places = np.split(places, np.cumsum(sizes)[:-1], axis=1)
    return v, [p.reshape(x.shape) for p, x in zip(places, w)], copies, breaks, seen, kept


def _first_kept(seen: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Per row of `_spectral_cuts`, the first place of its top `kept` clusters (the end for 0)."""
    return np.argmax(seen >= seen[:, -1:] - kept[:, None], axis=1)


def _run_blocks(cuts: tuple, rows: np.ndarray, starts, stops, tol: Tolerance) -> list:
    """Per shape group, the ``(runs, count, n, n)`` blocks of run i: the spectral projector of
    row ``rows[i]``'s places ``[starts[i], stops[i])`` of `_spectral_cuts`, in each block the
    projector of its eigenvector columns there (`run_projectors`). A 1 x 1 block is the 0/1
    mask of its place in the run, the bits `run_projectors` forms from v = 1."""
    out, starts, stops = [], np.reshape(starts, (-1, 1, 1)), np.reshape(stops, (-1, 1, 1))
    for v, places in zip(*cuts[:2]):
        (c, n), at = places.shape[1:], places[rows]
        if n == 1:
            out.append(((starts <= at) & (at < stops)).astype(complex)[..., None])
            continue
        a, b = (np.count_nonzero(at < x, axis=-1).ravel() for x in (starts, stops))
        k = (np.asarray(rows)[:, None] * c + np.arange(c)).ravel()
        out.append(run_projectors(v.reshape(-1, n, n), k, a, b, tol).reshape(len(rows), c, n, n))
    return out


def _lattice_draws(alg: AlgebraBasis, pairs: np.ndarray, tol: Tolerance) -> list:
    """`lattice_report`'s nested pairs on the uniforms `pairs`, one `_spectral_cuts` and one
    `_run_blocks` call: per shape group the ``(2, rows, count, n, n)`` blocks (p, q)."""
    *cuts, seen, kept = _spectral_cuts(alg, pairs, tol, 2)
    kept_p = (kept > 1) * (1 + np.floor(pairs[:, -1] * (kept - 1)).astype(int))
    runs = np.concatenate([_first_kept(seen, kept_p), _first_kept(seen, kept)])  # p, then q
    return [b.reshape(2, len(pairs), *b.shape[1:])
            for b in _run_blocks(cuts, np.tile(np.arange(len(pairs)), 2), runs, np.inf, tol)]


def _witness(alg: AlgebraBasis, frame, tol: Tolerance) -> tuple:
    """A distributivity counterexample in the first sector of block size n >= 2 (frame order),
    V its isometry: ``p = V (e_0 e_0* (x) 1_m) V*``, q the same on e_1 and r on ``(e_0 + e_1) /
    sqrt 2``, so ``p ∧ (q ∨ r) = p`` while ``p ∧ q = p ∧ r = 0``. Built as frame blocks, its
    residual must exceed ``tol.law_tol`` (`_distributivity`, else NumericalError); mapped to
    M_d, it is checked as projectors in the algebra (a failure named "witness")."""
    blocks = [np.zeros((3, c, n, n), dtype=complex) for n, _, c, _ in frame.groups]
    first = next(b for b in blocks if b.shape[-1] >= 2)
    p, q, r = first[:, 0]
    p[0, 0] = q[1, 1] = 1.0
    r[:2, :2] = 0.5
    differences = _distributivity(*first, tol)[0]
    if norm_at_most(differences, tol.law_tol).all():
        residual = float(operator_norm(differences).max())
        raise NumericalError(f"the distributivity witness holds: residual {residual:.3e}",
                             residual=residual)
    return tuple(_projectors_in(alg, _ambient(frame, blocks), "witness", tol))


@dataclass(frozen=True)
class LatticeReport:
    """Verdicts of the sampled and structural lattice checks on one algebra. `distributive` is
    `boolean_lattice`; `counterexample`, a triple (p, q, r) that breaks the distributive law, is
    present exactly when the lattice is not distributive and ``trials > 0``."""

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
        if (self.counterexample is None) == (not self.distributive and self.trials > 0):
            raise ValidationError("counterexample must be present exactly when distributive is "
                                  "false and trials > 0")


def lattice_report(
    alg: AlgebraBasis, trials: int, seed: int, tol: Tolerance = DEFAULT_TOL
) -> LatticeReport:
    """Run the law-checking suite on one algebra.

    Orthomodularity is sampled on `trials` pairs p < q cut from one element: q keeps the top
    ``2 + floor(u (n - 1))`` of its n >= 2 clusters, p the top ``1 + floor(u' (k - 1))`` of q's
    k (of one cluster q keeps ``floor(2 u)``, p none). Trial i's pair is row i of
    `STREAM_ORTHOMODULAR_Q` under `seed` (`seeding.uniforms`), all pairs one `_spectral_cuts`
    call whose stacked cases have their own bits. A proposition ``U (⊕ p_a (x) 1_m) U*`` is
    held as its sector blocks p_a: the law is one stacked call per shape group, a block 0 or 1
    settled by identity (see `_meet`). Each block of size 2 or more is a `run_projectors` run,
    the complement of one or a settled copy: the kernel's guard on every eigenbasis it reads
    covers them all (NumericalError). A group of 1 x 1 blocks, each exactly 0 or 1
    (`_run_blocks`), takes no law kernel: its differences are 0, and trial 0's derived blocks
    are a 0/1 product and a sum (`_settled_laws`). Trial 0's p, q, ``p⊥ ∧ q`` and ``p + (p⊥ ∧
    q)`` are mapped to M_d and checked there as projectors in the algebra
    (`sectors._projectors_in`, a failure named "trial 0"). The law, ``q = p ∨ (p⊥ ∧ q)`` with
    the join the sum ``p + (p⊥ ∧ q)``, holds at a trial when its differences' operator norm,
    their blocks' largest, is at most ``tol.law_tol`` (`norm_at_most`).

    Distributivity is read, not sampled: the projection lattice of a finite-dimensional
    C*-algebra is distributive exactly when the algebra is commutative. Where trials > 0 and
    the lattice is not Boolean, `counterexample` is a built, checked witness (`_witness`); at
    zero trials none is built.

    The rest is read off the memoized block decomposition: `boolean_lattice` is `is_commutative`
    (every sector of block size 1), `factor` is `is_factor` (a single sector), `hilbertian`
    (lattice of all subspaces) a factor of multiplicity 1. `atomic` is always true: each block
    ``M_n (x) 1_m`` has the atoms ``e (x) 1_m``, e of rank 1, and `block_decomposition`
    certifies that form for every sector. A Boolean lattice (every group 1 x 1) draws nothing
    and reports what zero trials do, which its sampling gives exactly: every law difference is 0.
    """
    require_count("trials", trials)
    require_count("seed", seed)
    decomp = block_decomposition(alg, tol)
    boolean = is_commutative(alg, tol)
    pass_rate, counterexample = 1.0, None  # zero trials, and a Boolean algebra, draw nothing
    if trials and not boolean:
        pairs = uniforms(seed, STREAM_ORTHOMODULAR_Q, trials, _draw_width(alg) + 1)
        held, spot = True, []  # per shape group
        for p, q in _lattice_draws(alg, pairs, tol):
            if p.shape[-1] == 1:  # blocks 0 or 1: every law difference is 0
                derived = _settled_laws(p[:1], q[:1])
            else:
                differences, derived = _orthomodularity(p, q, tol)
                held &= norm_at_most(differences, tol.law_tol).all(axis=-1)
            # trial 0's propositions (copied: the stacks can go)
            spot.append(np.concatenate([x[:1] for x in (p, q, *derived)]))
        _projectors_in(alg, _ambient(decomp.frame, spot), "trial 0", tol)
        pass_rate = float(np.count_nonzero(held) / trials)
        counterexample = _witness(alg, decomp.frame, tol)

    factor = is_factor(alg, tol)
    return LatticeReport(
        orthomodular_pass_rate=pass_rate,
        distributive=boolean,
        counterexample=counterexample,
        boolean_lattice=boolean,
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
