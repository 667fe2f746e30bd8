import functools
from dataclasses import replace

import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    AlgebraBasis,
    DimensionMismatch,
    GeneratorSet,
    NotInAlgebra,
    NotProjector,
    ValidationError,
    build_classical,
    build_sectors,
    build_weyl_finite,
    close,
    contains,
    hs_norm,
    join,
    meet,
    null_space,
    operator_norm,
    orthocomplement,
    rank_of,
    shift_matrix,
)
from oplattice import lattice_report
from oplattice import logic as logic_module
from oplattice import sectors as sectors_module
from oplattice import states as states_module
from oplattice.logic import _projectors
from oplattice.numerics import (cluster_breaks, ensure_projector, norm_at_most, range_projector,
                                run_projectors)
from oplattice.seeding import (STREAM_DISTRIBUTIVE_P, STREAM_DISTRIBUTIVE_Q, STREAM_DISTRIBUTIVE_R,
                               STREAM_ORTHOMODULAR_Q, STREAM_STATE_CHECK, STREAM_SWEEP_FAMILY,
                               STREAM_SWEEP_STATE, uniforms)


def unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def line_projector(angle):
    """Rank-1 projector onto the real line at `angle` radians in C^2."""
    v = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
    return np.outer(v, v.conj())


@pytest.fixture(scope="session")
def full2():
    return close(build_weyl_finite(2))


@pytest.fixture(scope="session")
def full3():
    return close(build_weyl_finite(3))


@pytest.fixture(scope="session")
def full4():
    return close(build_weyl_finite(4))


@pytest.fixture(scope="session")
def diag2():
    return close(build_classical(2))


@pytest.fixture(scope="session")
def diag3():
    return close(build_classical(3))


@pytest.fixture(scope="session")
def diag8():
    return close(build_classical(8))


@pytest.fixture(scope="session")
def two_blocks():
    """M_2 + M_3 embedded block-diagonally in M_5."""
    return close(build_sectors([(2, 1), (3, 1)]))


def two_orthogonal_real_lines():
    """Rank-1 projectors onto orthogonal, non-coordinate real lines in C^3.

    Their product vanishes only up to rounding (about 2e-17), so the
    generated algebra is the commutative span of 1, p and q.
    """
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return np.outer(v, v).astype(complex), np.outer(w, w).astype(complex)


def reference_is_commutative(basis, tol=DEFAULT_TOL):
    """Commutativity as the pairwise loop over a basis (an `AlgebraBasis` or a stack): each
    element against the later ones, every commutator of operator norm at most ``eq_tol``. The
    package reads it off the sectors instead (`is_commutative`)."""
    b = getattr(basis, "basis", basis)
    return all(norm_at_most(a @ b[i + 1:] - b[i + 1:] @ a, tol.eq_tol).all()
               for i, a in enumerate(b))


def reference_close(gens, tol=DEFAULT_TOL):
    """`close` as a plain loop: one `np.vdot` per basis vector, done twice.

    Same breadth-first order, seeds judged against their own norm, same
    rejection rule; the fast `close` must give the same span.
    """
    d = gens.ambient_dim
    multipliers = []
    for g in gens.generators:
        multipliers += [(g, hs_norm(g)), (g.conj().T, hs_norm(g))]
    basis = []

    def try_extend(candidate, ref):
        scale = hs_norm(candidate)
        if scale == 0.0:
            return None
        r = candidate / scale
        for _ in range(2):
            for b in basis:
                r = r - np.vdot(b, r) * b
        residual = hs_norm(r)
        if residual * scale <= tol.rank_tol * ref:
            return None
        basis.append(r / residual)
        return basis[-1]

    unit_mat = np.eye(d, dtype=complex)
    seeds = [(unit_mat, hs_norm(unit_mat)), *multipliers]
    frontier = [x for x in (try_extend(m, norm) for m, norm in seeds) if x is not None]
    while frontier:
        candidates = [(c, norm) for x in frontier for g, norm in multipliers for c in (x @ g, g @ x)]
        frontier = [x for x in (try_extend(c, norm) for c, norm in candidates) if x is not None]
    return AlgebraBasis(ambient_dim=d, basis=np.stack(basis))


def reference_commutant(mats, d, tol=DEFAULT_TOL):
    """All of M_d commuting with every matrix in ``mats``, from the full Kronecker system.

    One ``d^2 x d^2`` block ``I (x) a - a^T (x) I`` per matrix, in the column-major
    vectorization where ``vec(a x) = (I (x) a) vec(x)``, stacked, and its null space:
    ``(len(mats) d^2, d^2)`` entries, so keep d small. The kernel vectors are orthonormal
    in C^{d^2}, hence the reshaped matrices are Hilbert-Schmidt orthonormal.
    """
    eye = np.eye(d)
    system = np.vstack([np.kron(eye, a) - np.kron(a.T, eye) for a in mats])
    kernel = null_space(system, tol)
    return AlgebraBasis(ambient_dim=d, basis=kernel.T.reshape(-1, d, d).swapaxes(1, 2))


def reference_project_onto(alg, m):
    """Hilbert-Schmidt orthogonal projection of ``m`` (or of a stack) onto the span of an
    HS-orthonormal basis (an `AlgebraBasis` or a stack): the coefficients ``<b, m>`` on each
    basis element, combined again. It knows no sectors."""
    b = getattr(alg, "basis", alg)
    coeffs = np.tensordot(b.conj(), np.asarray(m, dtype=complex), axes=([1, 2], [-2, -1]))
    return np.tensordot(coeffs, b, axes=(0, 0))


def reference_same_span(a, b, tol=DEFAULT_TOL):
    """Span equality of two HS-orthonormal bases by projection: equal dimensions, and every
    basis element of each side within ``eq_tol`` (HS norm) of its projection onto the other.
    The package decides it in the sector frame instead (`same_span`)."""
    if a.dim != b.dim:
        return False

    def covered(x, y):
        residuals = np.linalg.norm(x.basis - reference_project_onto(y, x.basis), axis=(1, 2))
        return bool((residuals <= tol.eq_tol).all())

    return covered(a, b) and covered(b, a)


class IterationFailed(Exception):
    """`meet_iterative` found no limit within its iteration cap, or no gap to round across."""


MEET_CONV_TOL = 1e-10  # successive-difference residual at which the iterates count as converged
MEET_MAX_ITER = 30_000  # rate cos^2: a cosine of 0.9996 takes ~19 000 iterations


def meet_iterative(p, q, tol=DEFAULT_TOL):
    """`meet` as the limit of iterated products (von Neumann's alternating projections).

    The iterates are the hermitian powers ``(p q p)^n``, whose limit projects onto
    ``range(p) ∩ range(q)`` at the rate ``cos^2`` of the smallest principal angle between the
    ranges. After the successive-difference residual drops below `MEET_CONV_TOL` the
    eigenvalues are rounded to {0, 1} and the projector rebuilt. Rounding needs a gap wider
    than 0.1 around 1/2, a property of a converged projector spectrum, not a tolerance.
    The arguments are validated as `meet` validates them; `IterationFailed` when
    `MEET_MAX_ITER` iterations do not converge or the spectrum has no such gap.
    """
    pm, qm = _projectors(p, q, tol=tol)
    core = pm @ qm @ pm
    s = core.copy()
    residual = np.inf
    for _ in range(MEET_MAX_ITER):
        s_next = s @ core
        s_next = (s_next + s_next.conj().T) / 2.0
        residual = operator_norm(s_next - s)
        s = s_next
        if residual < MEET_CONV_TOL:
            break
    else:
        raise IterationFailed(f"iterated product did not converge within {MEET_MAX_ITER} "
                              f"iterations; last residual {residual:.3e}")
    w, v = np.linalg.eigh(s)
    ones = w >= 0.5
    low = float(w[~ones].max()) if np.any(~ones) else 0.0
    high = float(w[ones].min()) if np.any(ones) else 1.0
    if high - low <= 0.1:
        raise IterationFailed(f"converged spectrum has no rounding gap: nearest eigenvalues "
                              f"to 1/2 are {low:.6f} and {high:.6f}")
    return range_projector(v[:, ones])


STREAM_ISOMETRY = 103  # no package sampler draws from this stream id
ISOMETRY_ATTEMPTS = 8


def equivalence_isometry(alg, p, q, tol=DEFAULT_TOL):
    """Explicit partial isometry V in the algebra with V*V = p, VV* = q, or None.

    The oracle for `projectors_equivalent`: takes the polar part of ``q w p`` for a generic
    algebra element w. When the projectors are equivalent, a generic w makes that
    compression full-rank and its polar part is the required isometry (and stays inside the
    algebra); when they are not, no attempt can succeed. The inputs are checked without the
    package's gate: `ensure_projector`, and membership by the HS projection onto the basis.
    """
    pm, qm = ensure_projector(p, tol), ensure_projector(q, tol)
    for x in (pm, qm):
        if np.linalg.norm(x - reference_project_onto(alg, x)) > tol.eq_tol:
            raise NotInAlgebra("projector outside the algebra's span")
    rp = rank_of(pm, tol)
    if rank_of(qm, tol) != rp:
        return None
    if rp == 0:
        return np.zeros_like(pm)
    for attempt in range(ISOMETRY_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((STREAM_ISOMETRY, attempt)))
        k, d = alg.dim, alg.ambient_dim  # 2k normals in one call: k real, then k imaginary parts
        z = rng.standard_normal(2 * k)
        w = np.matmul((z[:k] + 1j * z[k:])[None], alg.basis.reshape(k, d * d)).reshape(d, d)
        x = qm @ w @ pm
        if rank_of(x, tol) != rp:
            continue
        uu, _, vv = np.linalg.svd(x)
        v_iso = uu[:, :rp] @ vv[:rp, :]
        if (
            norm_at_most(v_iso.conj().T @ v_iso - pm, tol.rank_tol)
            and norm_at_most(v_iso @ v_iso.conj().T - qm, tol.rank_tol)
            and contains(alg, v_iso, tol)
        ):
            return v_iso
    return None


def reference_spectrum(alg, u, tol=DEFAULT_TOL):
    """One random self-adjoint algebra element in the sector frame as a loop over the sectors,
    the reference for the package's draw on one row of uniforms `u`: its first 2k (k =
    alg.dim) are k `reference_normals`, read n^2 at a time as a sector's ``beta sqrt(m)``, the
    sectors taken by shape ``(n, m)`` ascending and in decomposition order within a shape.
    Returns those sectors, each block ``Re(beta)``'s `eigh`, and the ambient spectrum: a
    ``(value, sector, column)`` entry per eigenvalue and copy (m each), sorted by value."""
    sectors = sorted(sectors_module.block_decomposition(alg, tol).sectors,
                     key=lambda s: (s.block_size, s.multiplicity))
    coeffs, at, eig = reference_normals(u[:2 * alg.dim]), 0, []
    for s in sectors:
        n, m = s.block_size, s.multiplicity
        beta = coeffs[at:at + n * n].reshape(n, n) / np.sqrt(m)
        eig.append(np.linalg.eigh((beta + beta.conj().T) / 2.0))
        at += n * n
    spectrum = sorted(((float(w[j]), i, j) for i, (w, _) in enumerate(eig) for j in range(len(w))
                       for _ in range(sectors[i].multiplicity)), key=lambda e: e[0])
    return sectors, eig, spectrum


def reference_ambient(sectors, blocks):
    """``U blockdiag(p_i (x) 1_m) U*``, symmetrised, for one n_i x n_i block per sector (in
    `reference_spectrum`'s order), ``U = [V_1, V_2, ...]``."""
    d = sectors[0].isometry.shape[0]
    y, col = np.zeros((d, d), dtype=complex), 0
    for s, p in zip(sectors, blocks):
        size = s.block_size * s.multiplicity
        y[col:col + size, col:col + size] = np.kron(p, np.eye(s.multiplicity))
        col += size
    u = np.hstack([s.isometry for s in sectors])
    x = u @ y @ u.conj().T
    return (x + x.conj().T) / 2.0


def reference_run(sectors, eig, spectrum, start, stop):
    """The spectral projector of the ambient run ``[start, stop)`` of `reference_spectrum`: in
    each sector the projector of the eigenvector columns whose copies lie in the run."""
    blocks = []
    for i, (_, v) in enumerate(eig):
        cols = sorted({j for place, (_, k, j) in enumerate(spectrum)
                       if k == i and start <= place < stop})
        a, b = (cols[0], cols[-1] + 1) if cols else (0, 0)
        blocks.append(range_projector(v[:, a:b]))
    return reference_ambient(sectors, blocks)


def reference_clusters(spectrum, tol=DEFAULT_TOL):
    """The ambient places where the clusters of a sorted `reference_spectrum` start."""
    w = [value for value, _, _ in spectrum]
    threshold = tol.rank_tol * max(1.0, w[-1] - w[0])
    return [0] + [i for i in range(1, len(w)) if w[i] - w[i - 1] > threshold]


def ambient_cuts(alg, u, tol=DEFAULT_TOL, least=1):
    """The ambient spectral draw the sector-frame one replaced, kept as an oracle: the element
    mapped to M_d, one stacked ambient ``eigh``, its `cluster_breaks`, and a map from a count
    of top clusters to their first column (d for none); of n >= 2 clusters it keeps ``least +
    floor(u (n - 1))`` (`least` 2 for the orthomodular q), of one ``floor(2 u)``, and that
    count."""
    frame = sectors_module.block_decomposition(alg, tol).frame
    w, v = np.linalg.eigh(sectors_module._ambient(
        frame, sectors_module._random_self_adjoint(frame, u[:, :2 * alg.dim])))
    breaks = cluster_breaks(w, tol)
    starts = np.ones((len(u), alg.ambient_dim + 1), dtype=bool)
    starts[:, 1:-1] = breaks
    seen = np.cumsum(starts, axis=1)
    proper = seen[:, -1] > 2
    kept = least * proper + np.floor(u[:, 2 * alg.dim] * np.where(proper, seen[:, -1] - 2,
                                                                   2)).astype(int)

    def first(count):
        return np.argmax(seen >= seen[:, -1:] - count[:, None], axis=1)

    return v, breaks, first, kept


def ambient_families(alg, u, tol=DEFAULT_TOL):
    """The ambient family draw, kept as an oracle: `ambient_cuts` and the cut bits at the
    ambient eigenvalue gaps, each member a run of eigenvector columns."""
    d, count = alg.ambient_dim, len(u)
    v, breaks, top, kept = ambient_cuts(alg, u, tol)
    first = top(kept)
    cut = u[:, 2 * alg.dim + 1:2 * alg.dim + d] < 0.5
    edges = np.ones((count, d + 1), dtype=bool)
    edges[:, :d] = np.arange(d) == first[:, None]
    edges[:, 1:d] |= (np.arange(1, d) > first[:, None]) & breaks & cut
    family, column = np.nonzero(edges)
    run = np.flatnonzero(column < d)
    members = run_projectors(v, family[run], column[run], column[run + 1], tol)
    bounds = np.searchsorted(family[run], np.arange(count + 1))
    return [list(members[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def ambient_lattice_report(alg, trials, seed, tol=DEFAULT_TOL):
    """`lattice_report` on ambient d x d stacks, kept as an oracle: the nested pair and the three
    draws of `ambient_cuts`, the stacked kernels on d x d matrices, every proposition checked
    in M_d (`ensure_projector`, `contains`), each law's verdict by its ambient operator norm:
    orthomodularity's on ``q - (p ∨ (p⊥ ∧ q))`` and on ``p⊥ ∧ q`` less q's columns below p."""
    report = lattice_report(alg, 0, seed, tol)  # the structural fields
    if not trials:
        return report
    d, t, width = alg.ambient_dim, np.arange(trials), 2 * alg.dim + 2
    u = uniforms(seed, STREAM_ORTHOMODULAR_Q, trials, width)
    v, _, top, kept = ambient_cuts(alg, u, tol, least=2)
    below = top(np.where(kept > 1, 1 + np.floor(u[:, -1] * (kept - 1)).astype(int), 0))
    q, p, known = (run_projectors(v, t, a, b, tol) for a, b in
                   ((top(kept), d), (below, d), (top(kept), below)))
    u = np.concatenate([uniforms(seed, s, trials, width) for s in (
        STREAM_DISTRIBUTIVE_P, STREAM_DISTRIBUTIVE_Q, STREAM_DISTRIBUTIVE_R)])
    v, _, top, kept = ambient_cuts(alg, u, tol)
    dp, dq, dr = run_projectors(v, np.arange(len(v)), top(kept), d, tol).reshape(3, -1, d, d)
    om_differences, om_derived = logic_module._orthomodularity(p, q, tol)
    dist_differences, dist_derived = logic_module._distributivity(dp, dq, dr, tol)
    checked = np.concatenate([q, p, *om_derived, dp, dq, dr, *dist_derived])
    ensure_projector(checked)
    assert contains(alg, checked).all()
    failed = np.flatnonzero(operator_norm(dist_differences) > tol.law_tol)
    held = ((operator_norm(om_differences) <= tol.law_tol)
            & (operator_norm(om_derived[0] - known) <= tol.law_tol))
    return replace(
        report, trials=trials,
        orthomodular_pass_rate=np.count_nonzero(held) / trials,
        distributive=not failed.size,
        counterexample=(dp[failed[0]], dq[failed[0]], dr[failed[0]]) if failed.size else None)


def ambient_orthoadditivity_checks(alg, states, trials, seed, tol=DEFAULT_TOL):
    """`states._orthoadditivity_checks` on ambient families, kept as an oracle: each family
    drawn by `ambient_families`, checked in M_d and valued as ``tr(rho p)``; the complement
    law checked on each member's ``1 - p``; every case held by `check_sigma_orthoadditive`'s
    rule."""
    d, width = alg.ambient_dim, 2 * alg.dim + alg.ambient_dim
    checks = 10 * len(states)
    families = ambient_families(alg, np.concatenate([
        uniforms(seed, STREAM_STATE_CHECK, checks, width),
        uniforms(seed, STREAM_SWEEP_FAMILY, trials, width)]), tol)
    densities = [st.density for st in states for _ in range(10)]
    densities += [reference_random_state(d, reference_uniforms(seed, STREAM_SWEEP_STATE, i,
                                                               2 * d * d))
                  for i in range(trials)]
    results = []
    for rho, family in zip(densities, families):
        one = np.eye(d)
        joined = logic_module._join(*family, tol=tol) if family else np.zeros((d, d))
        for a, p in enumerate(family):
            ensure_projector(p)
            assert contains(alg, p)
            assert all(operator_norm(q @ p) <= tol.eq_tol for q in family[a + 1:])
        value = [np.trace(rho @ p).real for p in family]
        complement = [abs(np.trace(rho @ (one - p)).real - (1.0 - x))
                      for p, x in zip(family, value)]
        results.append((abs(np.trace(rho @ joined).real - sum(value)), max([0.0] + complement)))
    held = [a <= tol.law_tol and c <= tol.eq_tol for a, c in results]
    return [all(held[i:i + 10]) for i in range(0, checks, 10)], {
        "trials": trials,
        "failures": held[checks:].count(False),
        "max_residual": max((max(r) for r in results[checks:]), default=0.0),
    }


def reference_random_state(dim, u):
    """The one-state sampler on one row of uniforms `u`: d^2 Box-Muller normals, one product."""
    g = reference_normals(u[:2 * dim * dim]).reshape(dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def drawn_projectors(alg, u, tol=DEFAULT_TOL):
    """The package's stacked projector draw on the rows of the uniforms `u`
    (`logic._random_projectors`, in the sector frame) mapped to M_d, as `random_projector` maps
    its one row."""
    frame = sectors_module.block_decomposition(alg, tol).frame
    return sectors_module._ambient(frame, logic_module._random_projectors(alg, u, tol))


def drawn_families(alg, u, tol=DEFAULT_TOL, with_joins=False):
    """The package's stacked family draw on the rows of the uniforms `u`
    (`states._random_orthogonal_families`, in the sector frame), each family's members mapped
    to M_d, as `random_orthogonal_family` maps its one row; `with_joins` also returns each
    family's drawn join (its base) in M_d."""
    sizes, blocks, joins = states_module._random_orthogonal_families(alg, u, tol)
    frame = sectors_module.block_decomposition(alg, tol).frame
    members = list(sectors_module._ambient(frame, blocks)) if sizes.any() else []
    bounds = np.cumsum([0, *sizes])
    families = [members[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return (families, sectors_module._ambient(frame, joins)) if with_joins else families


def reference_orthomodularity_residual(p, q, tol=DEFAULT_TOL):
    """``||q - (p ∨ (p⊥ ∧ q))||`` with the join solved by the public `join`, as
    `orthomodularity_residual` computed it before reading that join as a sum: an oracle."""
    return operator_norm(q - join(p, meet(orthocomplement(p), q, tol), tol))


def rational_clock_shift(d, p):
    """The clock ``U = diag(w^(p j))``, w the primitive d-th root of unity, and the shift V.

    ``V U = w^p U V``: the finite rational noncommutative torus at phase p/d. With
    g = gcd(p, d), the generated algebra is g copies of ``M_(d/g)``, each of multiplicity 1,
    and its center is spanned by the powers of ``V^(d/g)``; at p = 0 it is the commutative
    algebra of the d points of the shift's spectrum.
    """
    clock = np.diag(np.exp(2j * np.pi * p * np.arange(d) / d))
    return GeneratorSet(d, (clock, shift_matrix(d)))


def star(d):
    """The units ``E_1j``: h is ``e_1 x* + x e_1*``, its zero cluster (d - 2)-fold and linked to
    both others by 1 x (d - 2) blocks, so the clusters chain only once a split pass breaks the
    zero cluster (for d > 3)."""
    return GeneratorSet(d, tuple(unit(d, 0, j) for j in range(1, d)))


def reference_derive_seed(seed, stream, index):
    """`seeding.derive_seed`, as NumPy computes it: one `SeedSequence`."""
    ss = np.random.SeedSequence((int(seed), int(stream), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def reference_uniforms(seed, stream, row, width):
    """Row `row` of `seeding.uniforms(seed, stream, count, width)`, built alone: NumPy's
    Philox keyed by ``SeedSequence((seed, stream))`` at counter ``row w / 4``, w the width
    rounded up to whole 4-word blocks, each word's top 53 bits over 2^53."""
    key = np.random.SeedSequence((int(seed), int(stream))).generate_state(2, np.uint64)
    w = -(-width // 4) * 4
    raw = np.random.Philox(key=key, counter=row * w // 4).random_raw(w)
    return ((raw >> np.uint64(11)) * 2.0 ** -53)[:width]


def reference_normals(u):
    """`seeding.complex_normals` as the Box-Muller formula: the halves a, b of `u` give
    ``r cos(2 pi b) + i r sin(2 pi b)``, ``r = sqrt(-2 log(1 - a))``."""
    k = len(u) // 2
    r, t = np.sqrt(-2.0 * np.log1p(-u[:k])), 2.0 * np.pi * u[k:2 * k]
    return r * np.cos(t) + 1j * (r * np.sin(t))


def haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# Every builder at d = 2-5 and a Haar-rotated sector algebra: where the stacked
# lattice kernels must give each trial the bits of its one-matrix call.
KERNEL_ALGEBRAS = {
    **{f"classical-{d}": (lambda d=d: build_classical(d)) for d in (2, 3, 4, 5)},
    **{f"weyl-{d}": (lambda d=d: build_weyl_finite(d)) for d in (2, 3, 4, 5)},
    "sectors-1+1": lambda: build_sectors([(1, 1), (1, 1)]),
    "sectors-1+1x2": lambda: build_sectors([(1, 1), (1, 2)]),
    "sectors-2+1x2": lambda: build_sectors([(2, 1), (1, 2)]),
    "sectors-2+3": lambda: build_sectors([(2, 1), (3, 1)]),
    "haar-sectors-2+1x2": lambda: rotated(build_sectors([(2, 1), (1, 2)]), seed=11),
}


@functools.cache
def kernel_algebra(name):
    return close(KERNEL_ALGEBRAS[name]())


def rotated(gens, seed):
    u = haar_unitary(gens.ambient_dim, np.random.default_rng(seed))
    return GeneratorSet(gens.ambient_dim, tuple(u @ g @ u.conj().T for g in gens.generators))


def chain_replaced(monkeypatch, replacement):
    """Make the first `sectors._chained_sectors` call, `_generated_sectors`'s first chain,
    return ``replacement(v, clusters, gv, tol)`` (or raise what it raises); later calls, the
    chains after a split pass, run unchanged."""
    chained, seen = sectors_module._chained_sectors, []

    def replaced_once(*args):
        seen.append(args)
        return replacement(*args) if len(seen) == 1 else chained(*args)

    monkeypatch.setattr(sectors_module, "_chained_sectors", replaced_once)


def chain_changed(monkeypatch, change):
    """`chain_replaced` with ``change(sectors)`` of the sectors the first chain gives."""
    chained = sectors_module._chained_sectors
    chain_replaced(monkeypatch, lambda *args: change(chained(*args)))


# Bad stand-ins for one projector argument of a 2x2 call, with the error each
# validated entry point must raise. "mismatched" is a valid projector of the
# wrong size; a one-argument call gets the non-square matrix instead.
INVALID_PROJECTORS = {
    "non_hermitian": (np.array([[1, 1], [0, 0]], dtype=complex), NotProjector),
    "non_idempotent": (np.diag([0.5, 0.5]).astype(complex), NotProjector),
    "nan": (np.full((2, 2), np.nan, dtype=complex), ValidationError),
    "mismatched": (np.eye(3, dtype=complex), DimensionMismatch),
    "string_entry": ([[1, 0], [0, "x"]], ValidationError),
    "stack": (np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex),
              DimensionMismatch),
}
NON_SQUARE = np.zeros((2, 3), dtype=complex)
