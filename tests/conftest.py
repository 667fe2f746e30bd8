import functools

import numpy as np
import pytest

from oplattice import (
    DEFAULT_TOL,
    AlgebraBasis,
    ClosureNotReached,
    DimensionMismatch,
    GeneratorSet,
    NotProjector,
    ValidationError,
    build_classical,
    build_sectors,
    build_weyl_finite,
    close,
    hs_inner,
    hs_norm,
    null_space,
)


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


def reference_close(gens, tol=DEFAULT_TOL, word_cap=None):
    """`close` as a plain loop: one `hs_inner` per basis vector, done twice.

    Same breadth-first order, seeds judged against their own norm, same
    rejection rule and cap message; the fast `close` must give the same span.
    """
    d = gens.ambient_dim
    cap = 2 * d * d if word_cap is None else word_cap
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
                r = r - hs_inner(b, r) * b
        residual = hs_norm(r)
        if residual * scale <= tol.rank_tol * ref:
            return None
        basis.append(r / residual)
        return basis[-1]

    unit_mat = np.eye(d, dtype=complex)
    seeds = [(unit_mat, hs_norm(unit_mat)), *multipliers]
    frontier = [x for x in (try_extend(m, norm) for m, norm in seeds) if x is not None]
    word_len = 1
    while frontier:
        if word_len >= cap:
            raise ClosureNotReached(
                f"closure still growing at word length {word_len} (cap {cap}); "
                f"span dimension so far {len(basis)}"
            )
        word_len += 1
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


def reference_derive_seed(seed, stream, index):
    """`seeding.derive_seeds` for one triple, as NumPy computes it: one `SeedSequence`."""
    ss = np.random.SeedSequence((int(seed), int(stream), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def reference_rng(seed):
    """`seeding.generators` for one seed (an int or a `SeedSequence`), as NumPy builds it."""
    return np.random.default_rng(seed)


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


# Bad stand-ins for one projector argument of a 2x2 call, with the error each
# validated entry point must raise. "mismatched" is a valid projector of the
# wrong size; a one-argument call gets the non-square matrix instead.
INVALID_PROJECTORS = {
    "non_hermitian": (np.array([[1, 1], [0, 0]], dtype=complex), NotProjector),
    "non_idempotent": (np.diag([0.5, 0.5]).astype(complex), NotProjector),
    "nan": (np.full((2, 2), np.nan, dtype=complex), ValidationError),
    "mismatched": (np.eye(3, dtype=complex), DimensionMismatch),
}
NON_SQUARE = np.zeros((2, 3), dtype=complex)
