import numpy as np
import pytest

from oplattice import build_classical, build_sectors, build_weyl_finite, close


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


def haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
