"""Seeded inputs, timed ops and independent reference checks for the benchmark.

Each workload is a fixed list of op kinds whose contents (block orders,
rotation unitaries, scenario seeds, projectors, states) come from the
benchmark seed. The program only ever sees the generated JSON files and
matrices. Every op carries a reference derived from how its input was
built, never from the program's own output, so a wrong answer is caught
whatever code path produced it.

Numbers quoted below were measured on 2 cores with BLAS pinned to one
thread (numpy 2.4, OpenBLAS 0.3.31).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oplattice as op
from oplattice import cli

# Largest full-SVD factor any op may ask `null_space` to build. The
# `commutant`/`center` systems have k*d^2 rows with k <= d^2 (a broken
# closure can inflate k to d^2, as rotated inputs do today), and
# `svd(full_matrices=True)` materialises a rows x rows complex U. So the
# worst case is d^8 * 16 bytes: 88 MiB at d=7, 256 MiB at d=8, ~6.4 GiB
# at d=12.
MEMORY_BUDGET_MIB = 128.0

# Tolerance for comparing computed projectors and probabilities with
# their references; far above rounding, far below any wrong answer.
REF_TOL = 1e-7


def null_space_system_mib(d: int, uses_structure: bool) -> float:
    """Worst-case U factor of the largest commutant/center system, in MiB."""
    if not uses_structure:
        return 0.0
    rows = d ** 4
    return rows * rows * 16 / 2**20


@dataclass
class Op:
    """One timed unit of work with its reference check.

    `run` is the timed call. `check` turns its output into a failure
    reason or None. `digest` gives the bytes the determinism check
    compares across repeats of the same input. `expect_error`, when
    set, is the exception class the call must raise. `rotated` marks
    inputs conjugated by a random unitary, which fail at the seed
    because `close` depends on the basis.
    """

    key: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = lambda out: None
    digest: Callable[[object], bytes] = lambda out: repr(out).encode()
    expect_error: type | None = None
    rotated: bool = False
    system_mib: float = 0.0


@dataclass
class Workload:
    name: str
    ops: list
    warm: Op
    nominal_pass_s: float     # one pass on the reference machine (2 vCPUs, BLAS on 1 thread)


# ---------------------------------------------------------------- matrices


def clock(n: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def shift(n: int) -> np.ndarray:
    return np.roll(np.eye(n, dtype=complex), -1, axis=0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sector_generators(blocks) -> list[np.ndarray]:
    """Clock and shift of each block, tensored with 1_m, placed on the diagonal.

    Their closure is the direct sum of M_n (x) 1_m over the blocks, with
    one inequivalent block per entry even when two entries have the same shape.
    """
    d = sum(n * m for n, m in blocks)
    gens = []
    offset = 0
    for n, m in blocks:
        for local in (clock(n), shift(n)):
            g = np.zeros((d, d), dtype=complex)
            g[offset : offset + n * m, offset : offset + n * m] = np.kron(local, np.eye(m))
            gens.append(g)
        offset += n * m
    return gens


def to_json_matrix(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def proj_onto(vectors: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span of `vectors` (full column rank)."""
    q, _ = np.linalg.qr(vectors)
    p = q @ q.conj().T
    return (p + p.conj().T) / 2.0


def expected_structure(kind: str, params) -> dict:
    """Algebra, commutant and center dimensions and sector blocks from the builder."""
    if kind == "weyl_finite":
        d = params
        return {"algebra_dim": d * d, "commutant_dim": 1, "center_dim": 1,
                "blocks": [[d, 1]], "commutative": False}
    if kind == "classical":
        n = params
        return {"algebra_dim": n, "commutant_dim": n, "center_dim": n,
                "blocks": [[1, 1]] * n, "commutative": True}
    blocks = [list(b) for b in params]
    return {
        "algebra_dim": sum(n * n for n, _ in blocks),
        "commutant_dim": sum(m * m for _, m in blocks),
        "center_dim": len(blocks),
        "blocks": sorted(blocks),
        "commutative": all(n == 1 for n, _ in blocks),
    }


def check_report(report: dict, expected: dict, lattice: bool = False, state=None) -> str | None:
    """Compare a scenario report with the builder-derived reference."""
    got = {
        "algebra_dim": report["algebra_dim"],
        "commutant_dim": report["commutant_dim"],
        "center_dim": report["center_dim"],
        "blocks": sorted([s["block_size"], s["multiplicity"]] for s in report["sectors"]),
    }
    for key, value in got.items():
        if value != expected[key]:
            return f"{key} {value} != expected {expected[key]}"
    lat = report["lattice"]
    if lat["sector_count"] != len(expected["blocks"]):
        return f"sector_count {lat['sector_count']} != {len(expected['blocks'])}"
    if lat["factor"] != (len(expected["blocks"]) == 1):
        return f"factor verdict {lat['factor']} is wrong"
    if lat["boolean_lattice"] != expected["commutative"]:
        return f"boolean_lattice {lat['boolean_lattice']} != commutative {expected['commutative']}"
    if expected["commutative"]:
        chars = report["characters"]
        if chars is None or chars["count"] != expected["algebra_dim"] or not chars["separating"]:
            return f"characters {chars} wrong for a commutative algebra"
    if not lattice:
        return None
    if lat["orthomodular_pass_rate"] != 1.0:
        return f"orthomodular_pass_rate {lat['orthomodular_pass_rate']}"
    if report["orthoadditivity"]["failures"] != 0:
        return f"orthoadditivity failures {report['orthoadditivity']['failures']}"
    if expected["commutative"] and not lat["distributive"]:
        return "commutative algebra reported non-distributive"
    if state is not None:
        entry = report["states"][0]
        if entry["pure"] != state["pure"]:
            return f"state purity {entry['pure']} != {state['pure']}"
        if not entry["sigma_orthoadditive"]:
            return "configured state not sigma-orthoadditive"
        got_values = sorted(
            (s["block_size"], s["multiplicity"], round(entry["values"][f"sector_{i}"], 6))
            for i, s in enumerate(report["sectors"])
        )
        if got_values != state["values"]:
            return f"sector values {got_values} != {state['values']}"
    return None


# ---------------------------------------------------------------- structure


def _cli_op(key: str, kind: str, verb: str, payload: dict, workdir: Path,
            check: Callable[[dict], str | None], rotated: bool, system_mib: float) -> Op:
    inp = workdir / f"{key}.json"
    out = workdir / f"{key}.out.json"
    inp.write_text(json.dumps(payload), encoding="utf-8")
    argv = ["--input", str(inp), "--json-out", str(out), verb]

    def run():
        if out.exists():
            out.unlink()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"oplattice {verb} exited {rc}: {err.getvalue().strip()}")
        return out.read_bytes()

    return Op(key=key, kind=kind, run=run, check=lambda raw: check(json.loads(raw)),
              digest=lambda raw: raw, rotated=rotated, system_mib=system_mib)


def _permuted(blocks, rng):
    return [list(blocks[i]) for i in rng.permutation(len(blocks))]


def build_structure(seed: int, workdir: Path) -> Workload:
    """`oplattice run` with trials 0 at d 5-7: commutant, center, envelope, sectors.

    Per pass at the seed: weyl 7 ~5 s, weyl 6 ~0.8 s, seven ops at
    0.14-0.2 s, four at 0.02-0.06 s. The median and the tail both fall
    inside the band of seven similar ops. The two rotated sector inputs
    close to all of M_5 and fail; rotated weyl and classical inputs pass.
    """
    rng = np.random.default_rng([seed, 1])
    specs = [
        ("weyl_finite", 5, None),
        ("weyl_finite", 6, None),
        ("weyl_finite", 7, None),
        ("sectors", 7, [[3, 1], [2, 2]]),   # large algebra, small commutant
        ("sectors", 7, [[3, 1], [2, 2]]),
        ("sectors", 7, [[2, 2], [1, 3]]),   # small algebra, large commutant
        ("sectors", 6, [[3, 2]]),           # factor with multiplicity
        ("classical", 7, None),
        ("rotated", 5, [[3, 1], [1, 2]]),
        ("rotated", 5, [[1, 3], [2, 1]]),
        ("rotated", 5, "weyl"),
        ("rotated", 5, "weyl"),
        ("rotated", 7, "classical"),
    ]
    ops = []
    for index, (kind, d, shape) in enumerate(specs):
        key = f"s{index:02d}-{kind}-{d}"
        scenario = {"name": key, "dim": d, "trials": 0, "seed": int(rng.integers(2**31))}
        if kind == "weyl_finite":
            scenario.update(kind=kind, parameters={"modulus": d})
            expected = expected_structure(kind, d)
        elif kind == "classical":
            scenario.update(kind=kind, parameters={"point_count": d})
            expected = expected_structure(kind, d)
        elif kind == "sectors":
            blocks = _permuted(shape, rng)
            scenario.update(kind=kind, parameters={"blocks": blocks})
            expected = expected_structure(kind, blocks)
        else:
            u = haar_unitary(d, rng)
            if shape == "classical":
                gens = [np.diag(rng.permutation(d) + 1.0 + 0.5 * rng.random(d))]
                expected = expected_structure("classical", d)
            elif shape == "weyl":
                gens = [clock(d), shift(d)]
                expected = expected_structure("weyl_finite", d)
            else:
                blocks = _permuted(shape, rng)
                gens = sector_generators(blocks)
                expected = expected_structure("sectors", blocks)
            rotated = [u @ g @ u.conj().T for g in gens]
            scenario.update(kind="custom",
                            parameters={"generators": [to_json_matrix(g) for g in rotated]})
        ops.append(_cli_op(
            key, kind, "run", scenario, workdir,
            check=lambda rep, e=expected: check_report(rep, e),
            rotated=kind == "rotated",
            system_mib=null_space_system_mib(d, uses_structure=True),
        ))
    return Workload("structure", ops, warm=ops[6], nominal_pass_s=7.5)


# ---------------------------------------------------------------- closure


def _check_closure(expected_dim: int, d: int, gens: list[np.ndarray]):
    def check(result: dict) -> str | None:
        if result["ambient_dim"] != d or result["dim"] != expected_dim:
            return f"closure dim {result['dim']} != expected {expected_dim}"
        raw = np.asarray(result["basis"], dtype=float)
        basis = (raw[..., 0] + 1j * raw[..., 1]).reshape(expected_dim, d * d)
        if np.linalg.norm(basis @ basis.conj().T - np.eye(expected_dim)) > REF_TOL:
            return "closure basis is not Hilbert-Schmidt orthonormal"
        for g in gens:
            v = g.reshape(-1)
            residual = np.linalg.norm(v - basis.T @ (basis.conj() @ v))
            if residual > REF_TOL * max(1.0, np.linalg.norm(v)):
                return f"generator outside the closed span (residual {residual:.2e})"
        return None

    return check


def build_closure(seed: int, workdir: Path) -> Workload:
    """`oplattice close` at d 10-16; no commutant or center runs.

    Per pass at the seed: rotated d=14 ~4 s (closes to 196, not 25),
    weyl 16 ~2 s, weyl 12 ~0.6 s, weyl 10 ~0.3 s, the rest < 0.1 s. The
    eight sector sets spanning 25 dimensions cost about the same, so the
    median falls inside one band of similar ops. Sector sets keep the
    contiguous blocks of `build_sectors` in a seeded order: any change of basis,
    even a diagonal phase or a permutation of basis vectors, can trip the
    basis-dependent closure, which the one rotated input measures.
    """
    rng = np.random.default_rng([seed, 2])
    span_25 = [[[4, 2], [3, 2]], [[4, 3], [3, 1]], [[3, 4], [4, 1]], [[4, 1], [2, 2], [2, 2], [1, 2]]]
    specs = [("weyl", 10, None), ("weyl", 12, None), ("weyl", 16, None)]
    specs += [("sectors", sum(n * m for n, m in s), s) for s in span_25 + span_25]
    specs += [("sectors", 16, [[5, 1], [3, 3], [1, 2]]), ("classical", 16, None),
              ("rotated", 14, [[4, 2], [3, 2]])]
    ops = []
    for index, (kind, d, shape) in enumerate(specs):
        key = f"c{index:02d}-{kind}-{d}"
        if kind == "weyl":
            gens, expected = [clock(d), shift(d)], d * d
        elif kind == "classical":
            gens, expected = [np.diag(rng.permutation(d) + 1.0 + 0.5 * rng.random(d))], d
        else:
            blocks = _permuted(shape, rng)
            gens, expected = sector_generators(blocks), sum(n * n for n, _ in blocks)
            if kind == "rotated":
                u = haar_unitary(d, rng)
                gens = [u @ g @ u.conj().T for g in gens]
        payload = {"dim": d, "generators": [to_json_matrix(g) for g in gens]}
        ops.append(_cli_op(
            key, kind, "close", payload, workdir,
            check=_check_closure(expected, d, gens),
            rotated=kind == "rotated",
            system_mib=null_space_system_mib(d, uses_structure=False),
        ))
    return Workload("closure", ops, warm=ops[3], nominal_pass_s=8.5)


# ---------------------------------------------------------------- lattice


def _state_in_block(blocks, j: int, rng) -> tuple[np.ndarray, dict]:
    """rho = |psi><psi| (x) tau inside block j: pure on the algebra.

    tau is a full-rank m x m density, so rho is mixed on the ambient
    space whenever the block has multiplicity m > 1.
    """
    d = sum(n * m for n, m in blocks)
    n, m = blocks[j]
    offset = sum(a * b for a, b in blocks[:j])
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    tau = g @ g.conj().T + np.eye(m)
    tau /= np.trace(tau).real
    rho = np.zeros((d, d), dtype=complex)
    rho[offset : offset + n * m, offset : offset + n * m] = np.kron(np.outer(psi, psi.conj()), tau)
    rho = (rho + rho.conj().T) / 2.0
    values = sorted((bn, bm, 1.0 if i == j else 0.0) for i, (bn, bm) in enumerate(blocks))
    return rho, {"pure": True, "values": values}


def build_lattice(seed: int, workdir: Path) -> Workload:
    """`run_scenario` with 100 trials at d 3-4; three ops carry one configured state.

    Each op takes ~0.55-0.75 s at the seed, almost all of it in
    `lattice_report` and the orthoadditivity sweep.
    """
    rng = np.random.default_rng([seed, 3])
    specs = [
        ("classical", 4, None, True),
        ("classical", 3, None, False),
        ("weyl_finite", 3, None, True),
        ("weyl_finite", 4, None, False),
        ("sectors", 4, [[2, 1], [1, 2]], True),
        ("sectors", 3, [[1, 1], [2, 1]], False),
        ("sectors", 4, [[1, 1], [1, 1], [2, 1]], False),
    ]
    ops = []
    for index, (kind, d, shape, with_state) in enumerate(specs):
        key = f"l{index:02d}-{kind}-{d}"
        data = {"name": key, "kind": kind, "dim": d, "trials": 100,
                "seed": int(rng.integers(2**31))}
        if kind == "weyl_finite":
            data["parameters"] = {"modulus": d}
            blocks = [[d, 1]]
        elif kind == "classical":
            data["parameters"] = {"point_count": d}
            blocks = [[1, 1]] * d
        else:
            blocks = _permuted(shape, rng)
            data["parameters"] = {"blocks": blocks}
        expected = expected_structure(kind, d if kind != "sectors" else blocks)
        state = None
        if with_state:
            if kind == "sectors":
                j = max(range(len(blocks)), key=lambda i: blocks[i][1])  # the m > 1 block
            else:
                j = int(rng.integers(len(blocks)))
            rho, state = _state_in_block(blocks, j, rng)
            data["states"] = [{"density": to_json_matrix(rho)}]
        scenario = op.scenario_from_json(data)

        def run(s=scenario):
            return op.report_to_json(op.run_scenario(s)).encode()

        ops.append(Op(
            key=key, kind=kind, run=run,
            check=lambda raw, e=expected, st=state: check_report(json.loads(raw), e, True, st),
            digest=lambda raw: raw,
            system_mib=null_space_system_mib(d, uses_structure=True),
        ))
    return Workload("lattice", ops, warm=ops[1], nominal_pass_s=4.6)


# ---------------------------------------------------------------- queries


@dataclass
class _Algebra:
    """A closed algebra plus everything the references need to know about it."""

    name: str
    blocks: list
    alg: object
    logical: object
    factor: bool
    rho_frames: list        # per block: unitary whose columns diagonalise the state
    rho_weights: list       # per block: weight times eigenvalues of the block density
    sector_order: list      # decomposition sector i -> block index, or None

    @property
    def dim(self) -> int:
        return sum(n * m for n, m in self.blocks)


def _embed(blocks, per_block: list[np.ndarray]) -> np.ndarray:
    """Direct sum of x_j (x) 1_m over the blocks."""
    d = sum(n * m for n, m in blocks)
    out = np.zeros((d, d), dtype=complex)
    offset = 0
    for (n, m), x in zip(blocks, per_block):
        out[offset : offset + n * m, offset : offset + n * m] = np.kron(x, np.eye(m))
        offset += n * m
    return out


def _columns_projector(frame: np.ndarray, cols) -> np.ndarray:
    c = frame[:, list(cols)]
    return c @ c.conj().T


def _make_algebra(name: str, blocks, gens, rng) -> _Algebra:
    alg = op.close(op.GeneratorSet(ambient_dim=gens[0].shape[0], generators=tuple(gens)))
    frames = [haar_unitary(n, rng) for n, _ in blocks]
    weights = rng.random(len(blocks)) + 0.5
    weights /= weights.sum()
    spectra = []
    for (n, m), w in zip(blocks, weights):
        lam = rng.random(n) + 0.1
        spectra.append(w * lam / lam.sum())
    # rho = sum_j frame_j diag(spectrum_j) frame_j* (x) 1_m / m
    rho = _embed(blocks, [f @ np.diag(s) @ f.conj().T / m
                          for f, s, (_, m) in zip(frames, spectra, blocks)])
    logical = op.restrict_logical(op.make_state((rho + rho.conj().T) / 2.0), alg)
    # Map the program's sector order onto the known blocks by central projector;
    # only the order is taken from the program, never a reference value.
    zs = [_embed(blocks, [np.eye(n) if i == j else np.zeros((n, n)) for i, (n, _) in enumerate(blocks)])
          for j in range(len(blocks))]
    order = []
    for sector in op.block_decomposition(alg).sectors:
        match = [j for j, z in enumerate(zs)
                 if np.linalg.norm(sector.central_projector - z) < REF_TOL]
        order.append(match[0] if len(match) == 1 else None)
    return _Algebra(name, blocks, alg, logical, len(blocks) == 1, frames, spectra, order)


def _general_position(d: int, a: int, b: int, c: int, rng):
    """p = span(A u C), q = span(B u C); meet = span C, join = span(A u B u C)."""
    v = rng.standard_normal((d, a + b + c)) + 1j * rng.standard_normal((d, a + b + c))
    A, B, C = v[:, :a], v[:, a : a + b], v[:, a + b :]
    p = proj_onto(np.hstack([A, C]))
    q = proj_onto(np.hstack([B, C]))
    return p, q, proj_onto(C), proj_onto(v)


def _matrix_check(ref: np.ndarray):
    def check(out) -> str | None:
        err = float(np.linalg.norm(np.asarray(out) - ref, 2))
        return None if err <= REF_TOL else f"differs from reference by {err:.2e}"
    return check


def _equals(ref):
    return lambda out: None if out == ref else f"got {out!r}, expected {ref!r}"


def _close_to(ref: float):
    return lambda out: None if abs(out - ref) <= REF_TOL else f"got {out!r}, expected {ref!r}"


def _digest_result(out) -> bytes:
    if isinstance(out, np.ndarray):
        return repr(out.shape).encode() + np.ascontiguousarray(out).tobytes()
    return repr(out).encode()


def _random_ranks(a: _Algebra, rng) -> list[int]:
    while True:
        ranks = [int(rng.integers(0, n + 1)) for n, _ in a.blocks]
        if any(ranks):
            return ranks


def _block_projector(a: _Algebra, ranks, rng) -> np.ndarray:
    return _embed(a.blocks, [_columns_projector(haar_unitary(n, rng), range(r))
                             for (n, _), r in zip(a.blocks, ranks)])


def _queries_for(a: _Algebra, rng) -> list[Op]:
    d = a.dim
    ops: list[Op] = []

    def add(kind, run, check, **kw):
        ops.append(Op(key=f"q-{a.name}-{len(ops):02d}-{kind}", kind=kind, run=run,
                      check=check, digest=_digest_result, **kw))

    for _ in range(3):
        p, q, ref, _ = _general_position(d, 1, 1 + int(rng.integers(2)), 1 + int(rng.integers(2)), rng)
        add("meet", lambda p=p, q=q: op.meet(p, q), _matrix_check(ref))
    for _ in range(3):
        p, q, _, ref = _general_position(d, 1 + int(rng.integers(2)), 1, 1 + int(rng.integers(2)), rng)
        add("join", lambda p=p, q=q: op.join(p, q), _matrix_check(ref))
    p, q, c, _ = _general_position(d, 2, 1, 2, rng)
    add("leq", lambda c=c, q=q: op.leq(c, q), _equals(True))
    add("leq", lambda p=p, q=q: op.leq(p, q), _equals(False))
    for _ in range(2):
        u = haar_unitary(d, rng)
        r = int(rng.integers(1, d))
        p = _columns_projector(u, range(r))
        add("orthocomplement", lambda p=p: op.orthocomplement(p),
            _matrix_check(_columns_projector(u, range(r, d))))
    for _ in range(3):
        subsets = [list(rng.permutation(n)[: int(rng.integers(0, n + 1))]) for n, _ in a.blocks]
        p = _embed(a.blocks, [_columns_projector(f, s) for f, s in zip(a.rho_frames, subsets)])
        ref = float(sum(spec[s].sum() for spec, s in zip(a.rho_weights, subsets)))
        add("value", lambda p=p: a.logical.value(p), _close_to(ref))

    structural = null_space_system_mib(d, uses_structure=True)
    ranks = _random_ranks(a, rng)
    p = _block_projector(a, ranks, rng)
    mvn_ref = [ranks[j] if j is not None else -1 for j in a.sector_order]
    add("mvn_dimension", lambda p=p: op.mvn_dimension(a.alg, p), _equals(mvn_ref),
        system_mib=structural)
    ranks_q = ranks if rng.random() < 0.5 else _random_ranks(a, rng)
    p, q = _block_projector(a, ranks, rng), _block_projector(a, ranks_q, rng)
    add("projectors_equivalent", lambda p=p, q=q: op.projectors_equivalent(a.alg, p, q),
        _equals(ranks == ranks_q), system_mib=structural)
    # Pure on the algebra: one block, rank-1 reduced density (ambient-mixed when m > 1).
    # Not pure: an even mixture of two blocks, or of two orthogonal lines in a factor.
    j = int(rng.integers(len(a.blocks)))
    rho, _ = _state_in_block(a.blocks, j, rng)
    pure = bool(rng.random() < 0.5)
    if not pure:
        if a.factor:
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            other = proj_onto(((np.eye(d) - rho) @ w)[:, None])
        else:
            other, _ = _state_in_block(a.blocks, (j + 1) % len(a.blocks), rng)
        rho = (rho + other) / 2.0
    state = op.make_state(rho)
    add("is_pure", lambda: op.is_pure(state, a.alg), _equals(pure), system_mib=structural)
    add("is_factor", lambda: op.is_factor(a.alg), _equals(a.factor), system_mib=structural)
    return ops


def _invalid_queries(sec: _Algebra, weyl: _Algebra, rng) -> list[Op]:
    """About 10 % of the mix: inputs every validated entry point must reject."""
    ops = []
    d = sec.dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q = _block_projector(weyl, [2], rng)
    half = 0.5 * _block_projector(weyl, [3], rng)
    # A line mixing the first and last blocks: a projector outside the sectors algebra.
    v = np.zeros(d, dtype=complex)
    v[0], v[-1] = 1.0, 1.0
    outside = proj_onto(v[:, None])
    cases = [
        ("non_hermitian", lambda: op.meet(x, q), op.NotProjector),
        ("non_idempotent", lambda: op.leq(half, q), op.NotProjector),
        ("outside_mvn", lambda: op.mvn_dimension(sec.alg, outside), op.NotInAlgebra),
        ("outside_value", lambda: sec.logical.value(outside), op.NotInAlgebra),
    ]
    for index, (kind, run, exc) in enumerate(cases):
        ops.append(Op(key=f"q-invalid-{index}-{kind}", kind=f"invalid_{kind}", run=run,
                      digest=_digest_result, expect_error=exc))
    return ops


def build_queries(seed: int, workdir: Path) -> Workload:
    """One validated public call per op on a closed sectors algebra and weyl 6.

    Lattice calls take ~0.2-0.6 ms; `mvn_dimension`, `projectors_equivalent`,
    `is_pure` and `is_factor` recompute the center, ~155 ms each on weyl 6.
    Setup closes both algebras and restricts one state to each.
    """
    rng = np.random.default_rng([seed, 4])
    blocks = _permuted([[2, 1], [2, 2]], rng)
    sec = _make_algebra("sectors6", blocks, sector_generators(blocks), rng)
    weyl = _make_algebra("weyl6", [[6, 1]], [clock(6), shift(6)], rng)
    ops = _queries_for(sec, rng) + _queries_for(weyl, rng) + _invalid_queries(sec, weyl, rng)
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    warm = next(o for o in ops if o.kind == "meet")
    return Workload("queries", ops, warm=warm, nominal_pass_s=0.65)


BUILDERS = {
    "structure": build_structure,
    "closure": build_closure,
    "lattice": build_lattice,
    "queries": build_queries,
}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate a workload's inputs, refusing any op above the memory budget."""
    os.makedirs(workdir, exist_ok=True)
    workload = BUILDERS[name](seed, workdir)
    if len({o.key for o in workload.ops}) != len(workload.ops):
        raise ValueError(f"{name}: op keys must be unique")
    for o in workload.ops:
        if o.system_mib > MEMORY_BUDGET_MIB:
            raise ValueError(
                f"{o.key}: worst-case null_space factor {o.system_mib:.0f} MiB exceeds "
                f"the {MEMORY_BUDGET_MIB:.0f} MiB budget"
            )
    return workload
