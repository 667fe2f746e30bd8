"""Declarative scenario runner.

A scenario names an algebra to build (a classical point algebra, a
finite clock-shift pair, a block-diagonal sector sum, or explicit
generators), how many sampling trials to run and under which seed, plus
optional states to evaluate and expected verdicts to assert. Running it
produces a machine-readable report of everything the lattice and state
machinery can say about the algebra.

There is no finite-dimensional home for a continuum deformation
parameter: the exchange phase of the clock-shift pair plays that role,
and the classical limit appears as the commutative scenario kind rather
than as a parameter going to zero. Likewise a non-complete projector
lattice needs a non-separable carrier, so completeness questions are
answered with a fixed note instead of a verdict: finite lattices are
always complete.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraBasis,
    GeneratorSet,
    close,
    commutant,
    generator_commutant,
    is_commutative,
    same_span,
)
from .errors import ConvergenceFailed, NumericalError, OperatorAlgebraError, ValidationError
from .logic import LatticeReport, lattice_report, lattice_report_to_json
from .numerics import DEFAULT_TOL, Tolerance, matrix_from_json, matrix_to_json
from .sectors import block_decomposition, mvn_dimension
from .seeding import (
    STREAM_STATE_CHECK,
    STREAM_SWEEP_FAMILY,
    STREAM_SWEEP_STATE,
    derive_seed,
)
from .states import (
    ORTHOADDITIVITY_TOL,
    LogicalState,
    check_sigma_orthoadditive,
    dirac_characters,
    is_pure,
    is_separating,
    random_orthogonal_family,
    random_state,
    sigma_orthoadditivity_residuals,
    state_from_json,
    state_to_json,
)

SCENARIO_KINDS = ("classical", "weyl_finite", "sectors", "custom")

COMPLETENESS_NOTE = (
    "finite-dimensional projector lattices are always complete; "
    "non-complete lattices require a non-separable carrier and are "
    "not representable at this scale"
)

# families checked per configured state
_STATE_FAMILY_CHECKS = 10


@dataclass(frozen=True)
class Expectation:
    check: str
    expect: object
    args: object = None


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    dim: int
    parameters: dict = field(default_factory=dict)
    trials: int = 200
    seed: int = 0
    states: tuple = ()
    expectations: tuple = ()

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.dim < 1:
            raise ValidationError(f"dim must be positive, got {self.dim}")
        if self.trials < 0:
            raise ValidationError(f"trials must be nonnegative, got {self.trials}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        _validate_parameters(self.kind, self.dim, self.parameters)
        for st in self.states:
            if st.dim != self.dim:
                raise ValidationError("configured state dimension does not match scenario dim")


def _validate_parameters(kind: str, dim: int, parameters: dict) -> None:
    if kind == "classical":
        n = parameters.get("point_count")
        if n != dim:
            raise ValidationError(f"classical point_count {n!r} must equal dim {dim}")
    elif kind == "weyl_finite":
        d = parameters.get("modulus")
        if d != dim:
            raise ValidationError(f"weyl_finite modulus {d!r} must equal dim {dim}")
        if dim < 2:
            raise ValidationError("weyl_finite needs dim >= 2")
    elif kind == "sectors":
        blocks = parameters.get("blocks")
        if not isinstance(blocks, (list, tuple)) or not blocks:
            raise ValidationError('sectors scenarios need a nonempty "blocks" list')
        total = 0
        for entry in blocks:
            if len(entry) != 2 or any(int(x) < 1 for x in entry):
                raise ValidationError(f"bad sector block {entry!r}; need [size, multiplicity]")
            total += int(entry[0]) * int(entry[1])
        if total != dim:
            raise ValidationError(f"sector blocks fill dimension {total}, scenario dim is {dim}")
    elif kind == "custom":
        gens = parameters.get("generators")
        if not isinstance(gens, (list, tuple)) or not gens:
            raise ValidationError('custom scenarios need a nonempty "generators" list')


def clock_matrix(d: int) -> np.ndarray:
    """diag(1, w, ..., w^(d-1)) with w the primitive d-th root of unity."""
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    return np.diag(phases)


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic shift sending basis vector e_j to e_(j-1 mod d)."""
    v = np.zeros((d, d), dtype=complex)
    for j in range(d):
        v[(j - 1) % d, j] = 1.0
    return v


def build_classical(point_count: int) -> GeneratorSet:
    """One generator with distinct eigenvalues; its closure is the full
    diagonal algebra on `point_count` points."""
    if point_count < 1:
        raise ValidationError(f"point_count must be positive, got {point_count}")
    diag = np.diag(np.arange(1, point_count + 1).astype(complex))
    return GeneratorSet(ambient_dim=point_count, generators=(diag,))


def build_weyl_finite(modulus: int) -> GeneratorSet:
    """Clock and shift unitaries with exchange relation V U = w U V.

    Their closure is all of M_d: the d^2 monomials U^a V^b are linearly
    independent.
    """
    if modulus < 2:
        raise ValidationError(f"modulus must be at least 2, got {modulus}")
    return GeneratorSet(
        ambient_dim=modulus,
        generators=(clock_matrix(modulus), shift_matrix(modulus)),
    )


def build_sectors(blocks) -> GeneratorSet:
    """Generators whose closure is the block-diagonal sum of full matrix
    factors ``M_n (x) 1_m``, one block per (n, m) pair."""
    pairs = [(int(n), int(m)) for n, m in blocks]
    if not pairs or any(n < 1 or m < 1 for n, m in pairs):
        raise ValidationError("every sector block needs size >= 1 and multiplicity >= 1")
    d = sum(n * m for n, m in pairs)
    gens = []
    offset = 0
    for n, m in pairs:
        size = n * m
        for local in (clock_matrix(n), shift_matrix(n)):
            g = np.zeros((d, d), dtype=complex)
            g[offset : offset + size, offset : offset + size] = np.kron(local, np.eye(m))
            gens.append(g)
        offset += size
    return GeneratorSet(ambient_dim=d, generators=tuple(gens))


def build_generators(scenario: Scenario) -> GeneratorSet:
    if scenario.kind == "classical":
        return build_classical(scenario.parameters["point_count"])
    if scenario.kind == "weyl_finite":
        return build_weyl_finite(scenario.parameters["modulus"])
    if scenario.kind == "sectors":
        return build_sectors(scenario.parameters["blocks"])
    mats = [
        matrix_from_json(g, expected_dim=scenario.dim)
        for g in scenario.parameters["generators"]
    ]
    return GeneratorSet(ambient_dim=scenario.dim, generators=tuple(mats))


@dataclass(frozen=True)
class ScenarioReport:
    scenario: dict
    algebra_dim: int
    envelope_equals_algebra: bool
    commutant_dim: int
    center_dim: int
    lattice: LatticeReport
    sectors: tuple
    completeness_note: str
    characters: dict | None
    states: tuple
    orthoadditivity: dict
    expectations: tuple


def _expectation_registry(ctx: dict) -> dict:
    return {
        "algebra_dim": lambda: ctx["algebra_dim"],
        "envelope_equals_algebra": lambda: ctx["envelope_equals_algebra"],
        "commutant_dim": lambda: ctx["commutant_dim"],
        "center_dim": lambda: ctx["center_dim"],
        "sector_count": lambda: ctx["report"].sector_count,
        "factor": lambda: ctx["report"].factor,
        "atomic": lambda: ctx["report"].atomic,
        "hilbertian": lambda: ctx["report"].hilbertian,
        "boolean_lattice": lambda: ctx["report"].boolean_lattice,
        "distributive": lambda: ctx["report"].distributive,
        "orthomodular_pass_rate": lambda: ctx["report"].orthomodular_pass_rate,
        "is_commutative": lambda: ctx["commutative"],
        "sector_blocks": lambda: sorted(
            [s.block_size, s.multiplicity] for s in ctx["decomp"].sectors
        ),
        "character_count": lambda: ctx["character_count"],
    }


def _values_match(expect, actual) -> bool:
    if isinstance(expect, float) or isinstance(actual, float):
        try:
            return abs(float(expect) - float(actual)) <= 1e-12
        except (TypeError, ValueError):
            return False
    return expect == actual


def run_scenario(scenario: Scenario, tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Build the scenario's algebra and run the full verification battery.

    Two independent checks guard the closure, and each raises rather
    than reporting: the generated von Neumann algebra (the bicommutant)
    must coincide with the closed span, which catches a closure that
    stopped short, and the commutant of the generators and their
    adjoints must equal the commutant of the closure, which catches one
    that over-grew. Everything downstream is seeded from the scenario
    seed, so identical scenarios give byte-identical JSON reports.
    Errors from the underlying modules are re-raised with the scenario
    name attached.
    """
    try:
        return _run_scenario_body(scenario, tol)
    except OperatorAlgebraError as exc:
        message = f"scenario {scenario.name!r}: {exc}"
        if isinstance(exc, ConvergenceFailed):
            raise ConvergenceFailed(message, residual=exc.residual) from exc
        raise type(exc)(message) from exc


def _run_scenario_body(scenario: Scenario, tol: Tolerance) -> ScenarioReport:
    gens = build_generators(scenario)
    alg = close(gens, tol)
    comm = commutant(alg, tol)
    envelope = commutant(comm, tol)
    if not same_span(alg, envelope, tol):
        raise NumericalError(
            "generated von Neumann algebra differs from the closed span; "
            "the closure is buggy or the tolerances are degenerate"
        )
    gens_comm = generator_commutant(gens, tol)
    if not same_span(gens_comm, comm, tol):
        raise NumericalError(
            f"the generators' commutant has dimension {gens_comm.dim} but the closure's "
            f"has {comm.dim}; the closure is buggy or the tolerances are degenerate"
        )
    decomp = block_decomposition(alg, tol)
    report = lattice_report(alg, scenario.trials, scenario.seed, tol)
    commutative = is_commutative(alg, tol)
    characters_entry = None
    if commutative:
        chars = dirac_characters(alg, tol)
        characters_entry = {
            "count": len(chars),
            "separating": is_separating(chars, alg, tol),
        }
    ctx = {
        "algebra_dim": alg.dim,
        "envelope_equals_algebra": True,
        "commutant_dim": comm.dim,
        "center_dim": len(decomp.sectors),
        "report": report,
        "decomp": decomp,
        "commutative": commutative,
        "character_count": characters_entry["count"] if characters_entry else None,
    }

    sector_entries = tuple(
        {
            "block_size": s.block_size,
            "multiplicity": s.multiplicity,
            "mvn_dimension": mvn_dimension(alg, s.central_projector, tol),
            "central_projector": matrix_to_json(s.central_projector),
        }
        for s in decomp.sectors
    )

    state_entries = []
    for index, st in enumerate(scenario.states):
        logical = LogicalState(underlying=st, domain=envelope)
        values = {
            f"sector_{i}": logical.value(s.central_projector, tol)
            for i, s in enumerate(decomp.sectors)
        }
        family_seeds = (
            derive_seed(scenario.seed, STREAM_STATE_CHECK, index * 1000 + i)
            for i in range(_STATE_FAMILY_CHECKS)
        )
        additive = all(
            check_sigma_orthoadditive(logical, random_orthogonal_family(alg, s, tol), tol)
            for s in family_seeds
        )
        state_entries.append(
            {
                "index": index,
                "pure": is_pure(st, alg, tol),
                "values": values,
                "sigma_orthoadditive": additive,
            }
        )

    orthoadd = _orthoadditivity_sweep(alg, envelope, scenario.trials, scenario.seed, tol)

    verdicts = []
    registry = _expectation_registry(ctx)
    for exp in scenario.expectations:
        if exp.check not in registry:
            raise ValidationError(f"unknown expectation check {exp.check!r}")
        actual = registry[exp.check]()
        verdicts.append(
            {
                "check": exp.check,
                "args": exp.args,
                "expect": exp.expect,
                "actual": actual,
                "pass": _values_match(exp.expect, actual),
            }
        )

    echo = scenario_to_json(scenario)
    del echo["states"], echo["expectations"]
    return ScenarioReport(
        scenario=echo,
        algebra_dim=alg.dim,
        envelope_equals_algebra=True,
        commutant_dim=ctx["commutant_dim"],
        center_dim=ctx["center_dim"],
        lattice=report,
        sectors=sector_entries,
        completeness_note=COMPLETENESS_NOTE,
        characters=characters_entry,
        states=tuple(state_entries),
        orthoadditivity=orthoadd,
        expectations=tuple(verdicts),
    )


def _orthoadditivity_sweep(
    alg: AlgebraBasis, envelope: AlgebraBasis, trials: int, seed: int, tol: Tolerance
) -> dict:
    residuals = []
    for i in range(trials):
        rho = random_state(alg.ambient_dim, derive_seed(seed, STREAM_SWEEP_STATE, i))
        logical = LogicalState(underlying=rho, domain=envelope)
        family = random_orthogonal_family(alg, derive_seed(seed, STREAM_SWEEP_FAMILY, i), tol)
        residuals.append(max(sigma_orthoadditivity_residuals(logical, family, tol)))
    return {
        "trials": trials,
        "failures": sum(1 for r in residuals if r > ORTHOADDITIVITY_TOL),
        "max_residual": max(residuals) if residuals else 0.0,
    }


def scenario_from_json(data) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario JSON must be an object")
    for key in ("name", "kind", "dim"):
        if key not in data:
            raise ValidationError(f'scenario JSON needs a "{key}" key')
    states = tuple(state_from_json(s) for s in data.get("states", []))
    expectations = []
    for entry in data.get("expectations", []):
        if not isinstance(entry, dict) or "check" not in entry or "expect" not in entry:
            raise ValidationError('every expectation needs "check" and "expect" keys')
        expectations.append(
            Expectation(check=entry["check"], expect=entry["expect"], args=entry.get("args"))
        )
    dim = data["dim"]
    if not isinstance(dim, int):
        raise ValidationError(f'"dim" must be an integer, got {dim!r}')
    return Scenario(
        name=str(data["name"]),
        kind=data["kind"],
        dim=dim,
        parameters=dict(data.get("parameters", {})),
        trials=int(data.get("trials", 200)),
        seed=int(data.get("seed", 0)),
        states=states,
        expectations=tuple(expectations),
    )


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "kind": scenario.kind,
        "dim": scenario.dim,
        "parameters": scenario.parameters,
        "trials": scenario.trials,
        "seed": scenario.seed,
        "states": [state_to_json(s) for s in scenario.states],
        "expectations": [
            {"check": e.check, "args": e.args, "expect": e.expect} for e in scenario.expectations
        ],
    }


def report_to_json_dict(report: ScenarioReport) -> dict:
    return {
        "scenario": report.scenario,
        "algebra_dim": report.algebra_dim,
        "envelope_equals_algebra": report.envelope_equals_algebra,
        "commutant_dim": report.commutant_dim,
        "center_dim": report.center_dim,
        "lattice": lattice_report_to_json(report.lattice),
        "sectors": list(report.sectors),
        "completeness_note": report.completeness_note,
        "characters": report.characters,
        "states": list(report.states),
        "orthoadditivity": report.orthoadditivity,
        "expectations": list(report.expectations),
    }


def report_to_json(report: ScenarioReport, indent: int | None = None) -> str:
    """Deterministic serialization: same report value, same bytes."""
    return json.dumps(report_to_json_dict(report), indent=indent)
