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
    same_span,
)
from .errors import ConvergenceFailed, NumericalError, OperatorAlgebraError, ValidationError
from .logic import LatticeReport, lattice_report, lattice_report_to_json
from .numerics import DEFAULT_TOL, Tolerance, is_int, matrix_from_json, matrix_to_json
from .sectors import block_decomposition, mvn_dimension
from .seeding import (
    STREAM_STATE_CHECK,
    STREAM_SWEEP_FAMILY,
    STREAM_SWEEP_STATE,
    derive_seed,
)
from .states import (
    LogicalState,
    _orthoadditivity,
    _random_orthogonal_families,
    check_sigma_orthoadditive,
    dirac_characters,
    is_pure,
    is_separating,
    random_state,
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
        for key in ("dim", "trials", "seed"):
            if not is_int(getattr(self, key)):
                raise ValidationError(f'"{key}" must be an integer, got {getattr(self, key)!r}')
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
        if n != dim or not is_int(n):
            raise ValidationError(f"classical point_count {n!r} must equal dim {dim}")
    elif kind == "weyl_finite":
        d = parameters.get("modulus")
        if d != dim or not is_int(d):
            raise ValidationError(f"weyl_finite modulus {d!r} must equal dim {dim}")
        if dim < 2:
            raise ValidationError("weyl_finite needs dim >= 2")
    elif kind == "sectors":
        blocks = parameters.get("blocks")
        if not isinstance(blocks, (list, tuple)) or not blocks:
            raise ValidationError('sectors scenarios need a nonempty "blocks" list')
        total = 0
        for entry in blocks:
            try:
                size, multiplicity = entry
            except (TypeError, ValueError):
                size = multiplicity = None  # reported as a bad block below
            if not all(is_int(x) and x >= 1 for x in (size, multiplicity)):
                raise ValidationError(f"bad sector block {entry!r}; need [size, multiplicity]")
            total += size * multiplicity
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


def _values_match(expect, actual) -> bool:
    """Floats match up to rounding: declared values such as a pass rate are
    compared, not residuals, so the bound below is not part of `Tolerance`."""
    if isinstance(expect, float) or isinstance(actual, float):
        try:
            return abs(float(expect) - float(actual)) <= 1e-12
        except (TypeError, ValueError):
            return False
    return expect == actual


def run_scenario(scenario: Scenario, tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Build the scenario's algebra and run the full verification battery.

    The structure is computed once: the generators' commutant and its
    commutant, the envelope (the generated von Neumann algebra). One
    check guards `close` without reading its output to build the
    reference, and raises: the closed span must equal the envelope, so a
    closure that over-grew or stopped short fails on its dimension.
    Everything downstream is seeded from the scenario seed, so identical
    scenarios give byte-identical JSON reports. Errors from the
    underlying modules are re-raised with the scenario name attached.
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
    comm = generator_commutant(gens, tol)
    envelope = commutant(comm, tol)
    if not same_span(alg, envelope, tol):
        raise NumericalError(
            f"the closed span has dimension {alg.dim} but the generated von Neumann algebra "
            f"has {envelope.dim} (the generators' commutant has dimension {comm.dim}); "
            "the closure is buggy or the tolerances are degenerate"
        )
    decomp = block_decomposition(alg, tol)
    report = lattice_report(alg, scenario.trials, scenario.seed, tol)
    characters_entry = None
    if report.boolean_lattice:  # the algebra is commutative
        chars = dirac_characters(alg, tol)
        characters_entry = {
            "count": len(chars),
            "separating": is_separating(chars, alg, tol),
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
        family_seeds = [
            derive_seed(scenario.seed, STREAM_STATE_CHECK, index * 1000 + i)
            for i in range(_STATE_FAMILY_CHECKS)
        ]
        additive = all(
            check_sigma_orthoadditive(logical, family, tol)
            for family in _random_orthogonal_families(alg, family_seeds, tol)
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

    actuals = {
        "algebra_dim": alg.dim,
        "envelope_equals_algebra": True,
        "commutant_dim": comm.dim,
        "center_dim": len(decomp.sectors),
        "sector_count": report.sector_count,
        "factor": report.factor,
        "atomic": report.atomic,
        "hilbertian": report.hilbertian,
        "boolean_lattice": report.boolean_lattice,
        "distributive": report.distributive,
        "orthomodular_pass_rate": report.orthomodular_pass_rate,
        "is_commutative": report.boolean_lattice,
        "sector_blocks": sorted([s.block_size, s.multiplicity] for s in decomp.sectors),
        "character_count": characters_entry["count"] if characters_entry else None,
    }
    verdicts = []
    for exp in scenario.expectations:
        if exp.check not in actuals:
            raise ValidationError(f"unknown expectation check {exp.check!r}")
        verdicts.append(
            {
                "check": exp.check,
                "args": exp.args,
                "expect": exp.expect,
                "actual": actuals[exp.check],
                "pass": _values_match(exp.expect, actuals[exp.check]),
            }
        )

    echo = scenario_to_json(scenario)
    del echo["states"], echo["expectations"]
    return ScenarioReport(
        scenario=echo,
        algebra_dim=alg.dim,
        envelope_equals_algebra=True,
        commutant_dim=comm.dim,
        center_dim=len(decomp.sectors),
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
    seeds = [derive_seed(seed, STREAM_SWEEP_FAMILY, i) for i in range(trials)]
    cases = [(f"orthoadditivity trial {i}",
              random_state(alg.ambient_dim, derive_seed(seed, STREAM_SWEEP_STATE, i)).density,
              family)
             for i, family in enumerate(_random_orthogonal_families(alg, seeds, tol))]
    residuals = [max(r) for r in _orthoadditivity(envelope, cases, tol)]
    return {
        "trials": trials,
        "failures": sum(1 for r in residuals if r > tol.law_tol),
        "max_residual": max(residuals) if residuals else 0.0,
    }


def scenario_from_json(data) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario JSON must be an object")
    for key in ("name", "kind", "dim"):
        if key not in data:
            raise ValidationError(f'scenario JSON needs a "{key}" key')
    for key in ("states", "expectations"):
        if not isinstance(data.get(key, []), list):
            raise ValidationError(f'"{key}" must be an array')
    states = tuple(state_from_json(s) for s in data.get("states", []))
    expectations = []
    for entry in data.get("expectations", []):
        if not isinstance(entry, dict) or "check" not in entry or "expect" not in entry:
            raise ValidationError('every expectation needs "check" and "expect" keys')
        expectations.append(
            Expectation(check=entry["check"], expect=entry["expect"], args=entry.get("args"))
        )
    parameters = data.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ValidationError(f'"parameters" must be an object, got {parameters!r}')
    return Scenario(
        name=str(data["name"]),
        kind=data["kind"],
        dim=data["dim"],
        parameters=dict(parameters),
        trials=data.get("trials", 200),
        seed=data.get("seed", 0),
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
