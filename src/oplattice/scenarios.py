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

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .algebra import GeneratorSet, generated_algebra
from .errors import NumericalError, OperatorAlgebraError, ValidationError
from .logic import LatticeReport, lattice_report, lattice_report_to_json
from .numerics import (DEFAULT_TOL, Tolerance, dumps, is_int, matrix_from_json, matrix_to_json,
                       require_count)
from .sectors import block_decomposition, minimal_central_projectors
from .states import (StateFunctional, _orthoadditivity_checks, _probabilities, dirac_characters,
                     is_pure, is_separating, state_from_json, state_to_json)

SCENARIO_KINDS = ("classical", "weyl_finite", "sectors", "custom")

EXPECTATION_CHECKS = (
    "algebra_dim", "commutant_dim", "center_dim", "sector_count", "factor", "atomic",
    "hilbertian", "boolean_lattice", "distributive", "orthomodular_pass_rate", "is_commutative",
    "sector_blocks", "character_count",
)

COMPLETENESS_NOTE = (
    "finite-dimensional projector lattices are always complete; "
    "non-complete lattices require a non-separable carrier and are "
    "not representable at this scale"
)


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
            require_count(key, getattr(self, key), positive=key == "dim")
            # NumPy integers are counts too; the report writes Python ints only
            object.__setattr__(self, key, int(getattr(self, key)))
        if not isinstance(self.parameters, dict):
            raise ValidationError(f'"parameters" must be an object, got {self.parameters!r}')
        object.__setattr__(self, "parameters",
                           _validate_parameters(self.kind, self.dim, self.parameters))
        for key in ("states", "expectations"):
            if not isinstance(getattr(self, key), (tuple, list)):
                raise ValidationError(f'"{key}" must be a tuple, got {getattr(self, key)!r}')
        for st in self.states:
            if not isinstance(st, StateFunctional) or st.dim != self.dim:
                raise ValidationError(f"a configured state must be a StateFunctional of scenario "
                                      f"dim {self.dim}, got {st!r}")
        for exp in self.expectations:
            if not isinstance(exp, Expectation):
                raise ValidationError(f"an expectation must be an Expectation, got {exp!r}")
            if exp.check not in EXPECTATION_CHECKS:
                raise ValidationError(f"unknown expectation check {exp.check!r}")


def _validate_parameters(kind: str, dim: int, parameters: dict) -> dict:
    """A copy of the parameters, with each validated integer among them a Python int."""
    fixed = {}
    if kind in ("classical", "weyl_finite"):
        key = "point_count" if kind == "classical" else "modulus"
        n = parameters.get(key)
        if n != dim or not is_int(n):
            raise ValidationError(f"{kind} {key} {n!r} must equal dim {dim}")
        if kind == "weyl_finite" and dim < 2:
            raise ValidationError("weyl_finite needs dim >= 2")
        fixed[key] = int(n)
    elif kind == "sectors":
        fixed["blocks"] = [[n, m] for n, m in _sector_pairs(parameters.get("blocks"))]
        total = sum(n * m for n, m in fixed["blocks"])
        if total != dim:
            raise ValidationError(f"sector blocks fill dimension {total}, scenario dim is {dim}")
    elif kind == "custom":
        gens = parameters.get("generators")
        if not isinstance(gens, (list, tuple)) or not gens:
            raise ValidationError('custom scenarios need a nonempty "generators" list')
    return {**parameters, **fixed}


def _sector_pairs(blocks) -> list:
    """The sector blocks as ``(size, multiplicity)`` pairs of Python ints, each a positive
    integer (`require_count`): `ValidationError` names the first block that is not."""
    if not isinstance(blocks, (list, tuple)) or not blocks:
        raise ValidationError(f'sectors need a nonempty "blocks" list, got {blocks!r}')
    pairs = []
    for entry in blocks:
        try:
            n, m = entry
            require_count("size", n, positive=True)
            require_count("multiplicity", m, positive=True)
        except (TypeError, ValueError):  # not a pair, or not counts
            raise ValidationError(
                f"bad sector block {entry!r}; need [size, multiplicity]") from None
        pairs.append((int(n), int(m)))
    return pairs


def clock_matrix(d: int) -> np.ndarray:
    """diag(1, w, ..., w^(d-1)) with w the primitive d-th root of unity."""
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    return np.diag(phases)


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic shift sending basis vector e_j to e_(j-1 mod d): the identity's rows rolled up."""
    return np.roll(np.eye(d, dtype=complex), -1, axis=0)


def build_classical(point_count: int) -> GeneratorSet:
    """One generator with distinct eigenvalues; its closure is the full
    diagonal algebra on `point_count` points."""
    require_count("point_count", point_count, positive=True)
    diag = np.diag(np.arange(1, point_count + 1).astype(complex))
    return GeneratorSet(ambient_dim=point_count, generators=(diag,))


def build_weyl_finite(modulus: int) -> GeneratorSet:
    """Clock and shift unitaries with exchange relation V U = w U V.

    Their closure is all of M_d: the d^2 monomials U^a V^b are linearly
    independent.
    """
    require_count("modulus", modulus, positive=True)
    if modulus < 2:
        raise ValidationError(f"modulus must be at least 2, got {modulus}")
    return GeneratorSet(
        ambient_dim=modulus,
        generators=(clock_matrix(modulus), shift_matrix(modulus)),
    )


def build_sectors(blocks) -> GeneratorSet:
    """Generators whose closure is the block-diagonal sum of full matrix
    factors ``M_n (x) 1_m``, one block per (n, m) pair."""
    pairs = _sector_pairs(blocks)
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

    Each stage runs once, on one block decomposition: the one `generated_algebra`
    reads off the generators' commutant, so no stage closes words. That algebra is
    the envelope (the generators' von Neumann algebra) and the states' domain; a
    commutant that is no algebra, or a generator outside its commutant, fails naming
    the dimensions. The states' family checks and the orthoadditivity sweep are one
    `states` stage: one family draw and one stacked check. Everything downstream is
    seeded from the scenario seed, so identical scenarios give
    byte-identical JSON reports. Errors from the underlying modules are
    re-raised with the scenario name attached (and any residual or counts).
    """
    try:
        return _run_scenario_body(scenario, tol)
    except OperatorAlgebraError as exc:
        measured = (exc.residual, exc.counts) if isinstance(exc, NumericalError) else ()
        raise type(exc)(f"scenario {scenario.name!r}: {exc}", *measured) from exc


def _run_scenario_body(scenario: Scenario, tol: Tolerance) -> ScenarioReport:
    alg = generated_algebra(build_generators(scenario), tol)
    decomp = block_decomposition(alg, tol)  # memoized by `generated_algebra`
    report = lattice_report(alg, scenario.trials, scenario.seed, tol)
    characters_entry = None
    if report.boolean_lattice:  # the algebra is commutative
        chars = dirac_characters(alg, tol)
        characters_entry = {
            "count": len(chars),
            "separating": is_separating(chars, alg, tol),
        }

    zs = minimal_central_projectors(alg, tol)  # built by the package, so checked nowhere
    sector_entries = tuple(
        {
            "block_size": s.block_size,
            "multiplicity": s.multiplicity,
            # z_i's reduced rank is n_i in its own sector, 0 in the others
            "mvn_dimension": [s.block_size if t is s else 0 for t in decomp.sectors],
            "central_projector": matrix_to_json(z),
        }
        for s, z in zip(decomp.sectors, zs)
    )

    additive, orthoadd = _orthoadditivity_checks(alg, scenario.states, scenario.trials,
                                                 scenario.seed, tol)
    state_entries = [
        {
            "index": index,
            "pure": is_pure(st, alg, tol),
            "values": {f"sector_{i}": float(v) for i, v in enumerate(
                _probabilities(np.array([np.trace(st.density @ z) for z in zs]), tol))},
            "sigma_orthoadditive": verdict,
        }
        for index, (st, verdict) in enumerate(zip(scenario.states, additive))
    ]

    echo = scenario_to_json(scenario)
    del echo["states"], echo["expectations"]
    unchecked = ScenarioReport(
        scenario=echo,
        algebra_dim=alg.dim,
        commutant_dim=sum(s.multiplicity ** 2 for s in decomp.sectors),
        center_dim=len(decomp.sectors),
        lattice=report,
        sectors=sector_entries,
        completeness_note=COMPLETENESS_NOTE,
        characters=characters_entry,
        states=tuple(state_entries),
        orthoadditivity=orthoadd,
        expectations=(),
    )
    # each check reads the report field (or lattice verdict) of its name, or one derived here
    actuals = {
        **vars(report), **vars(unchecked),
        "is_commutative": report.boolean_lattice,
        "sector_blocks": sorted([s.block_size, s.multiplicity] for s in decomp.sectors),
        "character_count": characters_entry["count"] if characters_entry else None,
    }
    verdicts = tuple({"check": exp.check, "args": exp.args, "expect": exp.expect,
                      "actual": actuals[exp.check],
                      "pass": _values_match(exp.expect, actuals[exp.check])}
                     for exp in scenario.expectations)
    return replace(unchecked, expectations=verdicts)


def scenario_from_json(data, tol: Tolerance = DEFAULT_TOL) -> Scenario:
    """A scenario from its JSON layout; configured states are validated under `tol`."""
    if not isinstance(data, dict):
        raise ValidationError("scenario JSON must be an object")
    for key in ("name", "kind", "dim"):
        if key not in data:
            raise ValidationError(f'scenario JSON needs a "{key}" key')
    for key in ("states", "expectations"):
        if not isinstance(data.get(key, []), list):
            raise ValidationError(f'"{key}" must be an array')
    states = tuple(state_from_json(s, tol) for s in data.get("states", []))
    expectations = []
    for entry in data.get("expectations", []):
        if not isinstance(entry, dict) or "check" not in entry or "expect" not in entry:
            raise ValidationError('every expectation needs "check" and "expect" keys')
        expectations.append(
            Expectation(check=entry["check"], expect=entry["expect"], args=entry.get("args"))
        )
    return Scenario(
        name=str(data["name"]),
        kind=data["kind"],
        dim=data["dim"],
        parameters=data.get("parameters", {}),
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
    """The report's fields in order, its tuples as lists, its lattice `lattice_report_to_json`."""
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    out = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
    out["lattice"] = lattice_report_to_json(report.lattice)
    return out


def report_to_json(report: ScenarioReport) -> str:
    """Deterministic serialization: same report value, same bytes."""
    return dumps(report_to_json_dict(report))
