"""Command-line surface.

Verbs operate on JSON files (see the README for the schemas) and write a
JSON result, one compact line, to stdout or to ``--json-out``, with a
one-line human summary on stderr. Exit codes: 0 success, 1 validation
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (algebra_to_json, baire_envelope, center, commutant, generated_algebra,
                      generator_set_from_json)
from .errors import NumericalError, ValidationError
from .logic import join, lattice_report, lattice_report_to_json, meet
from .numerics import DEFAULT_TOL, Tolerance, dumps, matrix_from_json
from .scenarios import report_to_json_dict, run_scenario, scenario_from_json
from .sectors import block_decomposition, decomposition_to_json
from .states import dirac_characters, evaluate, make_state, state_to_json

# each algebra verb from the generators' bicommutant (names looked up per call)
_ALGEBRA_VERBS = {
    "close": lambda alg, tol: alg,
    "envelope": lambda alg, tol: baire_envelope(alg, tol),
    "commutant": lambda alg, tol: commutant(alg, tol),
    "center": lambda alg, tol: center(alg, tol),
}


# built once: argparse's set-up costs ~8x a parse
_PARSER = argparse.ArgumentParser(
    prog="oplattice",
    description="Projector lattices and states of finite-dimensional operator algebras.",
)
_PARSER.add_argument("--tol-eq", type=float, default=DEFAULT_TOL.eq_tol,
                     help="equality threshold (default %(default)s)")
_PARSER.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_tol,
                     help="relative rank cutoff (default %(default)s)")
_PARSER.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
_PARSER.add_argument("--trials", type=int, default=200,
                     help="sampling trials for `report` (default 200)")
_PARSER.add_argument("--json-out", metavar="PATH", default=None,
                     help="write the JSON result to PATH instead of stdout")
_PARSER.add_argument("--input", metavar="PATH", default=None,
                     help="input JSON file for the chosen verb")
_PARSER.add_argument(
    "verb",
    choices=[
        "close", "commutant", "envelope", "center", "sectors",
        "meet", "join", "report", "run", "characters", "eval-state",
    ],
)


def _load_input(args) -> object:
    if args.input is None:
        raise ValidationError(f"verb {args.verb!r} needs --input PATH")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{args.input} is not valid JSON: {exc}") from exc


def _projector_pair(data) -> tuple:
    if not isinstance(data, dict) or "p" not in data or "q" not in data:
        raise ValidationError('meet/join input needs "p" and "q" matrices')
    return matrix_from_json(data["p"]), matrix_from_json(data["q"])


def _dispatch(args, tol: Tolerance) -> tuple[dict, str]:
    for option in ("seed", "trials"):
        if getattr(args, option) < 0:
            raise ValidationError(f"--{option} must be nonnegative, got {getattr(args, option)}")
    data = _load_input(args)
    if args.verb in ("meet", "join"):
        p, q = _projector_pair(data)
        op = meet if args.verb == "meet" else join
        result = op(p, q, tol)
        return {"result": result}, f"{args.verb}: done"

    if args.verb == "eval-state":
        if not isinstance(data, dict) or "density" not in data or "observable" not in data:
            raise ValidationError('eval-state input needs "density" and "observable"')
        state = make_state(matrix_from_json(data["density"]), tol)
        value = evaluate(state, matrix_from_json(data["observable"]))
        payload = {"value": [value.real, value.imag]}
        return payload, f"eval-state: {value.real:+.6g}{value.imag:+.6g}i"

    if args.verb == "run":
        scenario = scenario_from_json(data, tol)
        report = run_scenario(scenario, tol)
        expectations_ok = all(v["pass"] for v in report.expectations)
        summary = (
            f"run {scenario.name!r}: algebra dim {report.algebra_dim}, "
            f"sectors={report.lattice.sector_count}, "
            f"distributive={report.lattice.distributive}, "
            f"expectations {'all pass' if expectations_ok else 'FAILED'}"
        )
        return report_to_json_dict(report), summary

    # every other verb reads generators
    alg = generated_algebra(generator_set_from_json(data), tol)
    if args.verb in _ALGEBRA_VERBS:
        result = _ALGEBRA_VERBS[args.verb](alg, tol)
        summary = f"{args.verb}: span dimension {result.dim} inside M_{result.ambient_dim}"
        return algebra_to_json(result), summary

    if args.verb == "sectors":
        decomp = block_decomposition(alg, tol)
        blocks = ", ".join(
            f"{s.block_size}x{s.block_size} (x{s.multiplicity})" for s in decomp.sectors
        )
        payload = {"ambient_dim": decomp.ambient_dim, "sectors": decomposition_to_json(decomp)}
        return payload, f"sectors: {len(decomp.sectors)} block(s): {blocks}"

    if args.verb == "characters":
        chars = dirac_characters(alg, tol)
        payload = {"characters": [state_to_json(c) for c in chars]}
        return payload, f"characters: {len(chars)} point(s) in the spectrum"

    report = lattice_report(alg, args.trials, args.seed, tol)  # "report", the last verb
    summary = (
        f"report: orthomodular pass rate {report.orthomodular_pass_rate:.3f}, "
        f"distributive={report.distributive}, factor={report.factor}, "
        f"sectors={report.sector_count}"
    )
    return lattice_report_to_json(report), summary


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload, summary = _dispatch(args, Tolerance(eq_tol=args.tol_eq, rank_tol=args.tol_rank))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    text = dumps(payload)
    del payload  # frees the basis before the text is written
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            print(text, file=fh)  # the text, then the newline: no copy of the text
    else:
        print(text)
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
