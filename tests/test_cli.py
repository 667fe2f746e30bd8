import builtins
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from oplattice import (
    AlgebraBasis,
    GeneratorSet,
    NumericalError,
    baire_envelope,
    build_classical,
    build_sectors,
    build_weyl_finite,
    center,
    close,
    commutant,
    contains,
    generated_algebra,
    generator_commutant,
    generator_set_to_json,
    join,
    matrix_from_json,
    matrix_to_json,
    meet,
    report_to_json,
    run_scenario,
    same_span,
    scenario_from_json,
)
from oplattice import algebra as algebra_module
from oplattice import cli as cli_module
from oplattice.cli import main
from tests.conftest import haar_unitary, reference_is_commutative, rotated


@pytest.fixture()
def gens3_file(tmp_path):
    path = tmp_path / "gens3.json"
    path.write_text(json.dumps(generator_set_to_json(build_weyl_finite(3))))
    return str(path)


@pytest.fixture()
def diag_gens_file(tmp_path):
    path = tmp_path / "diag.json"
    gens = {"dim": 3, "generators": [matrix_to_json(np.diag([1.0, 2.0, 3.0]))]}
    path.write_text(json.dumps(gens))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlgebraVerbs:
    def test_close(self, capsys, gens3_file):
        code, out, err = run_cli(capsys, "--input", gens3_file, "close")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 9
        assert payload["ambient_dim"] == 3
        assert "span dimension 9" in err

    @pytest.mark.parametrize(
        "verb", ["close", "envelope", "commutant", "center", "sectors", "characters", "report"])
    def test_a_degenerate_rank_tol_is_a_numerical_failure(self, capsys, gens3_file, verb):
        # rounding noise passes a 1e-300 cutoff, so no commutator vanishes that closely
        code, out, err = run_cli(capsys, "--tol-rank", "1e-300", "--input", gens3_file, verb)
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure:") and "1e-300" in err
        assert "Traceback" not in err

    def test_a_degenerate_rank_tol_fails_a_run(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"name": "w3", "kind": "weyl_finite", "dim": 3,
                                    "parameters": {"modulus": 3}, "trials": 2}))
        code, out, err = run_cli(capsys, "--tol-rank", "1e-300", "--input", str(path), "run")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure:") and "1e-300" in err

    @pytest.mark.parametrize("verb, d", [("envelope", 32), ("close", 40)])
    def test_rotated_classical_closes_to_its_points(self, capsys, tmp_path, verb, d):
        gens = rotated(build_classical(d), seed=0)
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(generator_set_to_json(gens)))
        code, out, err = run_cli(capsys, "--input", str(path), verb)
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["ambient_dim"], payload["dim"]) == (d, d)
        written = AlgebraBasis(d, np.stack([matrix_from_json(b) for b in payload["basis"]]))
        assert reference_is_commutative(written)
        assert contains(written, np.stack(gens.generators)).all()

    @pytest.mark.parametrize("verb", ["close", "envelope", "commutant"])
    def test_an_algebra_verb_builds_one_basis(self, capsys, monkeypatch, tmp_path, verb):
        # the generators' commutant is certified from its sectors; only the written basis is built
        units, built = algebra_module._units, []
        monkeypatch.setattr(algebra_module, "_units",
                            lambda sectors: built.append(1) or units(sectors))
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(generator_set_to_json(build_sectors([(2, 2), (3, 1)]))))
        code, out, err = run_cli(capsys, "--input", str(path), verb)
        assert code == 0, err
        assert len(built) == 1 and len(json.loads(out)["basis"]) == json.loads(out)["dim"]

    def test_generators_at_1e300_close_to_m2(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        gens = GeneratorSet(2, (np.array([[1e300, 1e300], [0, 1]], dtype=complex),))
        path.write_text(json.dumps(generator_set_to_json(gens)))
        code, out, err = run_cli(capsys, "--input", str(path), "close")
        assert code == 0, err
        assert json.loads(out)["dim"] == 4

    def test_commutant(self, capsys, gens3_file):
        code, out, _ = run_cli(capsys, "--input", gens3_file, "commutant")
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_envelope(self, capsys, gens3_file):
        code, out, _ = run_cli(capsys, "--input", gens3_file, "envelope")
        assert code == 0
        assert json.loads(out)["dim"] == 9

    @pytest.mark.parametrize("verb, dim", [("commutant", 1), ("envelope", 576)])
    def test_commutant_and_envelope_of_m24_within_a_memory_bound(self, tmp_path, verb, dim):
        # the commutant is read off the generated algebra's sectors, the envelope off the
        # decomposition of M_24; the Kronecker system of its 576 basis elements would hold
        # 576 d^2 x d^2 complex entries, ~3 GB
        gens, out = tmp_path / "w24.json", tmp_path / "out.json"
        gens.write_text(json.dumps(generator_set_to_json(build_weyl_finite(24))))
        tracemalloc.start()
        try:
            code = main(["--input", str(gens), "--json-out", str(out), verb])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out.read_text())["dim"] == dim
        assert peak < 200 * 2**20

    def test_center(self, capsys, diag_gens_file):
        code, out, _ = run_cli(capsys, "--input", diag_gens_file, "center")
        assert code == 0
        assert json.loads(out)["dim"] == 3

    def test_sectors(self, capsys, diag_gens_file):
        code, out, _ = run_cli(capsys, "--input", diag_gens_file, "sectors")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["sectors"]) == 3
        assert all(s["block_size"] == 1 for s in payload["sectors"])


class TestLatticeVerbs:
    def test_meet(self, capsys, tmp_path):
        path = tmp_path / "pq.json"
        path.write_text(
            json.dumps(
                {
                    "p": matrix_to_json(np.diag([1.0, 1.0, 0.0])),
                    "q": matrix_to_json(np.diag([0.0, 1.0, 1.0])),
                }
            )
        )
        code, out, _ = run_cli(capsys, "--input", str(path), "meet")
        assert code == 0
        result = json.loads(out)["result"]
        assert result[1][1] == [1.0, 0.0]
        assert result[0][0] == [0.0, 0.0]

    def test_join(self, capsys, tmp_path):
        path = tmp_path / "pq.json"
        path.write_text(
            json.dumps(
                {
                    "p": matrix_to_json(np.diag([1.0, 0.0])),
                    "q": matrix_to_json(np.diag([0.0, 1.0])),
                }
            )
        )
        code, out, _ = run_cli(capsys, "--input", str(path), "join")
        assert code == 0
        result = json.loads(out)["result"]
        assert result[0][0] == [1.0, 0.0] and result[1][1] == [1.0, 0.0]

    def test_report(self, capsys, gens3_file):
        code, out, err = run_cli(
            capsys, "--input", gens3_file, "--trials", "20", "--seed", "4", "report"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["orthomodular_pass_rate"] == 1.0
        assert payload["factor"] is True
        assert "report:" in err


class TestStateVerbs:
    def test_characters(self, capsys, diag_gens_file):
        code, out, _ = run_cli(capsys, "--input", diag_gens_file, "characters")
        assert code == 0
        assert len(json.loads(out)["characters"]) == 3

    def test_eval_state(self, capsys, tmp_path):
        path = tmp_path / "ev.json"
        path.write_text(
            json.dumps(
                {
                    "density": matrix_to_json(np.eye(2) / 2),
                    "observable": matrix_to_json(np.diag([3.0, 7.0])),
                }
            )
        )
        code, out, _ = run_cli(capsys, "--input", str(path), "eval-state")
        assert code == 0
        assert json.loads(out)["value"] == [5.0, 0.0]


class TestRunVerb:
    def scenario_payload(self):
        return {
            "name": "weyl2",
            "kind": "weyl_finite",
            "dim": 2,
            "parameters": {"modulus": 2},
            "trials": 20,
            "seed": 6,
            "expectations": [{"check": "distributive", "expect": False}],
        }

    def test_run_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_payload()))
        code, out, err = run_cli(capsys, "--input", str(path), "run")
        assert code == 0
        payload = json.loads(out)
        assert payload["algebra_dim"] == 4
        assert payload["expectations"][0]["pass"] is True
        assert "all pass" in err

    def test_scenario_states_are_read_at_the_cli_tolerance(self, capsys, tmp_path):
        # a trace off 1 by 1e-7 passes `--tol-eq 1e-6`, as `eval-state` accepts the same density
        density = matrix_to_json(np.diag([0.5, 0.5 + 1e-7]))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**self.scenario_payload(), "states": [{"density": density}]}))
        code, _, err = run_cli(capsys, "--input", str(path), "run")
        assert code == 1 and "trace" in err
        code, out, err = run_cli(capsys, "--tol-eq", "1e-6", "--input", str(path), "run")
        assert code == 0, err
        assert len(json.loads(out)["states"]) == 1
        ev = tmp_path / "ev.json"
        ev.write_text(json.dumps({"density": density, "observable": matrix_to_json(np.eye(2))}))
        assert run_cli(capsys, "--tol-eq", "1e-6", "--input", str(ev), "eval-state")[0] == 0

    def test_json_out_writes_file(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(self.scenario_payload()))
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "--input", str(scenario), "--json-out", str(out_file), "run"
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_file.read_text())["algebra_dim"] == 4

    def test_run_twice_is_byte_identical(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(self.scenario_payload()))
        _, first, _ = run_cli(capsys, "--input", str(scenario), "run")
        _, second, _ = run_cli(capsys, "--input", str(scenario), "run")
        assert first == second


# each verb's result from the generators: all of them read the generated algebra
ALGEBRA_RESULTS = {
    "close": close,
    "commutant": lambda gens: commutant(generated_algebra(gens)),
    "envelope": lambda gens: baire_envelope(close(gens)),
    "center": lambda gens: center(generated_algebra(gens)),
}

# Mostly-zero bases (weyl, sectors) and a dense one (a Haar-rotated sector set).
WRITTEN_ALGEBRAS = {
    "weyl-16": lambda: build_weyl_finite(16),
    "sectors": lambda: build_sectors([(3, 1), (2, 2)]),
    "haar-sectors": lambda: rotated(build_sectors([(3, 1), (2, 2)]), seed=7),
}


def _coordinate_pair():
    p = np.diag(np.arange(16) < 10).astype(complex)
    return p, p[::-1, ::-1].copy()


def _haar_pair():
    u = haar_unitary(16, np.random.default_rng(7))
    return tuple(u @ m @ u.conj().T for m in _coordinate_pair())


WRITTEN_PAIRS = {"coordinate-16": _coordinate_pair, "haar-16": _haar_pair}


class TestOneSerialisation:
    """The CLI writes one compact line: the bytes of `report_to_json`, newline-terminated."""

    @pytest.mark.parametrize(
        "scenario",
        [
            {"name": "w3", "kind": "weyl_finite", "dim": 3, "parameters": {"modulus": 3},
             "trials": 10, "seed": 2},
            {"name": "s", "kind": "sectors", "dim": 5, "parameters": {"blocks": [[2, 1], [1, 3]]},
             "trials": 10, "seed": 5},
        ],
        ids=["weyl-3", "sectors"],
    )
    def test_run_writes_the_bytes_of_report_to_json(self, capsys, tmp_path, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        want = report_to_json(run_scenario(scenario_from_json(scenario))) + "\n"
        code, out, _ = run_cli(capsys, "--input", str(path), "run")
        assert code == 0
        assert out == want
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "--input", str(path), "--json-out", str(out_file), "run")
        assert code == 0
        assert out == ""
        assert out_file.read_bytes() == want.encode()

    @pytest.mark.parametrize(
        "verb, name",
        [pytest.param(verb, name, id=name if verb == "close" else f"{verb}-{name}")
         for verb in ALGEBRA_RESULTS for name in WRITTEN_ALGEBRAS]
        + [pytest.param(verb, name, id=f"{verb}-{name}")
           for verb in ("meet", "join") for name in WRITTEN_PAIRS],
    )
    def test_close_writes_the_basis_matrix_by_matrix(self, capsys, tmp_path, verb, name):
        if verb in ALGEBRA_RESULTS:
            gens = WRITTEN_ALGEBRAS[name]()
            data = generator_set_to_json(gens)
            result = ALGEBRA_RESULTS[verb](gens)
            want = {"ambient_dim": result.ambient_dim, "dim": result.dim,
                    "basis": [matrix_to_json(b) for b in result.basis]}
        else:
            p, q = WRITTEN_PAIRS[name]()
            data = {"p": matrix_to_json(p), "q": matrix_to_json(q)}
            want = {"result": matrix_to_json((meet if verb == "meet" else join)(p, q))}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        want_text = json.dumps(want) + "\n"
        code, out, _ = run_cli(capsys, "--input", str(path), verb)
        assert code == 0
        assert out == want_text
        out_file = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "--input", str(path), "--json-out", str(out_file), verb)
        assert code == 0
        assert out == ""
        assert out_file.read_bytes() == want_text.encode()

    @pytest.mark.parametrize("name", sorted(WRITTEN_ALGEBRAS))
    def test_commutant_spans_the_generators_commutant(self, capsys, tmp_path, name):
        # the matrix units of the generated algebra's swapped sectors, the sectors
        # `generator_commutant` holds
        gens = WRITTEN_ALGEBRAS[name]()
        path = tmp_path / "input.json"
        path.write_text(json.dumps(generator_set_to_json(gens)))
        code, out, _ = run_cli(capsys, "--input", str(path), "commutant")
        assert code == 0
        payload = json.loads(out)
        written = AlgebraBasis(payload["ambient_dim"],
                               np.stack([matrix_from_json(b) for b in payload["basis"]]))
        assert payload["dim"] == generator_commutant(gens).dim
        assert same_span(written, generator_commutant(gens))

    def test_the_basis_is_freed_before_the_text_is_written(self, monkeypatch, capsys,
                                                            gens3_file):
        refs, alive = [], []

        def dumps(payload):
            refs.append(weakref.ref(payload["basis"]))
            return real_dumps(payload)

        def print_(*args, **kwargs):
            alive.append(refs[0]() is not None)
            builtins.print(*args, **kwargs)

        real_dumps = cli_module.dumps
        monkeypatch.setattr(cli_module, "dumps", dumps)
        monkeypatch.setattr(cli_module, "print", print_, raising=False)
        code, out, _ = run_cli(capsys, "--input", gens3_file, "close")
        assert code == 0 and json.loads(out)["dim"] == 9
        assert alive == [False, False]  # the text, then the summary

    def test_close_writes_one_compact_line(self, capsys, gens3_file):
        code, out, _ = run_cli(capsys, "--input", gens3_file, "close")
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        assert out == json.dumps(json.loads(out)) + "\n"


class TestExitCodes:
    def test_missing_input_is_a_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "close")
        assert code == 1
        assert "error:" in err

    def test_unreadable_file(self, capsys):
        code, _, _ = run_cli(capsys, "--input", "/no/such/file.json", "close")
        assert code == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "--input", str(path), "close")
        assert code == 1

    def test_characters_on_noncommutative_input(self, capsys, gens3_file):
        code, _, err = run_cli(capsys, "--input", gens3_file, "characters")
        assert code == 1
        assert "commutative" in err

    def test_non_projector_meet_input(self, capsys, tmp_path):
        path = tmp_path / "pq.json"
        path.write_text(
            json.dumps(
                {
                    "p": matrix_to_json(np.diag([0.5, 0.5])),
                    "q": matrix_to_json(np.diag([1.0, 0.0])),
                }
            )
        )
        code, _, _ = run_cli(capsys, "--input", str(path), "meet")
        assert code == 1

    @pytest.mark.parametrize(
        "flags", [("--seed", "-1"), ("--trials", "-2"), ("--seed", "-1", "--trials", "0")]
    )
    def test_negative_seed_or_trials_is_a_validation_error(self, capsys, gens3_file, flags):
        code, out, err = run_cli(capsys, *flags, "--input", gens3_file, "report")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --") and "must be nonnegative" in err

    def test_bad_tolerance_flag(self, capsys, gens3_file):
        code, _, _ = run_cli(capsys, "--tol-eq", "2.0", "--input", gens3_file, "close")
        assert code == 1

    def test_an_eq_tol_below_the_rounding_floor_is_refused(self, capsys, gens3_file):
        code, out, err = run_cli(capsys, "--tol-eq", "1e-15", "--input", gens3_file, "close")
        assert (code, out) == (1, "") and err.startswith("error: eq_tol must lie in (1.42e-14, 1)")

    @pytest.mark.parametrize(
        "change",
        [
            {"trials": "abc"},
            {"parameters": {"blocks": [3]}},
            {"parameters": {"blocks": [["a", 1]]}},
            {"parameters": [1, 2]},
            {"trials": 2.9},
            {"seed": "7"},
            {"dim": True, "parameters": {"blocks": [[1, 1]]}},
            {"parameters": {"blocks": [[2.7, 1], [1.9, 1]]}},
            {"parameters": {"blocks": [[True, 3]]}},
            {"parameters": {"blocks": [[2.7, 1], [1.9, 1]]}, "trials": 2.9, "seed": "7"},
            {"kind": "classical", "parameters": {"point_count": 3.0}},
        ],
        ids=[
            "trials", "block-not-a-pair", "block-entry-not-a-number", "parameters-not-an-object",
            "fractional-trials", "string-seed", "bool-dim", "fractional-blocks", "bool-block",
            "fractional-blocks-trials-and-string-seed", "fractional-point-count",
        ],
    )
    def test_malformed_scenario_is_a_validation_error(self, capsys, tmp_path, change):
        path = tmp_path / "scenario.json"
        scenario = {"name": "s", "kind": "sectors", "dim": 3, "parameters": {"blocks": [[3, 1]]}}
        path.write_text(json.dumps({**scenario, **change}))
        code, _, err = run_cli(capsys, "--input", str(path), "run")
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "gens",
        [
            {"dim": True, "generators": [[[[1.0, 0.0]]]]},
            {"dim": 2, "generators": [[[[True, False], [0, 0]], [[0, 0], [1, 0]]]]},
        ],
        ids=["bool-dim", "bool-entries"],
    )
    def test_malformed_generator_set_is_a_validation_error(self, capsys, tmp_path, gens):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(gens))
        code, _, err = run_cli(capsys, "--input", str(path), "close")
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_integer_entry_outside_the_float_range_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text('{"dim": 1, "generators": [[[[1' + "0" * 400 + ', 0]]]]}')
        code, out, err = run_cli(capsys, "--input", str(path), "close")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_numerical_failures_exit_2(self, capsys, gens3_file, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("no convergence", residual=1.0)

        monkeypatch.setattr("oplattice.cli.generated_algebra", explode)
        code, _, err = run_cli(capsys, "--input", gens3_file, "close")
        assert code == 2
        assert "numerical failure" in err
