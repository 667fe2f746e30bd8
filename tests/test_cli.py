import json

import numpy as np
import pytest

from oplattice import (
    ConvergenceFailed,
    build_sectors,
    build_weyl_finite,
    close,
    generator_set_to_json,
    matrix_to_json,
    report_to_json,
    run_scenario,
    scenario_from_json,
)
from oplattice.cli import main


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

    def test_close_under_a_tiny_rank_tol(self, capsys, gens3_file):
        code, out, _ = run_cli(capsys, "--tol-rank", "1e-300", "--input", gens3_file, "close")
        assert code == 0
        assert json.loads(out)["dim"] == 9

    def test_commutant(self, capsys, gens3_file):
        code, out, _ = run_cli(capsys, "--input", gens3_file, "commutant")
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_envelope(self, capsys, gens3_file):
        code, out, _ = run_cli(capsys, "--input", gens3_file, "envelope")
        assert code == 0
        assert json.loads(out)["dim"] == 9

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
        "gens", [build_weyl_finite(16), build_sectors([(3, 1), (2, 2)])], ids=["weyl-16", "sectors"]
    )
    def test_close_writes_the_basis_matrix_by_matrix(self, capsys, tmp_path, gens):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(generator_set_to_json(gens)))
        alg = close(gens)
        want = {"ambient_dim": alg.ambient_dim, "dim": alg.dim,
                "basis": [matrix_to_json(b) for b in alg.basis]}
        code, out, _ = run_cli(capsys, "--input", str(path), "close")
        assert code == 0
        assert out == json.dumps(want) + "\n"

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
            raise ConvergenceFailed("no convergence", residual=1.0)

        monkeypatch.setattr("oplattice.cli.close", explode)
        code, _, err = run_cli(capsys, "--input", gens3_file, "close")
        assert code == 2
        assert "numerical failure" in err
