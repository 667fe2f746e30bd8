"""Self-tests of the benchmark: checker, seeding, memory guard, tracer, output.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import hostspeed  # noqa: E402
import oplattice as op  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(algebra_dim=13, blocks=((2, 1), (3, 1))):
    return {
        "algebra_dim": algebra_dim,
        "commutant_dim": 2,
        "center_dim": 2,
        "sectors": [{"block_size": n, "multiplicity": m} for n, m in blocks],
        "characters": None,
        "lattice": {"sector_count": 2, "factor": False, "boolean_lattice": False},
    }


def test_report_check_accepts_the_reference_and_rejects_a_wrong_dimension():
    expected = workloads.expected_structure("sectors", [[3, 1], [2, 1]])
    assert workloads.check_report(_report(), expected) is None
    assert "algebra_dim" in workloads.check_report(_report(algebra_dim=25), expected)
    assert "blocks" in workloads.check_report(_report(blocks=((5, 1), (1, 1))), expected)


def test_runner_fails_an_accepted_invalid_input():
    runner = run.Runner()
    accepting = workloads.Op(key="k", kind="invalid", run=lambda: 0.5,
                             expect_error=op.NotProjector)
    runner.execute(accepting)
    assert runner.failures and "accepted" in runner.failures[0][2]

    rejecting = workloads.Op(key="k2", kind="invalid",
                             run=lambda: op.meet(np.ones((2, 2)) * 1j, np.eye(2)),
                             expect_error=op.NotProjector)
    runner.execute(rejecting)
    assert len(runner.failures) == 1


def test_runner_fails_a_wrong_matrix_and_a_nondeterministic_output():
    runner = run.Runner()
    wrong = workloads.Op(key="w", kind="meet", run=lambda: np.eye(2),
                         check=workloads._matrix_check(np.diag([1.0, 0.0])))
    runner.execute(wrong)
    assert runner.failures[-1][0] == "w"

    outputs = iter([b"a", b"b"])
    flaky = workloads.Op(key="f", kind="run", run=lambda: next(outputs), digest=lambda b: b)
    runner.execute(flaky)
    runner.execute(flaky)
    assert runner.failures[-1] == ("f", False, "output differs from the first run of the same input")


def test_closure_check_rejects_a_wrong_span(tmp_path):
    gens = workloads.sector_generators([[2, 1], [1, 1]])
    alg = op.close(op.GeneratorSet(ambient_dim=3, generators=tuple(gens)))
    good = {"ambient_dim": 3, "dim": alg.dim,
            "basis": [workloads.to_json_matrix(b) for b in alg.basis]}
    assert workloads._check_closure(5, 3, gens)(good) is None
    assert workloads._check_closure(9, 3, gens)(good) is not None
    bad = dict(good, basis=[workloads.to_json_matrix(np.eye(3) / np.sqrt(3))] * 5)
    assert workloads._check_closure(5, 3, gens)(bad) is not None


def test_queries_pass_their_references_once(tmp_path):
    workload = workloads.build("queries", 3, tmp_path)
    runner = run.Runner()
    for o in workload.ops:
        runner.execute(o)
    assert runner.failures == []
    assert sum(o.expect_error is not None for o in workload.ops) / len(workload.ops) >= 0.1


def test_seed_drives_every_generated_input(tmp_path):
    def inputs(seed):
        workloads.build("structure", seed, tmp_path / str(seed))
        return {p.name: p.read_bytes() for p in (tmp_path / str(seed)).glob("*.json")}

    first, again, other = inputs(1), inputs(1), inputs(2)
    assert first == again
    assert all(first[name] != other[name] for name in first)


def test_memory_guard_refuses_an_oversized_op(tmp_path, monkeypatch):
    assert workloads.null_space_system_mib(7, True) <= workloads.MEMORY_BUDGET_MIB
    assert workloads.null_space_system_mib(8, True) > workloads.MEMORY_BUDGET_MIB
    big = workloads.Op(key="weyl8", kind="weyl_finite", run=lambda: None,
                       system_mib=workloads.null_space_system_mib(8, True))
    monkeypatch.setitem(workloads.BUILDERS, "structure",
                        lambda seed, wd: workloads.Workload("structure", [big], big, 1.0))
    with pytest.raises(ValueError, match="budget"):
        workloads.build("structure", 1, tmp_path)


def test_tracer_records_self_time_and_restores_the_program():
    original = op.logic.meet
    t = tracer.Tracer()
    t.install()
    try:
        assert op.meet is not original and op.states.meet is op.logic.meet
        op.meet(np.eye(2), np.diag([1.0, 0.0]))
        op.LogicalState(op.make_state(np.eye(2) / 2), op.close(
            op.GeneratorSet(ambient_dim=2, generators=(np.eye(2),)))).value(np.eye(2))
    finally:
        t.uninstall()
    assert op.meet is original and op.logic.meet is original
    summary = t.summary(ops=1)
    assert summary["logic.meet.calls"] == 1
    assert summary["numerics.null_space.calls"] == 1
    assert summary["states.LogicalState.value.calls"] == 1
    assert summary["numerics.ensure_projector.per_meet"] >= 2
    assert summary["numerics.null_space.max_input_mb"] == 4 * 2 * 16 / 1e6
    assert all(summary[f"{name}.self_ms"] >= 0 for name in tracer.TRACED)


def test_host_slowdown_comes_from_the_kernel_samples_around_an_op():
    host = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_KERNEL_S
    host.samples = [nominal, 2 * nominal, 2 * nominal]
    assert host.slowdown_around(0) == pytest.approx(1.5)
    assert host.slowdown_around(1) == pytest.approx(2.0)
    assert host.mean_slowdown() == pytest.approx(5 / 3)
    host.measure()
    assert len(host.samples) == 4 and host.samples[-1] > 0


def test_benchmark_json_records_why_and_matches_the_reported_metrics():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and w["why"].strip() and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.per_layer_metric_units()
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "5",
         "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
