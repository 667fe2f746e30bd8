"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload structure --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload runs closed-loop with one
client in this one process, with BLAS pinned to one thread, over whole
passes of its op list: as many as take `--seconds` on the reference
machine, so every run of a workload has the same op mix and sample count.
Every op is checked against a reference built with its input, and a
repeated input must give byte-identical output. With `--trace 0` the
last stdout line carries the end-to-end metrics; with `--trace 1` the
run measures half its passes untraced and half traced, and reports the
per-layer metrics and the tracing overhead instead. Timings are corrected
for the host's speed (see hostspeed.py). The line before the last holds
the details: provenance, raw timings, sample counts and failure reasons.
"""

import os
import sys
import time

START = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up (input generation plus warm-up) is repeated this many times and
# its median reported, so one slow repetition does not move `setup_s`.
SETUP_REPEATS = 3

# Seconds of op time between two timings of the host kernel.
KERNEL_EVERY_S = 0.25

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def provenance(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "oplattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "workers": 1,
        "seed": seed,
    }


class Runner:
    """Executes ops, checks them, and keeps failures and output digests."""

    def __init__(self):
        self.failures = []        # (key, rotated, reason)
        self.digests = {}

    def execute(self, op):
        start = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # any failure of the program under test is a failed op
            out, error = None, exc
        elapsed = time.perf_counter() - start
        reason = self._judge(op, out, error)
        if reason is not None:
            self.failures.append((op.key, op.rotated, reason))
        return elapsed

    def _judge(self, op, out, error):
        if op.expect_error is not None:
            if error is None:
                return f"accepted an input that must raise {op.expect_error.__name__}"
            if not isinstance(error, op.expect_error):
                return f"raised {type(error).__name__} instead of {op.expect_error.__name__}"
            digest = f"{type(error).__name__}: {error}".encode()
        elif error is not None:
            return f"raised {type(error).__name__}: {error}"
        else:
            digest = op.digest(out)
            reason = op.check(out)
            if reason is not None:
                return reason
        digest = hashlib.sha256(digest).hexdigest()
        first = self.digests.setdefault(op.key, digest)
        if first != digest:
            return "output differs from the first run of the same input"
        return None

    def passes(self, ops, count, on_op=None):
        """Run `count` whole passes over `ops`, timing the host kernel in between.

        Returns the latencies per input, raw and divided by the host
        slowdown the kernel saw just before and just after each op, and
        the host's mean slowdown over the passes.
        """
        host = HostSpeed()
        host.measure()
        log = []                  # (key, latency, index of the kernel sample before it)
        since_kernel = 0.0
        for index in range(count * len(ops)):
            if on_op is not None:
                on_op(index)
            op = ops[index % len(ops)]
            elapsed = self.execute(op)
            log.append((op.key, elapsed, len(host.samples) - 1))
            since_kernel += elapsed
            if since_kernel >= KERNEL_EVERY_S:
                host.measure()
                since_kernel = 0.0
        host.measure()
        raw, corrected = {}, {}
        for key, elapsed, before in log:
            raw.setdefault(key, []).append(elapsed)
            corrected.setdefault(key, []).append(elapsed / host.slowdown_around(before))
        return raw, corrected, host.mean_slowdown()


def typical_rate(by_input):
    """Ops per second of a typical pass: pass length over the sum of each
    input's median latency, so one disturbed op does not move it."""
    return len(by_input) / sum(statistics.median(v) for v in by_input.values())


def latency_metrics(by_input):
    lat = sorted(t for times in by_input.values() for t in times)
    # The highest percentile with at least 10 samples beyond it.
    tail_rank = max(1, len(lat) - 10)
    return {
        "ops_per_s": typical_rate(by_input),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_tail": 1e3 * lat[tail_rank - 1],
    }, len(lat), tail_rank


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "oplattice" / "__init__.py").is_file():
        print(f"error: no oplattice sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oplattice  # noqa: F401

    import workloads
    from tracer import Tracer, per_layer_metric_units

    if Path(oplattice.__file__).resolve().parent != (SRC / "oplattice").resolve():
        print(f"error: imported oplattice from {oplattice.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, workdir)
            runner.execute(workload.warm)
            setup_times.append(time.perf_counter() - t0)
        warm_failures, runner.failures = runner.failures, []

        detail = {"provenance": provenance(args.seed), "workload": args.workload,
                  "pass_length": len(workload.ops),
                  "max_null_space_system_mib": max(o.system_mib for o in workload.ops),
                  "memory_budget_mib": workloads.MEMORY_BUDGET_MIB}
        # Whole passes keep the op mix, and a pass count fixed by --seconds
        # keeps the sample count, the same in every run of a workload.
        passes = max(1, math.ceil(args.seconds / workload.nominal_pass_s))
        if args.trace:
            half = max(1, passes // 2)
            _, untraced, _ = runner.passes(workload.ops, half)
            tracer = Tracer()
            tracer.install()
            try:
                def mark(i):
                    tracer.op_id = i
                _, traced, _ = runner.passes(workload.ops, half, mark)
            finally:
                tracer.uninstall()
            values = tracer.summary(half * len(workload.ops))
            # Both rates corrected for host speed, so host drift between
            # the two phases does not show up as tracing overhead.
            untraced_rate, traced_rate = typical_rate(untraced), typical_rate(traced)
            values["trace.overhead"] = traced_rate / untraced_rate
            units = per_layer_metric_units()
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file)
            detail.update(passes_per_phase=half, trace_file=str(trace_file),
                          overhead_base={"untraced_ops_per_s": untraced_rate,
                                         "traced_ops_per_s": traced_rate},
                          per_meet_base={"meets_per_op": values["logic.meet.calls"]})
            attempted = 2 * half * len(workload.ops)
        else:
            raw, corrected, slowdown = runner.passes(workload.ops, passes)
            raw_values, attempted, tail_rank = latency_metrics(raw)
            values, _, _ = latency_metrics(corrected)
            setup_s = import_s + statistics.median(setup_times)
            raw_values["setup_s"] = setup_s
            values.update(
                setup_s=setup_s / slowdown,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                ok_ratio=(attempted - len(runner.failures)) / attempted,
            )
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
            detail.update(passes=passes, samples=attempted,
                          tail_percentile=100.0 * tail_rank / attempted,
                          samples_beyond_tail=attempted - tail_rank,
                          raw_timings=raw_values, mean_host_slowdown=slowdown,
                          import_s=import_s, setup_repeats_s=setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = runner.failures
    rotated = [f for f in failures if f[1]]
    unexpected = [f for f in failures if not f[1]]
    reasons = {}
    for key, _, reason in failures:
        reasons.setdefault(key, reason)
    detail.update(failed=len(failures), rotated_failed=len(rotated),
                  unexpected_failed=len(unexpected), warm_up_failures=len(warm_failures),
                  failure_reasons=reasons)
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        # Rotated-basis inputs fail at the seed (basis-dependent closure);
        # they count in `failed` and `ok_ratio`. Any other failure makes the
        # run incorrect.
        "correct": not unexpected and not any(not f[1] for f in warm_failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
