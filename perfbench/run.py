"""Benchmark of cloneforge on three closed-loop workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
``--trace 0`` measures the end-to-end metrics. ``--trace 1`` alternates
untraced and traced blocks of ops and reports the per-layer metrics. The output
is a table, a ``report`` line (environment, output digest, failures by kind)
and, last, one JSON result line. See README.md in this directory.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep", "wide-register", "cli-cold")
#: one BLAS thread in this process and its children; `main` sets it before
#: anything imports numpy
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: a run goes on past --seconds until it has this many ops, so that ten
#: latency samples lie beyond p90
MIN_OPS = 100
#: the digest covers the outputs of this many first ops of the timed loop
DIGEST_OPS = 100
#: fresh interpreters started to measure setup_s, half before and half after
#: the timed loop so that they span it; the median is reported
SETUP_REPEATS = 20
#: a traced run alternates untraced and traced blocks of this many ops: one
#: cycle of the op classes (12 sweeps of 7 rows, 45 wide-register classes,
#: the 20 CLI commands)
TRACE_BLOCK = {"sweep": 84, "wide-register": 45, "cli-cold": 20}
#: per-layer counts and times cover this many first traced ops: 36 sweeps
#: (one period of the CNOT stratum), one block otherwise
TRACE_WINDOW = {"sweep": 252, "wide-register": 45, "cli-cold": 20}
CHILD_TIMEOUT_S = 120
VERIFY_SUITES = (
    "gate_algebra", "decompositions", "exact_networks", "approx_networks",
    "brute_force", "hybrid_networks", "asymptotics", "d_cloner",
    "decomposed_networks", "cli_determinism",
)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


def run_child(argv):
    """Run a child to completion; returns ``(returncode, stdout, stderr)``.

    A child still running after the timeout is killed and reported with
    return code None.
    """
    try:
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or b"", exc.stderr or b""
    return proc.returncode, proc.stdout, proc.stderr


def parse_child_trace(stderr):
    """The launcher's record, plus the ``numpy`` import time from ``-X importtime``.

    None if the child died before writing it.
    """
    import launcher

    record, numpy_us = None, 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line.startswith(launcher.TRACE_PREFIX):
            record = json.loads(line[len(launcher.TRACE_PREFIX):])
        elif line.startswith("import time:") and line.split("|")[-1].strip() == "numpy":
            numpy_us = int(line.split("|")[1])
    if record is not None:
        record["numpy_ns"] = numpy_us * 1000
    return record


class Loop:
    """One closed loop's results. Each op is checked as it completes, so the
    loop keeps no per-op objects, only latencies and pass flags."""

    def __init__(self, workload):
        import workloads

        self.check = workloads.check_cli if workload == "cli-cold" else workloads.check_clone
        self.latencies = array("d")
        self.passed = array("b")
        self.failures = Counter()
        self.correct = True
        self.digest = hashlib.sha256()
        self.max_qubits = 0
        self.records = []
        #: the small-angle probe's report, if the run made it
        self.small_angle = None

    def add(self, op, outcome, latency):
        """Check one op; any failure makes the run incorrect."""
        kind, text = self.check(op, outcome)
        if len(self.latencies) < DIGEST_OPS:
            self.digest.update(text.encode("utf-8") + b"\n")
        self.latencies.append(latency)
        self.passed.append(kind is None)
        if kind is not None:
            self.failures[kind] += 1
            self.correct = False
        self.max_qubits = max(self.max_qubits, op.state_qubits)

    @property
    def attempted(self):
        return len(self.latencies)

    def ok_latencies(self):
        return [lat for lat, ok in zip(self.latencies, self.passed) if ok]

    def ok_per_s(self):
        """Ops that passed, per second spent in ops (checks excluded)."""
        return sum(self.passed) / sum(self.latencies)


def execute(workload, op, traced):
    """Run one op; returns ``(outcome, child trace record or None)``."""
    import workloads

    if workload != "cli-cold":
        try:
            return workloads.run_clone_op(op), None
        except Exception as exc:  # counted and grouped by kind, never fatal
            return exc, None
    if not traced:
        code, out, _ = run_child(["-m", "cloneforge.cli", *op.args])
        return (code, out), None
    code, out, err = run_child(["-X", "importtime", str(HERE / "launcher.py"), "cli", *op.args])
    return (code, out), parse_child_trace(err)


def run_ops(loop, workload, ops, window=0, tracer=None):
    """Run ``ops`` into ``loop``, each starting when the previous one returned.

    ``window > 0`` traces the ops and keeps the layer records of the loop's
    first ``window`` ops: from ``tracer`` in process, from the launcher for
    CLI ops.
    """
    for op in ops:
        t0 = time.perf_counter()
        outcome, record = execute(workload, op, window > 0)
        latency = time.perf_counter() - t0
        if tracer is not None:
            record = tracer.take()
        if loop.attempted < window:
            loop.records.append(record)
        loop.add(op, outcome, latency)


def closed_loop(workload, seed, seconds, min_ops):
    """One client on the seeded stream for ``seconds`` and at least ``min_ops`` ops."""
    import workloads

    stream = workloads.STREAMS[workload](seed)
    loop = Loop(workload)
    start = time.perf_counter()
    while loop.attempted < min_ops or time.perf_counter() - start < seconds:
        run_ops(loop, workload, [next(stream)])
    return loop


def setup_samples(workload, seed, count):
    """Seconds from starting a fresh interpreter to the end of the first op."""
    import workloads

    first = next(workloads.STREAMS[workload](seed))
    samples = []
    for _ in range(count):
        start = time.monotonic_ns()
        if workload == "cli-cold":
            code, _, err = run_child(["-m", "cloneforge.cli", *first.args])
            end = time.monotonic_ns()
        else:
            code, out, err = run_child([str(HERE / "launcher.py"), "first-op", workload, str(seed)])
            end = int(out.split()[-1]) if code == 0 else 0
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode('utf-8', 'replace')}")
        samples.append((end - start) / 1e9)
    return samples


def small_angle_probe(seed):
    """Run the small-angle probe untimed; its failures by kind.

    These ops are the library's known small-angle defect (ROADMAP item 3).
    They are reported apart from the timed ops, which all must pass.
    """
    import workloads

    probe = Loop("sweep")
    for op in workloads.small_angle_ops(seed):
        outcome, _ = execute("sweep", op, traced=False)
        probe.add(op, outcome, 0.0)
    return {"ops": probe.attempted, "failed": sum(probe.failures.values()),
            "failures": dict(probe.failures)}


def end_to_end(workload, seed, seconds):
    """The untraced run: set-up probes around a warm-up op and the timed loop."""
    setup = setup_samples(workload, seed, SETUP_REPEATS // 2)
    closed_loop(workload, seed, 0.0, 1)  # warm-up: first op, untimed
    loop = closed_loop(workload, seed, seconds, MIN_OPS)
    setup += setup_samples(workload, seed, SETUP_REPEATS - len(setup))
    if workload == "sweep":
        loop.small_angle = small_angle_probe(seed)
    ok = loop.ok_latencies()
    deciles = statistics.quantiles(ok, n=10, method="inclusive")
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (loop.ok_per_s(), "1/s"),
        "op_p50_ms": (deciles[4] * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "ok_rate": (len(ok) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }
    samples = {
        "setup_s": SETUP_REPEATS, "ops_per_s": len(ok), "op_p50_ms": len(ok),
        "op_p90_ms": len(ok), "ok_rate": loop.attempted, "peak_rss_mb": 1,
    }
    return loop, metrics, samples


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, loop, ratio, probe):
    """Per-layer metrics over the trace window.

    In-process layer counts and times are totals over the window. ``cli.*``
    are medians per process, ``verify.*`` medians per ``verify`` run; the
    in-process workloads take both from one traced ``cloneforge verify``
    probe, since they never enter these layers themselves.
    """
    records = [r for r in loop.records if r is not None]
    window_ops = len(loop.records)
    buckets = {}
    for record in records:
        for bucket, values in record["buckets"].items():
            entry = buckets.setdefault(bucket, [0, 0, 0])
            for i, value in enumerate(values):
                entry[i] += value

    def calls(bucket):
        return buckets.get(bucket, [0, 0, 0])[0]

    def self_ms(bucket):
        return buckets.get(bucket, [0, 0, 0])[1] / 1e6

    children = records if workload == "cli-cold" else [probe] if probe else []
    verify_runs = [c for c in children if "verify.run_all" in c["buckets"]]

    def verify_ms(bucket):
        return _median([c["buckets"][bucket][2] / 1e6 for c in verify_runs if bucket in c["buckets"]])

    builds = calls("gates.build")
    applies = calls("linalg.apply")
    layer_ns = sum(entry[1] for entry in buckets.values())
    if workload == "cli-cold":
        # the cli layer's own spans are the import and the call to main
        layer_ns = sum(c["import_ns"] + c["main_ns"] for c in records)
    wall_ns = sum(loop.latencies[:window_ops]) * 1e9
    metrics = {
        "bounds.calls": (calls("bounds"), "count"),
        "bounds.self_ms": (self_ms("bounds"), "ms"),
        "gates.build_calls": (builds, "count"),
        "gates.build_self_ms": (self_ms("gates.build"), "ms"),
        "gates.decompose_calls": (calls("gates.decompose"), "count"),
        "gates.decompose_self_ms": (self_ms("gates.decompose"), "ms"),
        "gates.build_distinct_ratio": (
            sum(r["new_builds"] for r in records) / builds if builds else 0.0, "ratio"),
        "linalg.apply_calls": (applies, "count"),
        "linalg.apply_self_ms": (self_ms("linalg.apply"), "ms"),
        "linalg.apply_us_per_call": (
            self_ms("linalg.apply") * 1e3 / applies if applies else 0.0, "us"),
        "linalg.amps_updated": (sum(r["amps"] for r in records), "count"),
        "linalg.bytes_moved_computed": (sum(r["bytes"] for r in records), "B"),
        "linalg.measure_self_ms": (self_ms("linalg.measure"), "ms"),
        "networks.assemble_self_ms": (self_ms("networks.assemble"), "ms"),
        "networks.expand_self_ms": (self_ms("networks.expand"), "ms"),
        "networks.run_self_ms": (self_ms("networks.run"), "ms"),
        "networks.evaluate_self_ms": (self_ms("networks.evaluate"), "ms"),
        "networks.placements_per_op": (
            sum(r["placements"] for r in records) / window_ops, "count"),
        "cli.import_ms": (_median([c["import_ns"] / 1e6 for c in children]), "ms"),
        "cli.numpy_import_ms": (_median([c["numpy_ns"] / 1e6 for c in children]), "ms"),
        "cli.main_ms": (_median([c["main_ns"] / 1e6 for c in children]), "ms"),
        "verify.run_all_ms": (verify_ms("verify.run_all"), "ms"),
    }
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}_ms"] = (verify_ms(f"verify.{suite}"), "ms")
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    metrics["trace.coverage_ratio"] = (layer_ns / wall_ns, "ratio")
    return metrics


def traced_run(workload, seed, seconds):
    """Alternate untraced and traced blocks of the seeded stream.

    A block is one cycle of the workload's op classes, so both sides get the
    same mix, and alternating them cancels the drift in machine speed that a
    first-half/second-half split would count as tracing overhead.
    """
    import tracing
    import workloads

    stream = workloads.STREAMS[workload](seed)
    block, window = TRACE_BLOCK[workload], TRACE_WINDOW[workload]
    plain, traced = Loop(workload), Loop(workload)
    tracer = None if workload == "cli-cold" else tracing.Tracer()
    start = time.perf_counter()
    while traced.attempted < window or time.perf_counter() - start < seconds:
        run_ops(plain, workload, itertools.islice(stream, block))
        if tracer is not None:
            tracer.install()
        try:
            run_ops(traced, workload, itertools.islice(stream, block), window, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    probe = None
    if workload != "cli-cold":
        _, probe = execute("cli-cold", workloads.CliOp(("verify",)), traced=True)
    metrics = layer_metrics(workload, traced, traced.ok_per_s() / plain.ok_per_s(), probe)
    samples = {name: len(traced.records) for name in metrics}
    return traced, metrics, samples


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(loop):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    qubits = loop.max_qubits
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "max_state_qubits": qubits,
        "max_state_bytes": 16 * 2 ** qubits if qubits else 0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cloneforge" / "__init__.py").is_file():
        print(f"perfbench: no cloneforge package under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))

    measure = traced_run if args.trace else end_to_end
    loop, metrics, samples = measure(args.workload, args.seed, args.seconds)
    failed = sum(loop.failures.values())
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {loop.attempted} ops, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} (n={samples[name]})")
    report = {
        "environment": environment(loop),
        "digest_sha256": loop.digest.hexdigest(),
        "digest_ops": min(DIGEST_OPS, loop.attempted),
        "error_rate": failed / loop.attempted,
        "failures": dict(loop.failures),
        "samples": samples,
    }
    if loop.small_angle is not None:
        report["small_angle_probe"] = loop.small_angle
        print(f"  small-angle probe (untimed, not in failed): "
              f"{loop.small_angle['failed']} of {loop.small_angle['ops']} ops failed")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
