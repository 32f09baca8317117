"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import itertools
import json
import sys
from collections import Counter

import pytest

import run
import tracing
import workloads


def take(stream, count):
    return list(itertools.islice(stream, count))


def op_class(op):
    if isinstance(op, workloads.CliOp):
        return tuple(arg for arg in op.args if arg.startswith("-") or arg.isalpha())
    return (op.m, op.n, op.mode, op.cnot)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_streams_are_deterministic_and_share_the_class_sequence(workload):
    stream = workloads.STREAMS[workload]
    first, again, other = take(stream(7), 200), take(stream(7), 200), take(stream(8), 200)
    assert first == again
    assert first != other
    assert [op_class(op) for op in first] == [op_class(op) for op in other]


def test_sweep_stream_is_stratified():
    rows = workloads.HYBRID_ROWS + 2
    ops = take(workloads.sweep_ops(3), 36 * rows)
    sweeps = ops[::rows]
    assert Counter((op.m, op.n) for op in sweeps) == {pair: 3 for pair in workloads.PAIRS}
    assert Counter((op.m, op.n) for op in sweeps if op.cnot) == {
        pair: 1 for pair in workloads.PAIRS}
    low, high = workloads.THETA_RANGE
    assert all(low <= op.theta <= high for op in ops)
    for start in range(0, len(ops), rows):
        sweep = ops[start:start + rows]
        assert [op.mode for op in sweep] == ["hybrid"] * workloads.HYBRID_ROWS + ["exact", "approx"]
        fracs = [op.frac for op in sweep[:workloads.HYBRID_ROWS]]
        assert fracs[0] == 0.0 and fracs[-1] == 1.0 and fracs == sorted(fracs)
        assert len({op.theta for op in sweep}) == 1


def test_small_angle_probe_covers_each_band_once():
    ops = workloads.small_angle_ops(3)
    rows = workloads.HYBRID_ROWS + 2
    assert ops == workloads.small_angle_ops(3) != workloads.small_angle_ops(4)
    assert len(ops) == rows * len(workloads.SMALL_ANGLE_BANDS)
    for sweep, (low, high) in zip(
            (ops[i:i + rows] for i in range(0, len(ops), rows)), workloads.SMALL_ANGLE_BANDS):
        assert len({op.theta for op in sweep}) == 1
        assert 10.0 ** low <= sweep[0].theta <= 10.0 ** high


def test_wide_register_stream_is_stratified():
    ops = take(workloads.wide_register_ops(3), 180)
    classes = Counter((op.mode, op.n, op.m) for op in ops)
    assert len(classes) == 45 and set(classes.values()) == {4}
    assert Counter((op.mode, op.n, op.m) for op in ops if op.cnot) == {c: 1 for c in classes}


def test_cli_stream_follows_the_command_cycle():
    ops = take(workloads.cli_ops(3), 2 * len(workloads.CLI_CYCLE))
    assert [op.args[0] for op in ops] == list(workloads.CLI_CYCLE) * 2
    assert Counter(workloads.CLI_CYCLE) == {
        "bounds": 5, "simulate": 5, "tradeoff": 3, "decompose": 3, "verify": 4}


def test_self_times_of_a_nested_span_tree():
    spans = [
        ("a", None, 0, 100),   # children b(30) and b(20)
        ("b", 0, 10, 40),      # child c(10)
        ("c", 1, 20, 30),
        ("b", 0, 50, 70),
        ("d", None, 110, 120),
    ]
    stats = tracing.self_times(spans)
    assert stats == {"a": [1, 50, 100], "b": [2, 40, 50], "c": [1, 10, 10], "d": [1, 10, 10]}
    top_level = sum(end - start for _, parent, start, end in spans if parent is None)
    assert sum(entry[1] for entry in stats.values()) == top_level


def test_check_flags_a_perturbed_in_process_value():
    op = next(workloads.wide_register_ops(0))
    op = workloads.CloneOp(op.theta, 1, 3, "hybrid", False, frac=0.5)
    outcome = workloads.run_clone_op(op)
    assert workloads.check_clone(op, outcome)[0] is None
    f_ref, p_ref, f_sim, p_sim = outcome[:4]
    bad = (f_ref, p_ref, f_sim + 1e-7, p_sim) + outcome[4:]
    assert workloads.check_clone(op, bad)[0] == "hybrid: deviation above 1e-08"
    assert workloads.check_clone(op, ValueError("p 0.5 outside [0.6, 1]"))[0] == (
        "hybrid: ValueError: p # outside [#, #]")


def test_check_flags_a_perturbed_cli_value():
    op = next(op for op in workloads.cli_ops(0) if op.args[0] == "bounds")
    record = workloads._round12(workloads._bounds_record(op.params))
    assert workloads.check_cli(op, (0, json.dumps(record).encode()))[0] is None
    record["f_max"] *= 1 + 1e-10
    assert workloads.check_cli(op, (0, json.dumps(record).encode()))[0] == (
        "bounds: output differs from the library")
    assert workloads.check_cli(op, (2, b""))[0] == "bounds: exit 2"
    verify = workloads.CliOp(("verify",))
    assert workloads.check_cli(verify, (0, b"ok  x\n10/10 suites passed\n"))[0] is None
    assert workloads.check_cli(verify, (0, b"FAIL  x\n9/10 suites passed\n"))[0] is not None


def _bindings():
    """Identity of every attribute and list entry of every cloneforge module."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "cloneforge" or name.startswith("cloneforge."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = id(value)
                if isinstance(value, list):
                    seen.update({(name, attr, i): id(item) for i, item in enumerate(value)})
    return seen


def test_untraced_run_installs_no_wrappers(monkeypatch):
    import cloneforge.verify  # noqa: F401  (so its suite list is covered)

    before = _bindings()

    def refuse(self):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    loop = run.closed_loop("sweep", 1, 0.0, 14)
    assert loop.attempted == 14 and loop.records == []
    assert _bindings() == before


def test_tracer_wraps_every_binding_and_restores_them():
    from cloneforge import gates, linalg, networks, verify

    before = _bindings()
    original = linalg.apply_gate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert networks.apply_gate is not original and linalg.apply_gate is not original
        assert networks.decompose_transfer is gates.decompose_transfer
        assert all(suite.__wrapped__ for suite in verify._SUITES)
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_traced_counts_repeat_for_a_seed():
    def counts():
        loop, tracer = run.Loop("sweep"), tracing.Tracer()
        tracer.install()
        try:
            run.run_ops(loop, "sweep", take(workloads.sweep_ops(5), 21), 21, tracer)
        finally:
            tracer.uninstall()
        metrics = run.layer_metrics("sweep", loop, 1.0, {
            "buckets": {}, "import_ns": 1, "numpy_ns": 1, "main_ns": 1})
        return {name: value for name, (value, unit) in metrics.items() if unit != "ms"
                and name not in ("linalg.apply_us_per_call", "trace.coverage_ratio")}

    first = counts()
    assert first["bounds.calls"] > 0 and first["linalg.apply_calls"] > 0
    assert first == counts()
