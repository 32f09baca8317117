"""End-to-end checks of the command-line interface.

Every command runs through Click's testing runner: record shapes, frozen
reference values, config-file merging, exit-code classes, and byte-level
determinism of the sweep output.  Reference numbers are the same frozen
oracle values used in tests/test_bounds.py and tests/test_networks.py.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from cloneforge import cli, gates, networks, verify

PI_8 = math.pi / 8

P12 = 0.5857864376269049
P13 = 0.4530818393219728
F12_EQUAL = 0.9829629131445341
F12_ETA07 = 0.9857290061313675
F_HYBRID_08 = 0.9933752598359651
HELSTROM_8 = 0.8535533905932737

CNOT_MATRIX = np.eye(4)[[1, 0, 2, 3]]

# JSON and CSV cells carry 12 significant digits.
CELL = pytest.approx


def run_cli(*args, env=None):
    return CliRunner().invoke(cli.main, [str(a) for a in args], env=env)


def record_of(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def csv_rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [row for row in reader if row]


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_record_values():
    record = record_of(run_cli("bounds", "--theta", PI_8))
    assert set(record) == {"f_max", "helstrom", "p_exact", "p_idp", "theta_m", "theta_n"}
    assert record["f_max"] == CELL(F12_EQUAL, abs=1e-11)
    assert record["helstrom"] == CELL(HELSTROM_8, abs=1e-11)
    assert record["p_exact"] == CELL(P12, abs=1e-11)
    assert record["p_idp"] == CELL(1.0 - math.cos(2 * PI_8), abs=1e-11)
    assert record["theta_m"] == CELL(PI_8, abs=1e-11)
    assert record["theta_n"] == CELL(math.pi / 6, abs=1e-11)


def test_bounds_near_quarter_turn_snaps():
    record = record_of(run_cli("bounds", "--theta", "0.7853981634"))
    assert record["theta_m"] == CELL(math.pi / 4, abs=1e-11)
    assert record["p_exact"] == 1.0
    assert record["f_max"] == 1.0


def test_bounds_certain_prior_is_trivial():
    record = record_of(run_cli("bounds", "--theta", PI_8, "--eta-plus", "1.0"))
    assert record["f_max"] == 1.0
    assert record["helstrom"] == 1.0


def test_bounds_with_p_s_adds_hybrid_fidelity():
    record = record_of(run_cli("bounds", "--theta", PI_8, "--p-s", "0.8"))
    assert record["f_hybrid"] == CELL(F_HYBRID_08, abs=1e-11)


def test_bounds_hybrid_rejects_unequal_priors():
    result = run_cli("bounds", "--theta", PI_8, "--eta-plus", "0.7", "--p-s", "0.8")
    assert result.exit_code == 2
    assert "equal priors" in result.output


def test_bounds_csv_format():
    result = run_cli("bounds", "--theta", PI_8, "--format", "csv")
    assert result.exit_code == 0
    assert "\r" not in result.output
    header, rows = csv_rows(result.output)
    assert header == ["f_max", "helstrom", "p_exact", "p_idp", "theta_m", "theta_n"]
    assert len(rows) == 1
    assert float(rows[0][2]) == CELL(P12, abs=1e-11)


def test_overlap_flag_matches_theta_flag():
    overlap = math.cos(2 * PI_8)
    via_overlap = run_cli("bounds", "--overlap", overlap)
    via_theta = run_cli("bounds", "--theta", 0.5 * math.acos(overlap))
    assert via_overlap.exit_code == 0
    assert via_overlap.output == via_theta.output


def test_degrees_flag_matches_radians():
    in_degrees = run_cli("bounds", "--theta", "22.5", "--degrees")
    in_radians = run_cli("bounds", "--theta", math.radians(22.5))
    assert in_degrees.exit_code == 0
    assert in_degrees.output == in_radians.output


@pytest.mark.parametrize("overlap", ["-0.5", "-1", "1.5", "nan"])
def test_overlap_outside_unit_interval_names_the_flag(overlap):
    result = run_cli("bounds", "--overlap", overlap)
    assert result.exit_code == 2
    assert f"--overlap must lie in [0, 1], got {float(overlap)}" in result.output


def test_overlap_edges_are_accepted():
    assert record_of(run_cli("bounds", "--overlap", "0"))["theta_m"] == CELL(math.pi / 4)
    # unit overlap is theta = 0: two identical states
    result = run_cli("bounds", "--overlap", "1")
    assert result.exit_code == 2
    assert "--overlap must be below 1: overlap 1 means identical states" in result.output


@pytest.mark.parametrize(
    "extra", [(), ("--p-s", "0.9"), ("--eta-plus", "0.7"), ("-m", "2", "-n", "5")],
    ids=["plain", "p-s", "eta-plus", "m2-n5"],
)
@pytest.mark.parametrize("theta", ["1e-200", "1e-170"])
def test_bounds_below_sin_squared_underflow(theta, extra):
    """sin(theta)**2 underflows to 0 below about 1e-162: p_exact is then M/N."""
    record = record_of(run_cli("bounds", "--theta", theta, *extra))
    m, n = (2, 5) if "-m" in extra else (1, 2)
    assert record["p_exact"] == CELL(m / n, abs=1e-12)


@pytest.mark.parametrize("theta", ["1e-200", "1e-9"])
def test_simulation_below_double_precision_names_theta(theta):
    """Where cos(2 theta)**M rounds to 1 the separating networks cannot be built.

    The approximate network only rotates and spreads qubit 0, so it runs at
    any theta: its clones are then perfect.
    """
    for args in (("simulate", "--mode", "exact"),
                 ("simulate", "--mode", "hybrid", "--p-s", "1"), ("tradeoff",),
                 ("tradeoff", "-m", "2", "-n", "4")):
        result = run_cli(*args, "--theta", theta)
        assert result.exit_code == 2, args
        assert f"--theta {float(theta)} is too small to simulate" in result.output, args
    record = record_of(run_cli("simulate", "--mode", "approx", "--theta", theta, "--strict"))
    assert record["fidelity"] == 1.0
    assert record["fidelity_deviation"] == record["success_deviation"] == 0.0


def test_unequal_prior_approx_runs_at_small_theta():
    """Unequal priors at a small angle: the clone stage is one rotation, exact to ~1e-16."""
    result = run_cli(
        "simulate", "--mode", "approx", "--theta", "1e-5", "--eta-plus", "0.8", "--strict"
    )
    assert result.exit_code == 0, result.output


def test_simulation_that_works_at_small_theta_still_runs():
    """The refusal covers only failures: approx cloning runs at theta = 1e-8."""
    assert run_cli("simulate", "--mode", "approx", "--theta", "1e-8").exit_code == 0
    assert "--theta" in run_cli("simulate", "--mode", "exact", "--theta", "1e-8").output


@pytest.mark.parametrize(
    "args, message",
    [
        (("--theta", "0.3", "-m", "0"), "--m must be at least 1, got 0"),
        (("--theta", "0.3", "--eta-plus", "1.5"), "--eta-plus must lie in [0, 1], got 1.5"),
        (("--theta", "0"), "--theta must lie in (0, pi/4], got 0.0"),
    ],
    ids=["m-zero", "eta-plus", "theta-zero"],
)
def test_rejected_problem_names_the_flag(args, message):
    for command in ("bounds", "simulate", "tradeoff"):
        result = run_cli(command, *args)
        assert result.exit_code == 2
        assert message in result.output


@pytest.mark.parametrize("p_s", ["1.5", "0.1", "nan"])
@pytest.mark.parametrize(
    "command", [("bounds",), ("simulate", "--mode", "hybrid")], ids=["bounds", "simulate"]
)
def test_p_s_outside_its_range_names_the_flag(command, p_s):
    result = run_cli(*command, "--theta", "0.3", "--p-s", p_s)
    assert result.exit_code == 2
    assert (
        f"--p-s must lie in [p_exact, 1] = [0.5478444576612735, 1], got {float(p_s)}"
        in result.output
    )


@pytest.mark.parametrize("command", [("bounds",), ("simulate",)])
def test_p_s_from_config_must_be_a_number(tmp_path, command):
    path = write_config(tmp_path, {"theta": 0.3, "mode": "hybrid", "p_s": "abc"})
    result = run_cli(*command, "--config", path)
    assert result.exit_code == 2
    assert "--p-s must be a number, got 'abc'" in result.output


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_p_s_flag_outside_hybrid_mode_names_the_flag_and_mode(tmp_path, mode):
    config = write_config(tmp_path, {"theta": 0.3, "mode": mode})
    for source in (("--theta", "0.3", "--mode", mode), ("--config", config)):
        for p_s in ("0.1", "nan", "0.8"):
            result = run_cli("simulate", *source, "--p-s", p_s)
            assert result.exit_code == 2, result.output
            assert f"--p-s applies to --mode hybrid only, got --mode {mode}" in result.output
    # one config may serve several commands: its p_s is read only where it applies
    config = write_config(tmp_path, {"theta": 0.3, "mode": mode, "p_s": 0.1})
    from_config = run_cli("simulate", "--config", config)
    assert from_config.exit_code == 0, from_config.output
    assert from_config.output == run_cli("simulate", "--theta", "0.3", "--mode", mode).output
    # a --mode hybrid flag over the same file takes --p-s as before
    hybrid = record_of(run_cli("simulate", "--config", config, "--mode", "hybrid", "--p-s", "0.8"))
    assert hybrid["p_s"] == 0.8


def test_theta_and_overlap_conflict():
    result = run_cli("bounds", "--theta", "0.3", "--overlap", "0.5")
    assert result.exit_code == 2
    assert "not both" in result.output


def test_missing_theta_is_a_config_error():
    result = run_cli("bounds")
    assert result.exit_code == 2
    assert "theta is required" in result.output


def test_bad_copy_counts_exit_2():
    result = run_cli("bounds", "--theta", "0.3", "--m", "2", "--n", "2")
    assert result.exit_code == 2


def test_seed_variable_is_inert():
    plain = run_cli("bounds", "--theta", PI_8)
    seeded = run_cli("bounds", "--theta", PI_8, env={"CLONEFORGE_SEED": "7"})
    assert plain.output == seeded.output


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_supplies_problem_and_flags_override(tmp_path):
    path = write_config(tmp_path, {"theta": PI_8, "n": 3, "mode": "exact"})
    from_config = record_of(run_cli("simulate", "--config", path))
    assert from_config["success_probability"] == CELL(P13, abs=1e-11)
    overridden = record_of(run_cli("simulate", "--config", path, "--n", "2"))
    assert overridden["success_probability"] == CELL(P12, abs=1e-11)


@pytest.mark.parametrize(
    "config, args, message",
    [
        ({"output_path": 5}, (), "--output must be a file path, got 5"),
        ({"output_format": "xml"}, (), "--format must be one of ('json', 'csv'), got 'xml'"),
        ({"m": 1.7, "n": 3.9}, (), "--m must be an integer, got 1.7"),
        ({"n": True}, (), "--n must be an integer, got True"),
        ({"n": math.inf}, (), "--n must be an integer, got inf"),
        ({"eta_plus": True}, (), "--eta-plus must be a number, got True"),
        ({"p_s": True}, (), "--p-s must be a number, got True"),
        ({"theta": "abc"}, (), "--theta must be a number, got 'abc'"),
        ({"m": "x"}, (), "--m must be an integer, got 'x'"),
        ({"sweep": {"steps": "x"}}, (), "--steps must be an integer, got 'x'"),
        ({"sweep": {"start": False}}, (), "--start must be a number, got False"),
        ({}, ("-m", "2", "-n", "2"), "--n must exceed --m, got n = 2, m = 2"),
    ],
    ids=[
        "output-path", "format", "fractional-m", "bool-n", "infinite-n", "bool-eta-plus", "bool-p-s",
        "theta-string", "m-string", "steps-string", "bool-start", "n-not-above-m",
    ],
)
def test_config_values_are_typed_and_name_their_flag(tmp_path, config, args, message):
    path = write_config(tmp_path, {"theta": 0.3, **config})
    for command in ("bounds", "simulate", "tradeoff"):
        result = run_cli(command, "--config", path, *args)
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"Error: {message}\n" in result.output


def test_unwritable_output_names_the_flag(tmp_path):
    target = str(tmp_path / "missing" / "report.json")
    config = write_config(tmp_path, {"output_path": target})
    for source in (("--output", target), ("--config", config)):
        result = run_cli("bounds", "--theta", "0.3", *source)
        assert result.exit_code == 2, result.output
        assert "Error: --output cannot be written:" in result.output


def _flags_for(config):
    """The command-line flags that say what ``config`` says."""
    flags = {"m": "--m", "n": "--n", "eta_plus": "--eta-plus", "mode": "--mode", "p_s": "--p-s",
             "output_format": "--format", "start": "--start", "stop": "--stop", "steps": "--steps"}
    args = ["--theta", repr(config["theta"])]
    for key, value in {**config, **config.get("sweep", {})}.items():
        if key in flags:
            args += [flags[key], repr(value) if isinstance(value, float) else str(value)]
    return args


@pytest.mark.parametrize(
    "command, config",
    [
        ("bounds", {"theta": 0.3, "m": 2, "n": 5, "eta_plus": 0.7}),
        ("bounds", {"theta": 0.35, "n": 4, "p_s": 0.9, "output_format": "csv"}),
        ("simulate", {"theta": 0.3, "n": 3, "mode": "exact"}),
        ("simulate", {"theta": 0.2, "m": 2, "n": 4, "mode": "approx", "eta_plus": 0.7,
                      "output_format": "csv"}),
        ("simulate", {"theta": 0.3, "mode": "hybrid", "p_s": 0.8}),
        ("tradeoff", {"theta": 0.3, "n": 3,
                      "sweep": {"param": "p_s", "start": 0.6, "stop": 0.9, "steps": 4}}),
        ("tradeoff", {"theta": 0.25, "sweep": {"steps": 3}, "output_format": "json"}),
    ],
    ids=["bounds", "bounds-hybrid-csv", "exact", "approx-csv", "hybrid", "tradeoff",
         "tradeoff-json"],
)
def test_config_and_flags_print_the_same_bytes(tmp_path, command, config):
    from_config = run_cli(command, "--config", write_config(tmp_path, config))
    from_flags = run_cli(command, *_flags_for(config))
    assert from_config.exit_code == 0, from_config.output
    assert from_config.stdout_bytes == from_flags.stdout_bytes
    via_config = tmp_path / "config.out"
    via_flag = tmp_path / "flag.out"
    path = write_config(tmp_path, {**config, "output_path": str(via_config)}, name="out.json")
    assert run_cli(command, "--config", path).output == ""
    assert run_cli(command, *_flags_for(config), "--output", via_flag).output == ""
    assert via_config.read_bytes() == via_flag.read_bytes() == from_flags.stdout_bytes


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"theta": 0.3, "bananas": 1})
    result = run_cli("bounds", "--config", path)
    assert result.exit_code == 2
    assert "unknown config key" in result.output


def test_config_rejects_unknown_sweep_keys(tmp_path):
    path = write_config(tmp_path, {"theta": 0.3, "sweep": {"param": "p_s", "bananas": 1}})
    result = run_cli("bounds", "--config", path)
    assert result.exit_code == 2
    assert "unknown sweep key" in result.output


def test_config_must_hold_an_object(tmp_path):
    path = write_config(tmp_path, [1, 2, 3])
    result = run_cli("bounds", "--config", path)
    assert result.exit_code == 2


def test_config_must_parse(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = run_cli("bounds", "--config", str(path))
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_KEYS = {
    "mode",
    "theta",
    "m",
    "n",
    "eta_plus",
    "plus",
    "minus",
    "fidelity",
    "success_probability",
    "fidelity_bound",
    "success_bound",
    "fidelity_deviation",
    "success_deviation",
}


def test_simulate_exact_record():
    record = record_of(run_cli("simulate", "--theta", PI_8, "--n", "3", "--mode", "exact"))
    assert set(record) == SIM_KEYS
    assert record["mode"] == "exact"
    assert record["success_probability"] == CELL(P13, abs=1e-11)
    assert record["success_bound"] == CELL(P13, abs=1e-11)
    assert record["fidelity"] == CELL(1.0, abs=1e-10)
    assert record["fidelity_bound"] == 1.0
    assert record["plus"]["fidelity"] == CELL(1.0, abs=1e-10)
    assert record["minus"]["success_probability"] == CELL(P13, abs=1e-11)
    assert abs(record["fidelity_deviation"]) < 1e-10
    assert abs(record["success_deviation"]) < 1e-10


def test_simulate_approx_record():
    record = record_of(
        run_cli("simulate", "--theta", PI_8, "--mode", "approx", "--eta-plus", "0.7")
    )
    assert record["success_probability"] == 1.0
    assert record["fidelity"] == CELL(F12_ETA07, abs=1e-11)
    assert record["fidelity_bound"] == CELL(F12_ETA07, abs=1e-11)
    assert "p_s" not in record


def test_simulate_hybrid_record():
    record = record_of(
        run_cli("simulate", "--theta", PI_8, "--mode", "hybrid", "--p-s", "0.8")
    )
    assert record["p_s"] == 0.8
    assert record["success_probability"] == CELL(0.8, abs=1e-10)
    assert record["fidelity"] == CELL(F_HYBRID_08, abs=1e-9)
    assert record["fidelity_bound"] == CELL(F_HYBRID_08, abs=1e-11)


def test_simulate_hybrid_needs_p_s():
    result = run_cli("simulate", "--theta", PI_8, "--mode", "hybrid")
    assert result.exit_code == 2
    assert "p_s" in result.output


def test_simulate_hybrid_rejects_unequal_priors():
    result = run_cli(
        "simulate", "--theta", PI_8, "--mode", "hybrid", "--p-s", "0.8",
        "--eta-plus", "0.6",
    )
    assert result.exit_code == 2
    assert "equal priors" in result.output


def test_simulate_mode_is_required():
    result = run_cli("simulate", "--theta", PI_8)
    assert result.exit_code == 2
    assert "mode is required" in result.output


def test_simulate_rejects_unknown_mode_from_config(tmp_path):
    path = write_config(tmp_path, {"theta": PI_8, "mode": "banana"})
    result = run_cli("simulate", "--config", path)
    assert result.exit_code == 2
    assert "mode must be one of" in result.output


def test_simulate_decomposed_gates_match_direct_run():
    direct = record_of(run_cli("simulate", "--theta", PI_8, "--n", "3", "--mode", "exact"))
    rebuilt = record_of(
        run_cli(
            "simulate", "--theta", PI_8, "--n", "3", "--mode", "exact",
            "--decompose-gates",
        )
    )
    assert rebuilt["fidelity"] == CELL(direct["fidelity"], abs=1e-9)
    assert rebuilt["success_probability"] == CELL(direct["success_probability"], abs=1e-9)


def test_simulate_strict_passes_within_tolerance():
    result = run_cli("simulate", "--theta", PI_8, "--mode", "exact", "--strict")
    assert result.exit_code == 0


def test_simulate_strict_exit_code(monkeypatch):
    monkeypatch.setattr(cli, "STRICT_TOL", -1.0)
    result = run_cli("simulate", "--theta", PI_8, "--mode", "exact", "--strict")
    assert result.exit_code == 3
    # The record is still emitted before the failure is raised.
    record = json.loads(result.output.split("Error:")[0])
    assert record["mode"] == "exact"
    assert "strict tolerance" in result.output


def test_simulate_csv_flattens_nested_keys():
    result = run_cli(
        "simulate", "--theta", PI_8, "--mode", "exact", "--format", "csv"
    )
    assert result.exit_code == 0
    header, rows = csv_rows(result.output)
    assert "plus_success_probability" in header
    assert "minus_fidelity" in header
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert float(row["success_probability"]) == CELL(P12, abs=1e-11)


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------

TRADEOFF_HEADER = ["p_s", "f_bound", "f_simulated", "p_success_simulated", "abs_deviation"]


def test_tradeoff_default_sweep():
    result = run_cli("tradeoff", "--theta", PI_8)
    assert result.exit_code == 0
    assert "\r" not in result.output
    header, rows = csv_rows(result.output)
    assert header == TRADEOFF_HEADER
    assert len(rows) == 11
    assert float(rows[0][0]) == CELL(P12, abs=1e-11)
    assert float(rows[0][1]) == CELL(1.0, abs=1e-11)
    assert float(rows[-1][0]) == 1.0
    assert float(rows[-1][1]) == CELL(F12_EQUAL, abs=1e-11)
    for row in rows:
        assert float(row[4]) < 1e-9


def test_tradeoff_output_is_byte_deterministic():
    first = run_cli("tradeoff", "--theta", PI_8)
    second = run_cli("tradeoff", "--theta", PI_8)
    assert first.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes


def test_tradeoff_explicit_window():
    result = run_cli(
        "tradeoff", "--theta", PI_8, "--start", "0.7", "--stop", "0.9", "--steps", "3"
    )
    header, rows = csv_rows(result.output)
    assert [float(row[0]) for row in rows] == CELL([0.7, 0.8, 0.9], abs=1e-11)
    assert float(rows[1][1]) == CELL(F_HYBRID_08, abs=1e-11)


def test_tradeoff_json_format():
    result = run_cli("tradeoff", "--theta", PI_8, "--steps", "2", "--format", "json")
    points = json.loads(result.output)
    assert [set(point) for point in points] == [set(TRADEOFF_HEADER)] * 2
    assert points[-1]["p_s"] == 1.0


def test_tradeoff_sweep_config_and_flag_override(tmp_path):
    path = write_config(
        tmp_path,
        {"theta": PI_8, "sweep": {"param": "p_s", "start": 0.7, "stop": 0.9, "steps": 3}},
    )
    configured = run_cli("tradeoff", "--config", path)
    _, rows = csv_rows(configured.output)
    assert [float(row[0]) for row in rows] == CELL([0.7, 0.8, 0.9], abs=1e-11)
    overridden = run_cli("tradeoff", "--config", path, "--steps", "2")
    _, rows = csv_rows(overridden.output)
    assert [float(row[0]) for row in rows] == CELL([0.7, 0.9], abs=1e-11)


@pytest.mark.parametrize(
    "args, message",
    [
        (("--steps", "1"), "--steps must be at least 2, got 1"),
        (("--start", "0.1"), "--start and --stop must satisfy"),
        (("--start", "0.9", "--stop", "0.8"), "got --start 0.9, --stop 0.8"),
        (("--eta-plus", "0.7"), "equal priors"),
    ],
)
def test_tradeoff_rejects_bad_requests(args, message):
    result = run_cli("tradeoff", "--theta", PI_8, *args)
    assert result.exit_code == 2
    assert message in result.output


def test_tradeoff_only_sweeps_p_s(tmp_path):
    path = write_config(tmp_path, {"theta": PI_8, "sweep": {"param": "theta"}})
    result = run_cli("tradeoff", "--config", path)
    assert result.exit_code == 2
    assert "only p_s sweeps" in result.output


# ---------------------------------------------------------------------------
# resource guards
# ---------------------------------------------------------------------------


@pytest.fixture
def no_simulation(monkeypatch):
    """Make any attempt to build or run a network fail the command."""

    def refuse(*args, **kwargs):
        raise AssertionError("a network was simulated")

    monkeypatch.setattr(networks, "evaluate_cloner", refuse)


SIZED_COMMANDS = [("simulate", "--mode", "approx"), ("tradeoff",)]


@pytest.mark.parametrize("command", SIZED_COMMANDS)
def test_oversized_register_rejected_before_any_state(no_simulation, tmp_path, command):
    too_many = cli.MAX_SIMULATED_COPIES + 1
    for source in (("-n", too_many), ("--config", write_config(tmp_path, {"n": too_many}))):
        result = run_cli(*command, "--theta", 0.3, *source)
        assert result.exit_code == 2, result.output
        assert "--n must be at most 20" in result.output
    # at the cap the request passes the guard and reaches the simulation
    result = run_cli(*command, "--theta", 0.3, "-n", cli.MAX_SIMULATED_COPIES)
    assert isinstance(result.exception, AssertionError)


def test_oversized_sweep_rejected_before_any_state(no_simulation, tmp_path):
    too_many = cli.MAX_SWEEP_STEPS + 1
    config = write_config(tmp_path, {"sweep": {"steps": too_many}})
    for source in (("--steps", too_many), ("--config", config)):
        result = run_cli("tradeoff", "--theta", 0.3, *source)
        assert result.exit_code == 2, result.output
        assert "--steps must be at most 10001" in result.output
    result = run_cli("tradeoff", "--theta", 0.3, "--steps", cli.MAX_SWEEP_STEPS)
    assert isinstance(result.exception, AssertionError)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def rebuild_circuit(record):
    """Multiply the emitted placements back together, oldest first."""
    total = np.eye(4, dtype=complex)
    for entry in record["placements"]:
        if entry["gate"] == "CNOT":
            assert entry["control_active"] == "plus"
            local = CNOT_MATRIX
        else:
            local = np.array(
                [[complex(re, im) for re, im in row] for row in entry["matrix"]]
            )
        total = oracles.embed(local, tuple(entry["qubits"]), 2) @ total
    return total


def test_decompose_transfer_record_shape():
    record = record_of(run_cli("decompose", "--gate", "transfer", "--theta1", "0.2", "--theta2", "0.5"))
    assert record["gate"] == "transfer"
    assert record["angles"] == [0.2, 0.5]
    assert record["cnot_count"] == 4
    assert len(record["placements"]) == 7
    assert [p["gate"] for p in record["placements"]] == [
        "CNOT", "LU", "CNOT", "LU", "CNOT", "LU", "CNOT",
    ]
    assert record["placements"][0]["qubits"] == [0, 1]
    assert record["placements"][2]["qubits"] == [1, 0]
    assert record["max_abs_error"] < 1e-10


@pytest.mark.parametrize(
    "theta1, theta2",
    [(0.2, 0.5), (PI_8, PI_8), (0.0, 0.0)],
    ids=["generic", "equal", "degenerate"],
)
def test_decompose_transfer_round_trips(theta1, theta2):
    record = record_of(
        run_cli("decompose", "--gate", "transfer", "--theta1", theta1, "--theta2", theta2)
    )
    target = np.array(gates.transfer_gate(theta1, theta2).entries)
    assert np.max(np.abs(rebuild_circuit(record) - target)) < 1e-10


def test_decompose_degenerate_transfer_is_shorter():
    record = record_of(run_cli("decompose", "--gate", "transfer", "--theta1", "0", "--theta2", "0"))
    assert record["cnot_count"] == 3
    assert len(record["placements"]) == 5


@pytest.mark.parametrize("theta1, theta2", [(0.2, 0.5), (PI_8, math.pi / 6)])
def test_decompose_separation_round_trips(theta1, theta2):
    record = record_of(
        run_cli("decompose", "--gate", "separation", "--theta1", theta1, "--theta2", theta2)
    )
    assert record["cnot_count"] == 1
    assert len(record["placements"]) == 3
    assert record["placements"][1]["qubits"] == [1, 0]
    target = np.array(gates.separation_gate(theta1, theta2).entries)
    assert np.max(np.abs(rebuild_circuit(record) - target)) < 1e-10


def test_decompose_degrees_flag():
    in_degrees = run_cli(
        "decompose", "--gate", "separation", "--theta1", "22.5", "--theta2", "30", "--degrees"
    )
    in_radians = run_cli(
        "decompose", "--gate", "separation",
        "--theta1", math.radians(22.5), "--theta2", math.radians(30.0),
    )
    assert in_degrees.exit_code == 0
    assert in_degrees.output == in_radians.output


def test_decompose_snaps_near_quarter_turn():
    record = record_of(
        run_cli("decompose", "--gate", "transfer", "--theta1", "0.7853981634", "--theta2", "0.2")
    )
    assert record["angles"][0] == CELL(math.pi / 4, abs=1e-11)


def test_decompose_rejects_widening_separation():
    result = run_cli("decompose", "--gate", "separation", "--theta1", "0.5", "--theta2", "0.2")
    assert result.exit_code == 2
    assert "--theta1 must not exceed --theta2: the separation gate widens the pair" in result.output


@pytest.mark.parametrize(
    "theta1, theta2, flag, value",
    [("1", "0.2", "--theta1", 1.0), ("0.2", "-0.1", "--theta2", -0.1), ("nan", "0.2", "--theta1", "nan")],
    ids=["above", "below", "nan"],
)
def test_decompose_transfer_outside_quarter_turn_names_the_flag(theta1, theta2, flag, value):
    result = run_cli("decompose", "--gate", "transfer", "--theta1", theta1, "--theta2", theta2)
    assert result.exit_code == 2
    assert f"{flag} must lie in [0, pi/4] for the transfer gate, got {value}" in result.output


def test_decompose_separation_from_zero_names_the_flag():
    result = run_cli("decompose", "--gate", "separation", "--theta1", "0", "--theta2", "0.2")
    assert result.exit_code == 2
    assert "--theta1 must lie in (0, pi/4] for the separation gate, got 0.0" in result.output


@pytest.mark.parametrize("theta1", ["1e-9", "2e-8", "1e-300"])
def test_decompose_separation_to_a_tiny_angle_names_theta2(theta1):
    """Where cos(2 theta2) is within UNIT_OVERLAP_TOL of 1 the gate is undefined.

    Both angles lie in (0, pi/4] with theta1 <= theta2, so the refusal names
    --theta2 rather than the library's unit-overlap message.  At 3e-8 the
    output overlap is far enough from 1 and the circuit is emitted.
    """
    result = run_cli("decompose", "--gate", "separation", "--theta1", theta1, "--theta2", "2e-8")
    assert result.exit_code == 2
    assert result.output == (
        "Error: --theta2 2e-08 is too small to separate to: "
        "the output overlap cos(2 theta2) is within 1e-15 of 1\n"
    )
    record = record_of(
        run_cli("decompose", "--gate", "separation", "--theta1", theta1, "--theta2", "3e-8")
    )
    assert record["cnot_count"] == 1 and record["max_abs_error"] < 1e-10


# ---------------------------------------------------------------------------
# verify and plumbing
# ---------------------------------------------------------------------------


#: the full ``cloneforge verify`` report; the suites' defaults are its grids
VERIFY_STDOUT = """\
ok    gate-algebra         max|err| 3.169e-16  (tol 1e-12)  8x8 grid
ok    decompositions       max|err| 3.331e-16  (tol 1e-10)  CNOT counts (4, 4, 4, 3, 1, 1, 1)
ok    exact-networks       max|err| 8.882e-16  (tol 1e-10)  16 cases
ok    approx-networks      max|err| 4.441e-16  (tol 1e-10)  12 cases
ok    brute-force          max|err| 2.220e-16  (tol 1e-06)  6 cases
ok    hybrid-networks      max|err| 2.220e-16  (tol 1e-10)  12 cases; success dev 2.220e-16, fidelity dev 5.551e-16
ok    asymptotics          max|err| 1.054e-08  (tol 1e-06)  Helstrom gap 1.054e-08 (N=50), limit gap 1.110e-16 (N=40)
ok    d-cloner             max|err| 1.110e-16  (tol 1e-12)
ok    decomposed-networks  max|err| 6.661e-16  (tol 1e-09)  3 cases
ok    cli-determinism      max|err| 0.000e+00  (tol 0)  2 commands
10/10 suites passed
"""


def test_verify_passes():
    result = run_cli("verify")
    assert result.exit_code == 0
    assert result.output == VERIFY_STDOUT


def test_verify_suites_are_the_public_checks_in_order():
    """`perfbench/tracing.py` wraps every public ``check_*`` function and
    swaps its `_SUITES` entry by identity; `run_all` calls each with no
    arguments."""
    public = [
        value
        for name, value in vars(verify).items()
        if name.startswith("check_")
        and inspect.isfunction(value)
        and value.__module__ == verify.__name__
    ]
    assert verify._SUITES == public
    for suite in verify._SUITES:
        params = inspect.signature(suite).parameters.values()
        assert all(p.default is not inspect.Parameter.empty for p in params), suite


def test_verify_reports_failures(monkeypatch):
    monkeypatch.setitem(verify.TOLERANCES, "gate_algebra", -1.0)
    result = run_cli("verify")
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "9/10 suites passed" in result.output


def test_output_file_matches_stdout(tmp_path):
    target = tmp_path / "report.json"
    to_file = run_cli("bounds", "--theta", PI_8, "--output", str(target))
    assert to_file.exit_code == 0
    assert to_file.output == ""
    on_stdout = run_cli("bounds", "--theta", PI_8)
    assert target.read_text() == on_stdout.output


def test_help_lists_all_commands():
    result = run_cli("--help")
    assert result.exit_code == 0
    for name in ("bounds", "simulate", "tradeoff", "decompose", "verify"):
        assert name in result.output
    assert run_cli("-h").exit_code == 0


# ---------------------------------------------------------------------------
# frozen output of the pure-Python surface
# ---------------------------------------------------------------------------

#: stdout, stderr and exit code of ``bounds`` requests (accepted and rejected),
#: of every ``--help``, of ``decompose``, of ``simulate`` runs and refusals and
#: of ``tradeoff`` runs and refusals
GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["args"]))
def test_output_matches_frozen_bytes(case):
    result = CliRunner().invoke(
        cli.main, case["args"], prog_name="cloneforge", env={"COLUMNS": "80"}
    )
    assert (result.exit_code, result.stdout, result.stderr) == (
        case["exit_code"],
        case["stdout"],
        case["stderr"],
    )


# ---------------------------------------------------------------------------
# the same bytes at any BLAS thread count
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

#: at N = 14 and 16 OpenBLAS splits a dot product's sum across threads (at
#: N = 12 it does not), so a fidelity taken by one would change its last bits
THREAD_CASES = [
    ("simulate", "--theta", "0.3", "-m", "1", "-n", "16", "--mode", "exact", "--decompose-gates"),
    ("simulate", "--theta", "0.2", "-m", "2", "-n", "12", "--mode", "approx", "--eta-plus", "0.7"),
    ("tradeoff", "--theta", "0.3", "-m", "1", "-n", "14"),
]


def stdout_at_blas_threads(threads, args):
    """stdout of ``cloneforge ARGS`` in a fresh process with ``threads`` BLAS threads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "cloneforge.cli", *args],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("args", THREAD_CASES, ids=lambda args: " ".join(args[:1] + args[-2:]))
def test_output_is_the_same_at_one_and_two_blas_threads(args):
    assert stdout_at_blas_threads(1, args) == stdout_at_blas_threads(2, args)
