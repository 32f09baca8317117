import importlib.util
import math
from pathlib import Path

import pytest

from cloneforge import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tradeoff_curve(monkeypatch):
    """The trade-off script with its simulation replaced by a failure."""
    module = load_script("tradeoff_curve")

    def refuse(*args, **kwargs):
        raise AssertionError("a network was simulated")

    monkeypatch.setattr(module, "evaluate_cloner", refuse)
    return module


@pytest.mark.parametrize(
    "args, message",
    [
        (["--steps", "1"], "--steps must lie in 2..10001, got 1"),
        (["--steps", str(cli.MAX_SWEEP_STEPS + 1)], "--steps must lie in 2..10001"),
        (["--m", "0"], "--m must be at least 1, got 0"),
        (["--m", "3", "--n", "2"], "--n must lie in 4..20 (above --m), got 2"),
        (["--m", "2", "--n", "2"], "--n must lie in 3..20"),
        (["--n", str(cli.MAX_SIMULATED_COPIES + 1)], "--n must lie in 2..20"),
        (["--theta", "0"], "--theta must lie in (0, pi/4], got 0.0"),
        (["--theta", "0.3", "-0.1"], "--theta must lie in (0, pi/4], got -0.1"),
        (["--theta", "0.7854"], "--theta must lie in (0, pi/4], got 0.7854"),
        (["--theta", "nan"], "--theta must lie in (0, pi/4], got nan"),
    ],
)
def test_tradeoff_curve_rejects_bad_flags(tradeoff_curve, capsys, args, message):
    with pytest.raises(SystemExit) as exit_info:
        tradeoff_curve.main(args)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_tradeoff_curve_accepts_the_edges_of_its_domain(tradeoff_curve):
    # the largest register and a quarter-turn angle pass the checks and
    # reach the simulation
    with pytest.raises(AssertionError, match="simulated"):
        tradeoff_curve.main(
            ["--theta", repr(math.pi / 4), "--n", str(cli.MAX_SIMULATED_COPIES), "--steps", "2"]
        )


def test_tradeoff_curve_table(capsys):
    assert load_script("tradeoff_curve").main(["--theta", "0.3", "--steps", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2
    # p_s runs from the exact-cloning probability to 1
    assert rows[-1].split()[3] == "1.000000"


@pytest.fixture
def decomposition_report(monkeypatch):
    """The decomposition report with its grid census replaced by a failure."""
    module = load_script("decomposition_report")

    def refuse(grid_points):
        raise AssertionError(f"a {grid_points}-point census ran")

    monkeypatch.setattr(module, "census", refuse)
    return module


@pytest.mark.parametrize(
    "args, message",
    [
        (["--grid", "-3"], "--grid must lie in 1..400, got -3"),
        (["--grid", "0"], "--grid must lie in 1..400, got 0"),
        (["--grid", "401"], "--grid must lie in 1..400, got 401"),
        (["--theta1", "1.0"], "--theta1 must lie in (0, pi/4], got 1.0"),
        (["--theta1", "nan"], "--theta1 must lie in (0, pi/4], got nan"),
        (["--theta1", "0"], "--theta1 must lie in (0, pi/4], got 0.0"),
        (["--theta2", "-0.2"], "--theta2 must lie in (0, pi/4], got -0.2"),
        (["--theta2", "0.7854"], "--theta2 must lie in (0, pi/4], got 0.7854"),
    ],
)
def test_decomposition_report_rejects_bad_flags(decomposition_report, capsys, args, message):
    with pytest.raises(SystemExit) as exit_info:
        decomposition_report.main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    # nothing is decomposed before the flags are checked
    assert captured.out == ""


def test_decomposition_report_accepts_the_edges_of_its_domain(decomposition_report):
    quarter = repr(math.pi / 4)
    with pytest.raises(AssertionError, match="400-point census"):
        decomposition_report.main(
            ["--theta1", quarter, "--theta2", quarter, "--grid", str(decomposition_report.MAX_GRID)]
        )


def test_decomposition_report_census(capsys):
    assert load_script("decomposition_report").main(["--grid", "2"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("census over a 2 x 2 angle grid")
    assert "CNOT counts [1, 4]" in last
