"""Command-line front end: bounds, simulations, sweeps, decompositions.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 strict-mode deviation.  Numeric output is fixed at 12 significant digits
and CSV uses LF line endings, so identical invocations are byte-identical.

``bounds``, ``simulate`` and ``tradeoff`` share one request path,
`_request`: defaults, then the ``--config`` file, then explicit flags are
merged over the one key table `_KEYS`; each value is coerced once, and a
value that cannot be names its flag.  The commands then check only what
they alone read (the mode, ``--p-s``, the sweep window).

The environment variable CLONEFORGE_SEED is reserved but inert: nothing in
the package samples randomness (probabilities come from exact projection).

Only the closed forms (``bounds``) are imported at module level, and they
need only the standard library: ``cloneforge bounds`` and every ``--help``
run without loading numpy.  The commands that simulate, decompose or verify
import ``networks``, ``gates`` and ``verify`` when they run.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

import click

from . import bounds

#: largest tolerated |simulated - bound| before --strict exits with code 3
STRICT_TOL = 1e-8
#: most output copies ``simulate`` and ``tradeoff`` accept: the largest
#: simulated state spans the N output qubits, 2**20 float64 amplitudes (8 MiB) at N = 20
MAX_SIMULATED_COPIES = 20
#: most points of one ``tradeoff`` sweep
MAX_SWEEP_STEPS = 10_001


class ConfigError(click.ClickException):
    """Invalid configuration; exits with code 2."""

    exit_code = 2


class StrictDeviationError(click.ClickException):
    """Simulation strayed from its bound in --strict mode; exits with code 3."""

    exit_code = 3


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".12g")


def _jsonable(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    return obj


def _json_text(record) -> str:
    return json.dumps(_jsonable(record), indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _csv_text(header, rows) -> str:
    lines = [header] + [[_cell(value) for value in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _flatten(record, prefix=""):
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}_"))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _emit(text: str, output_path: Optional[str]) -> None:
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--output cannot be written: {exc}") from exc
    else:
        click.echo(text, nl=False)


def _emit_record(record, output_format: Optional[str], output_path: Optional[str]) -> None:
    if (output_format or "json") == "csv":
        flat = _flatten(record)
        text = _csv_text(list(flat), [list(flat.values())])
    else:
        text = _json_text(record)
    _emit(text, output_path)


def _number(flag: str, value) -> float:
    """A number, or a string that reads as one; never a bool."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{flag} must be a number, got {value!r}")


def _integer(flag: str, value) -> int:
    """An integer, an integral float, or a string that reads as an integer; never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{flag} must be an integer, got {value!r}")


def _one_of(*choices):
    def coerce(flag: str, value):
        if value not in choices:
            raise ConfigError(f"{flag} must be one of {choices}, got {value!r}")
        return value

    return coerce


def _path(flag: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{flag} must be a file path, got {value!r}")
    return value


#: every config key: key -> (the flag that overrides it, default, coercion).
#: A null config value is taken as the key left out, where the default is None.
_KEYS = {
    "theta": ("--theta", None, _number),
    "m": ("--m", 1, _integer),
    "n": ("--n", 2, _integer),
    "eta_plus": ("--eta-plus", 0.5, _number),
    "mode": ("--mode", None, _one_of(*bounds.MODES)),
    "p_s": ("--p-s", None, _number),
    "output_format": ("--format", None, _one_of("json", "csv")),
    "output_path": ("--output", None, _path),
}
#: the keys of the config's "sweep" object besides "param"; ``tradeoff`` has their flags
_SWEEP_KEYS = {
    "start": ("--start", None, _number),
    "stop": ("--stop", 1.0, _number),
    "steps": ("--steps", 11, _integer),
}


def _load_config(path: Optional[str]):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(_KEYS) - {"sweep"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    sweep = data.pop("sweep", None)
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("config sweep must be an object")
        bad = sorted(set(sweep) - set(_SWEEP_KEYS) - {"param"})
        if bad:
            raise ConfigError(f"unknown sweep key(s): {', '.join(bad)}")
        param = sweep.pop("param", "p_s")
        if param != "p_s":
            raise ConfigError(f"only p_s sweeps are supported, got {param!r}")
        data.update(sweep)
    return data


#: slack for snapping decimal-truncated angles onto the pi/4 boundary
_ANGLE_SNAP = 1e-9


def _snap_angle(value: float) -> float:
    """Round an angle onto pi/4 when it misses only by decimal truncation."""
    return math.pi / 4.0 if abs(value - math.pi / 4.0) <= _ANGLE_SNAP else value


def _cli_theta(theta: Optional[float], overlap: Optional[float], degrees: bool):
    """Collapse the --theta/--overlap/--degrees flags into radians (or None)."""
    if theta is not None and overlap is not None:
        raise ConfigError("give either --theta or --overlap, not both")
    if overlap is not None:
        if not 0.0 <= overlap <= 1.0:
            raise ConfigError(f"--overlap must lie in [0, 1], got {overlap}")
        if overlap == 1.0:
            raise ConfigError("--overlap must be below 1: overlap 1 means identical states")
        return 0.5 * math.acos(overlap)
    if theta is None:
        return None
    return math.radians(theta) if degrees else theta


def _request(opts):
    """The merged, coerced request and its problem, from a command's options.

    Defaults, overlaid by the config file, overlaid by the flags that were
    given; every value is coerced once and the problem is checked against
    the flags before the library sees it.
    """
    keys = {**_KEYS, **_SWEEP_KEYS}
    flags = dict(opts, theta=_cli_theta(opts["theta"], opts["overlap"], opts["degrees"]))
    cfg = {key: default for key, (_, default, _) in keys.items()}
    cfg.update(_load_config(opts["config_path"]))
    cfg.update((key, flags[key]) for key in keys if flags.get(key) is not None)
    if cfg["theta"] is None:
        raise ConfigError("theta is required: give --theta, --overlap, or a config file")
    for key, (flag, default, coerce) in keys.items():
        if cfg[key] is not None or default is not None:
            cfg[key] = coerce(flag, cfg[key])
    theta, m_copies, n_copies = _snap_angle(cfg["theta"]), cfg["m"], cfg["n"]
    # the problem's own checks would name its fields, not the flags
    if not 0.0 < theta <= math.pi / 4.0:
        raise ConfigError(f"--theta must lie in (0, pi/4], got {theta}")
    if m_copies < 1:
        raise ConfigError(f"--m must be at least 1, got {m_copies}")
    if n_copies <= m_copies:
        raise ConfigError(f"--n must exceed --m, got n = {n_copies}, m = {m_copies}")
    if not 0.0 <= cfg["eta_plus"] <= 1.0:
        raise ConfigError(f"--eta-plus must lie in [0, 1], got {cfg['eta_plus']}")
    return cfg, bounds.CloningProblem(theta, m_copies, n_copies, cfg["eta_plus"])


def _checked_p_s(problem: bounds.CloningProblem, p_s: float) -> float:
    """``--p-s`` within [p_exact, 1], the range of the hybrid trade-off."""
    p_exact = bounds.exact_clone_probability(problem.theta, problem.m_copies, problem.n_copies)
    # the same slack as the library's range check; NaN fails the comparison
    if not p_exact - bounds.RANGE_SLACK <= p_s <= 1.0 + bounds.RANGE_SLACK:
        raise ConfigError(f"--p-s must lie in [p_exact, 1] = [{p_exact!r}, 1], got {p_s}")
    return p_s


def _check_equal_priors(problem: bounds.CloningProblem) -> None:
    """Refuse unequal priors for the hybrid trade-off before any network is built."""
    if not problem.equal_priors:
        raise ConfigError(
            "the hybrid trade-off is defined for equal priors only: "
            f"--eta-plus must be 0.5, got {problem.eta_plus}"
        )


def _check_simulated_size(problem: bounds.CloningProblem) -> None:
    """Refuse a register too large to simulate before any state is built."""
    if problem.n_copies > MAX_SIMULATED_COPIES:
        raise ConfigError(
            f"--n must be at most {MAX_SIMULATED_COPIES} to simulate, got {problem.n_copies}"
        )


def _simulation_error(problem: bounds.CloningProblem, exc: ValueError) -> ConfigError:
    """A library refusal to simulate; below double precision it names ``--theta``."""
    tol = bounds.UNIT_OVERLAP_TOL
    # every angle whose network cannot be built has an M-copy overlap this close to 1
    if bounds.overlap_after_copies(problem.theta, problem.m_copies) >= 1.0 - tol:
        return ConfigError(
            f"--theta {problem.theta} is too small to simulate: at M = {problem.m_copies} "
            f"the input overlap cos(2 theta)**M is within {tol:g} of 1"
        )
    return ConfigError(str(exc))


def _problem_options(fn):
    decorators = [
        click.option(
            "--config",
            "config_path",
            type=click.Path(exists=True, dir_okay=False),
            default=None,
            help="JSON config file; explicit flags override its entries.",
        ),
        click.option(
            "--theta",
            type=float,
            default=None,
            help="Family half-angle in radians (degrees with --degrees).",
        ),
        click.option(
            "--overlap",
            type=float,
            default=None,
            help="State overlap s instead of theta; theta = arccos(s)/2.",
        ),
        click.option(
            "--degrees",
            is_flag=True,
            help="Interpret angles given on the command line as degrees.",
        ),
        click.option("--m", "-m", "m", type=int, default=None, help="Input copies (default 1)."),
        click.option("--n", "-n", "n", type=int, default=None, help="Output copies (default 2)."),
        click.option(
            "--eta-plus",
            "eta_plus",
            type=float,
            default=None,
            help="Prior probability of the plus state (default 0.5).",
        ),
        click.option(
            "--format",
            "output_format",
            type=click.Choice(["json", "csv"]),
            default=None,
            help="Output format (bounds/simulate default json, tradeoff csv).",
        ),
        click.option(
            "--output",
            "output_path",
            type=click.Path(dir_okay=False),
            default=None,
            help="Write the report to a file instead of stdout.",
        ),
    ]
    for decorator in reversed(decorators):
        fn = decorator(fn)
    return fn


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Two-state cloning: closed-form bounds, exact network simulation,
    and CNOT-level gate decompositions.

    CLONEFORGE_SEED is accepted in the environment but has no effect;
    every number here is computed analytically or by exact projection.
    """


@main.command("bounds")
@_problem_options
@click.option(
    "--p-s",
    "p_s",
    type=float,
    default=None,
    help="Hybrid success probability; adds f_hybrid to the record.",
)
def bounds_cmd(p_s, **opts):
    """Closed-form fidelity and probability bounds for one problem."""
    cfg, problem = _request(dict(opts, p_s=p_s))
    if cfg["p_s"] is not None:
        _check_equal_priors(problem)
    try:
        s_m = bounds.overlap_after_copies(problem.theta, problem.m_copies)
        record = {
            "f_max": bounds.fidelity_bound(problem),
            "helstrom": bounds.helstrom_bound(problem.eta_plus, s_m),
            "p_exact": bounds.exact_clone_probability(
                problem.theta, problem.m_copies, problem.n_copies
            ),
            "p_idp": bounds.idp_probability(s_m),
            "theta_m": problem.theta_m,
            "theta_n": problem.theta_n,
        }
        if cfg["p_s"] is not None:
            point = bounds.hybrid_fidelity_bound(
                problem.theta, problem.m_copies, problem.n_copies,
                _checked_p_s(problem, cfg["p_s"]),
            )
            record["f_hybrid"] = point.fidelity_bound
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit_record(record, cfg["output_format"], cfg["output_path"])


@main.command("simulate")
@_problem_options
@click.option(
    "--mode",
    type=click.Choice(list(bounds.MODES)),
    default=None,
    help="Cloning strategy to simulate.",
)
@click.option(
    "--p-s",
    "p_s",
    type=float,
    default=None,
    help="Success probability (required for hybrid mode).",
)
@click.option(
    "--decompose-gates",
    is_flag=True,
    help="Replace every two-qubit gate by its CNOT circuit before running.",
)
@click.option(
    "--strict",
    is_flag=True,
    help=f"Exit 3 if simulation deviates from its bound by more than {STRICT_TOL:g}.",
)
def simulate_cmd(mode, p_s, decompose_gates, strict, **opts):
    """Simulate a cloning network and compare it against its bounds."""
    from . import networks

    cfg, problem = _request(dict(opts, mode=mode, p_s=p_s))
    _check_simulated_size(problem)
    if cfg["mode"] is None:
        raise ConfigError("mode is required: choose exact, approx, or hybrid")
    hybrid = cfg["mode"] == "hybrid"
    if hybrid:
        _check_equal_priors(problem)
    # one config file may serve every command, so only a --p-s flag is refused here
    if p_s is not None and not hybrid:
        raise ConfigError(f"--p-s applies to --mode hybrid only, got --mode {cfg['mode']}")
    if hybrid and cfg["p_s"] is None:
        raise ConfigError("hybrid mode requires p_s")
    run_p_s = _checked_p_s(problem, cfg["p_s"]) if hybrid else None
    try:
        report = networks.evaluate_cloner(
            problem, cfg["mode"], p_s=run_p_s, decompose_gates=decompose_gates
        )
    except ValueError as exc:
        raise _simulation_error(problem, exc) from exc
    record = {
        "mode": report.mode,
        "theta": problem.theta,
        "m": problem.m_copies,
        "n": problem.n_copies,
        "eta_plus": problem.eta_plus,
        "plus": {
            "success_probability": report.plus_result.success_probability,
            "fidelity": report.plus_result.global_fidelity_vs_exact,
        },
        "minus": {
            "success_probability": report.minus_result.success_probability,
            "fidelity": report.minus_result.global_fidelity_vs_exact,
        },
        "fidelity": report.fidelity,
        "success_probability": report.success_probability,
        "fidelity_bound": report.fidelity_bound,
        "success_bound": report.success_bound,
        "fidelity_deviation": report.fidelity_deviation,
        "success_deviation": report.success_deviation,
    }
    if run_p_s is not None:
        record["p_s"] = run_p_s
    _emit_record(record, cfg["output_format"], cfg["output_path"])
    worst = max(report.fidelity_deviation, report.success_deviation)
    if strict and worst > STRICT_TOL:
        raise StrictDeviationError(
            f"deviation {worst:.3e} exceeds the strict tolerance {STRICT_TOL:g}"
        )


@main.command("tradeoff")
@_problem_options
@click.option("--start", type=float, default=None, help="Sweep start (default: exact-cloning probability).")
@click.option("--stop", type=float, default=None, help="Sweep stop (default 1).")
@click.option("--steps", type=int, default=None, help="Number of sweep points (default 11).")
def tradeoff_cmd(start, stop, steps, **opts):
    """Sweep the hybrid success probability and tabulate the trade-off."""
    from . import networks

    cfg, problem = _request(dict(opts, start=start, stop=stop, steps=steps))
    _check_simulated_size(problem)
    _check_equal_priors(problem)
    p_lo = bounds.exact_clone_probability(problem.theta, problem.m_copies, problem.n_copies)
    start_v = p_lo if cfg["start"] is None else cfg["start"]
    stop_v, steps_v = cfg["stop"], cfg["steps"]
    if steps_v < 2:
        raise ConfigError(f"--steps must be at least 2, got {steps_v}")
    if steps_v > MAX_SWEEP_STEPS:
        raise ConfigError(f"--steps must be at most {MAX_SWEEP_STEPS}, got {steps_v}")
    if not (p_lo - 1e-9 <= start_v <= stop_v <= 1.0 + 1e-12):
        raise ConfigError(
            f"--start and --stop must satisfy {_fmt(p_lo)} <= --start <= --stop <= 1, "
            f"got --start {start_v}, --stop {stop_v}"
        )
    rows = []
    for i in range(steps_v):
        p_req = start_v + (stop_v - start_v) * i / (steps_v - 1)
        p_req = min(1.0, max(p_lo, p_req))
        try:
            report = networks.evaluate_cloner(problem, "hybrid", p_s=p_req)
        except ValueError as exc:
            raise _simulation_error(problem, exc) from exc
        rows.append(
            [
                report.success_bound,
                report.fidelity_bound,
                report.fidelity,
                report.success_probability,
                max(report.fidelity_deviation, report.success_deviation),
            ]
        )
    header = ["p_s", "f_bound", "f_simulated", "p_success_simulated", "abs_deviation"]
    if (cfg["output_format"] or "csv") == "json":
        text = _json_text([dict(zip(header, row)) for row in rows])
    else:
        text = _csv_text(header, rows)
    _emit(text, cfg["output_path"])


def _placement_json(placement):
    from .gates import KIND_CNOT

    if placement.kind == KIND_CNOT:
        return {
            "gate": "CNOT",
            "qubits": list(placement.qubits),
            "control_active": "plus",
        }
    # every gate is real; the JSON keeps its [re, im] pair per entry
    matrix = [[[float(entry), 0.0] for entry in row] for row in placement.gate.entries]
    return {"gate": "LU", "qubits": list(placement.qubits), "matrix": matrix}


@main.command("decompose")
@click.option(
    "--gate",
    "gate_name",
    type=click.Choice(["transfer", "separation"]),
    required=True,
    help="Which two-qubit gate to decompose.",
)
@click.option(
    "--theta1",
    type=float,
    required=True,
    help="transfer: first copy angle; separation: input angle.",
)
@click.option(
    "--theta2",
    type=float,
    required=True,
    help="transfer: second copy angle; separation: output angle.",
)
@click.option("--degrees", is_flag=True, help="Angles are given in degrees.")
@click.option(
    "--output",
    "output_path",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the circuit JSON to a file instead of stdout.",
)
def decompose_cmd(gate_name, theta1, theta2, degrees, output_path):
    """Emit a CNOT + single-qubit circuit for a two-qubit gate as JSON.

    Placements are listed in time order on local wires 0 and 1 (wire 0 is
    the more significant qubit of the gate; for CNOT entries the first
    listed qubit is the control, active on |+>).
    """
    from . import gates

    theta1, theta2 = (_snap_angle(math.radians(t) if degrees else t) for t in (theta1, theta2))
    separation = gate_name == "separation"
    interval = "(0, pi/4]" if separation else "[0, pi/4]"
    for flag, value in (("--theta1", theta1), ("--theta2", theta2)):
        if not 0.0 <= value <= math.pi / 4.0 or (separation and value == 0.0):
            raise ConfigError(
                f"{flag} must lie in {interval} for the {gate_name} gate, got {value}"
            )
    if separation and theta1 > theta2 + 1e-12:
        raise ConfigError(
            f"--theta1 must not exceed --theta2: the separation gate widens the pair, "
            f"got {theta1} > {theta2}"
        )
    if separation and math.cos(2.0 * theta2) >= 1.0 - bounds.UNIT_OVERLAP_TOL:
        raise ConfigError(
            f"--theta2 {theta2} is too small to separate to: the output overlap "
            f"cos(2 theta2) is within {bounds.UNIT_OVERLAP_TOL:g} of 1"
        )
    decompose = gates.decompose_separation if separation else gates.decompose_transfer
    try:
        circuit = decompose(theta1, theta2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    record = {
        "gate": gate_name,
        "angles": [theta1, theta2],
        "placements": [_placement_json(p) for p in circuit.placements],
        "cnot_count": circuit.cnot_count,
        "max_abs_error": circuit.max_abs_error,
    }
    _emit(_json_text(record), output_path)


@main.command("verify")
def verify_cmd():
    """Run the built-in verification suites; exit 0 only if all pass."""
    from . import verify

    results = verify.run_all()
    width = max(len(result.name) for result in results)
    for result in results:
        status = "ok  " if result.passed else "FAIL"
        line = (
            f"{status}  {result.name:<{width}}  max|err| {result.max_error:.3e}"
            f"  (tol {result.tolerance:g})"
        )
        if result.detail:
            line += f"  {result.detail}"
        click.echo(line)
    passed = sum(1 for result in results if result.passed)
    click.echo(f"{passed}/{len(results)} suites passed")
    if passed != len(results):
        raise SystemExit(1)


if __name__ == "__main__":
    # under `python -m`, let `verify`'s `from .cli import main` reuse this module
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    main()
