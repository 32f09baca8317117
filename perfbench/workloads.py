"""Seeded op streams of the three workloads, how to run one op, and its check.

Every stream is infinite and fixed by its seed. The sequence of op classes
(M, N, mode, CNOT level, CLI command) is the same for every seed; the seed
draws only the angles, priors and success probabilities, so every seed
carries the same mix.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass

from cloneforge import bounds, gates, networks

#: fidelity/success deviation above which an op fails; the value of
#: ``cloneforge.cli.STRICT_TOL``, fixed here so the check cannot drift with it
STRICT_TOL = 1e-8
#: angles of every timed op; the small-angle probe lies far below them
THETA_RANGE = (0.05, math.pi / 4)
PRIOR_RANGE = (0.55, 0.95)
#: (M, N) pairs of the sweep and CLI workloads
PAIRS = tuple((m, n) for m in (1, 2, 3) for n in range(m + 1, 7))
#: hybrid rows per sweep, from p_s = exact_clone_probability to p_s = 1
HYBRID_ROWS = 5
#: decades of theta of the small-angle probe, one sweep each
SMALL_ANGLE_BANDS = ((-9, -7), (-7, -5), (-5, -3))
MODES = ("exact", "approx", "hybrid")


@dataclass(frozen=True)
class CloneOp:
    """One in-process op: the closed forms for a problem plus ``evaluate_cloner``."""

    theta: float
    m: int
    n: int
    mode: str
    cnot: bool
    #: hybrid only: p_s = p_exact + frac * (1 - p_exact)
    frac: float = 0.0
    eta_plus: float = 0.5

    @property
    def state_qubits(self) -> int:
        return self.n + (0 if self.mode == "approx" else 1)


@dataclass(frozen=True)
class CliOp:
    """One ``cloneforge`` process: its arguments and the values behind them.

    ``params`` is ``(theta, m, n, eta_plus, mode, p_s, decompose_gates)`` for
    ``bounds``, ``simulate`` and ``tradeoff`` (mode None for the hybrid
    ``tradeoff``), ``(gate, theta1, theta2)`` for ``decompose``.
    """

    args: tuple
    params: tuple = ()

    @property
    def state_qubits(self) -> int:
        if self.args[0] not in ("simulate", "tradeoff"):
            return 0
        return self.params[2] + (0 if self.params[4] == "approx" else 1)


def _sweep(rng, theta, m, n, cnot):
    """The rows of one sweep: K hybrid rows, one exact and one approx row."""
    inner = HYBRID_ROWS - 2
    fracs = [0.0] + [(i + rng.random()) / inner for i in range(inner)] + [1.0]
    eta_plus = rng.uniform(*PRIOR_RANGE)
    rows = [CloneOp(theta, m, n, "hybrid", cnot, frac=frac) for frac in fracs]
    rows.append(CloneOp(theta, m, n, "exact", cnot))
    rows.append(CloneOp(theta, m, n, "approx", cnot, eta_plus=eta_plus))
    return rows


def sweep_ops(seed: int):
    """Hybrid trade-off sweeps, theta uniform in THETA_RANGE.

    Sweep s uses pair PAIRS[s % 12]. In every 36 sweeps, 12 run CNOT-level,
    each pair once.
    """
    rng = random.Random(seed)
    for s in itertools.count():
        m, n = PAIRS[s % len(PAIRS)]
        cnot = (s // len(PAIRS) + s) % 3 == 0
        yield from _sweep(rng, rng.uniform(*THETA_RANGE), m, n, cnot)


def small_angle_ops(seed: int):
    """The small-angle probe: one sweep per band of SMALL_ANGLE_BANDS.

    Theta is drawn log-uniform within the band, where the library is known to
    fail (ROADMAP item 3). These ops are not part of any timed stream.
    """
    rng = random.Random(seed)
    ops = []
    for i, (low, high) in enumerate(SMALL_ANGLE_BANDS):
        m, n = PAIRS[4 * i + 1]
        ops += _sweep(rng, 10.0 ** rng.uniform(low, high), m, n, i == 1)
    return ops


def wide_register_ops(seed: int):
    """Single evaluations at N = 12..16, modes cycled, every 4th op CNOT-level.

    The 45 (mode, N, M) classes repeat every 45 ops and each is CNOT-level
    once in every 180.
    """
    rng = random.Random(seed)
    for k in itertools.count():
        mode = MODES[k % 3]
        theta = rng.uniform(*THETA_RANGE)
        frac = rng.random()
        eta_plus = rng.uniform(*PRIOR_RANGE)
        yield CloneOp(
            theta,
            1 + (k // 15) % 3,
            12 + (k // 3) % 5,
            mode,
            k % 4 == 3,
            frac=frac if mode == "hybrid" else 0.0,
            eta_plus=eta_plus if mode == "approx" else 0.5,
        )


#: the fixed command cycle of ``cli-cold``: 5 bounds, 5 simulate, 3 tradeoff,
#: 3 decompose and 4 verify, so op_p90_ms falls inside the verify class
CLI_CYCLE = (
    "bounds", "simulate", "decompose", "verify", "bounds",
    "tradeoff", "simulate", "bounds", "decompose", "simulate",
    "verify", "tradeoff", "bounds", "simulate", "decompose",
    "verify", "bounds", "tradeoff", "simulate", "verify",
)


def _p_exact(theta: float, m: int, n: int) -> float:
    c = math.cos(2.0 * theta)
    return (1.0 - c ** m) / (1.0 - c ** n)


def cli_ops(seed: int):
    """Seeded arguments for the command cycle; variants by occurrence."""
    rng = random.Random(seed)
    for k in itertools.count():
        position = k % len(CLI_CYCLE)
        command = CLI_CYCLE[position]
        variant = CLI_CYCLE[:position].count(command)
        m, n = PAIRS[k % len(PAIRS)]
        theta, other, u, eta_plus = (
            rng.uniform(*THETA_RANGE), rng.uniform(*THETA_RANGE), rng.random(),
            rng.uniform(*PRIOR_RANGE),
        )
        if command == "verify":
            yield CliOp(("verify",))
            continue
        if command == "decompose":
            gate = "separation" if variant == 1 else "transfer"
            if gate == "separation":
                theta, other = sorted((theta, other))
            yield CliOp(
                ("decompose", "--gate", gate, "--theta1", repr(theta), "--theta2", repr(other)),
                (gate, theta, other),
            )
            continue
        p_s = _p_exact(theta, m, n) + u * (1.0 - _p_exact(theta, m, n))
        args = [command, "--theta", repr(theta), "-m", str(m), "-n", str(n)]
        params = [theta, m, n, 0.5, None, None, False]
        if command == "bounds":
            if variant in (1, 4):
                args += ["--p-s", repr(p_s)]
                params[5] = p_s
            elif variant == 2:
                args += ["--eta-plus", repr(eta_plus)]
                params[3] = eta_plus
        elif command == "simulate":
            mode = ("exact", "approx", "hybrid", "exact", "hybrid")[variant]
            args += ["--mode", mode]
            params[4] = mode
            if mode == "approx":
                args += ["--eta-plus", repr(eta_plus)]
                params[3] = eta_plus
            if mode == "hybrid":
                args += ["--p-s", repr(p_s)]
                params[5] = p_s
            if variant in (2, 3):
                args.append("--decompose-gates")
                params[6] = True
        yield CliOp(tuple(args), tuple(params))


STREAMS = {"sweep": sweep_ops, "wide-register": wide_register_ops, "cli-cold": cli_ops}


def run_clone_op(op: CloneOp):
    """The op itself: closed forms, then the simulation. Returns floats."""
    problem = bounds.CloningProblem(op.theta, op.m, op.n, op.eta_plus)
    p_s = None
    extra = ()
    if op.mode == "hybrid":
        p_exact = bounds.exact_clone_probability(op.theta, op.m, op.n)
        p_s = p_exact + op.frac * (1.0 - p_exact)
        point = bounds.hybrid_fidelity_bound(op.theta, op.m, op.n, p_s)
        p_idp = bounds.idp_probability(bounds.overlap_after_copies(op.theta, op.m))
        f_ref, p_ref = point.fidelity_bound, point.p_success
        extra = (p_s, bounds.hybrid_limit(p_s, p_idp))
    elif op.mode == "exact":
        f_ref, p_ref = 1.0, bounds.exact_clone_probability(op.theta, op.m, op.n)
    else:
        f_ref, p_ref = bounds.fidelity_bound(problem), 1.0
    report = networks.evaluate_cloner(problem, op.mode, p_s, decompose_gates=op.cnot)
    return (f_ref, p_ref, report.fidelity, report.success_probability) + extra


def fmt12(value) -> str:
    """A float at 12 significant digits, as the CLI prints it."""
    return format(float(value) + 0.0, ".12g")


def _round12(obj):
    if isinstance(obj, bool) or not isinstance(obj, (float, dict, list, tuple)):
        return obj
    if isinstance(obj, float):
        return float(fmt12(obj))
    if isinstance(obj, dict):
        return {key: _round12(value) for key, value in obj.items()}
    return [_round12(value) for value in obj]


def failure_kind(label: str, exc: BaseException) -> str:
    """The exception's message with its numbers blanked, so failures group."""
    message = re.sub(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", "#", str(exc))
    return f"{label}: {type(exc).__name__}: {message}"[:160]


def check_clone(op: CloneOp, outcome) -> tuple:
    """``(failure kind or None, digest text)`` of one in-process op."""
    if isinstance(outcome, Exception):
        kind = failure_kind(op.mode, outcome)
        return kind, kind
    f_ref, p_ref, f_sim, p_sim = outcome[:4]
    text = " ".join(fmt12(value) for value in outcome)
    if not max(abs(f_sim - f_ref), abs(p_sim - p_ref)) <= STRICT_TOL:
        return f"{op.mode}: deviation above {STRICT_TOL:g}", text
    return None, text


def _bounds_record(params):
    theta, m, n, eta_plus, _, p_s, _ = params
    problem = bounds.CloningProblem(theta, m, n, eta_plus)
    s_m = bounds.overlap_after_copies(theta, m)
    record = {
        "f_max": bounds.fidelity_bound(problem),
        "helstrom": bounds.helstrom_bound(eta_plus, s_m),
        "p_exact": bounds.exact_clone_probability(theta, m, n),
        "p_idp": bounds.idp_probability(s_m),
        "theta_m": problem.theta_m,
        "theta_n": problem.theta_n,
    }
    if p_s is not None:
        record["f_hybrid"] = bounds.hybrid_fidelity_bound(theta, m, n, p_s).fidelity_bound
    return record


def _simulate_record(params):
    theta, m, n, eta_plus, mode, p_s, decompose = params
    problem = bounds.CloningProblem(theta, m, n, eta_plus)
    report = networks.evaluate_cloner(problem, mode, p_s=p_s, decompose_gates=decompose)
    record = {
        "mode": mode,
        "theta": theta,
        "m": m,
        "n": n,
        "eta_plus": eta_plus,
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
    if p_s is not None:
        record["p_s"] = p_s
    return record


def _tradeoff_rows(params, steps=11):
    theta, m, n = params[:3]
    problem = bounds.CloningProblem(theta, m, n)
    p_lo = bounds.exact_clone_probability(theta, m, n)
    rows = []
    for i in range(steps):
        p_req = min(1.0, max(p_lo, p_lo + (1.0 - p_lo) * i / (steps - 1)))
        point = bounds.hybrid_fidelity_bound(theta, m, n, p_req)
        report = networks.evaluate_cloner(problem, "hybrid", p_s=p_req)
        rows.append([
            point.p_success,
            point.fidelity_bound,
            report.fidelity,
            report.success_probability,
            max(report.fidelity_deviation, report.success_deviation),
        ])
    return rows


def _decompose_record(params):
    gate, theta1, theta2 = params
    build = gates.decompose_transfer if gate == "transfer" else gates.decompose_separation
    circuit = build(theta1, theta2)
    placements = []
    for p in circuit.placements:
        if p.kind == gates.KIND_CNOT:
            placements.append({"gate": "CNOT", "qubits": list(p.qubits), "control_active": "plus"})
        else:
            matrix = [[[float(e.real), float(e.imag)] for e in row] for row in p.gate.entries]
            placements.append({"gate": "LU", "qubits": list(p.qubits), "matrix": matrix})
    return {
        "gate": gate,
        "angles": [theta1, theta2],
        "placements": placements,
        "cnot_count": circuit.cnot_count,
        "max_abs_error": circuit.max_abs_error,
    }


def check_cli(op: CliOp, outcome) -> tuple:
    """``(failure kind or None, digest text)`` of one CLI process.

    ``outcome`` is ``(returncode, stdout bytes)``. The output must match the
    library's own values at 12 significant digits; ``verify`` must report
    every suite passed.
    """
    returncode, stdout = outcome
    command = op.args[0]
    text = f"{returncode} {stdout.hex()}"
    if returncode != 0:
        return f"{command}: exit {returncode}", text
    out = stdout.decode("utf-8")
    if command == "verify":
        passed = re.fullmatch(r"(\d+)/(\d+) suites passed", out.strip().splitlines()[-1])
        ok = passed is not None and passed[1] == passed[2]
        return (None if ok else "verify: not every suite passed"), text
    if command == "tradeoff":
        lines = out.strip().split("\n")
        got = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        expected = _round12(_tradeoff_rows(op.params))
    else:
        got = json.loads(out)
        record = {"bounds": _bounds_record, "simulate": _simulate_record,
                  "decompose": _decompose_record}[command]
        expected = _round12(record(op.params))
    if got != expected:
        return f"{command}: output differs from the library", text
    return None, text
