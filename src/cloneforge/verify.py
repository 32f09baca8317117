"""Built-in verification suites behind ``cloneforge verify``.

This module is the one registry of cloneforge's guarantees.  Each suite
re-derives a family of claims numerically and reports the worst absolute
error it saw.  A suite takes its grid as arguments, and the defaults are the
quick grids that ``cloneforge verify`` runs, so a user can check an install
without a dev environment.  ``tests/test_acceptance.py`` runs the same
suites on wider grids and adds only checks that do not go through this
module.

``TOLERANCES`` is module-level and looked up at call time, so a harness can
tighten a bound to exercise the failure path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds, gates, linalg, networks

TOLERANCES: Dict[str, float] = {
    "gate_algebra": 1e-12,
    "decomposition": 1e-10,
    "exact_network": 1e-10,
    "approx_network": 1e-10,
    "brute_force": 1e-6,
    "hybrid_success": 1e-10,
    "hybrid_fidelity": 1e-9,
    "asymptotic_helstrom": 1e-6,
    "asymptotic_hybrid_limit": 1e-8,
    "d_cloner": 1e-12,
    "decomposed_shift": 1e-9,
    "cli_determinism": 0.0,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _result(name: str, tol_key: str, max_error: float, detail: str = "") -> CheckResult:
    tol = TOLERANCES[tol_key]
    return CheckResult(
        name=name,
        passed=max_error <= tol,
        max_error=max_error,
        tolerance=tol,
        detail=detail,
    )


def _merge(name: str, detail: str, *components: CheckResult) -> CheckResult:
    """Combine sub-checks, displaying the one closest to its tolerance."""
    binding = max(
        components, key=lambda c: c.max_error / c.tolerance if c.tolerance else 1.0
    )
    return CheckResult(
        name=name,
        passed=all(c.passed for c in components),
        max_error=binding.max_error,
        tolerance=binding.tolerance,
        detail=detail,
    )


def check_gate_algebra(
    angles: Sequence[float] = tuple(np.linspace(0.01, math.pi / 4, 8)),
) -> CheckResult:
    """Transfer gates are symmetric (Hermitian, being real) and self-inverse,
    and merge and split both family branches, over ``angles`` x ``angles``."""
    worst = 0.0
    eye = np.eye(4)
    for t1 in angles:
        for t2 in angles:
            gate = gates.transfer_gate(t1, t2)
            d = gate.entries
            worst = max(worst, float(np.max(np.abs(d - d.T))))
            worst = max(worst, float(np.max(np.abs(d @ d - eye))))
            t3 = bounds.compose_angle(t1, t2)
            for sign in (linalg.PLUS, linalg.MINUS):
                first, second = (linalg.family_state(t, sign).amps for t in (t1, t2))
                pair = linalg.StateVector(2, np.kron(first, second))
                merged = linalg.pad_qubits(linalg.family_state(t3, sign), 2)
                for before, after in ((pair, merged), (merged, pair)):
                    out = linalg.apply_gate(before, gate, (0, 1))
                    worst = max(worst, float(np.max(np.abs(out.amps - after.amps))))
    return _result("gate-algebra", "gate_algebra", worst, f"{len(angles)}x{len(angles)} grid")


def check_decompositions() -> CheckResult:
    """CNOT + local-unitary circuits rebuild the two-qubit gates exactly."""
    worst = 0.0
    cnots = []
    for t1, t2 in [(0.2, 0.5), (math.pi / 8, math.pi / 8), (0.01, 0.7), (0.0, 0.0)]:
        circuit = gates.decompose_transfer(t1, t2)
        worst = max(worst, circuit.max_abs_error)
        cnots.append(circuit.cnot_count)
    for t_in, t_out in [(0.2, 0.5), (math.pi / 8, math.pi / 4), (0.3, 0.3)]:
        circuit = gates.decompose_separation(t_in, t_out)
        worst = max(worst, circuit.max_abs_error)
        cnots.append(circuit.cnot_count)
    return _result(
        "decompositions", "decomposition", worst, f"CNOT counts {tuple(cnots)}"
    )


def check_exact_networks(
    thetas: Sequence[float] = (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4),
    pairs: Sequence[Tuple[int, int]] = ((1, 2), (1, 4), (2, 3), (3, 5)),
) -> CheckResult:
    """Heralded networks clone perfectly at the closed-form success rate."""
    worst = 0.0
    cases = 0
    for theta in thetas:
        for m, n in pairs:
            problem = bounds.CloningProblem(theta=theta, m_copies=m, n_copies=n)
            report = networks.evaluate_cloner(problem, "exact")
            worst = max(worst, report.fidelity_deviation, report.success_deviation)
            cases += 1
    return _result("exact-networks", "exact_network", worst, f"{cases} cases")


def check_approx_networks(
    thetas: Sequence[float] = (math.pi / 8, 3 * math.pi / 16),
    etas: Sequence[float] = (0.5, 0.7, 0.9),
    pairs: Sequence[Tuple[int, int]] = ((1, 2), (2, 4)),
) -> CheckResult:
    """Deterministic networks hit the closed-form optimum for any priors."""
    worst = 0.0
    cases = 0
    for theta in thetas:
        for eta_plus in etas:
            for m, n in pairs:
                problem = bounds.CloningProblem(
                    theta=theta, m_copies=m, n_copies=n, eta_plus=eta_plus
                )
                report = networks.evaluate_cloner(problem, "approx")
                worst = max(worst, report.fidelity_deviation, report.success_deviation)
                cases += 1
    return _result("approx-networks", "approx_network", worst, f"{cases} cases")


def _golden_section_max(fn, lo: float, hi: float, iters: int = 80) -> float:
    """Return x maximizing a unimodal ``fn`` on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def brute_force_fidelity(problem: bounds.CloningProblem, grid_size: int = 2000) -> float:
    """Independent oracle: maximize the fidelity objective by direct search.

    Scans phi_plus over [0, pi/2] (with phi_minus = phi_plus - 2 theta_M)
    on ``grid_size`` points, then refines the best bracket by golden-section
    search.  When the minus state carries the larger prior the maximizer can
    leave the scan window, so the equivalent relabeled problem (priors
    swapped) is searched instead; the two share their maximum value.
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    bounds._check_theta(problem.theta)
    if problem.eta_plus >= 0.5:
        ep = problem.eta_plus
    else:
        ep = problem.eta_minus
    theta_m = problem.theta_m
    theta_n = problem.theta_n
    em = 1.0 - ep

    def objective(phi_plus: float) -> float:
        phi_minus = phi_plus - 2.0 * theta_m
        return (
            ep * math.cos(theta_n - phi_plus) ** 2
            + em * math.cos(theta_n + phi_minus) ** 2
        )

    xs = np.linspace(0.0, math.pi / 2.0, grid_size)
    vals = np.array([objective(x) for x in xs])
    i = int(np.argmax(vals))
    lo = xs[max(0, i - 1)]
    hi = xs[min(grid_size - 1, i + 1)]
    best = _golden_section_max(objective, lo, hi)
    return objective(best)


def check_brute_force() -> CheckResult:
    """The closed-form optimum matches a direct scan over output angles."""
    worst = 0.0
    cases = 0
    for theta in (math.pi / 8, math.pi / 4):
        for eta_plus in (0.5, 0.7, 0.9):
            problem = bounds.CloningProblem(
                theta=theta, m_copies=1, n_copies=3, eta_plus=eta_plus
            )
            closed = bounds.fidelity_bound(problem)
            scanned = brute_force_fidelity(problem, grid_size=1200)
            worst = max(worst, abs(closed - scanned))
            cases += 1
    return _result("brute-force", "brute_force", worst, f"{cases} cases")


def check_hybrid_networks(
    thetas: Sequence[float] = (math.pi / 8, 3 * math.pi / 16),
    pairs: Sequence[Tuple[int, int]] = ((1, 2), (2, 4)),
) -> CheckResult:
    """Hybrid networks trace the fidelity/success trade-off curve, and its
    endpoints are exact and optimal approximate cloning."""
    worst_f = 0.0
    worst_p = 0.0
    cases = 0
    for theta in thetas:
        for m, n in pairs:
            problem = bounds.CloningProblem(theta=theta, m_copies=m, n_copies=n)
            p_lo = bounds.exact_clone_probability(theta, m, n)
            approx_f = bounds.fidelity_bound(problem)
            for p_s, end_f in ((p_lo, 1.0), ((p_lo + 1.0) / 2.0, None), (1.0, approx_f)):
                report = networks.evaluate_cloner(problem, "hybrid", p_s=p_s)
                worst_f = max(worst_f, report.fidelity_deviation)
                worst_p = max(worst_p, report.success_deviation)
                if end_f is not None:
                    worst_f = max(worst_f, abs(report.fidelity - end_f))
                cases += 1
    name = "hybrid-networks"
    return _merge(
        name,
        f"{cases} cases; success dev {worst_p:.3e}, fidelity dev {worst_f:.3e}",
        _result(name, "hybrid_success", worst_p),
        _result(name, "hybrid_fidelity", worst_f),
    )


def check_asymptotics(
    thetas: Sequence[float] = (math.pi / 8, 3 * math.pi / 16, math.pi / 4),
    m_values: Sequence[int] = (1,),
    etas: Sequence[float] = (0.5, 0.7),
    limit_steps: int = 7,
) -> CheckResult:
    """Large-N cloning bounds converge to the discrimination bounds: the
    Helstrom bound at N = 50, and the trade-off limit over ``limit_steps``
    success probabilities at M = 1, N = 40."""
    worst_h = 0.0
    for theta in thetas:
        for m in m_values:
            for eta_plus in etas:
                problem = bounds.CloningProblem(
                    theta=theta, m_copies=m, n_copies=50, eta_plus=eta_plus
                )
                f_n = bounds.fidelity_bound(problem)
                s_m = bounds.overlap_after_copies(theta, m)
                helstrom = bounds.helstrom_bound(eta_plus, s_m)
                worst_h = max(worst_h, abs(f_n - helstrom))
    helstrom_res = _result("asymptotics", "asymptotic_helstrom", worst_h)

    worst_l = 0.0
    theta = 3 * math.pi / 16
    n = 40
    p_lo = bounds.exact_clone_probability(theta, 1, n)
    p_idp = bounds.idp_probability(bounds.overlap_after_copies(theta, 1))
    for p_s in np.linspace(p_lo, 1.0, limit_steps):
        point = bounds.hybrid_fidelity_bound(theta, 1, n, float(p_s))
        limit = bounds.hybrid_limit(float(p_s), p_idp)
        worst_l = max(worst_l, abs(point.fidelity_bound - limit))
    limit_res = _result("asymptotics", "asymptotic_hybrid_limit", worst_l)

    return _merge(
        "asymptotics",
        f"Helstrom gap {worst_h:.3e} (N=50), limit gap {worst_l:.3e} (N=40)",
        helstrom_res,
        limit_res,
    )


def check_d_cloner(
    thetas: Sequence[float] = (math.pi / 16, math.pi / 8, 3 * math.pi / 16),
) -> CheckResult:
    """A lone transfer gate on a blank wire is a symmetric 1->2 cloner."""
    worst = 0.0
    for theta1 in thetas:
        theta3 = bounds.compose_angle(theta1, theta1)
        gate = gates.transfer_gate(theta1, theta1)
        local_expect = bounds.d_cloner_local_fidelity(theta3, theta1)
        global_expect = bounds.d_cloner_global_fidelity(theta3, theta1)
        for sign in (linalg.PLUS, linalg.MINUS):
            original = linalg.family_state(theta3, sign)
            out = linalg.apply_gate(linalg.pad_qubits(original, 2), gate, (0, 1)).amps
            pair = linalg.family_state(theta1, sign, copies=2).amps
            # the split is exact ...
            worst = max(worst, abs(abs(float(np.vdot(pair, out))) - 1.0))
            # ... and each copy overlaps the original by the claimed amount
            ideal = linalg.family_state(theta3, sign, copies=2).amps
            worst = max(worst, abs(abs(float(np.vdot(ideal, out))) - global_expect))
            single = abs(float(np.vdot(original.amps, linalg.family_state(theta1, sign).amps)))
            worst = max(worst, abs(single - local_expect))
    return _result("d-cloner", "d_cloner", worst)


def _report_numbers(report: networks.ClonerReport) -> Tuple[float, ...]:
    """Every number a `ClonerReport` gives, overall and per sign."""
    return (
        report.success_probability,
        report.fidelity,
        report.plus_result.success_probability,
        report.plus_result.global_fidelity_vs_exact,
        report.minus_result.success_probability,
        report.minus_result.global_fidelity_vs_exact,
        report.fidelity_deviation,
        report.success_deviation,
    )


def check_decomposed_networks(
    cases: Sequence[Tuple[bounds.CloningProblem, str, Optional[float]]] = (
        (bounds.CloningProblem(theta=math.pi / 8, m_copies=1, n_copies=3), "exact", None),
        (bounds.CloningProblem(theta=math.pi / 8, m_copies=1, n_copies=3), "approx", None),
        (bounds.CloningProblem(theta=3 * math.pi / 16, m_copies=2, n_copies=4), "hybrid", 0.9),
    ),
) -> CheckResult:
    """CNOT-level networks report the same numbers as gate-level ones."""
    worst = 0.0
    for problem, mode, p_s in cases:
        plain = networks.evaluate_cloner(problem, mode, p_s=p_s)
        wired = networks.evaluate_cloner(problem, mode, p_s=p_s, decompose_gates=True)
        for a, b in zip(_report_numbers(plain), _report_numbers(wired)):
            worst = max(worst, abs(a - b))
    return _result("decomposed-networks", "decomposed_shift", worst, f"{len(cases)} cases")


def check_cli_determinism(
    argsets: Sequence[Sequence[str]] = (
        ("bounds", "--theta", "0.4", "-m", "1", "-n", "3", "--eta-plus", "0.7"),
        ("tradeoff", "--theta", "0.392699081698724", "-m", "1", "-n", "2", "--steps", "5"),
    ),
) -> CheckResult:
    """Repeated CLI invocations exit 0 and are byte-identical."""
    from click.testing import CliRunner

    from .cli import main

    runner = CliRunner()
    mismatches = 0
    for args in argsets:
        first = runner.invoke(main, args, catch_exceptions=False)
        second = runner.invoke(main, args, catch_exceptions=False)
        if first.exit_code != 0 or second.exit_code != 0:
            mismatches += 1
        elif first.stdout_bytes != second.stdout_bytes:
            mismatches += 1
    return _result(
        "cli-determinism", "cli_determinism", float(mismatches), f"{len(argsets)} commands"
    )


_SUITES: List[Callable[[], CheckResult]] = [
    check_gate_algebra,
    check_decompositions,
    check_exact_networks,
    check_approx_networks,
    check_brute_force,
    check_hybrid_networks,
    check_asymptotics,
    check_d_cloner,
    check_decomposed_networks,
    check_cli_determinism,
]


def run_all() -> List[CheckResult]:
    """Run every verification suite and return the results in order."""
    return [suite() for suite in _SUITES]
