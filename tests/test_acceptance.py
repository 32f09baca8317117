"""Acceptance suite: one test per advertised guarantee.

Each test pins a numeric tolerance and a wall-clock budget, so
``pytest tests/test_acceptance.py -v`` reads as a one-line-per-guarantee
scorecard.  Simulated numbers are triangulated against closed forms and
the independent helpers in tests/oracles.py; nothing here trusts the
library to check itself.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
from click.testing import CliRunner

import oracles
from conftest import ACCEPT_THETAS, ETA_GRID, MN_PAIRS
from cloneforge import cli
from cloneforge.bounds import (
    CloningProblem,
    compose_angle,
    d_cloner_global_fidelity,
    d_cloner_local_fidelity,
    exact_clone_probability,
    fidelity_bound,
    helstrom_bound,
    hybrid_fidelity_bound,
    hybrid_limit,
    idp_probability,
    overlap_after_copies,
)
from cloneforge.gates import (
    conjugating_rotation,
    decompose_separation,
    decompose_transfer,
    sector_angles,
    separation_gate,
    transfer_gate,
)
from cloneforge.linalg import (
    MINUS,
    PLUS,
    apply_gate,
    basis_state,
    family_state,
    inner,
    kron,
)
from cloneforge.networks import evaluate_cloner

GATE_GRID = np.linspace(0.01, math.pi / 4, 20)
CNOT_MATRIX = np.eye(4)[[1, 0, 2, 3]]


def remultiplied(placements):
    """Multiply a circuit's placements back together, oldest first."""
    total = np.eye(4, dtype=complex)
    for placement in placements:
        local = np.asarray(placement.gate.entries)
        total = oracles.embed(local, placement.qubits, 2) @ total
    return total


def test_criterion_1_gate_algebra():
    """Transfer gate: unitary, Hermitian, self-inverse; merges and splits
    both family branches; < 1e-12 over a 20 x 20 angle grid in < 1 s."""
    start = time.perf_counter()
    eye = np.eye(4)
    worst = 0.0
    for theta1, theta2 in itertools.product(GATE_GRID, GATE_GRID):
        gate = transfer_gate(theta1, theta2)
        mat = np.asarray(gate.entries)
        worst = max(worst, float(np.max(np.abs(mat.conj().T @ mat - eye))))
        worst = max(worst, float(np.max(np.abs(mat - mat.conj().T))))
        worst = max(worst, float(np.max(np.abs(mat @ mat - eye))))
        theta3 = compose_angle(theta1, theta2)
        for sign in (PLUS, MINUS):
            pair = kron(family_state(theta1, sign), family_state(theta2, sign))
            merged = kron(family_state(theta3, sign), basis_state(1, 0))
            forward = apply_gate(pair, gate, (0, 1))
            worst = max(worst, float(np.max(np.abs(forward.amps - merged.amps))))
            reverse = apply_gate(merged, gate, (0, 1))
            worst = max(worst, float(np.max(np.abs(reverse.amps - pair.amps))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"worst gate-algebra deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_decomposition_equality():
    """CNOT circuits re-multiply to their gates within 1e-10 on the same
    grids, and the sector identities behind them hold at 1e-12, in < 1 s."""
    start = time.perf_counter()
    worst_product = 0.0
    for theta1, theta2 in itertools.product(GATE_GRID, GATE_GRID):
        circuit = decompose_transfer(theta1, theta2)
        target = np.asarray(transfer_gate(theta1, theta2).entries)
        err = float(np.max(np.abs(remultiplied(circuit.placements) - target)))
        worst_product = max(worst_product, err)
    for theta_in, theta_out in itertools.product(GATE_GRID, GATE_GRID):
        if theta_out < theta_in:
            continue  # separation narrows the pair; widening is rejected
        circuit = decompose_separation(theta_in, theta_out)
        target = np.asarray(separation_gate(theta_in, theta_out).entries)
        err = float(np.max(np.abs(remultiplied(circuit.placements) - target)))
        worst_product = max(worst_product, err)

    # the sector reflections and the parity exchange are the oracle's arrays
    worst_identity = 0.0
    exchange = oracles.PARITY_EXCHANGE
    x = oracles.PAULI_X
    for delta in np.linspace(-1.5, 1.5, 21):
        both = oracles.equal_parity_reflection(delta)
        controlled = oracles.controlled_reflection(delta)
        err = np.max(np.abs(both - exchange @ controlled @ exchange))
        worst_identity = max(worst_identity, float(err))
        rotation = conjugating_rotation(delta).entries
        err = np.max(np.abs(rotation.conj().T @ x @ rotation - oracles.reflection(delta)))
        worst_identity = max(worst_identity, float(err))
    swap_parity = np.kron(np.eye(2), x)
    for theta1, theta2 in itertools.product(GATE_GRID[::4], GATE_GRID[::4]):
        delta1, delta2 = sector_angles(theta1, theta2)
        odd = swap_parity @ oracles.equal_parity_reflection(delta2 + math.pi / 2) @ swap_parity
        rebuilt = oracles.equal_parity_reflection(delta1) @ odd
        err = np.max(np.abs(np.asarray(transfer_gate(theta1, theta2).entries) - rebuilt))
        worst_identity = max(worst_identity, float(err))

    elapsed = time.perf_counter() - start
    assert worst_product < 1e-10, f"worst re-multiplication error {worst_product:.3e}"
    assert worst_identity < 1e-12, f"worst identity error {worst_identity:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_3_exact_cloning():
    """Exact networks herald at the closed-form rate with perfect clones:
    both within 1e-10 over four angles and all 1 <= M < N <= 6, in < 5 s."""
    start = time.perf_counter()
    worst = 0.0
    for theta, (m, n) in itertools.product(ACCEPT_THETAS, MN_PAIRS):
        problem = CloningProblem(theta=theta, m_copies=m, n_copies=n)
        report = evaluate_cloner(problem, "exact")
        expected = exact_clone_probability(theta, m, n)
        worst = max(worst, abs(report.success_probability - expected))
        worst = max(worst, abs(report.fidelity - 1.0))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"worst exact-cloning deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_4_approximate_cloning():
    """Approximate networks hit the closed-form optimum within 1e-10, and
    the closed form beats-or-ties a dense scan within 1e-6, over the exact
    grid times three priors, in < 10 s."""
    start = time.perf_counter()
    worst_sim = 0.0
    worst_scan = 0.0
    for theta, (m, n), eta in itertools.product(ACCEPT_THETAS, MN_PAIRS, ETA_GRID):
        problem = CloningProblem(theta=theta, m_copies=m, n_copies=n, eta_plus=eta)
        closed = fidelity_bound(problem)
        report = evaluate_cloner(problem, "approx")
        worst_sim = max(worst_sim, abs(report.fidelity - closed))
        scanned = oracles.scan_best_fidelity(theta, m, n, eta, grid=20001)
        worst_scan = max(worst_scan, abs(closed - scanned))
    elapsed = time.perf_counter() - start
    assert worst_sim < 1e-10, f"worst simulation-vs-closed-form gap {worst_sim:.3e}"
    assert worst_scan < 1e-6, f"worst closed-form-vs-scan gap {worst_scan:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_5_hybrid_tradeoff():
    """Hybrid networks herald at the requested rate (1e-10) with the
    trade-off fidelity (1e-9); the endpoints reproduce exact and optimal
    approximate cloning, in < 10 s."""
    start = time.perf_counter()
    worst_success = 0.0
    worst_fidelity = 0.0
    worst_endpoint = 0.0
    for theta, (m, n) in itertools.product(ACCEPT_THETAS, MN_PAIRS):
        problem = CloningProblem(theta=theta, m_copies=m, n_copies=n)
        p_mn = exact_clone_probability(theta, m, n)
        approx_f = fidelity_bound(problem)
        for p_s in (p_mn, 0.5 * (p_mn + 1.0), 1.0):
            report = evaluate_cloner(problem, "hybrid", p_s=p_s)
            point = hybrid_fidelity_bound(theta, m, n, p_s)
            worst_success = max(worst_success, abs(report.success_probability - p_s))
            worst_fidelity = max(worst_fidelity, abs(report.fidelity - point.fidelity_bound))
        exact_end = evaluate_cloner(problem, "hybrid", p_s=p_mn)
        worst_endpoint = max(worst_endpoint, abs(exact_end.fidelity - 1.0))
        approx_end = evaluate_cloner(problem, "hybrid", p_s=1.0)
        worst_endpoint = max(worst_endpoint, abs(approx_end.fidelity - approx_f))
    elapsed = time.perf_counter() - start
    assert worst_success < 1e-10, f"worst heralding-rate deviation {worst_success:.3e}"
    assert worst_fidelity < 1e-9, f"worst trade-off fidelity deviation {worst_fidelity:.3e}"
    assert worst_endpoint < 1e-9, f"worst endpoint deviation {worst_endpoint:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_6_limits():
    """Many-copy limits: the fidelity bound meets the Helstrom bound within
    1e-6 at N = 50, and the finite trade-off curve meets its limiting form
    within 1e-8 at N = 40 across a success-probability sweep, in < 1 s."""
    start = time.perf_counter()
    worst_helstrom = 0.0
    for theta, m, eta in itertools.product(
        (math.pi / 8, 3 * math.pi / 16, math.pi / 4), (1, 2), ETA_GRID
    ):
        problem = CloningProblem(theta=theta, m_copies=m, n_copies=50, eta_plus=eta)
        target = helstrom_bound(eta, overlap_after_copies(theta, m))
        worst_helstrom = max(worst_helstrom, abs(fidelity_bound(problem) - target))

    theta = 3 * math.pi / 16
    p_idp = idp_probability(overlap_after_copies(theta, 1))
    p_lo = exact_clone_probability(theta, 1, 40)
    worst_limit = 0.0
    for p_s in np.linspace(p_lo, 1.0, 21):
        point = hybrid_fidelity_bound(theta, 1, 40, float(p_s))
        limit = hybrid_limit(float(p_s), p_idp)
        worst_limit = max(worst_limit, abs(point.fidelity_bound - limit))
    elapsed = time.perf_counter() - start
    assert worst_helstrom < 1e-6, f"worst Helstrom gap {worst_helstrom:.3e}"
    assert worst_limit < 1e-8, f"worst trade-off-limit gap {worst_limit:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_7_transfer_gate_as_cloner():
    """A lone transfer gate splits its natural input into two independent
    copies whose per-copy fidelity is the angle-difference cosine and whose
    global fidelity is its square, within 1e-12, in < 1 s."""
    start = time.perf_counter()
    worst = 0.0
    for theta1 in (math.pi / 16, math.pi / 8, 3 * math.pi / 16):
        theta3 = compose_angle(theta1, theta1)
        gate = transfer_gate(theta1, theta1)
        local_f = d_cloner_local_fidelity(theta3, theta1)
        global_f = d_cloner_global_fidelity(theta3, theta1)
        worst = max(worst, abs(local_f - math.cos(theta3 - theta1)))
        worst = max(worst, abs(global_f - local_f ** 2))
        for sign in (PLUS, MINUS):
            src = kron(family_state(theta3, sign), basis_state(1, 0))
            out = apply_gate(src, gate, (0, 1))
            split = kron(family_state(theta1, sign), family_state(theta1, sign))
            worst = max(worst, abs(abs(inner(split, out)) - 1.0))
            # per-copy overlap, straight from the output amplitudes
            pair_amps = out.amps.reshape(2, 2)
            ideal_amps = family_state(theta3, sign).amps
            for contracted in (ideal_amps.conj() @ pair_amps, pair_amps @ ideal_amps.conj()):
                worst = max(worst, abs(float(np.linalg.norm(contracted)) - local_f))
            ideal_pair = family_state(theta3, sign, copies=2)
            worst = max(worst, abs(abs(inner(ideal_pair, out)) - global_f))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"worst cloning-by-transfer deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def report_numbers(report):
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


def test_criterion_8_decomposed_networks():
    """Swapping every two-qubit gate for its CNOT circuit changes no
    reported quantity by more than 1e-9 across all cloning runs, in < 20 s."""
    start = time.perf_counter()
    worst = 0.0
    runs = []
    for theta, (m, n) in itertools.product(ACCEPT_THETAS, MN_PAIRS):
        problem = CloningProblem(theta=theta, m_copies=m, n_copies=n)
        runs.append((problem, "exact", None))
        p_mn = exact_clone_probability(theta, m, n)
        for p_s in (p_mn, 0.5 * (p_mn + 1.0), 1.0):
            runs.append((problem, "hybrid", p_s))
        for eta in ETA_GRID:
            biased = CloningProblem(theta=theta, m_copies=m, n_copies=n, eta_plus=eta)
            runs.append((biased, "approx", None))
    for problem, mode, p_s in runs:
        plain = evaluate_cloner(problem, mode, p_s=p_s)
        wired = evaluate_cloner(problem, mode, p_s=p_s, decompose_gates=True)
        for a, b in zip(report_numbers(plain), report_numbers(wired)):
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst decomposition-induced shift {worst:.3e}"
    assert elapsed < 20.0, f"took {elapsed:.2f} s"


def test_criterion_9_cli_contract():
    """The sweep is byte-deterministic, emitted circuits rebuild their
    gates within 1e-10, and the self-check command exits 0, in < 30 s."""
    start = time.perf_counter()
    runner = CliRunner()
    theta = str(math.pi / 8)

    first = runner.invoke(cli.main, ["tradeoff", "--theta", theta])
    second = runner.invoke(cli.main, ["tradeoff", "--theta", theta])
    assert first.exit_code == 0, first.output
    assert second.exit_code == 0, second.output
    assert first.stdout_bytes == second.stdout_bytes

    worst = 0.0
    for gate_name, theta1, theta2, direct in (
        ("transfer", 0.2, 0.5, transfer_gate(0.2, 0.5)),
        ("separation", math.pi / 8, math.pi / 6, separation_gate(math.pi / 8, math.pi / 6)),
    ):
        result = runner.invoke(
            cli.main,
            ["decompose", "--gate", gate_name, "--theta1", str(theta1), "--theta2", str(theta2)],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        total = np.eye(4, dtype=complex)
        for entry in record["placements"]:
            if entry["gate"] == "CNOT":
                local = CNOT_MATRIX
            else:
                local = np.array(
                    [[complex(re, im) for re, im in row] for row in entry["matrix"]]
                )
            total = oracles.embed(local, tuple(entry["qubits"]), 2) @ total
        worst = max(worst, float(np.max(np.abs(total - np.asarray(direct.entries)))))
    assert worst < 1e-10, f"worst circuit round-trip error {worst:.3e}"

    clean = runner.invoke(cli.main, ["verify"])
    assert clean.exit_code == 0, clean.output

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
