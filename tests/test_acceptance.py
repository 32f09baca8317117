"""Acceptance suite: one test per advertised guarantee.

Each test pins a numeric tolerance and a wall-clock budget, so
``pytest tests/test_acceptance.py -v`` reads as a one-line-per-guarantee
scorecard.  The guarantees are derived once, by the ``cloneforge.verify``
suites; each criterion runs its suite on the full acceptance grid and pins
the suite's tolerances as literals, so loosening ``verify.TOLERANCES``
fails here.  What stays in this file are the cross-checks that do not go
through ``verify``: the independent helpers in tests/oracles.py, the
per-copy overlap read from amplitudes, and the JSON round trip.
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
from cloneforge import cli, verify
from cloneforge.bounds import (
    CloningProblem,
    compose_angle,
    d_cloner_global_fidelity,
    d_cloner_local_fidelity,
    exact_clone_probability,
    fidelity_bound,
)
from cloneforge.gates import (
    conjugating_rotation,
    decompose_separation,
    decompose_transfer,
    sector_angles,
    separation_gate,
    transfer_gate,
)
from cloneforge.linalg import MINUS, PLUS, StateVector, apply_gate, family_state

GATE_GRID = np.linspace(0.01, math.pi / 4, 20)
CNOT_MATRIX = np.eye(4)[[1, 0, 2, 3]]


def assert_passed(result, **tolerances):
    """``result`` passed, judged by the literal ``tolerances`` of its
    ``verify.TOLERANCES`` keys."""
    for key, tol in tolerances.items():
        assert verify.TOLERANCES[key] == tol, f"{key} tolerance {verify.TOLERANCES[key]!r}"
    assert result.tolerance in tolerances.values(), result
    assert result.passed, result


def remultiplied(placements):
    """Multiply a circuit's placements back together, oldest first."""
    total = np.eye(4, dtype=complex)
    for placement in placements:
        local = np.asarray(placement.gate.entries)
        total = oracles.embed(local, placement.qubits, 2) @ total
    return total


def test_criterion_1_gate_algebra():
    """Transfer gate: Hermitian, self-inverse; merges and splits both family
    branches; < 1e-12 over a 20 x 20 angle grid in < 1 s.  (Its unitarity is
    the `Unitary` constructor's check, at the same bound.)"""
    start = time.perf_counter()
    result = verify.check_gate_algebra(GATE_GRID)
    elapsed = time.perf_counter() - start
    assert_passed(result, gate_algebra=1e-12)
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
    result = verify.check_exact_networks(ACCEPT_THETAS, MN_PAIRS)
    elapsed = time.perf_counter() - start
    assert_passed(result, exact_network=1e-10)
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_4_approximate_cloning():
    """Approximate networks hit the closed-form optimum within 1e-10, and
    the closed form beats-or-ties a dense scan within 1e-6, over the exact
    grid times three priors, in < 10 s."""
    start = time.perf_counter()
    result = verify.check_approx_networks(ACCEPT_THETAS, ETA_GRID, MN_PAIRS)
    worst_scan = 0.0
    for theta, (m, n), eta in itertools.product(ACCEPT_THETAS, MN_PAIRS, ETA_GRID):
        problem = CloningProblem(theta=theta, m_copies=m, n_copies=n, eta_plus=eta)
        scanned = oracles.scan_best_fidelity(theta, m, n, eta, grid=20001)
        worst_scan = max(worst_scan, abs(fidelity_bound(problem) - scanned))
    elapsed = time.perf_counter() - start
    assert_passed(result, approx_network=1e-10)
    assert worst_scan < 1e-6, f"worst closed-form-vs-scan gap {worst_scan:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_5_hybrid_tradeoff():
    """Hybrid networks herald at the requested rate (1e-10) with the
    trade-off fidelity (1e-9); the endpoints reproduce exact and optimal
    approximate cloning, in < 10 s."""
    start = time.perf_counter()
    result = verify.check_hybrid_networks(ACCEPT_THETAS, MN_PAIRS)
    elapsed = time.perf_counter() - start
    assert_passed(result, hybrid_success=1e-10, hybrid_fidelity=1e-9)
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_6_limits():
    """Many-copy limits: the fidelity bound meets the Helstrom bound within
    1e-6 at N = 50, and the finite trade-off curve meets its limiting form
    within 1e-8 at N = 40 across a success-probability sweep, in < 1 s."""
    start = time.perf_counter()
    result = verify.check_asymptotics(
        (math.pi / 8, 3 * math.pi / 16, math.pi / 4), (1, 2), ETA_GRID, limit_steps=21
    )
    elapsed = time.perf_counter() - start
    assert_passed(result, asymptotic_helstrom=1e-6, asymptotic_hybrid_limit=1e-8)
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_7_transfer_gate_as_cloner():
    """A lone transfer gate splits its natural input into two independent
    copies whose per-copy fidelity is the angle-difference cosine and whose
    global fidelity is its square, within 1e-12, in < 1 s.  The split joins
    the blank wire with the bytes of padding it first."""
    start = time.perf_counter()
    thetas = (math.pi / 16, math.pi / 8, 3 * math.pi / 16)
    result = verify.check_d_cloner(thetas)
    worst = 0.0
    for theta1 in thetas:
        theta3 = compose_angle(theta1, theta1)
        local_f = d_cloner_local_fidelity(theta3, theta1)
        worst = max(worst, abs(local_f - math.cos(theta3 - theta1)))
        worst = max(worst, abs(d_cloner_global_fidelity(theta3, theta1) - local_f ** 2))
        for sign in (PLUS, MINUS):
            ideal = family_state(theta3, sign)
            gate = transfer_gate(theta1, theta1)
            out = apply_gate(ideal, gate, (0, 1))  # joins the blank wire 1
            padded = StateVector(2, oracles.pad_qubits(ideal.amps, 2))
            assert out.amps.tobytes() == apply_gate(padded, gate, (0, 1)).amps.tobytes()
            # per-copy overlap, straight from the output amplitudes
            pair_amps = out.amps.reshape(2, 2)
            for contracted in (ideal.amps @ pair_amps, pair_amps @ ideal.amps):
                worst = max(worst, abs(float(np.linalg.norm(contracted)) - local_f))
    elapsed = time.perf_counter() - start
    assert_passed(result, d_cloner=1e-12)
    assert worst < 1e-12, f"worst per-copy or formula deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_8_decomposed_networks():
    """Swapping every two-qubit gate for its CNOT circuit changes no
    reported quantity by more than 1e-9 across all cloning runs, in < 20 s."""
    start = time.perf_counter()
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
    result = verify.check_decomposed_networks(runs)
    elapsed = time.perf_counter() - start
    assert_passed(result, decomposed_shift=1e-9)
    assert elapsed < 20.0, f"took {elapsed:.2f} s"


def test_criterion_9_cli_contract():
    """The sweep is byte-deterministic, emitted circuits rebuild their
    gates within 1e-10, and the self-check command exits 0, in < 30 s."""
    start = time.perf_counter()
    runner = CliRunner()

    result = verify.check_cli_determinism([("tradeoff", "--theta", str(math.pi / 8))])
    assert_passed(result, cli_determinism=0.0)

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
        total = np.eye(4)
        for entry in record["placements"]:
            if entry["gate"] == "CNOT":
                local = CNOT_MATRIX
            else:
                # each entry is printed as [re, im], and every gate is real
                matrix = np.array(entry["matrix"])
                assert not matrix[..., 1].any(), entry
                local = matrix[..., 0]
            total = oracles.embed(local, tuple(entry["qubits"]), 2) @ total
        worst = max(worst, float(np.max(np.abs(total - np.asarray(direct.entries)))))
    assert worst < 1e-10, f"worst circuit round-trip error {worst:.3e}"

    clean = runner.invoke(cli.main, ["verify"])
    assert clean.exit_code == 0, clean.output

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
