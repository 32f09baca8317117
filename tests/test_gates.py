import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloneforge.bounds import CloningProblem, compose_angle, fidelity_bound, optimal_phis
from cloneforge.gates import (
    CircuitDecomposition,
    GatePlacement,
    KIND_CNOT,
    KIND_LOCAL,
    KIND_TRANSFER,
    clone_gate,
    cnot,
    conjugating_rotation,
    decompose_separation,
    decompose_transfer,
    decompose_transfers,
    decompositions,
    sector_angles,
    separation_gamma,
    separation_gate,
    transfer_gate,
    transfer_gates,
)
from cloneforge.linalg import MINUS, PLUS, StateVector, Unitary, apply_gate, family_state
from cloneforge.networks import compression_sequence, exact_network

import oracles
from conftest import random_orthogonal
from oracles import (
    PARITY_EXCHANGE,
    PAULI_X,
    controlled_reflection,
    equal_parity_reflection,
    reflection,
)

GRID = np.linspace(0.01, math.pi / 4, 8)

#: the computational basis of one and of two qubits; |+> is bit 0
I2 = np.eye(2)
I4 = np.eye(4)


def pair_state(t1, t2, sign):
    """family(t1) (x) family(t2) of one sign."""
    return StateVector(2, oracles.kron_all(family_state(t1, sign).amps, family_state(t2, sign).amps))


# ------------------------------------------------------------ transfer gate


def test_cnot_is_active_on_plus():
    assert np.allclose(cnot().entries, np.eye(4)[[1, 0, 2, 3]])


def test_sector_angles_symmetric_point():
    d1, d2 = sector_angles(math.pi / 8, math.pi / 8)
    assert d1 == pytest.approx(0.169918454727061, abs=1e-14)
    assert d2 == pytest.approx(math.pi / 4, abs=1e-14)


def test_sector_angles_blank_second_qubit():
    d1, d2 = sector_angles(math.pi / 8, 0.0)
    assert d1 == pytest.approx(0.0, abs=1e-15)
    assert d2 == pytest.approx(math.pi / 2, abs=1e-15)


def test_sector_angles_degenerate_corner_rejected():
    with pytest.raises(ValueError, match="odd-sector"):
        sector_angles(0.0, 0.0)


def test_transfer_gate_is_real_hermitian_involution():
    for t1 in GRID:
        for t2 in GRID:
            m = transfer_gate(t1, t2).entries
            assert np.max(np.abs(m.imag)) < 1e-12
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert np.max(np.abs(m @ m - np.eye(4))) < 1e-12


def test_transfer_gate_forward_action():
    """family(t1) (x) family(t2) -> family(composed) (x) |+>, both signs."""
    for t1 in GRID:
        for t2 in GRID:
            gate = transfer_gate(t1, t2)
            t3 = compose_angle(t1, t2)
            for sign in (PLUS, MINUS):
                out = apply_gate(pair_state(t1, t2, sign), gate, (0, 1))
                expect = oracles.kron_all(family_state(t3, sign).amps, I2[0])
                assert np.max(np.abs(out.amps - expect)) < 1e-12


def test_transfer_gate_reverse_action():
    # Hermitian and self-inverse, so the same gate splits a composed state
    t1, t2 = 0.3, 0.55
    gate = transfer_gate(t1, t2)
    t3 = compose_angle(t1, t2)
    for sign in (PLUS, MINUS):
        state = StateVector(2, oracles.kron_all(family_state(t3, sign).amps, I2[0]))
        out = apply_gate(state, gate, (0, 1))
        assert np.max(np.abs(out.amps - pair_state(t1, t2, sign).amps)) < 1e-12


def test_transfer_gate_degenerate_corner_is_sign_flip():
    m = transfer_gate(0.0, 0.0).entries
    assert np.allclose(m, np.diag([1.0, 1.0, 1.0, -1.0]))


def test_transfer_gate_rejects_out_of_range():
    with pytest.raises(ValueError):
        transfer_gate(1.0, 0.1)


@given(
    st.floats(min_value=0.0, max_value=math.pi / 4),
    st.floats(min_value=0.0, max_value=math.pi / 4),
)
@settings(max_examples=80, deadline=None)
@example(4.39e-155, 4.39e-155)
@example(0.0, 4.39e-155)
@example(4.39e-155, 0.0)
def test_transfer_gate_unitary_everywhere(t1, t2):
    m = transfer_gate(t1, t2).entries
    assert np.max(np.abs(m @ m.conj().T - np.eye(4))) < 1e-12


def test_transfer_gate_memo_is_safe_to_share():
    first = transfer_gate(0.3, 0.2)
    assert transfer_gate(0.3, 0.2) is first
    with pytest.raises(ValueError):
        first.entries[0, 0] = 5.0
    # exceptions are not cached: an invalid angle raises on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            transfer_gate(1.0, 0.1)
    assert transfer_gates.cache_info().maxsize is not None
    assert cnot() is cnot()


@given(
    st.floats(min_value=0.01, max_value=math.pi / 4),
    st.integers(min_value=2, max_value=16),
)
@settings(max_examples=60, deadline=None)
@example(math.pi / 4, 16)
@example(0.01, 16)
def test_chain_gates_match_the_sector_oracle_bit_for_bit(theta, copies):
    """Every gate of a chain has the bytes of the zero-matrix-plus-sectors build."""
    chain = compression_sequence(theta, copies)
    assert len(chain) == copies - 1
    for placement in chain:
        want = oracles.transfer_matrix(*sector_angles(*placement.params))
        got = placement.gate.entries
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == transfer_gate(*placement.params).entries.tobytes()


def test_chain_longer_than_the_memos_builds():
    """A chain holds more distinct gates than `transfer_gates` holds entries.

    The transfer memos (`transfer_gates`, `networks._chain` and
    `decompose_transfers`) each hold whole chains, one entry per tuple of
    angle pairs, so a long chain is built and checked gate by gate all the same.
    """
    chain = compression_sequence(0.05, 40)
    assert len({p.params for p in chain}) == 39 > transfer_gates.cache_info().maxsize
    for placement in chain:
        want = oracles.transfer_matrix(*sector_angles(*placement.params))
        assert placement.gate.entries.tobytes() == want.tobytes()
    # far down a long chain the composed angle reaches pi/4 and pairs repeat:
    # each distinct pair is built once and shared
    gate_of = {}
    for placement in compression_sequence(0.3, 1000):
        assert gate_of.setdefault(placement.params, placement.gate) is placement.gate
    assert len(gate_of) < 999


def test_chain_gates_are_shared_by_repeated_builds():
    """The rows of a sweep rebuild a chain and get the same gate objects."""
    first, again = compression_sequence(0.3, 6), compression_sequence(0.3, 6)
    assert all(a.gate is b.gate for a, b in zip(first, again))


def test_transfer_gates_reject_any_bad_pair_on_every_call():
    pairs = ((0.3, 0.2), (0.3, 1.0), (0.1, 0.2))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"theta2 must lie in \[0, pi/4\], got 1\.0"):
            transfer_gates(pairs)
    assert transfer_gates(()) == ()


def _local(matrix, qubit):
    return GatePlacement(Unitary(matrix), (qubit,), f"local@{qubit}", kind=KIND_LOCAL)


def _cnot(control, target):
    return GatePlacement(cnot(), (control, target), "CNOT", kind=KIND_CNOT)


def test_rebuild_matches_kron_oracle(rng):
    """``rebuild`` multiplies the same 4x4 matrices as ``np.kron`` embeddings.

    The emitted decompositions place one-qubit gates on wire 0 and CNOTs in
    both orders; the hand-built circuit adds one-qubit gates on wire 1.
    """
    circuits = [decompose_transfer(t1, t2) for t1 in GRID for t2 in GRID]
    circuits += [decompose_transfer(0.0, 0.0), decompose_transfer(0.0, 0.4)]
    circuits += [decompose_separation(t, 0.7) for t in GRID[:-2]]
    placements = (
        _local(random_orthogonal(rng, 2), 1),
        _cnot(0, 1),
        _local(random_orthogonal(rng, 2), 0),
        _cnot(1, 0),
        _local(random_orthogonal(rng, 2), 1),
    )
    circuits.append(CircuitDecomposition(Unitary(_kron_product(placements)), placements))
    shapes = set()
    for circuit in circuits:
        want = _kron_product(circuit.placements)
        assert np.array_equal(circuit.rebuild(), want)
        assert circuit.max_abs_error == float(np.max(np.abs(want - circuit.target.entries)))
        shapes.update((p.kind, p.qubits) for p in circuit.placements)
    assert shapes == {
        (KIND_LOCAL, (0,)), (KIND_LOCAL, (1,)), (KIND_CNOT, (0, 1)), (KIND_CNOT, (1, 0)),
    }


def _kron_product(placements):
    total = np.eye(4, dtype=np.complex128)
    for p in placements:
        total = oracles.kron_embed(p.gate.entries, p.qubits, 2) @ total
    return total


def _network_pairs(problem):
    spec = exact_network(problem)
    return tuple(dict.fromkeys(p.params for p in spec.placements if p.kind == KIND_TRANSFER))


def test_decomposed_network_circuits_remultiply_like_the_kron_oracle():
    """Each circuit of an N = 16 network keeps its own error, from its own product."""
    pairs = _network_pairs(CloningProblem(0.3, 3, 16))
    circuits = decompose_transfers(pairs)
    assert len(circuits) == 15
    for pair, circuit in zip(pairs, circuits):
        rebuilt = circuit.rebuild()
        assert np.array_equal(rebuilt, _kron_product(circuit.placements))
        assert circuit.max_abs_error == float(np.max(np.abs(rebuilt - circuit.target.entries)))
        alone = decompose_transfer(*pair)
        assert circuit.max_abs_error == alone.max_abs_error
        assert [p.label for p in circuit.placements] == [p.label for p in alone.placements]
        assert circuit.target.entries.tobytes() == transfer_gate(*pair).entries.tobytes()


def test_decomposition_batch_rejects_one_wrong_circuit():
    good = decompose_transfers(_network_pairs(CloningProblem(0.3, 1, 8)))
    items = [(c.target, c.placements) for c in good]
    assert [c.max_abs_error for c in decompositions(items)] == [c.max_abs_error for c in good]
    items[4] = (good[5].target, good[4].placements)
    with pytest.raises(ValueError, match="does not re-multiply to its target"):
        decompositions(items)


def test_decomposition_batch_mixes_circuit_lengths():
    """Circuits of different lengths, and steps on different wires, batch together."""
    placements = (
        _local(reflection(0.7), 1),
        _cnot(1, 0),
        _local(reflection(-0.2), 0),
        _cnot(0, 1),
        _local(np.eye(2), 1),
    )
    hand_built = CircuitDecomposition(Unitary(_kron_product(placements).real), placements)
    circuits = [decompose_transfer(0.2, 0.5), decompose_transfer(0.0, 0.0),
                decompose_separation(0.2, 0.5), decompose_transfer(0.3, 0.1), hand_built]
    batch = decompositions([(c.target, c.placements) for c in circuits])
    assert [c.max_abs_error for c in batch] == [c.max_abs_error for c in circuits]
    assert [len(c.placements) for c in batch] == [7, 5, 3, 7, 5]
    for alone, batched in zip(circuits, batch):
        assert np.array_equal(batched.rebuild(), alone.rebuild())


def test_circuit_decomposition_rejects_other_widths(rng):
    with pytest.raises(ValueError, match="two-qubit"):
        CircuitDecomposition(target=Unitary(random_orthogonal(rng, 8)), placements=())
    with pytest.raises(ValueError, match="wires 0 and 1"):
        CircuitDecomposition(
            target=transfer_gate(0.2, 0.5), placements=(_local(np.eye(2), 2),)
        )


# ------------------------------------------------- sector-reflection algebra
#
# The sector reflections and the parity exchange are built in tests/oracles.py
# as plain arrays; the package's gates must factor into them.


def test_equal_parity_reflection_at_zero():
    assert np.allclose(equal_parity_reflection(0.0), np.diag([1, 1, 1, -1]))


def test_equal_parity_reflection_quarter_turn_swaps_extremes():
    out = apply_gate(StateVector(2, I4[0]), Unitary(equal_parity_reflection(math.pi / 2)), (0, 1))
    assert np.allclose(out.amps, I4[3])


def test_controlled_reflection_examples():
    assert np.allclose(controlled_reflection(0.0), np.diag([1, -1, 1, 1]))
    out = apply_gate(StateVector(2, I4[0]), Unitary(controlled_reflection(math.pi / 2)), (0, 1))
    assert np.allclose(out.amps, I4[1])


def test_parity_exchange_is_hermitian_involution():
    e = PARITY_EXCHANGE
    assert np.allclose(e, e.conj().T)
    assert np.allclose(e @ e, np.eye(4))


def test_sector_exchange_identity():
    """Conjugating the controlled reflection by the parity exchange turns it
    into the equal-parity reflection with the same angle."""
    e = PARITY_EXCHANGE
    for d in np.linspace(-1.5, 1.5, 13):
        q = equal_parity_reflection(d)
        lam = controlled_reflection(d)
        assert np.max(np.abs(q - e @ lam @ e)) < 1e-12


def test_transfer_gate_splits_into_sector_reflections():
    """The full gate factors into commuting even- and odd-sector reflections,
    the odd one shifted by a quarter turn."""
    swap_parity = np.kron(np.eye(2), PAULI_X)
    for t1, t2 in [(0.2, 0.5), (math.pi / 8, math.pi / 8), (0.01, 0.7), (math.pi / 8, 0.0)]:
        d1, d2 = sector_angles(t1, t2)
        odd = swap_parity @ equal_parity_reflection(d2 + math.pi / 2) @ swap_parity
        rebuilt = equal_parity_reflection(d1) @ odd
        assert np.max(np.abs(transfer_gate(t1, t2).entries - rebuilt)) < 1e-12


def test_conjugating_rotation_turns_x_into_reflection():
    for d in np.linspace(-1.5, 1.5, 13):
        a = conjugating_rotation(d).entries
        assert np.max(np.abs(a.conj().T @ PAULI_X @ a - reflection(d))) < 1e-12


# ----------------------------------------------------------- separation gate


def test_separation_gamma_value():
    gamma = separation_gamma(math.pi / 8, math.pi / 6)
    assert math.sin(gamma) == pytest.approx(0.696621399498013, abs=1e-14)
    assert math.cos(gamma) == pytest.approx(0.7174389352143008, abs=1e-14)


def test_separation_gate_action():
    """Ancilla |+> splits into a heralding superposition with the advertised
    branch amplitudes."""
    t_in, t_out = math.pi / 8, math.pi / 6
    p = (1.0 - math.cos(2 * t_in)) / (1.0 - math.cos(2 * t_out))
    gate = separation_gate(t_in, t_out)
    for sign in (PLUS, MINUS):
        state = StateVector(2, oracles.kron_all(I2[0], family_state(t_in, sign).amps))
        out = apply_gate(state, gate, (0, 1))
        success = oracles.kron_all(I2[0], family_state(t_out, sign).amps)
        failure = oracles.kron_all(I2[1], I2[0])
        expect = math.sqrt(p) * success + math.sqrt(1.0 - p) * failure
        assert np.max(np.abs(out.amps - expect)) < 1e-12


def test_separation_gate_identity_angles_is_not_identity():
    # equal angles give a unit success branch, but the gate still flips one sign
    m = separation_gate(0.3, 0.3).entries
    assert np.allclose(m, np.diag([1.0, 1.0, -1.0, 1.0]))


def test_separation_gate_leaves_idle_states_alone():
    gate = separation_gate(math.pi / 8, math.pi / 6)
    for idx in (1, 3):
        out = apply_gate(StateVector(2, I4[idx]), gate, (0, 1))
        assert np.allclose(out.amps, I4[idx])


def test_separation_gate_rejects_widening():
    with pytest.raises(ValueError, match="not a separation"):
        separation_gate(0.5, 0.3)


def test_separation_rotation_is_plain_rotation():
    gamma = separation_gamma(math.pi / 8, math.pi / 6)
    b = decompose_separation(math.pi / 8, math.pi / 6).placements[0].gate.entries
    phi = math.pi / 4 - gamma / 2
    expect = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    assert np.max(np.abs(b - expect)) < 1e-12


# ---------------------------------------------------------------- clone gate


@pytest.mark.parametrize("eta_plus", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("m, n", [(1, 2), (1, 5), (2, 3), (2, 7), (3, 9)])
def test_clone_gate_rotates_the_compressed_pair_to_the_optimal_outputs(m, n, eta_plus):
    """One rotation by phi_plus - theta_M reaches both optimal outputs.

    phi_plus - phi_minus = 2 theta_M, so the turn that takes the plus input
    to phi_plus takes the minus input to phi_minus; at equal priors the
    outputs are the inputs and the gate is exactly the identity.
    """
    for theta in GRID:
        prob = CloningProblem(theta, m, n, eta_plus)
        phis = optimal_phis(prob)
        gate = clone_gate(phis.phi_plus - prob.theta_m).entries
        for sign, phi in ((PLUS, phis.phi_plus), (MINUS, phis.phi_minus)):
            got = gate @ family_state(prob.theta_m, sign).amps
            assert np.max(np.abs(got - [math.cos(phi), math.sin(phi)])) < 1e-12
        if eta_plus == 0.5:
            assert np.array_equal(gate, np.eye(2))
        objective = oracles.objective(prob.theta_n, phis.phi_plus, phis.phi_minus, eta_plus)
        assert abs(objective - fidelity_bound(prob)) < 1e-12


# ------------------------------------------------------------ decompositions


def test_decompose_transfer_rebuilds_target():
    for t1 in GRID:
        for t2 in GRID:
            circuit = decompose_transfer(t1, t2)
            assert circuit.max_abs_error < 1e-10
            assert circuit.cnot_count == 4
            assert len(circuit.placements) == 7


def test_decompose_transfer_degenerate_corner():
    circuit = decompose_transfer(0.0, 0.0)
    assert circuit.max_abs_error < 1e-10
    assert circuit.cnot_count == 3
    assert len(circuit.placements) == 5


def test_decompose_separation_rebuilds_target():
    for t_in in GRID:
        for t_out in GRID:
            if t_in > t_out:
                continue
            circuit = decompose_separation(t_in, t_out)
            assert circuit.max_abs_error < 1e-10
            assert circuit.cnot_count == 1
            assert len(circuit.placements) == 3


def test_decomposition_factors_are_real_with_unit_determinant():
    circuit = decompose_transfer(0.2, 0.5)
    for p in circuit.placements:
        m = p.gate.entries
        assert np.max(np.abs(m.imag)) == 0.0
        assert abs(abs(np.linalg.det(m.real)) - 1.0) < 1e-12


def test_decompose_separation_cnot_targets_ancilla():
    circuit = decompose_separation(math.pi / 8, math.pi / 6)
    cnots = [p for p in circuit.placements if p.kind == KIND_CNOT]
    assert len(cnots) == 1
    assert cnots[0].qubits == (1, 0)  # system controls, ancilla is the target


def test_placement_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        GatePlacement(gate=cnot(), qubits=(0,), label="bad")


def test_placement_rejects_duplicate_qubits():
    with pytest.raises(ValueError):
        GatePlacement(gate=cnot(), qubits=(1, 1), label="bad")


def test_circuit_decomposition_rejects_wrong_product():
    placements = (
        GatePlacement(gate=cnot(), qubits=(0, 1), label="CNOT", kind=KIND_CNOT),
    )
    with pytest.raises(ValueError, match="re-multiply"):
        CircuitDecomposition(target=transfer_gate(0.2, 0.5), placements=placements)


def test_circuit_decomposition_rejects_composite_kinds():
    placement = GatePlacement(
        gate=transfer_gate(0.2, 0.5),
        qubits=(0, 1),
        label="transfer",
        kind="transfer",
    )
    with pytest.raises(ValueError, match="kind"):
        CircuitDecomposition(target=transfer_gate(0.2, 0.5), placements=(placement,))


@given(
    st.floats(min_value=0.0, max_value=math.pi / 4),
    st.floats(min_value=0.0, max_value=math.pi / 4),
)
@settings(max_examples=60, deadline=None)
@example(4.39e-155, 4.39e-155)
@example(0.0, 4.39e-155)
@example(4.39e-155, 0.0)
def test_decompose_transfer_everywhere(t1, t2):
    circuit = decompose_transfer(t1, t2)
    assert circuit.max_abs_error < 1e-10


def test_transfer_pair_overlap_is_preserved():
    # a quick end-to-end sanity mark: the gate is unitary, so the two-copy
    # overlap before equals the composed overlap after
    t1, t2 = math.pi / 8, 0.4
    gate = transfer_gate(t1, t2)
    a = apply_gate(pair_state(t1, t2, PLUS), gate, (0, 1))
    b = apply_gate(pair_state(t1, t2, MINUS), gate, (0, 1))
    t3 = compose_angle(t1, t2)
    assert np.vdot(a.amps, b.amps) == pytest.approx(math.cos(2 * t3), abs=1e-12)


def test_gates_are_immutable():
    gate = transfer_gate(0.2, 0.5)
    with pytest.raises(ValueError):
        gate.entries[0, 0] = 5.0
