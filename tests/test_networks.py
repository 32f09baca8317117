import dataclasses
import hashlib
import itertools
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cloneforge import networks
from cloneforge.bounds import (
    CloningProblem,
    angle_for_copies,
    exact_clone_probability,
    fidelity_bound,
    hybrid_fidelity_bound,
)
from cloneforge.gates import (
    KIND_CLONE,
    KIND_CNOT,
    KIND_LOCAL,
    KIND_SEPARATION,
    KIND_TRANSFER,
    GatePlacement,
    clone_gate,
    cnot,
    transfer_gate,
)
from cloneforge.linalg import (
    MINUS,
    PLUS,
    StateVector,
    Unitary,
    apply_gate,
    family_state,
)
from cloneforge.networks import (
    MODES,
    NetworkSpec,
    SimulationResult,
    approx_network,
    compression_sequence,
    evaluate_cloner,
    exact_network,
    expand_decompositions,
    hybrid_network,
    run_network,
)

import oracles
from conftest import random_orthogonal

P12 = 0.5857864376269049
P13 = 0.4530818393219728
F12_EQUAL = 0.9829629131445341
F_HYBRID_08 = 0.9933752598359651


def problem(theta=math.pi / 8, m=1, n=2, eta_plus=0.5):
    return CloningProblem(theta=theta, m_copies=m, n_copies=n, eta_plus=eta_plus)


def prepare_input(prob, sign, with_ancilla):
    """The oracle's network input, as a package state."""
    amps = oracles.prepare_input(prob, sign, with_ancilla)
    return StateVector(prob.n_copies + (1 if with_ancilla else 0), amps)


# ------------------------------------------------------------- input states


def test_prepare_input_layout():
    prob = problem(m=1, n=2)
    state = prepare_input(prob, PLUS, with_ancilla=False)
    assert state.n_qubits == 2
    expect = oracles.kron_all(
        oracles.family_amps(prob.theta, +1), np.array([1.0, 0.0])
    )
    assert np.max(np.abs(state.amps - expect)) < 1e-15
    assert np.array_equal(state.amps, oracles.pad_qubits(family_state(prob.theta, PLUS).amps, 2))


def test_prepare_input_with_ancilla():
    prob = problem(m=2, n=3)
    state = prepare_input(prob, MINUS, with_ancilla=True)
    assert state.n_qubits == 4
    expect = oracles.kron_all(
        oracles.copies_amps(prob.theta, -1, 2),
        np.array([1.0, 0.0]),
        np.array([1.0, 0.0]),
    )
    assert np.max(np.abs(state.amps - expect)) < 1e-15
    package = oracles.pad_qubits(family_state(prob.theta, MINUS, copies=2).amps, 4)
    assert np.array_equal(state.amps, package)


def test_prepare_input_overlap_is_copy_power():
    prob = problem(m=3, n=4)
    a = prepare_input(prob, PLUS, with_ancilla=False)
    b = prepare_input(prob, MINUS, with_ancilla=False)
    assert np.vdot(a.amps, b.amps) == pytest.approx(math.cos(2 * prob.theta) ** 3, abs=1e-13)


# ------------------------------------------------------ gate sequence shapes


def test_compression_sequence_single_copy_is_empty():
    assert compression_sequence(math.pi / 8, 1) == ()


def test_compression_sequence_three_copies():
    prob = problem(m=3, n=4)
    seq = compression_sequence(prob.theta, prob.m_copies)
    assert [p.qubits for p in seq] == [(1, 2), (0, 1)]
    assert seq[0].params == (prob.theta, prob.theta)
    assert seq[1].params == (prob.theta, angle_for_copies(prob.theta, 2))
    assert all(p.kind == KIND_TRANSFER for p in seq)


def test_decompression_sequence_two_copies():
    """Decompression is the N-copy compression chain, reversed."""
    prob = problem(m=1, n=2)
    seq = compression_sequence(prob.theta, prob.n_copies)[::-1]
    assert [p.qubits for p in seq] == [(0, 1)]
    assert seq[0].params == (prob.theta, prob.theta)


def test_compression_concentrates_distinguishability():
    prob = problem(m=3, n=4)
    seq = compression_sequence(prob.theta, prob.m_copies)
    state = prepare_input(prob, PLUS, with_ancilla=False)
    for p in seq:
        state = apply_gate(state, p.gate, p.qubits)
    theta3 = angle_for_copies(prob.theta, 3)
    expect = oracles.kron_all(family_state(theta3, PLUS).amps, np.eye(8)[0])
    assert np.max(np.abs(state.amps - expect)) < 1e-12


def test_decompression_inverts_compression():
    theta = 0.3
    copies = family_state(theta, MINUS, copies=3)
    compressed = StateVector(4, oracles.kron_all(copies.amps, np.eye(2)[0]))
    for p in compression_sequence(theta, 3):
        compressed = apply_gate(compressed, p.gate, p.qubits)
    # the 4th wire never entered the compression; spreading back out over the
    # first three wires must restore the original copies
    restored = compressed
    for p in compression_sequence(theta, 3)[::-1]:
        restored = apply_gate(restored, p.gate, p.qubits)
    assert np.max(np.abs(restored.amps - oracles.kron_all(copies.amps, np.eye(2)[0]))) < 1e-12


# ------------------------------------------------------------ exact cloning


def test_exact_network_shape():
    spec = exact_network(problem(m=1, n=3))
    assert spec.n_qubits == 4
    assert spec.heralded
    kinds = [p.kind for p in spec.placements]
    assert kinds.count(KIND_SEPARATION) == 1


def test_exact_network_statistics():
    report = evaluate_cloner(problem(m=1, n=3), "exact")
    assert report.success_probability == pytest.approx(P13, abs=1e-10)
    assert report.fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.success_bound == pytest.approx(
        exact_clone_probability(math.pi / 8, 1, 3), abs=1e-15
    )
    assert report.fidelity_deviation < 1e-10
    assert report.success_deviation < 1e-10


def test_exact_network_perfect_at_maximal_angle():
    # orthogonal inputs clone deterministically
    report = evaluate_cloner(problem(theta=math.pi / 4, m=1, n=2), "exact")
    assert report.success_probability == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------ approximate cloning


def test_approx_network_statistics():
    prob = problem(eta_plus=0.7)
    report = evaluate_cloner(prob, "approx")
    assert report.success_probability == pytest.approx(1.0)
    assert report.fidelity == pytest.approx(fidelity_bound(prob), abs=1e-10)
    assert report.fidelity_deviation < 1e-10


def test_approx_network_no_measurement():
    spec = approx_network(problem())
    assert not spec.heralded
    assert spec.n_qubits == 2


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("eta_plus", [0.6, 0.8])
def test_approx_network_saturates_the_bound_at_small_theta(rng, eta_plus, decomposed):
    """The clone stage is one rotation, so no small angle makes it ill-posed.

    Log-uniform theta in [3e-8, 1e-3], where the unequal-prior clone gate
    used to be solved from a near-singular 2x2 system.
    """
    for theta in np.exp(rng.uniform(math.log(3e-8), math.log(1e-3), size=12)):
        for m, n in ((1, 2), (2, 5), (3, 7)):
            prob = problem(theta=float(theta), m=m, n=n, eta_plus=eta_plus)
            report = evaluate_cloner(prob, "approx", decompose_gates=decomposed)
            assert abs(report.fidelity - fidelity_bound(prob)) < 1e-12


def test_approx_clone_overlap_matches_source_pair():
    # unitarity forces the cloned outputs to keep the M-copy overlap
    prob = problem(m=1, n=2)
    report = evaluate_cloner(prob, "approx")
    got = np.vdot(report.plus_result.post_state.amps, report.minus_result.post_state.amps)
    assert got == pytest.approx(math.cos(2 * prob.theta), abs=1e-12)


# ----------------------------------------------------------- hybrid cloning


def test_hybrid_network_interior_point():
    report = evaluate_cloner(problem(), "hybrid", p_s=0.8)
    assert report.success_probability == pytest.approx(0.8, abs=1e-10)
    assert report.fidelity == pytest.approx(F_HYBRID_08, abs=1e-9)


def test_hybrid_network_reduces_to_exact_at_minimum_rate():
    report = evaluate_cloner(problem(), "hybrid", p_s=P12)
    assert report.success_probability == pytest.approx(P12, abs=1e-10)
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)


def test_hybrid_network_reduces_to_approx_at_unit_rate():
    report = evaluate_cloner(problem(), "hybrid", p_s=1.0)
    assert report.success_probability == pytest.approx(1.0, abs=1e-10)
    assert report.fidelity == pytest.approx(F12_EQUAL, abs=1e-9)


def test_hybrid_matches_tradeoff_curve_between_endpoints():
    for p_s in (P12, (P12 + 1.0) / 2.0, 1.0):
        report = evaluate_cloner(problem(), "hybrid", p_s=p_s)
        point = hybrid_fidelity_bound(math.pi / 8, 1, 2, p_s)
        assert report.fidelity == pytest.approx(point.fidelity_bound, abs=1e-9)


def test_hybrid_rejects_unequal_priors():
    with pytest.raises(ValueError, match="equal priors"):
        hybrid_network(problem(eta_plus=0.7), 0.8)


def test_hybrid_requires_rate():
    with pytest.raises(ValueError, match="p_s"):
        evaluate_cloner(problem(), "hybrid")


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("mode", MODES)
def test_every_mode_rejects_identical_states(mode, m):
    """theta = 0 is refused by the separation gate or the closed forms the network uses."""
    prob = problem(theta=0.0, m=m, n=m + 1)
    with pytest.raises(ValueError, match=r"theta_in must lie in \(0, pi/4\]|identical states"):
        evaluate_cloner(prob, mode, p_s=0.8 if mode == "hybrid" else None)


# ------------------------------------------------------------ run mechanics


def test_run_network_is_deterministic():
    prob = problem(m=1, n=3)
    spec = exact_network(prob)
    state = family_state(prob.theta, PLUS)
    ref = family_state(prob.theta, PLUS)
    a = run_network(spec, state, reference=ref)
    b = run_network(spec, state, reference=ref)
    assert a.success_probability == b.success_probability
    assert np.array_equal(a.post_state.amps, b.post_state.amps)
    assert a.global_fidelity_vs_exact == b.global_fidelity_vs_exact


def test_run_network_empty_spec():
    """A network built by hand, empty or a copy of one built here, is refused: the message
    names the networks `run_network` runs."""
    state, ref = family_state(0.3, PLUS), family_state(0.3, MINUS)
    built = exact_network(problem(theta=0.3))
    for spec in (NetworkSpec(n_qubits=1, placements=()), dataclasses.replace(built)):
        with pytest.raises(ValueError, match=r"^run_network runs the networks that exact_network, "
                                             r"approx_network, hybrid_network and expand_decompositions build"):
            run_network(spec, state, reference=ref)
    assert run_network(built, state, reference=ref).success_probability > 0.0


def test_run_network_rejects_wrong_input_size():
    """The input is the M copies: the full register, or fewer wires, is refused."""
    prob = problem(m=2, n=4)
    for spec in (approx_network(prob), expand_decompositions(exact_network(prob))):
        for width in (1, 3, spec.n_qubits):
            with pytest.raises(ValueError, match=rf"^input has {width} qubit\(s\), network expects its 2 input copies"):
                run_network(spec, StateVector(width, np.eye(2 ** width)[0]), reference=family_state(0.3, PLUS))


def test_run_network_rejects_wrong_reference_size():
    prob = problem()
    spec = exact_network(prob)
    state = family_state(prob.theta, PLUS)
    with pytest.raises(ValueError, match="^reference must be a one-qubit state, got 2 qubits"):
        run_network(spec, state, reference=StateVector(2, np.eye(4)[0]))


def test_network_spec_validates_indices():
    with pytest.raises(ValueError, match="qubit"):
        NetworkSpec(
            n_qubits=1,
            placements=compression_sequence(math.pi / 8, 3),
        )


def test_network_spec_names_the_first_placement_off_the_register():
    """All wires are checked at once; the message names the first placement
    that reaches past the register, and its first such wire."""
    chain = compression_sequence(math.pi / 8, 3)  # on wires (1, 2), then (0, 1)
    assert NetworkSpec(3, chain).placements == chain
    with pytest.raises(ValueError) as info:
        NetworkSpec(2, chain[::-1] + chain)
    assert str(info.value) == (
        f"placement {chain[0].label!r} references qubit 2, but the network has 2 qubit(s)"
    )
    flip = GatePlacement(Unitary(np.diag([1.0, -1.0])), (-1,), "flip@-1")
    with pytest.raises(ValueError, match=r"^placement 'flip@-1' references qubit -1, but the network has 3"):
        NetworkSpec(3, chain + (flip,))


def test_evaluate_cloner_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        evaluate_cloner(problem(), "teleport")


# ----------------------------------------------------- decomposed execution


def test_expand_decompositions_preserves_statistics():
    prob = problem(m=2, n=3)
    direct = evaluate_cloner(prob, "exact")
    via_cnots = evaluate_cloner(prob, "exact", decompose_gates=True)
    assert abs(direct.fidelity - via_cnots.fidelity) < 1e-9
    assert abs(direct.success_probability - via_cnots.success_probability) < 1e-9


def test_expand_decompositions_leaves_only_primitive_gates():
    spec = expand_decompositions(exact_network(problem(m=2, n=3)))
    for p in spec.placements:
        assert p.kind in (KIND_CNOT, KIND_LOCAL)
    spec = expand_decompositions(hybrid_network(problem(m=1, n=2), 0.8))
    kinds = {p.kind for p in spec.placements}
    assert kinds <= {KIND_CNOT, KIND_LOCAL}


def test_expand_decompositions_remaps_wires():
    prob = problem(m=1, n=2)
    spec = expand_decompositions(exact_network(prob))
    # the separation acted on (ancilla, qubit 0) = (2, 0); its CNOT must too
    cnots = [p for p in spec.placements if p.kind == KIND_CNOT]
    assert any(p.qubits == (0, 2) for p in cnots)
    assert all("[from" in p.label for p in spec.placements if p.kind != KIND_CLONE)


#: sha256 of the newline-joined labels of every placement, at theta = 0.3, M = 2,
#: N = 4 (eta_plus = 0.7 for approx, p_s = 0.9 for hybrid), taken when every label
#: was formatted as its placement was built
_LABEL_DIGESTS = {
    ("exact", False): "37326bdb93b44f1a393e64503b6f3eb6de0d4943e839b050b47f3ae8767c4bcd",
    ("exact", True): "edfaeb841b61dc3091dd5e62073b12649b2870b647998c2996bed9e5e8eaffbc",
    ("approx", False): "68ad40ae74852389eaeeef5e32955f8f2fa6d4d6d7ae80d4152f2482b184e72b",
    ("approx", True): "8ef2d50f2a149f61be6fd7826d0f0753e12ba89d472c65170228c6b94476a77c",
    ("hybrid", False): "1affa0d9432158015de171a19a18f9160767ac9db4b0a68004d2fbb4d734ec3d",
    ("hybrid", True): "325afcc1b6280bdc6ab6f4f43262f5d00d485933595a03403f28f5a5536c6127",
}


@pytest.mark.parametrize("mode, decomposed", sorted(_LABEL_DIGESTS))
def test_labels_read_as_when_they_were_formatted_eagerly(mode, decomposed):
    """A placement formats its label when it is read, with the text it once got when built."""
    prob = problem(theta=0.3, m=2, n=4, eta_plus=0.7 if mode == "approx" else 0.5)
    spec = {"exact": exact_network, "approx": approx_network}.get(mode, lambda p: hybrid_network(p, 0.9))(prob)
    if decomposed:
        spec = expand_decompositions(spec)
    labels = [p.label for p in spec.placements]
    if (mode, decomposed) == ("approx", False):
        assert labels == ["transfer(0.3,0.3)@(0, 1)", "clone(0.0544599)@0", "transfer(0.3,0.486876)@(0, 1)",
                          "transfer(0.3,0.410712)@(1, 2)", "transfer(0.3,0.3)@(2, 3)"]
    digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()
    assert digest == _LABEL_DIGESTS[mode, decomposed]


@pytest.mark.parametrize("mode", ["exact", "approx", "hybrid"])
@pytest.mark.parametrize("m, n", [(1, 2), (2, 5), (3, 6)])
def test_expand_decompositions_decomposes_each_distinct_gate_once(monkeypatch, mode, m, n):
    """The compression gates repeat decompression gates; each is decomposed once.

    The N - 1 decompression gates are all distinct and the M - 1 compression
    gates repeat M - 1 of them, so a network makes N - 1 transfer circuits,
    in one batch, and at most one separation circuit.
    """
    calls = {"decompose_transfers": [], "decompose_separation": []}

    def spy(name):
        original = getattr(networks, name)

        def record(*params):
            calls[name].append(params)
            return original(*params)

        return record

    for name in calls:
        monkeypatch.setattr(networks, name, spy(name))
    prob = problem(theta=0.3, m=m, n=n)
    spec = _network(prob, mode)
    expand_decompositions(spec)
    transfers = [p.params for p in spec.placements if p.kind == KIND_TRANSFER]
    assert len(transfers) == (m - 1) + (n - 1)
    ((batch,),) = calls["decompose_transfers"]
    assert sorted(batch) == sorted(set(transfers))
    assert len(batch) == n - 1
    assert len(calls["decompose_separation"]) == (0 if mode == "approx" else 1)


@pytest.mark.parametrize("mode", ["exact", "approx", "hybrid"])
@pytest.mark.parametrize("m, n", [(1, 2), (2, 5), (3, 16)])
def test_expanded_circuits_target_the_network_gates(monkeypatch, mode, m, n):
    """The batch of transfer circuits is the N-copy chain's pairs in order, so
    its targets are the gates the network already built, not rebuilt ones."""
    batches, original = [], networks.decompose_transfers

    def record(pairs):
        batches.append(original(pairs))
        return batches[-1]

    monkeypatch.setattr(networks, "decompose_transfers", record)
    spec = _network(problem(theta=0.3, m=m, n=n), mode)
    expanded = expand_decompositions(spec)
    gate_of = {p.params: p.gate for p in spec.placements if p.kind == KIND_TRANSFER}
    (circuits,) = batches
    assert len(circuits) == n - 1
    assert all(gate_of[params] is c.target for params, c in zip(sorted(gate_of), circuits))
    assert len(expanded.placements) > len(spec.placements)


@pytest.mark.parametrize("mode", ["exact", "hybrid"])
@pytest.mark.parametrize("m, n", [(2, 5), (3, 16)])
def test_a_fresh_angle_builds_each_gate_once(monkeypatch, mode, m, n):
    """A fresh-theta, CNOT-level `evaluate_cloner` builds and checks each gate once.

    Each distinct angle pair's sectors are solved once, for its gate and its
    circuit; the N - 1 transfer gates, of both chains, are one `unitaries`
    stack; the separation's mixing angle is solved once and its gate, checked
    once, is the target of its circuit; the compression placements hold the
    decompression chain's own gates.
    """
    from cloneforge import gates, linalg

    solved, stacks, gammas, networks_built = [], [], [], []
    spies = {
        "sector_angles": lambda original: lambda *args: solved.append(args) or original(*args),
        "unitaries": lambda original: lambda mats: stacks.append(np.shape(mats)) or original(mats),
        "separation_gamma": lambda original: lambda *args: gammas.append(args) or original(*args),
    }
    for name, spy in spies.items():
        monkeypatch.setattr(gates, name, spy(getattr(gates, name)))
    # a lone `Unitary` is checked as a stack of one by linalg's own binding
    monkeypatch.setattr(linalg, "unitaries", gates.unitaries)
    original_expand = networks.expand_decompositions
    monkeypatch.setattr(
        networks, "expand_decompositions",
        lambda spec: networks_built.append((spec, original_expand(spec))) or networks_built[-1][1],
    )
    theta = 0.3 + 1e-9 * (m + n) + (mode == "hybrid") * 1e-10  # no memo has seen it
    prob = problem(theta=theta, m=m, n=n)
    evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=True)
    ((spec, expanded),) = networks_built
    pairs = [p.params for p in spec.placements if p.kind == KIND_TRANSFER]
    assert sorted(solved) == sorted(set(pairs)) and len(solved) == n - 1
    assert sorted(s for s in stacks if s[1:] == (4, 4)) == [(1, 4, 4), (n - 1, 4, 4)]
    assert sorted(s for s in stacks if s[1:] == (2, 2)) == [(2, 2, 2), (2 * (n - 1), 2, 2)]
    assert len(gammas) == 1
    gate_of = {}
    for p in spec.placements[::-1]:
        if p.kind == KIND_TRANSFER:
            assert gate_of.setdefault(p.params, p.gate) is p.gate
    (separation,) = [p for p in spec.placements if p.kind == KIND_SEPARATION]
    (circuit,) = [c for c, source in expanded._runs if source is separation]
    assert circuit.target is separation.gate


def test_both_signs_share_one_walk(monkeypatch):
    """`evaluate_cloner` works out the walk of its network once, for both signs.

    A network that keeps the Z symmetry of the two inputs (every one at equal
    priors) is walked once, for the plus sign: the minus result is taken from
    it.  The approx network at unequal priors is walked for each sign.
    """
    walk, runs = NetworkSpec.__dict__["_walk"], []
    built, build = [], walk.func
    original_run = networks.run_network

    def count(spec):
        built.append(spec)
        return build(spec)

    def record(spec, *args, **kwargs):
        runs.append(spec)
        return original_run(spec, *args, **kwargs)

    monkeypatch.setattr(walk, "func", count)
    monkeypatch.setattr(networks, "run_network", record)
    cases = [(mode, 0.5) for mode in MODES] + [("approx", 0.7)]
    for (mode, eta_plus), decomposed in itertools.product(cases, (False, True)):
        built.clear()
        runs.clear()
        prob = problem(theta=0.3, m=2, n=5, eta_plus=eta_plus)
        evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=decomposed)
        assert len(runs) == (2 if eta_plus != 0.5 else 1) and runs[0] is runs[-1]
        assert len(built) == 1 and built[0] is runs[0]


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("mode", MODES)
def test_a_network_equals_one_built_afresh_from_its_placements(mode, decomposed):
    """A spec built from another's placements is equal to it.  Built by hand, it has no
    shape and `run_network` refuses it; given the network's shape, it walks the same
    gates on the same live wires and runs to the same bytes: the walk depends on nothing
    but the placements and the shape, and the walk a network's shape shares is its own."""
    prob = problem(theta=0.3, m=2, n=5, eta_plus=0.7 if mode == "approx" else 0.5)
    spec = _network(prob, mode)
    if decomposed:
        spec = expand_decompositions(spec)
    fresh = NetworkSpec(spec.n_qubits, tuple(spec.placements), spec.heralded)
    assert fresh == spec
    with pytest.raises(ValueError, match="not one built by hand"):
        run_network(fresh, family_state(0.3, PLUS, copies=2), reference=family_state(0.3, PLUS))
    fresh = NetworkSpec(spec.n_qubits, tuple(spec.placements), spec.heralded)
    fresh.__dict__["shape"] = spec.shape
    assert fresh._walk == spec._walk
    for sign in (PLUS, MINUS):
        state, reference = family_state(0.3, sign, copies=2), family_state(0.3, sign)
        got, want = (run_network(s, state, reference=reference) for s in (fresh, spec))
        _assert_same_bits(got, want)
        assert got.post_state.amps.tobytes() == want.post_state.amps.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_objects_that_form_a_field_when_read_equal_their_dataclasses(mode):
    """A placement built here, an expanded network and a minus result taken from the
    plus run each form a field only when it is read.  Each equals, and hashes as, the
    dataclass built with its fields, and `dataclasses.replace` copies it."""
    prob = problem(theta=0.3, m=2, n=5, eta_plus=0.7 if mode == "approx" else 0.5)
    spec = expand_decompositions(_network(prob, mode))
    for p in _network(prob, mode).placements + spec.placements:
        plain = GatePlacement(p.gate, p.qubits, p.label, p.kind, p.params)
        assert p == plain and plain == p and hash(p) == hash(plain)
        assert dataclasses.replace(p, label="x") == dataclasses.replace(plain, label="x") != p
    copy = dataclasses.replace(spec)
    assert copy == spec and hash(copy) == hash(spec)
    copy.__dict__["shape"] = spec.shape
    assert copy._walk == spec._walk
    minus = evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=True).minus_result
    plain = SimulationResult(minus.success_probability, minus.post_state, minus.global_fidelity_vs_exact)
    assert minus == plain and plain == minus
    assert dataclasses.replace(minus) == minus
    assert dataclasses.replace(minus, success_probability=0.0) != minus


# ----------------------------------------------- the Z rule and its oracle


def _minus_run(spec, theta, m):
    """The minus sign's result by the walk itself, as `evaluate_cloner` once got it."""
    return run_network(
        spec, family_state(theta, MINUS, copies=m), reference=family_state(theta, MINUS)
    )


def _assert_same_bytes(got, want):
    assert got.post_state.n_qubits == want.post_state.n_qubits
    assert got.post_state.amps.tobytes() == want.post_state.amps.tobytes()
    assert float.hex(got.global_fidelity_vs_exact) == float.hex(want.global_fidelity_vs_exact)
    assert float.hex(got.success_probability) == float.hex(want.success_probability)


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    decomposed=st.booleans(),
    m=st.integers(1, 3),
    extra=st.integers(1, 9),
    log_theta=st.floats(math.log(1e-6), math.log(math.pi / 4)),
    frac=st.floats(0.0, 1.0),
)
def test_a_minus_result_taken_from_the_plus_run_has_the_bytes_of_its_own_run(
    mode, decomposed, m, extra, log_theta, frac
):
    """`evaluate_cloner`'s minus result against `run_network` on the minus input.

    Every mode at equal priors, gate and CNOT level, M <= 3, N <= 10,
    log-uniform theta in [1e-6, pi/4] and p_s in [p_exact, 1]: the post-state
    bytes and the float.hex of the fidelity and of the probability are those
    of the walk itself, whether the result was taken from the plus run or
    (for an output with an exact zero) the minus input was run.
    """
    n = min(m + extra, 10)
    theta = min(math.exp(log_theta), math.pi / 4)
    prob = problem(theta=theta, m=m, n=n)
    p_s = None
    if mode == "hybrid":
        p_exact = exact_clone_probability(theta, m, n)
        p_s = min(1.0, p_exact + frac * (1.0 - p_exact))
    try:
        report = evaluate_cloner(prob, mode, p_s, decompose_gates=decomposed)
    except ValueError:
        # the closed forms' small-angle limits (a p_s rounded below p_idp)
        assume(False)
    spec = hybrid_network(prob, p_s) if mode == "hybrid" else _network(prob, mode)
    if decomposed:
        spec = expand_decompositions(spec)
    assert spec.z_symmetric
    _assert_same_bytes(report.minus_result, _minus_run(spec, theta, m))


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("m, n", [(1, 4), (2, 7), (3, 13)])
def test_the_minus_post_state_is_formed_only_when_read(monkeypatch, mode, decomposed, m, n):
    """`evaluate_cloner`, and reading the report's fidelity and success probability,
    never form the minus post-state it takes from the plus run (`networks._parities`
    signs it); the first read forms it, once, with the bytes of the minus input's own
    run."""
    formed, original = [], networks._parities
    monkeypatch.setattr(networks, "_parities", lambda k: formed.append(k) or original(k))
    theta = 0.3 + 1e-9 * (m + n + decomposed)  # no memo has seen it
    prob = problem(theta=theta, m=m, n=n)
    report = evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=decomposed)
    minus = report.minus_result
    assert (report.fidelity, report.success_probability) == (
        0.5 * report.plus_result.global_fidelity_vs_exact + 0.5 * minus.global_fidelity_vs_exact,
        0.5 * report.plus_result.success_probability + 0.5 * minus.success_probability,
    )
    assert formed == []
    post = minus.post_state
    assert len(formed) == 2 and minus.post_state is post and len(formed) == 2
    assert not post.amps.flags.writeable
    spec = _network(prob, mode)
    _assert_same_bytes(minus, _minus_run(expand_decompositions(spec) if decomposed else spec, theta, m))


def _count_runs(monkeypatch):
    runs, original = [], networks.run_network

    def record(spec, *args, **kwargs):
        runs.append(spec)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(networks, "run_network", record)
    return runs


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
def test_an_approx_network_at_unequal_priors_runs_both_signs(monkeypatch, decomposed):
    """Its clone stage, a generic rotation of qubit 0, breaks the Z symmetry: no Z frame
    holds."""
    runs = _count_runs(monkeypatch)
    for m, n in ((1, 2), (2, 5), (3, 7)):
        prob = problem(theta=0.3, m=m, n=n, eta_plus=0.7)
        spec = approx_network(prob)
        if decomposed:
            spec = expand_decompositions(spec)
        assert not spec.z_symmetric and oracles.z_sign(spec, m) is None
        runs.clear()
        report = evaluate_cloner(prob, "approx", decompose_gates=decomposed)
        assert len(runs) == 2
        runs.clear()
        _assert_same_bytes(report.minus_result, _minus_run(spec, 0.3, m))


def test_a_random_orthogonal_network_runs_both_signs(rng):
    """Dense gates keep no Z string but the identity: no Z frame, so both signs would run."""
    placements = tuple(
        GatePlacement(Unitary(random_orthogonal(rng, 4)), wires, f"random@{wires}")
        for wires in ((0, 1), (1, 2), (2, 0), (2, 3))
    )
    for heralded in (False, True):
        assert oracles.z_sign(NetworkSpec(4, placements, heralded=heralded), 2) is None


def test_a_frame_off_a_system_wire_runs_both_signs():
    """A blank wire turned by a rotation takes no Z: the frame ends as Z on wire 0
    only, and the minus output is not Z on every wire times the plus one."""
    turn = GatePlacement(clone_gate(0.4), (1,), "turn@1")
    assert oracles.z_sign(NetworkSpec(2, (turn,)), 1) is None


def test_no_minus_result_is_taken_from_an_output_with_an_exact_zero():
    """The symmetry may hold, but the sign of an exact zero is not fixed by it: `_z_flipped`
    takes no minus result from a post-state with a zero of either sign, and takes one
    from any other, with the plus run's probability and fidelity and Z^(x)N times its
    post-state."""
    z_gate = GatePlacement(Unitary(np.diag([1.0, -1.0])), (0,), "Z@0")
    # a system wire that no placement touches is blank, its bit free
    assert oracles.z_sign(NetworkSpec(3, (z_gate,)), 1) == 1.0
    for zero in (0.0, -0.0):
        post = StateVector(2, np.array([0.6, zero, 0.0, -0.8]))
        assert networks._z_flipped(SimulationResult(0.9, post, 0.5)) is None
    post = StateVector(2, np.array([0.5, -0.5, 0.5, 0.5]))
    minus = networks._z_flipped(SimulationResult(0.9, post, 0.5))
    assert (minus.success_probability, minus.global_fidelity_vs_exact) == (0.9, 0.5)
    assert minus.post_state.amps.tobytes() == np.array([0.5, 0.5, -0.5, 0.5]).tobytes()


# the frame rule of one gate in the oracle: wire q is bit q of a mask, the first
# listed wire is the control of a CNOT (active on |+>)
_C, _T = 0b01, 0b10


def _pattern(gate):
    """The oracle's reading of a gate: one byte per entry, nonzero where it is not exactly 0."""
    return (gate.entries != 0).tobytes()


def test_the_cnot_maps_z_on_both_wires_to_minus_z_on_the_target():
    assert oracles._z_images(_pattern(cnot()), (0, 1), _C | _T, 0) == ((_T, True),)


def test_a_transfer_gate_keeps_z_on_both_wires():
    for theta1, theta2 in ((0.3, 0.2), (0.5, 0.1), (0.0, 0.0)):
        pattern = _pattern(transfer_gate(theta1, theta2))
        assert (_C | _T, False) in oracles._z_images(pattern, (0, 1), _C | _T, 0)
    assert oracles._z_images(_pattern(transfer_gate(0.3, 0.2)), (0, 1), _C | _T, 0) == (
        (_C | _T, False),
    )


def test_a_generic_rotation_rejects_z_and_keeps_the_identity():
    pattern = _pattern(clone_gate(0.3))
    assert oracles._z_images(pattern, (0,), 1, 0) == ()
    assert oracles._z_images(pattern, (0,), 0, 0) == ((0, False),)


def test_a_cnot_onto_a_blank_target_leaves_two_frames():
    """Z on the control; the blank target's bit is free, so Z on the control and
    -Z on the target both hold, and a rotation of the control keeps the second."""
    images = oracles._z_images(_pattern(cnot()), (0, 1), _C, _T)
    assert sorted(images) == [(_C, False), (_T, True)]
    spec = NetworkSpec(
        2,
        (
            GatePlacement(cnot(), (0, 1), "CNOT"),
            GatePlacement(clone_gate(0.3), (0,), "turn@0"),
            GatePlacement(cnot(), (0, 1), "CNOT"),
        ),
    )
    assert oracles.z_sign(spec, 1) == 1.0


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("mode", MODES)
def test_every_network_at_equal_priors_keeps_the_z_frame(mode, decomposed):
    """Z on the input wires ends as Z on every system wire, with a + sign."""
    for m, n in ((1, 2), (2, 5), (3, 8)):
        spec = _network(problem(theta=0.3, m=m, n=n), mode)
        if decomposed:
            spec = expand_decompositions(spec)
        assert spec.z_symmetric and oracles.z_sign(spec, m) == 1.0


_RULE_ETAS = (0.5, 0.5 + 1e-13, 0.7)


@pytest.mark.parametrize("theta", [1e-6, 1e-2, 0.3, math.pi / 4], ids=["1e-6", "1e-2", "0.3", "pi/4"])
@pytest.mark.parametrize("mode", MODES)
def test_the_z_rule_matches_the_frame_oracle(mode, theta):
    """`NetworkSpec.z_symmetric`, decided when a network is built, is what the Z-frame
    oracle finds: sign +1 where no clone stage turns, no frame where one does.

    M <= 3, N <= 10, gate and CNOT level, at equal priors, at priors that
    `CloningProblem.equal_priors` calls equal yet turn the clone stage of
    some approx networks, and at unequal priors (hybrid needs equal ones).
    """
    found = set()
    for eta_plus, m in itertools.product(_RULE_ETAS, (1, 2, 3)):
        if mode == "hybrid" and eta_plus == 0.7:
            continue
        for n in range(m + 1, 11):
            spec = _network(problem(theta=theta, m=m, n=n, eta_plus=eta_plus), mode)
            for net in (spec, expand_decompositions(spec)):
                assert oracles.z_sign(net, m) == (1.0 if net.z_symmetric else None), (eta_plus, m, n)
                found.add((eta_plus, net.z_symmetric))
    turning = {eta_plus for eta_plus, symmetric in found if not symmetric}
    if mode == "approx" and theta != math.pi / 4:
        # the clone stage turns at unequal priors, and at 1/2 + 1e-13 for a few (M, N)
        assert turning == ({0.7} if theta == 1e-6 else {0.5 + 1e-13, 0.7})
    else:
        assert turning == set()


#: approx networks on either side of the Z rule: priors that count as equal, yet a clone
#: stage that turns by about 1e-8; unequal priors, yet a turn of exactly 0 (at pi/4 the
#: optimal outputs are the compressed pair itself)
_RULE_EDGES = {
    "turning": [(0.05, 1, 3, 0.5 + 1e-13), (0.01, 3, 7, 0.5 + 1e-13), (0.3, 1, 8, 0.5 + 1e-13)],
    "still": [(math.pi / 4, m, n, 0.7) for m, n in ((1, 2), (2, 5), (3, 7))],
}


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("edge", sorted(_RULE_EDGES))
def test_the_z_rule_reads_the_turn_not_the_priors(monkeypatch, edge, decomposed):
    """An approx network runs both signs where its clone stage turns, even at priors that
    count as equal, and the plus sign only where it does not, even at unequal priors;
    either way its minus result has the bytes of the minus input's own run."""
    runs = _count_runs(monkeypatch)
    for theta, m, n, eta_plus in _RULE_EDGES[edge]:
        prob = problem(theta=theta, m=m, n=n, eta_plus=eta_plus)
        spec = approx_network(prob)
        turning = spec.placements[m - 1].params != (0.0,)
        assert turning == (edge == "turning") == prob.equal_priors
        if decomposed:
            spec = expand_decompositions(spec)
        assert spec.z_symmetric != turning
        runs.clear()
        report = evaluate_cloner(prob, "approx", decompose_gates=decomposed)
        assert len(runs) == 1 + turning
        runs.clear()
        _assert_same_bytes(report.minus_result, _minus_run(spec, theta, m))


def test_the_walk_is_found_once_per_network_shape():
    """Networks of one shape, at any angle, share the live wires of one walk, the wires
    each would walk alone; each walks its own gates, and a network of another shape
    (another M or N, another middle stage, CNOT level) walks its own wires."""
    before = networks._shape_steps.cache_info()
    walks = {}
    for theta in (0.3 + 1e-7, 0.41 + 1e-7, math.pi / 4 - 1e-7):
        for mode, decomposed in itertools.product(("exact", "approx"), (False, True)):
            spec = _network(problem(theta=theta, m=2, n=7), mode)
            if decomposed:
                spec = expand_decompositions(spec)
            alone = networks._shape_steps.__wrapped__(networks._Shape(spec.shape, weakref.ref(spec)))
            assert [live for _, live in spec._walk] == list(alone)
            assert [gate for gate, _ in spec._walk if gate is not None] == [p.gate for p in spec.placements]
            walks.setdefault((mode, decomposed), []).append(spec._walk)
    after = networks._shape_steps.cache_info()
    assert after.misses - before.misses <= 4 and after.hits - before.hits >= 8
    for first, *rest in walks.values():
        for walk in rest:
            # the same live wires, held once: the tuples of the shape's one walk
            assert len(walk) == len(first) and all(a[1] is b[1] for a, b in zip(first, walk))
            assert [s[0] for s in walk] != [s[0] for s in first]
    shapes = {spec.shape for spec in (exact_network(problem(m=2, n=7)), exact_network(problem(m=2, n=6)),
                                      approx_network(problem(m=2, n=7)), exact_network(problem(m=1, n=7)))}
    assert len(shapes) == 4


# ----------------------------------------------- live register vs full width


def _assert_matches_full_width_oracle(spec, states, references):
    """run_network against the full-width Kronecker oracle, one input at a time.

    Each input is on the M input wires, and the oracle runs its padded form
    (`oracles.pad_qubits`).  Each reference is one qubit; the oracle's
    fidelity is the overlap with its explicit power over the output wires.
    Returns the results and the oracle's failure branches (None where the
    herald cannot fail), which ``run_network`` does not simulate.
    """
    placements = [(p.gate.entries, p.qubits) for p in spec.placements]
    measured = spec.n_qubits - 1 if spec.heralded else None
    expected = oracles.run_network_full(
        placements, spec.n_qubits, [oracles.pad_qubits(state.amps, spec.n_qubits) for state in states], measured
    )
    width = spec.n_qubits - spec.heralded
    results = []
    for state, reference, (prob, post, _) in zip(states, references, expected):
        result = run_network(spec, state, reference=reference)
        assert abs(result.success_probability - prob) < 1e-12
        assert np.max(np.abs(result.post_state.amps - post)) < 1e-12
        power = oracles.kron_all(*[reference.amps] * width)
        fidelity = abs(np.vdot(power, post)) ** 2
        assert abs(result.global_fidelity_vs_exact - fidelity) < 1e-12
        results.append(result)
    return results, [failure for _, _, failure in expected]


def _assert_same_bits(got, want):
    assert got.success_probability == want.success_probability
    assert got.global_fidelity_vs_exact == want.global_fidelity_vs_exact
    assert np.array_equal(got.post_state.amps, want.post_state.amps)


def _rate(prob, mode):
    """The hybrid success probability the tests use, halfway to 1."""
    if mode != "hybrid":
        return None
    return 0.5 * (exact_clone_probability(prob.theta, prob.m_copies, prob.n_copies) + 1.0)


def _network(prob, mode):
    if mode == "exact":
        return exact_network(prob)
    if mode == "approx":
        return approx_network(prob)
    return hybrid_network(prob, _rate(prob, mode))


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("mode", MODES)
def test_run_network_matches_full_width_oracle(mode, decomposed):
    """The walk on the live register changes no number: every M <= 3, N <= 8, sign.

    ``run_network`` on the M input copies matches the oracle on their padded
    form, and ``evaluate_cloner``'s results are its bits.  The exact
    network's failure branch, in the oracle, leaves every wire blank.
    """
    for m in (1, 2, 3):
        for n in range(m + 1, 9):
            prob = problem(theta=0.3, m=m, n=n, eta_plus=0.5 if mode == "hybrid" else 0.7)
            spec = _network(prob, mode)
            if decomposed:
                spec = expand_decompositions(spec)
            full_width, failures = _assert_matches_full_width_oracle(
                spec,
                [family_state(prob.theta, sign, copies=m) for sign in (PLUS, MINUS)],
                [family_state(prob.theta, sign) for sign in (PLUS, MINUS)],
            )
            if mode == "exact":
                for failure in failures:
                    assert failure is not None
                    assert np.max(np.abs(failure - np.eye(2 ** n)[0])) < 1e-10
            report = evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=decomposed)
            for got, want in zip((report.plus_result, report.minus_result), full_width):
                _assert_same_bits(got, want)


def _random_amps(rng, n_qubits):
    amps = rng.normal(size=2 ** n_qubits)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_run_network_on_inputs_without_blank_trailing_wires(rng, mode):
    """Random inputs on the M = 3 input wires, not copies of a family state: one dense,
    one blank only on the middle wire."""
    prob = problem(theta=0.3, m=3, n=5)
    spec = expand_decompositions(_network(prob, mode))
    reference = family_state(prob.theta, PLUS)
    middle = _random_amps(rng, 3).reshape(2, 2, 2)
    middle[:, 1, :] = 0.0
    inputs = (_random_amps(rng, 3), middle.reshape(-1) / np.linalg.norm(middle))
    _assert_matches_full_width_oracle(
        spec, [StateVector(3, amps) for amps in inputs], [reference] * len(inputs)
    )


def test_a_walk_that_would_need_padding_raises():
    """The walk of a network shape raises when it is built if a placement would need
    blank wires padded in: two wires joining at once, a system wire past the next one,
    a system wire after the ancilla, a herald on an ancilla that never joined, or a
    system wire never touched.  Networks built by hand, given a shape from one input
    copy; each well-formed counterpart walks."""
    def walk(n_qubits, wires, heralded):
        placements = tuple(GatePlacement(cnot() if len(w) == 2 else clone_gate(0.4), w, f"g@{w}") for w in wires)
        spec = NetworkSpec(n_qubits, placements, heralded)
        spec.__dict__["shape"] = (1, "padding test", n_qubits, tuple(wires), heralded)
        return spec._walk

    cases = (
        (3, [(1, 2), (0, 1)], False, [(0, 1), (1, 2)], "padded in"),
        (3, [(2,), (0, 1)], False, [(1,), (0, 2)], "padded in"),
        (3, [(2, 0), (0, 1), (2, 1)], True, [(0, 1), (2, 0), (2, 1)], "padded in"),
        (3, [(0, 1)], True, [(2, 0), (0, 1)], "the herald needs the ancilla 2 as the last live wire"),
        (3, [(0, 1)], False, [(0, 1), (1, 2)], r"the output needs system wires 0\.\.2 live"),
    )
    for n_qubits, bad, heralded, good, message in cases:
        with pytest.raises(ValueError, match=message):
            walk(n_qubits, bad, heralded)
        assert len(walk(n_qubits, good, heralded)) == len(good) + heralded


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("mode", ["exact", "hybrid"])
def test_herald_stays_on_the_live_register(monkeypatch, mode, decomposed):
    """At N = 16 no state spans the system and the ancilla; the herald sees M + 2 wires.

    Only the success branch is projected, and only for the plus sign: the
    minus result is taken from it.
    """
    seen = {"apply_gate": [], "project_qubit": []}

    def spy(name):
        original = getattr(networks, name)

        def record(state, *args):
            seen[name].append(state.n_qubits)
            return original(state, *args)

        return record

    for name in seen:
        monkeypatch.setattr(networks, name, spy(name))
    n = 16
    for m in (1, 2, 3):
        for values in seen.values():
            values.clear()
        prob = problem(theta=0.3, m=m, n=n)
        report = evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=decomposed)
        assert report.success_deviation < 1e-10
        assert seen["apply_gate"] and len(seen["project_qubit"]) == 1
        assert max(max(values) for values in seen.values() if values) <= n
        assert max(seen["project_qubit"]) <= m + 2


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("mode", MODES)
def test_networks_grow_the_register_without_padding(monkeypatch, mode, decomposed):
    """Each wire joins the live register inside `apply_gate`, one per call.

    Every mode at M <= 3, N <= 8, each run: in the paper's networks each
    growth is one wire at the end of the live register, the ancilla too.
    The approx network runs at unequal priors, so it is walked for both
    signs; the others are walked for the plus sign only.
    """
    joins = []

    def apply_spy(state, gate, qubits):
        out = apply_gate(state, gate, qubits)
        assert out.n_qubits == state.n_qubits + (state.n_qubits in qubits)
        joins.append(state.n_qubits in qubits)
        return out

    monkeypatch.setattr(networks, "apply_gate", apply_spy)
    for m in (1, 2, 3):
        for n in range(m + 1, 9):
            joins.clear()
            prob = problem(theta=0.3, m=m, n=n, eta_plus=0.7 if mode == "approx" else 0.5)
            evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=decomposed)
            # per run: the N - M system wires past the input, and the ancilla
            runs = 2 if mode == "approx" else 1
            assert sum(joins) == runs * (n - m + (mode != "approx")), (m, n)


#: the kernel calls of one `run_network` at theta = 0.3, in order: ``n:ab``
#: is `apply_gate` on wires a, b of an n-qubit state (a listed wire n joins a
#: blank wire, and the call returns n + 1 wires) and ``n!a`` is
#: `project_qubit` on wire a of one
_LAYOUTS = {
    ("exact", "gates", 1, 2): "1:10 2!1 1:01",
    ("exact", "gates", 2, 5): "2:01 2:20 3!2 2:01 2:12 3:23 4:34",
    ("exact", "cnots", 1, 2): "1:1 2:01 2:1 2!1 1:01 2:0 2:10 2:0 2:10 2:0 2:01",
    ("exact", "cnots", 2, 5): (
        "2:01 2:0 2:10 2:0 2:10 2:0 2:01 2:2 3:02 3:2 3!2 2:01 2:0 2:10 2:0 "
        "2:10 2:0 2:01 2:12 3:1 3:21 3:1 3:21 3:1 3:12 3:23 4:2 4:32 4:2 4:32 "
        "4:2 4:23 4:34 5:3 5:43 5:3 5:43 5:3 5:34"
    ),
    ("approx", "gates", 1, 2): "1:0 1:01",
    ("approx", "gates", 2, 5): "2:01 2:0 2:01 2:12 3:23 4:34",
    ("approx", "cnots", 1, 2): "1:0 1:01 2:0 2:10 2:0 2:10 2:0 2:01",
    ("approx", "cnots", 2, 5): (
        "2:01 2:0 2:10 2:0 2:10 2:0 2:01 2:0 2:01 2:0 2:10 2:0 2:10 2:0 2:01 "
        "2:12 3:1 3:21 3:1 3:21 3:1 3:12 3:23 4:2 4:32 4:2 4:32 4:2 4:23 4:34 "
        "5:3 5:43 5:3 5:43 5:3 5:34"
    ),
    ("hybrid", "gates", 1, 2): "1:10 2!1 1:01",
    ("hybrid", "gates", 2, 5): "2:01 2:20 3!2 2:01 2:12 3:23 4:34",
    ("hybrid", "cnots", 1, 2): "1:1 2:01 2:1 2!1 1:01 2:0 2:10 2:0 2:10 2:0 2:01",
    ("hybrid", "cnots", 2, 5): (
        "2:01 2:0 2:10 2:0 2:10 2:0 2:01 2:2 3:02 3:2 3!2 2:01 2:0 2:10 2:0 "
        "2:10 2:0 2:01 2:12 3:1 3:21 3:1 3:21 3:1 3:12 3:23 4:2 4:32 4:2 4:32 "
        "4:2 4:23 4:34 5:3 5:43 5:3 5:43 5:3 5:34"
    ),
}


@pytest.mark.parametrize("case", sorted(_LAYOUTS), ids=lambda case: "-".join(map(str, case)))
def test_run_network_keeps_the_live_register_layout(monkeypatch, case):
    """Each kernel call sees the same register width and wires.

    The wire a gate lands on picks its BLAS path (`cloneforge.linalg`), and
    so the last bits of the output.  The full-width oracle test cannot see
    a change of layout: both of its sides run through the same walk.  At
    equal priors every network is walked once, for the plus sign.
    """
    assert _kernel_calls(monkeypatch, case, eta_plus=0.5) == _LAYOUTS[case]


@pytest.mark.parametrize(
    "case", sorted(c for c in _LAYOUTS if c[0] == "approx"), ids=lambda case: "-".join(map(str, case))
)
def test_an_approx_network_at_unequal_priors_walks_both_signs(monkeypatch, case):
    """At eta_plus = 0.7 the clone stage turns qubit 0 and breaks the Z symmetry
    of the two inputs: both signs are walked, each with the layout of equal priors."""
    assert _kernel_calls(monkeypatch, case, eta_plus=0.7) == " ".join([_LAYOUTS[case]] * 2)


def _kernel_calls(monkeypatch, case, eta_plus):
    """The kernel calls of one `evaluate_cloner` of a `_LAYOUTS` case, in the form of
    `_LAYOUTS`."""
    calls = []

    def spy(name, form):
        original = getattr(networks, name)

        def record(state, *args):
            calls.append(form(state.n_qubits, *args))
            return original(state, *args)

        return record

    monkeypatch.setattr(
        networks, "apply_gate",
        spy("apply_gate", lambda n, gate, qubits: f"{n}:{''.join(map(str, qubits))}"),
    )
    monkeypatch.setattr(
        networks, "project_qubit", spy("project_qubit", lambda n, qubit, outcome: f"{n}!{qubit}")
    )
    mode, level, m, n = case
    prob = problem(theta=0.3, m=m, n=n, eta_plus=eta_plus)
    evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=level == "cnots")
    return " ".join(calls)


#: sha256 of each network's output bits (`_output_digest`), keyed
#: "mode-level-M-N-theta-eta_plus"; frozen before the live register's last
#: layout change, so a layout that moves any output bit shows here
_NETWORK_BITS = json.loads(
    (Path(__file__).resolve().parent / "data" / "network_bits.json").read_text(encoding="utf-8")
)


def _output_digest(report):
    """sha256 over both signs' post-state bytes and float.hex of every reported probability."""
    digest = hashlib.sha256()
    for result in (report.plus_result, report.minus_result):
        digest.update(result.post_state.amps.tobytes())
        digest.update(float.hex(result.global_fidelity_vs_exact).encode())
        digest.update(float.hex(result.success_probability).encode())
    digest.update(float.hex(report.fidelity).encode())
    digest.update(float.hex(report.success_probability).encode())
    return digest.hexdigest()


def _bits_cases():
    thetas = {"0.3": 0.3, "pi/4": math.pi / 4}
    for mode, level, theta in itertools.product(MODES, ("gates", "cnots"), thetas):
        for n in range(2, 9):
            for m in range(1, n):
                for eta_plus in (0.5, 0.7) if mode == "approx" else (0.5,):
                    key = f"{mode}-{level}-{m}-{n}-{theta}-{eta_plus}"
                    yield key, (mode, level == "cnots", problem(thetas[theta], m, n, eta_plus))


_BITS_CASES = dict(_bits_cases())


def test_network_bits_cover_every_case():
    assert sorted(_BITS_CASES) == sorted(_NETWORK_BITS)


@pytest.mark.parametrize("key", sorted(_BITS_CASES))
def test_network_output_bits_are_frozen(key):
    """Every mode, gate and CNOT level, 1 <= M < N <= 8: the same output bits.

    The layout pin above fixes the kernel calls of a few cases; this fixes
    what they compute, for every case the full-width oracle test runs and more.
    """
    mode, decomposed, prob = _BITS_CASES[key]
    report = evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=decomposed)
    assert _output_digest(report) == _NETWORK_BITS[key]


@pytest.mark.parametrize("decomposed", [False, True], ids=["gates", "cnots"])
@pytest.mark.parametrize("mode", MODES)
def test_every_placement_and_output_is_stored_real(monkeypatch, mode, decomposed):
    """The networks' gates and states are real: each is simulated as float64.

    Every placement's gate, every state `apply_gate` sees and both
    post-states of `evaluate_cloner`, at M = 1..3 and unequal priors where
    the mode allows them.  A gate or state with a nonzero imaginary part
    cannot be built: `linalg` refuses it.
    """
    dtypes = set()

    def spy(state, gate, qubits):
        dtypes.update((state.amps.dtype, gate.entries.dtype))
        return apply_gate(state, gate, qubits)

    monkeypatch.setattr(networks, "apply_gate", spy)
    for m, n in ((1, 2), (2, 5), (3, 7)):
        prob = problem(theta=0.3, m=m, n=n, eta_plus=0.7 if mode == "approx" else 0.5)
        spec = _network(prob, mode)
        if decomposed:
            spec = expand_decompositions(spec)
        assert {p.gate.entries.dtype for p in spec.placements} == {np.dtype(np.float64)}
        report = evaluate_cloner(prob, mode, _rate(prob, mode), decompose_gates=decomposed)
        for result in (report.plus_result, report.minus_result):
            assert result.post_state.amps.dtype == np.float64
    assert dtypes == {np.dtype(np.float64)}
