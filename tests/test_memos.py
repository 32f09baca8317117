"""The package's memos: bounded, shared by the rows of a sweep, and never
holding an exception.

The rows of a trade-off sweep at one (theta, M, N) differ only in their
separation stage, so they share their chain placements (`networks._chain`),
their transfer gates (`gates._transfers`), their CNOT circuits
(`gates.decompose_transfers`), and their input and reference states
(`linalg._family_state`).
"""

import ast
import importlib
import pkgutil
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import cloneforge
from cloneforge import gates, linalg, networks
from cloneforge.bounds import CloningProblem, exact_clone_probability
from cloneforge.gates import KIND_TRANSFER, decompose_transfers
from cloneforge.linalg import MINUS, PLUS, family_state
from cloneforge.networks import compression_sequence, exact_network, expand_decompositions, hybrid_network

SRC = Path(cloneforge.__file__).resolve().parent


def _modules():
    return [importlib.import_module(f"cloneforge.{info.name}") for info in pkgutil.iter_modules([str(SRC)])]


def _lru_decorators(tree):
    """Every ``lru_cache``/``cache`` decorator in a parsed module, by function name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    found.append(node.name)
    return found


def test_every_lru_cache_is_bounded():
    """Every ``functools.lru_cache`` in the package has a finite ``maxsize``."""
    cached = {
        f"{module.__name__}.{name}": value
        for module in _modules()
        for name, value in vars(module).items()
        if hasattr(value, "cache_parameters") and getattr(value, "__module__", None) == module.__name__
    }
    # the decorators in the source, so a memo on a nested function is not missed
    declared = sorted(
        f"cloneforge.{path.stem}.{name}"
        for path in SRC.glob("*.py")
        for name in _lru_decorators(ast.parse(path.read_text()))
    )
    assert sorted(cached) == declared
    assert {"cloneforge.networks._chain", "cloneforge.gates._decompose_transfers",
            "cloneforge.gates._transfers", "cloneforge.gates._separation",
            "cloneforge.linalg._layout", "cloneforge.linalg._family_state",
            "cloneforge.networks._z_images",
            "cloneforge.networks._shape_steps",
            "cloneforge.networks._parities"} <= set(cached)
    for name, memo in cached.items():
        maxsize = memo.cache_parameters()["maxsize"]
        assert maxsize is not None, name


@pytest.mark.parametrize("m, n", [(1, 2), (2, 5), (3, 6)])
def test_rows_of_a_sweep_share_their_chains_and_circuits(monkeypatch, m, n):
    """Two rows at one (theta, M, N) get the same placement and circuit objects
    from the memos, and the second row's lookups are all hits."""
    problem = CloningProblem(0.37, m, n)
    p_exact = exact_clone_probability(0.37, m, n)
    batches, original = [], networks.decompose_transfers

    def record(pairs):
        batches.append(original(pairs))
        return batches[-1]

    monkeypatch.setattr(networks, "decompose_transfers", record)
    first = hybrid_network(problem, p_exact + 0.3 * (1 - p_exact))
    networks.expand_decompositions(first)
    chains, circuits = networks._chain.cache_info(), gates._decompose_transfers.cache_info()
    second = exact_network(problem)
    networks.expand_decompositions(second)
    chains_after, circuits_after = networks._chain.cache_info(), gates._decompose_transfers.cache_info()
    # two chains per network (compress M, decompress N), one circuit batch per expansion
    assert (chains_after.hits - chains.hits, chains_after.misses - chains.misses) == (2, 0)
    assert (circuits_after.hits - circuits.hits, circuits_after.misses - circuits.misses) == (1, 0)
    transfers = [(a, b) for a, b in zip(first.placements, second.placements) if a.kind == KIND_TRANSFER]
    assert len(transfers) == (m - 1) + (n - 1)
    assert all(a is b for a, b in transfers)
    assert batches[0] is batches[1] and len(batches[0]) == n - 1


def test_memos_never_hold_an_exception():
    """Invalid angles raise on every call, and leave no memo entry."""
    sizes = (networks._chain.cache_info().currsize, gates._decompose_transfers.cache_info().currsize)
    for _ in range(2):
        with pytest.raises(ValueError):
            compression_sequence(1.0, 3)
        with pytest.raises(ValueError, match="theta1 must lie in"):
            networks._chain(((1.0, 0.1),), 2)
        with pytest.raises(ValueError, match="theta2 must lie in"):
            decompose_transfers([(0.3, 0.2), (0.3, -0.1)])
    assert sizes == (networks._chain.cache_info().currsize, gates._decompose_transfers.cache_info().currsize)


def test_decompose_transfers_takes_a_list_as_its_tuple():
    pairs = [(0.3, 0.2), (0.3, 0.35)]
    circuits = decompose_transfers(pairs)
    assert decompose_transfers(tuple(pairs)) is circuits
    assert [c.target for c in circuits] == list(gates.transfer_gates(tuple(pairs)))
    assert all(isinstance(c, gates.CircuitDecomposition) for c in circuits)


def test_memoized_results_are_read_only():
    """A memo hands one object to every caller, so nothing it holds can be written."""
    (circuit,) = decompose_transfers([(0.3, 0.2)])
    for placement in circuit.placements + compression_sequence(0.3, 3):
        with pytest.raises(ValueError):
            placement.gate.entries[0, 0] = 5.0
        with pytest.raises(FrozenInstanceError):
            placement.qubits = (0, 1)


def test_a_signed_zero_angle_keeps_its_bytes_in_either_order():
    """0.0 and -0.0 are one key to ``lru_cache``, but -sin(0.0) is -0.0 and -sin(-0.0)
    is +0.0: the memo keys the sign of theta too, whichever call comes first."""
    # a list, not a dict: 0.0 and -0.0 would be one dict key as well
    want = [(theta, linalg._family_state.__wrapped__(theta, 0.0, MINUS, 2).amps.tobytes())
            for theta in (0.0, -0.0)]
    assert want[0][1] != want[1][1]
    for order in (want, want[::-1]):
        linalg._family_state.cache_clear()
        for _ in range(2):
            for theta, amps in order:
                assert family_state(theta, MINUS, copies=2).amps.tobytes() == amps


def test_memoized_family_states_are_shared_and_read_only():
    """A repeated call returns the same state object, so nothing it holds can be written."""
    state = family_state(0.3, PLUS, copies=3)
    assert family_state(0.3, PLUS, 3) is state
    assert family_state(0.3, PLUS, copies=1) is family_state(0.3, PLUS)
    with pytest.raises(ValueError):
        state.amps[0] = 5.0
    with pytest.raises(FrozenInstanceError):
        state.amps = np.zeros(8)


def test_family_state_checks_its_arguments_on_every_call():
    size = linalg._family_state.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="sign must be"):
            family_state(0.3, "both")
        with pytest.raises(ValueError, match="copies must be"):
            family_state(0.3, PLUS, copies=0)
        with pytest.raises(ValueError, match="theta must be finite"):
            family_state(float("nan"), PLUS)
    assert linalg._family_state.cache_info().currsize == size


@pytest.mark.parametrize("m, n", [(1, 2), (2, 5), (3, 6)])
def test_an_expanded_network_places_its_circuits_only_when_read(monkeypatch, m, n):
    """Expanding and running a CNOT-level network of a known shape moves no placement
    (`networks._shape_steps`); reading its placements moves each circuit's placements
    onto their wires once, labelled as coming from the placement they replace."""
    moved, original = [], networks._placed

    def record(*args):
        if "[from" in args[4]:
            moved.append(args[-1])
        return original(*args)

    networks.evaluate_cloner(CloningProblem(0.3, m, n), "exact", decompose_gates=True)
    monkeypatch.setattr(networks, "_placed", record)
    prob = CloningProblem(0.41, m, n)
    gate_level = exact_network(prob)
    spec = expand_decompositions(gate_level)
    networks.evaluate_cloner(prob, "exact", decompose_gates=True)
    assert moved == []
    placements = spec.placements
    assert spec.placements is placements
    assert len(moved) == len(placements) > len(gate_level.placements)
    for p, source in zip(placements, moved):
        assert p.label.endswith(f" [from {source.label}]")
        assert set(p.qubits) <= set(source.qubits)


def test_the_sign_flip_memoizes_half_registers_only(monkeypatch):
    """The minus post-state taken from the plus one, formed when it is read, is signed by
    the parities of the high and the low half of its wires: no memoized sign vector
    spans the register (tests/test_networks.py checks that it is formed on demand)."""
    sizes, original = [], networks._parities

    def record(k, sign):
        sizes.append(original(k, sign).size)
        return original(k, sign)

    monkeypatch.setattr(networks, "_parities", record)
    report = networks.evaluate_cloner(CloningProblem(0.3, 2, 13), "exact")
    assert report.minus_result.post_state.n_qubits == 13
    assert sorted(sizes) == [2 ** 6, 2 ** 7]
    for k in (6, 7):
        with pytest.raises(ValueError):
            original(k, 1.0)[0] = 5.0
