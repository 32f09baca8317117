"""The package's memos: bounded, shared by the rows of a sweep, and never
holding an exception.

The rows of a trade-off sweep at one (theta, M, N) differ only in their
separation stage, so they share their chain placements (`networks._chain`),
their transfer gates (`gates.transfer_gates`) and their CNOT circuits
(`gates.decompose_transfers`).
"""

import ast
import importlib
import pkgutil
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import cloneforge
from cloneforge import gates, networks
from cloneforge.bounds import CloningProblem, exact_clone_probability
from cloneforge.gates import KIND_TRANSFER, decompose_transfers
from cloneforge.networks import compression_sequence, exact_network, hybrid_network

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
            "cloneforge.linalg._kernel"} <= set(cached)
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
            networks._chain(((1.0, 0.1),))
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
