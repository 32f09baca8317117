import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneforge import linalg
from cloneforge.linalg import (
    MINUS,
    PLUS,
    ImpossibleBranchError,
    StateVector,
    Unitary,
    apply_gate,
    branch_probability,
    family_state,
    global_fidelity,
    live_prefix,
    pad_qubits,
    project_qubit,
    unitaries,
)

import oracles
from conftest import random_orthogonal

I2 = np.eye(2)
I4 = np.eye(4)


# ---------------------------------------------------------------- containers


def test_state_vector_requires_power_of_two_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0, 0.0]))


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_state_vector_rejects_nan():
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_entries_rejected_in_either_part(part, bad):
    """A non-finite real part is refused as non-finite; a non-finite imaginary
    part is nonzero, so it is refused as not real."""
    entry = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    refusal = "contains non-finite entries$" if part == "real" else "must be real"
    with pytest.raises(ValueError, match=f"^state vector {refusal}"):
        StateVector(1, np.array([entry, 1.0]))
    with pytest.raises(ValueError, match=f"^unitary {refusal}"):
        Unitary(np.array([[entry, 0.0], [0.0, 1.0]]))


def test_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        Unitary(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]))


def test_unitary_rejects_non_square_power_of_two():
    with pytest.raises(ValueError):
        Unitary(np.eye(3))


def test_state_vector_norm_message_reports_the_dot_product():
    with pytest.raises(ValueError, match=r"^state vector is not normalized \(\|amps\|\^2 = 2\.0\)$"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"^state vector is not normalized \(\|amps\|\^2 = 2\.0\)$"):
        StateVector(1, np.array([-1.0, 1.0]))


def _one_bad_member(rng, member, position=3, size=6):
    stack = [random_orthogonal(rng, 4) for _ in range(size)]
    stack[position] = member
    return np.array(stack)


@pytest.mark.parametrize(
    "member",
    [
        np.diag([1.0, 1.0, 1.0, 1.0 + 1e-6]),
        np.diag([1.0, 1.0, 1.0, 1.0 + 5e-13]),
        np.full((4, 4), 0.5) + np.diag([0.0, 0.0, 0.0, 1e-9]),
        np.diag([1.0, np.nan, 1.0, 1.0]),
        np.diag([1.0, 1.0, np.inf, 1.0]),
    ],
    ids=["off-by-1e-6", "off-by-5e-13", "off-diagonal", "nan", "inf"],
)
def test_stack_with_one_bad_member_raises_the_lone_message(rng, member):
    """A stack fails on its one bad matrix with the message that matrix gets alone."""
    with pytest.raises(ValueError) as alone:
        Unitary(member)
    with pytest.raises(ValueError) as stacked:
        unitaries(_one_bad_member(rng, member))
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value).startswith(("matrix is not unitary", "unitary contains non-finite"))


def test_stack_check_keeps_the_tolerance(rng):
    """An error just under ``UNITARITY_TOL`` passes, as it does alone."""
    member = np.diag([1.0, 1.0, 1.0, 1.0 + 4e-13])
    gates = unitaries(_one_bad_member(rng, member))
    assert len(gates) == 6 and np.array_equal(gates[3].entries, member)
    assert np.array_equal(Unitary(member).entries, member)


def test_stack_members_are_read_only_gates(rng):
    stack = np.array([random_orthogonal(rng, 2) for _ in range(3)])
    gates = unitaries(stack)
    assert [g.dim for g in gates] == [2, 2, 2]
    for gate, matrix in zip(gates, stack):
        assert np.array_equal(gate.entries, matrix)
        with pytest.raises(ValueError):
            gate.entries[0, 0] = 5.0
    stack[0, 0, 0] = 5.0  # the stack was copied
    assert gates[0].entries[0, 0] != 5.0
    assert unitaries([]) == ()
    with pytest.raises(ValueError, match="must be square"):
        unitaries(np.zeros((2, 2, 4)))


def test_amplitudes_are_write_protected():
    sv = StateVector(1, I2[0])
    with pytest.raises(ValueError):
        sv.amps[0] = 0.0


# -------------------------------------------------------------- tensor powers


def test_kron_family_pair_amplitudes():
    """Two copies are the Kronecker product; the first copy is the more significant bit."""
    theta = math.pi / 8
    c, s = math.cos(theta), math.sin(theta)
    state = family_state(theta, PLUS, copies=2)
    assert np.allclose(state.amps, [c * c, c * s, s * c, s * s], atol=1e-15)


# --------------------------------------------------------------- apply_gate


def test_apply_identity_is_noop():
    state = StateVector(2, I4[0])
    out = apply_gate(state, Unitary(I4), (0, 1))
    assert np.allclose(out.amps, state.amps)


def test_cnot_active_on_plus_control():
    from cloneforge.gates import cnot

    # |+> is bit 0 and qubit 0 is the more significant bit, so |+-> sits at
    # index 1; its control (qubit 0) is in |+>, so the target flips: |++>
    out = apply_gate(StateVector(2, I4[1]), cnot(), (0, 1))
    assert np.allclose(out.amps, I4[0])
    # |-+> and |--> have the control in |->, so nothing happens
    for idx in (2, 3):
        out = apply_gate(StateVector(2, I4[idx]), cnot(), (0, 1))
        assert np.allclose(out.amps, I4[idx])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_apply_gate_matches_explicit_embedding(rng, n):
    """apply_gate on any qubit pair equals multiplying by the embedded matrix."""
    gate = random_orthogonal(rng, 4)
    for qa in range(n):
        for qb in range(n):
            if qa == qb:
                continue
            full = oracles.embed(gate, (qa, qb), n)
            for idx in range(2 ** n):
                out = apply_gate(StateVector(n, np.eye(2 ** n)[idx]), Unitary(gate), (qa, qb))
                assert np.allclose(out.amps, full[:, idx], atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 9, 10])
def test_apply_gate_matches_kron_oracle_on_network_shapes(rng, n):
    """Every placement shape the networks emit, against a Kronecker-built matrix.

    Single qubits on the first, a middle and the last wire; adjacent pairs in
    both orders; the non-adjacent (ancilla, system 0) pair in both orders.
    From 9 qubits on, gates starting at wire 6 or later leave A >= 64 batches
    of C in {2, 4, 8} trailing amplitudes (C = 8 needs 10 qubits), the shapes
    contracted against gate (x) I_C in one ``np.dot``.
    """
    last = n - 1
    shapes = [(0,), (n // 2,), (last,), (1, 2), (2, 1), (last - 1, last),
              (last, last - 1), (last, 0), (0, last)]
    if n >= 9:
        shapes += [(6,), (7,), (last - 1,), (6, 7), (last - 1, last - 2)]
    for qubits in shapes:
        gate = random_orthogonal(rng, 2 ** len(qubits))
        full = oracles.kron_embed(gate, qubits, n)
        for _ in range(3):
            amps = rng.normal(size=2 ** n)
            state = StateVector(n, amps / np.linalg.norm(amps))
            out = apply_gate(state, Unitary(gate), qubits)
            assert np.max(np.abs(out.amps - full @ state.amps)) < 1e-14, qubits
            assert not out.amps.flags.writeable
            with pytest.raises(ValueError):
                out.amps[0] = 0.0
    # index n joins a blank wire (see the join tests); n + 1 is out of range
    with pytest.raises(ValueError):
        apply_gate(state, Unitary(I2), (n + 1,))
    with pytest.raises(ValueError):
        apply_gate(state, Unitary(I4), (last, last))


#: every 0/1 permutation matrix on one qubit (2) and on two qubits (24)
PERMUTATIONS = [np.eye(2)[list(p)] for p in itertools.permutations(range(2))] + [
    np.eye(4)[list(p)] for p in itertools.permutations(range(4))
]


def _placements(k, n):
    """Every qubit (k = 1) or ordered pair (k = 2) of an n-qubit register."""
    if k == 1:
        return [(q,) for q in range(n)]
    return [(a, b) for a in range(n) for b in range(n) if a != b]


def _matrix_path(state, gate, qubits):
    """`linalg._matrix_layout` on the same entries, the way `apply_gate` calls it."""
    qubits = list(qubits)
    if len(qubits) == 2 and qubits[0] == qubits[1] + 1:
        gate, qubits = gate.swapped, qubits[::-1]
    return linalg._matrix_layout(gate.dim, gate.dim, qubits, state.n_qubits)(gate.entries, state.amps)


@pytest.mark.parametrize("n", range(2, 8))
def test_permutation_gates_move_the_bits_of_the_matrix_product(rng, n):
    """A 0/1 gate moves amplitudes: the same bytes as multiplying by it.

    Every one- and two-qubit permutation matrix on every wire and every
    ordered pair (ascending adjacent, descending adjacent, non-adjacent) of
    random states, against the matrix path on the same entries byte for byte
    and against the Kronecker-built matrix.
    """
    states = []
    for _ in range(2):
        amps = rng.normal(size=2 ** n)
        states.append(StateVector(n, amps / np.linalg.norm(amps)))
    for matrix in PERMUTATIONS:
        gate = Unitary(matrix)
        assert gate.permutation is not None
        for qubits in _placements(matrix.shape[0] // 2, n):
            full = oracles.kron_embed(matrix, qubits, n)
            for state in states:
                out = apply_gate(state, gate, qubits).amps
                assert out.tobytes() == _matrix_path(state, gate, qubits).tobytes(), qubits
                assert np.array_equal(out, full @ state.amps), qubits


def test_permutation_gates_keep_exact_zeros(rng):
    """On amplitudes with exact zeros the two paths agree in value.

    Multiplying by a 0/1 matrix adds products ``0 * x``, whose sign can turn
    a moved zero into -0.0 on the matrix path; no other bit can differ.
    """
    n = 5
    amps = rng.normal(size=2 ** n)
    amps[rng.random(2 ** n) < 0.4] = 0.0
    amps[rng.random(2 ** n) < 0.2] = -0.0
    amps[0] = 1.0
    state = StateVector(n, amps / np.linalg.norm(amps))
    for matrix in PERMUTATIONS:
        gate = Unitary(matrix)
        for qubits in _placements(matrix.shape[0] // 2, n):
            out = apply_gate(state, gate, qubits).amps
            assert np.array_equal(out, _matrix_path(state, gate, qubits)), qubits
            assert np.array_equal(out, oracles.kron_embed(matrix, qubits, n) @ state.amps)


def test_only_exact_zero_one_matrices_are_permutations(rng):
    from cloneforge.gates import cnot

    assert cnot().permutation == (1, 0, 2, 3)
    # control on the less significant qubit: |++> <-> |-+>
    assert cnot().swapped.permutation == (2, 1, 0, 3)
    assert Unitary(I4).permutation == (0, 1, 2, 3)
    # a sign or a rounding error is not a permutation
    for matrix in (np.diag([1.0, -1.0]), np.array([[0.0, -1.0], [1.0, 0.0]]),
                   np.array([[0.0, 1.0], [1.0 - 2 ** -52, 0.0]]),
                   random_orthogonal(rng, 4)):
        assert Unitary(matrix).permutation is None


def _permutation_scan(mat):
    """The per-gate scan that `Unitary.permutation` once ran: the source of each row of
    a 0/1 permutation matrix, None for any other."""
    if np.count_nonzero(mat) != len(mat) or not (mat[mat != 0] == 1).all():
        return None
    return tuple(np.nonzero(mat)[1].tolist())


def _flag_candidates(dim):
    from cloneforge.gates import clone_gate, cnot

    one_less, one_more = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    if dim == 2:
        return [*PERMUTATIONS[:2], clone_gate(0.0).entries, clone_gate(-0.0).entries, np.diag([1.0, -1.0]),
                np.array([[0.0, one_less], [1.0, 0.0]]), np.array([[one_more, 0.0], [0.0, 1.0]]),
                np.array([[0.0, -1.0], [1.0, 0.0]])]
    return [*PERMUTATIONS[2:], cnot().entries, cnot().swapped.entries, np.diag([1.0, 1.0, 1.0, -1.0]),
            np.diag([1.0, one_less, 1.0, 1.0]), np.diag([1.0, 1.0, 1.0, one_more])[[1, 0, 2, 3]],
            np.diag([1.0, 1.0, -1.0, 1.0])[[1, 0, 2, 3]]]


@given(
    st.sampled_from([2, 4]),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_the_stack_pass_flags_the_permutations_the_per_gate_scan_finds(dim, picks, seed):
    """`unitaries` records each gate's `Unitary.permutation` in its one pass: the same
    as a per-gate scan over random stacks of 0/1 permutations, CNOT and its swapped
    form, clone_gate(0.0) (1, -0.0, 0, 1: a permutation), signed and 1-ulp-short
    near-permutations and random orthogonal gates; and so is each swapped form's."""
    rng = np.random.default_rng(seed)
    candidates = _flag_candidates(dim)
    stack = [
        candidates[pick % len(candidates)] if pick % 4 else random_orthogonal(rng, dim)
        for pick in picks
    ]
    gates = unitaries(np.array(stack))
    assert [gate.permutation for gate in gates] == [_permutation_scan(mat) for mat in stack]
    if dim == 4:
        for gate in gates:
            assert gate.swapped.permutation == _permutation_scan(gate.swapped.entries)


def test_swapped_is_built_once_per_gate():
    gate = Unitary(oracles.controlled_reflection(0.3))
    assert gate.swapped is gate.swapped
    assert np.array_equal(gate.swapped.entries, oracles.embed(gate.entries, (1, 0), 2))
    assert not gate.swapped.entries.flags.writeable


@pytest.mark.parametrize("seed", range(60))
def test_whole_register_gate_has_the_bits_of_one_more_blank_wire(seed):
    """A gate spanning a one- or two-qubit register: the bytes of that register padded.

    Random states and orthogonal gates.  Such a gate is A = C = 1 in
    `linalg._matrix_layout`, where a matrix-vector product would give other
    last bits than the padded register's matrix-matrix product.
    """
    rng = np.random.default_rng(seed)
    for n, qubits in ((1, (0,)), (2, (0, 1)), (2, (1, 0))):
        for _ in range(3):
            gate = Unitary(random_orthogonal(rng, 2 ** len(qubits)))
            amps = rng.normal(size=2 ** n)
            state = StateVector(n, amps / np.linalg.norm(amps))
            got = apply_gate(state, gate, qubits).amps
            padded = apply_gate(pad_qubits(state, n + 1), gate, qubits).amps
            assert got.tobytes() == padded[::2].tobytes()
            assert not padded[1::2].any()


def _with_blank_wires(amps, blank):
    padded = np.zeros((amps.size, 2 ** blank))
    padded[:, 0] = amps
    return padded.reshape(-1)


def test_live_prefix_cuts_only_exactly_blank_trailing_wires(rng):
    amps = rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = StateVector(6, _with_blank_wires(amps, 3))
    cut = live_prefix(state)
    assert cut.n_qubits == 3
    assert np.array_equal(cut.amps, amps)
    assert not cut.amps.flags.writeable
    back = pad_qubits(cut, 6)
    assert back.n_qubits == 6
    assert np.array_equal(back.amps, state.amps)
    assert pad_qubits(cut, 3) is cut
    # every wire blank: one qubit is kept
    assert live_prefix(StateVector(4, np.eye(16)[0])).n_qubits == 1


def test_pad_qubits_inserts_blank_wires_at_any_wire(rng):
    head = StateVector(2, random_orthogonal(rng, 4)[:, 0])
    tail = StateVector(1, random_orthogonal(rng, 2)[:, 0])
    joined = StateVector(3, np.kron(head.amps, tail.amps))
    for at, blanks in ((0, 1), (2, 1), (2, 3), (3, 2)):
        got = pad_qubits(joined, 3 + blanks, at=at)
        assert got.n_qubits == 3 + blanks and not got.amps.flags.writeable
        blank = np.eye(2 ** blanks)[0]
        if at == 3:
            expect = oracles.kron_all(joined.amps, blank)
        elif at == 2:
            expect = oracles.kron_all(head.amps, blank, tail.amps)
        else:
            expect = oracles.kron_all(blank, joined.amps)
        assert np.array_equal(got.amps, expect)
    assert np.array_equal(pad_qubits(joined, 5).amps, pad_qubits(joined, 5, at=3).amps)


def test_live_prefix_keeps_wires_that_are_not_blank(rng):
    dense = rng.normal(size=32)
    dense /= np.linalg.norm(dense)
    state = StateVector(5, dense)
    assert live_prefix(state) is state
    # only wire 2 is blank: the trailing wires 3 and 4 still carry amplitude
    middle = dense.reshape(4, 2, 4).copy()
    middle[:, 1, :] = 0.0
    middle = StateVector(5, middle.reshape(-1) / np.linalg.norm(middle))
    assert live_prefix(middle) is middle
    # the last wire is set only together with the one before it
    pair = np.zeros(8)
    pair[0] = pair[3] = 1 / math.sqrt(2)
    assert live_prefix(StateVector(3, pair)).n_qubits == 3
    # amplitudes of 1e-300 on the last wire are not zero
    tiny = _with_blank_wires(np.array([0.6, -0.8]), 4)
    tiny[1::2] = 1e-300
    assert live_prefix(StateVector(5, tiny)).n_qubits == 5
    tiny[1::2] = 0.0
    tiny[2::4] = 1e-300
    assert live_prefix(StateVector(5, tiny)).n_qubits == 4


def test_apply_gate_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_gate(StateVector(2, I4[0]), Unitary(I4), (0,))


def test_apply_gate_duplicate_qubits():
    with pytest.raises(ValueError):
        apply_gate(StateVector(2, I4[0]), Unitary(I4), (0, 0))


def test_apply_gate_index_out_of_range():
    """Index n of an n-qubit state joins a blank wire; n + 1 and negative indices raise."""
    state = StateVector(2, I4[1])
    joined = apply_gate(state, Unitary(I4), (0, 2))
    assert joined.n_qubits == 3
    assert np.array_equal(joined.amps, pad_qubits(state, 3).amps)
    for qubits in ((0, 3), (3,), (-1,), (2, -1)):
        with pytest.raises(ValueError, match="out of range for 2-qubit state"):
            apply_gate(state, Unitary(np.eye(2 ** len(qubits))), qubits)


def test_a_bad_qubit_list_raises_on_every_call():
    """The kernel memo holds no exception: a bad qubit list raises its message every time."""
    state, pair = StateVector(2, I4[0]), Unitary(I4)
    for gate, qubits, message in (
        (pair, (0,), "gate of dimension 4 cannot act on 1 qubit(s)"),
        (pair, (1, 1), "qubit indices must be distinct, got [1, 1]"),
        (pair, [0, 3], "qubit index 3 out of range for 2-qubit state"),
        (Unitary(I2), (-1,), "qubit index -1 out of range for 2-qubit state"),
    ):
        for _ in range(3):
            with pytest.raises(ValueError) as err:
                apply_gate(state, gate, qubits)
            assert str(err.value) == message
    assert np.array_equal(apply_gate(state, pair, (0, 1)).amps, state.amps)


def _arrays_held(fn):
    """Every ndarray in the closure of ``fn`` and of the functions it closes over."""
    found = []
    for cell in getattr(fn, "__closure__", None) or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value):
            found += _arrays_held(value)
    return found


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("zeros", [False, True])
def test_memoized_kernels_keep_the_bytes_of_a_fresh_one(rng, n, zeros):
    """A layout from the memo gives the bytes of one built afresh, for every gate.

    Orthogonal gates and 0/1 permutations, on one qubit, ascending,
    descending and non-adjacent pairs, and joins of wire n.  Each layout
    serves two fresh orthogonal gates, or one permutation twice, each on two
    new states, so every call after the first is a memo hit; the fresh
    layout is the unmemoized `linalg._layout`.  With ``zeros`` the states
    hold exact zeros of either sign.  A layout holds no float array, so no
    gate's entries (a gate binds its entries on every call), and only
    read-only index arrays.
    """
    from cloneforge.gates import cnot

    wires = sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1)))
    placements = [(q,) for q in wires] + [(a, b) for a in wires for b in wires if a != b]
    for qubits in placements:
        dim = 2 ** len(qubits)
        permutations = [Unitary(I2[::-1])] if dim == 2 else [cnot(), Unitary(I4[rng.permutation(4)])]
        kinds = [[Unitary(random_orthogonal(rng, dim)) for _ in range(2)]] + [[p, p] for p in permutations]
        for gates in kinds:
            hits = linalg._layout.cache_info().hits
            for gate in gates:
                for _ in range(2):
                    amps = rng.normal(size=2 ** n)
                    if zeros:
                        amps[rng.random(2 ** n) < 0.3] = 0.0
                        amps[rng.random(2 ** n) < 0.3] = -0.0
                        amps[0] = 1.0
                    state = StateVector(n, amps / np.linalg.norm(amps))
                    update, width = linalg._layout.__wrapped__(gate.dim, gate.permutation, qubits, n)
                    want = update(gate.entries, state.amps)
                    out = apply_gate(state, gate, qubits)
                    assert out.n_qubits == width == n + (n in qubits)
                    assert out.amps.tobytes() == want.tobytes(), qubits
            assert linalg._layout.cache_info().hits >= hits + 3
            update, _ = linalg._layout(gates[0].dim, gates[0].permutation, qubits, n)
            for held in _arrays_held(update):
                assert held.dtype.kind == "i" and not held.flags.writeable


#: the local gate shapes of a join onto wire n: one qubit, or a pair with
#: another wire, adjacent (wire n - 1) or not, listed either way round
_JOIN_SHAPES = st.tuples(st.integers(min_value=0, max_value=8), st.booleans(), st.booleans())


@given(
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.integers(min_value=1, max_value=9),
    _JOIN_SHAPES,
    st.sampled_from(["orthogonal", "permutation"]),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_join_has_the_bytes_of_pad_then_apply(seed, n, shape, kind, zeros):
    """A gate naming wire n of an n-qubit state: the bytes of `pad_qubits` then `apply_gate`.

    Orthogonal and 0/1 permutation gates, on the new wire alone or paired
    with any other wire in either order.  States may hold exact zeros of
    either sign; a permutation always moves a -0.0 amplitude.  A permutation
    on the new wire, alone or with wire n - 1, is moved, not multiplied.
    Every path keeps every byte.
    """
    other, paired, descending = shape
    rng = np.random.default_rng(seed)
    other %= n
    qubits = ((n, other) if descending else (other, n)) if paired else (n,)
    dim = 2 ** len(qubits)
    if kind == "permutation":
        matrix = np.eye(dim)[rng.permutation(dim)]
    else:
        matrix = random_orthogonal(rng, dim)
    gate = Unitary(matrix)
    amps = rng.normal(size=2 ** n)
    if zeros:
        amps[rng.random(2 ** n) < 0.3] = 0.0
        amps[0] = 1.0
    amps /= np.linalg.norm(amps)
    if kind == "permutation" or zeros:
        amps[int(rng.integers(1, 2 ** n)) if n > 1 else 1] = -0.0
        amps /= np.linalg.norm(amps)
    state = StateVector._trusted(n, amps)

    got = apply_gate(state, gate, qubits)
    want = apply_gate(pad_qubits(state, n + 1), gate, qubits)
    assert got.n_qubits == n + 1 and not got.amps.flags.writeable
    assert got.amps.tobytes() == want.amps.tobytes()


def _tensordot_kernel(entries, qubits, n):
    """The non-adjacent kernel in its ``np.tensordot`` + ``np.moveaxis`` form: the oracle
    of the direct form, which works out tensordot's transpose and moveaxis' order once."""
    k, k_in = entries.shape
    inputs = qubits if k_in == k else tuple(q for q in qubits if q != n - 1)
    outs, ins = len(qubits), len(inputs)
    tensor = entries.reshape((2,) * (outs + ins))
    shape = (2,) * (n - outs + ins)
    axes = (tuple(range(outs, outs + ins)), inputs)
    return lambda amps: np.moveaxis(
        np.tensordot(tensor, amps.reshape(shape), axes=axes), tuple(range(outs)), qubits
    ).reshape(-1)


@given(
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.integers(min_value=3, max_value=9),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["orthogonal", "permutation"]),
)
@settings(max_examples=400, deadline=None)
def test_non_adjacent_pairs_keep_the_bytes_of_tensordot(seed, n, joins, descending, kind):
    """A gate on two non-adjacent wires: the bytes of ``np.tensordot`` then ``np.moveaxis``.

    Orthogonal and 0/1 permutation gates (a permutation off an adjacent pair
    is multiplied, like the separation's CNOT at M >= 2), ascending and
    descending pairs, and joins (one wire is index n, a blank wire the gate
    brings in), on 3..9 wires.
    """
    rng = np.random.default_rng(seed)
    # two wires at least two apart; wire n is the joined one
    a = int(rng.integers(0, n - 1 if joins else n - 2))
    b = n if joins else int(rng.integers(a + 2, n))
    qubits = (b, a) if descending else (a, b)
    matrix = random_orthogonal(rng, 4) if kind == "orthogonal" else I4[rng.permutation(4)]
    gate = Unitary(matrix)
    amps = rng.normal(size=2 ** n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    entries = gate.entries
    if joins:
        # the columns where the joined wire reads |+>
        j = qubits.index(n)
        entries = entries.reshape(4, 2 ** j, 2, -1)[:, :, 0].reshape(4, -1)
    want = _tensordot_kernel(entries, qubits, n + joins)(state.amps)
    direct = linalg._matrix_layout(4, entries.shape[1], qubits, n + joins)(entries, state.amps)
    got = apply_gate(state, gate, qubits)
    assert got.n_qubits == n + joins
    for out in (direct, got.amps):
        assert out.tobytes() == want.tobytes()


@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_apply_gate_preserves_norm(seed, n):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    state = StateVector(n, amps)
    k = int(rng.integers(1, n + 1))
    qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
    gate = Unitary(random_orthogonal(rng, 2 ** k))
    out = apply_gate(state, gate, qubits)
    assert abs(np.sum(np.abs(out.amps) ** 2) - 1.0) < 1e-12


# ------------------------------------------------------------ inner products


def test_inner_trivial_cases():
    th = math.pi / 8
    overlap = np.vdot(family_state(th, PLUS).amps, family_state(th, MINUS).amps)
    assert overlap == pytest.approx(math.cos(2 * th), abs=1e-15)
    f = family_state(math.pi / 4, PLUS)
    g = family_state(math.pi / 4, MINUS)
    assert abs(np.vdot(f.amps, g.amps)) < 1e-15


@given(
    st.floats(min_value=1e-3, max_value=math.pi / 4, allow_nan=False),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_family_copies_overlap_power_law(theta, k):
    """<plus^k|minus^k> = cos(2 theta)^k, the distinguishability product rule."""
    a = family_state(theta, PLUS, copies=k)
    b = family_state(theta, MINUS, copies=k)
    assert np.vdot(a.amps, b.amps) == pytest.approx(math.cos(2 * theta) ** k, abs=1e-12)
    assert abs(np.sum(np.abs(a.amps) ** 2) - 1.0) < 1e-12


@given(
    st.one_of(
        st.floats(min_value=math.log(1e-12), max_value=math.log(math.pi / 4)).map(math.exp),
        st.just(math.pi / 4),
    ),
    st.sampled_from([PLUS, MINUS]),
    st.integers(min_value=1, max_value=14),
)
@settings(max_examples=120, deadline=None)
def test_family_state_has_the_bits_of_the_kron_power(theta, sign, k):
    """The tensor power is built in place with the products of ``np.kron``.

    The power is stored real.  The complex oracle's imaginary parts are all
    exactly zero (-0.0 where two negative factors meet), so its real parts
    carry every bit of its values.
    """
    got = family_state(theta, sign, copies=k).amps
    want = oracles.family_power(theta, 1 if sign == PLUS else -1, k)
    assert got.dtype == np.float64
    assert not want.imag.any()
    assert np.array_equal(got.view(np.uint64), want.real.copy().view(np.uint64))


@given(
    st.one_of(
        st.floats(min_value=math.log(1e-12), max_value=math.log(math.pi / 4)).map(math.exp),
        st.just(math.pi / 4),
    ),
    st.sampled_from([PLUS, MINUS]),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_global_fidelity_matches_overlap_with_the_explicit_power(theta, sign, n, seed, random_state):
    """The wire-by-wire contraction against ``np.vdot`` with the built power."""
    power = oracles.family_power(theta, 1 if sign == PLUS else -1, n)
    if random_state:
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2 ** n)
        amps /= np.linalg.norm(amps)
    else:
        other = PLUS if seed % 2 else MINUS
        amps = oracles.family_power(theta, 1 if other == PLUS else -1, n)
    got = global_fidelity(family_state(theta, sign), StateVector(n, amps))
    assert abs(got - abs(np.vdot(power, amps)) ** 2) < 1e-12


def test_global_fidelity_rejects_a_wider_single_state():
    with pytest.raises(ValueError, match="one-qubit"):
        global_fidelity(StateVector(2, I4[0]), StateVector(2, I4[0]))


def test_global_fidelity_values():
    th = math.pi / 8
    assert global_fidelity(family_state(th, PLUS), family_state(th, PLUS)) == 1.0
    assert global_fidelity(StateVector(1, I2[0]), StateVector(1, I2[1])) == 0.0
    assert global_fidelity(
        family_state(th, PLUS), family_state(th, MINUS)
    ) == pytest.approx(0.5, abs=1e-15)
    # a single state with a negative amplitude
    minus = family_state(th, MINUS)
    pair = StateVector(2, np.kron(minus.amps, minus.amps))
    assert global_fidelity(minus, pair) == pytest.approx(1.0, abs=1e-15)


# -------------------------------------------------------------- measurement


def test_project_definite_state():
    prob, post = project_qubit(StateVector(1, I2[0]), 0, PLUS)
    assert prob == pytest.approx(1.0)
    assert np.allclose(post.amps, [1.0, 0.0])


def test_project_balanced_superposition():
    amps = np.array([1.0, 1.0]) / math.sqrt(2)
    prob, post = project_qubit(StateVector(1, amps), 0, MINUS)
    assert prob == pytest.approx(0.5)
    assert np.allclose(post.amps, [0.0, 1.0])


def test_project_impossible_branch():
    with pytest.raises(ImpossibleBranchError):
        project_qubit(StateVector(1, I2[0]), 0, MINUS)


def test_project_qubit_checks_its_post_state_without_a_second_copy():
    """The post-state is checked and wrapped without a second copy, as the
    constructor would store it."""
    state = StateVector._trusted(2, np.array([0.6, 0.0, 0.0, 0.8]))
    prob, post = project_qubit(state, 0, MINUS)
    want = StateVector(2, np.array([0.0, 0.0, 0.0, 0.8]) / 0.8)
    assert prob == pytest.approx(0.64)
    assert post.amps.dtype == np.float64 and post.amps.tobytes() == want.amps.tobytes()
    assert not post.amps.flags.writeable
    blank = StateVector._trusted(2, state.amps[[0, 3, 1, 2]])  # qubit 0 reads |+>
    with pytest.raises(ImpossibleBranchError, match="impossible branch"):
        project_qubit(blank, 0, MINUS)
    # the post-state is still checked: an unchecked NaN reaches it and raises
    broken = StateVector._trusted(2, np.array([0.6, np.nan, 0.0, 0.8]))
    with pytest.raises(ValueError, match="non-finite"):
        project_qubit(broken, 0, PLUS)


def test_project_rejects_unknown_outcome():
    with pytest.raises(ValueError):
        branch_probability(StateVector(1, I2[0]), 0, "up")


@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_branch_probabilities_sum_to_one(seed, n):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    state = StateVector(n, amps)
    qubit = int(rng.integers(0, n))
    total = branch_probability(state, qubit, PLUS) + branch_probability(state, qubit, MINUS)
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_family_state_rejects_a_non_finite_angle(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        family_state(theta, PLUS)


def test_family_state_is_normalized_without_a_check():
    """The amplitudes are wrapped unchecked, so their norm is asserted here."""
    for theta in (1e-300, 1e-9, 0.05, 0.3, 0.5, math.pi / 8, 0.7, math.pi / 4):
        for sign in (PLUS, MINUS):
            for k in range(1, 21):
                amps = family_state(theta, sign, copies=k).amps
                norm_sq = float(np.sum(np.abs(amps) ** 2))
                assert abs(norm_sq - 1.0) <= linalg.NORM_TOL, (theta, sign, k)


def test_family_state_rejects_unknown_sign():
    with pytest.raises(ValueError):
        family_state(math.pi / 8, "both")


# ------------------------------------------------------------ real storage


def test_states_and_gates_must_be_real(rng):
    """Entries are stored as float64; a nonzero imaginary part is refused.

    A complex array whose imaginary parts are all zero is stored as its real
    part.  In a stack of gates, one member with an imaginary part refuses
    the stack.
    """
    with pytest.raises(ValueError, match="^state vector must be real"):
        StateVector(1, np.array([1, 1j]) / math.sqrt(2))
    with pytest.raises(ValueError, match="^unitary must be real"):
        Unitary(np.diag([1.0, 1j]))
    stack = [random_orthogonal(rng, 4), np.diag([1.0, 1.0, 1.0, 1j]), random_orthogonal(rng, 4)]
    with pytest.raises(ValueError, match="^unitary must be real"):
        unitaries(np.array(stack))
    assert StateVector(1, np.array([1.0 + 0.0j, -0.0j])).amps.dtype == np.float64
    assert StateVector(1, [0.6, 0.8]).amps.dtype == np.float64
    assert Unitary(np.eye(2, dtype=complex)).entries.dtype == np.float64
    assert family_state(0.3, MINUS, copies=4).amps.dtype == np.float64
