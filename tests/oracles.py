"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles with explicit loops and
plain formulas -- deliberately NOT importing the package's linear algebra --
so a test comparing the two is a genuine dual-route check.
"""

import functools
import math

import numpy as np


def embed(gate: np.ndarray, qubits, n: int) -> np.ndarray:
    """Explicit-loop embedding of a k-qubit gate into a 2^n x 2^n matrix.

    Conventions mirrored from the package docs: qubit 0 is the most
    significant bit of a basis index, and the first listed qubit is the most
    significant bit of the gate's local index.
    """
    k = len(qubits)
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        col_bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        local_col = 0
        for q in qubits:
            local_col = (local_col << 1) | col_bits[q]
        for local_row in range(2 ** k):
            amp = gate[local_row, local_col]
            if amp == 0:
                continue
            row_bits = list(col_bits)
            for pos, q in enumerate(qubits):
                row_bits[q] = (local_row >> (k - 1 - pos)) & 1
            row = 0
            for bit in row_bits:
                row = (row << 1) | bit
            full[row, col] += amp
    return full


@functools.lru_cache(maxsize=None)
def _wire_order_source(qubits, n: int) -> np.ndarray:
    """``source[i]``: the index, listed qubits first, of natural basis index i."""
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    source = np.zeros(2 ** n, dtype=np.int64)
    for index in range(2 ** n):
        # bit ``pos`` of ``index`` (most significant first) belongs to wire order[pos]
        natural = 0
        for pos, wire in enumerate(order):
            natural |= ((index >> (n - 1 - pos)) & 1) << (n - 1 - wire)
        source[natural] = index
    return source


def kron_embed(gate: np.ndarray, qubits, n: int) -> np.ndarray:
    """Embedding of a k-qubit gate built from a Kronecker product.

    ``gate`` is first extended by ``np.kron`` with the identity on the
    untouched wires, which puts the listed qubits first, in their listed
    order; a wire permutation of rows and columns then moves every wire to
    its place.  Same conventions as `embed`.
    """
    full = np.kron(gate, np.eye(2 ** (n - len(qubits))))
    source = _wire_order_source(tuple(qubits), n)
    return full[np.ix_(source, source)]


def pad_qubits(amps: np.ndarray, n_qubits: int, at=None) -> np.ndarray:
    """The padding oracle: ``amps`` with blank |+> wires inserted before wire ``at``,
    up to ``n_qubits`` wires in all (by default appended after the last wire).

    The amplitudes are copied unchanged into the slots of an array of zeros
    where every inserted wire reads |+>, so padding keeps every byte.
    """
    k = amps.size.bit_length() - 1
    at = k if at is None else at
    padded = np.zeros((2 ** at, 2 ** (n_qubits - k), 2 ** (k - at)))
    padded[:, 0, :] = amps.reshape(2 ** at, -1)
    return padded.reshape(-1)


def run_network_full(placements, n: int, inputs, measured=None):
    """Reference runs of a network at full width, written without the package.

    ``placements`` are ``(gate matrix, qubits)`` pairs, each applied as its
    `kron_embed` matrix to all 2**n amplitudes of every array in ``inputs``
    (the inputs run side by side, so each matrix is built once).  With
    ``measured``, that qubit is projected onto |+> right after the last
    placement touching it, the remaining placements act on the renormalized
    success branch, and the measured qubit is dropped from both branches.
    Returns one ``(success probability, post state, failure state)`` per
    input; the failure state is None unless the failure branch has
    probability above 1e-12.  Without ``measured`` it is ``(1.0, output, None)``.
    """
    states = np.column_stack(inputs).astype(np.complex128)

    def run(states, part):
        for gate, qubits in part:
            full = kron_embed(gate, qubits, n)
            # one matrix-vector product per input: OpenBLAS takes about 40x
            # longer for the same matrix times a two-column array
            states = np.column_stack([full @ column for column in states.T])
        return states

    if measured is None:
        return [(1.0, out, None) for out in run(states, placements).T]
    last = max((i for i, (_, qubits) in enumerate(placements) if measured in qubits), default=-1)
    states = run(states, placements[: last + 1])
    plus = ((np.arange(2 ** n) >> (n - 1 - measured)) & 1) == 0
    probs = np.sum(np.abs(states[plus]) ** 2, axis=0)
    fails = np.sum(np.abs(states[~plus]) ** 2, axis=0)
    posts = run(np.where(plus[:, None], states, 0.0) / np.sqrt(probs), placements[last + 1 :])
    return [
        (
            float(probs[i]),
            posts[plus, i],
            states[~plus, i] / math.sqrt(fails[i]) if 1.0 - probs[i] > 1e-12 else None,
        )
        for i in range(states.shape[1])
    ]


#: most Z frames `z_sign` follows at once
_MAX_FRAMES = 4


def z_sign(spec, width: int):
    """The Z-frame oracle: the sign g with which a network's run of Z^(x)width |in> is
    g Z^(x)N times its run of |in>, for any input |in> on ``width`` wires; None where
    no Z frame shows it.

    ``spec`` is a ``networks.NetworkSpec``, read through its placements'
    wires and gate entries alone; N counts its system wires.  A Z frame is
    a Z string (a mask: wire q is bit q) with a global sign.  It claims
    that each amplitude of the second run is the first run's at the same
    index times sign * (-1)^|index & mask|, or that both are zero; then the
    two runs agree bit for bit, up to the sign of an exact zero.  The frame
    starts as Z on the input wires and follows the placements in order:
    each maps it by the rule of its gate's exact zeros (`_z_images`), where
    a wire that is not yet live is blank, so its bit is free; a heralded
    network's ancilla is projected onto |+> right after the last placement
    touching it, which keeps its |+> branch and drops its bit.  Every frame
    that holds is kept; with none left, or more than ``_MAX_FRAMES``, there
    is no answer.  After a CNOT onto a blank target, Z on the control and
    -Z on the target both hold, and a rotation of the control keeps the
    second.  The frames are worked out from the gates alone, so an
    amplitude that is zero in a run still constrains them: a frame found
    holds, though one may be missed.
    """
    steps = [(p.gate.entries, p.qubits) for p in spec.placements]
    ancilla = spec.n_qubits - 1
    if spec.heralded:
        touching = [i for i, (_, qubits) in enumerate(steps) if ancilla in qubits]
        steps.insert(touching[-1] + 1 if touching else 0, None)
    live = (1 << width) - 1
    frames = {(live, 1.0)}
    for step in steps:
        if step is None:
            keep = ~(1 << ancilla)
            frames = {(mask & keep, sign) for mask, sign in frames}
            live &= keep
            continue
        entries, qubits = step
        wires = 0
        for q in qubits:
            wires |= 1 << q
        pattern, blank = (entries != 0).tobytes(), wires & ~live
        frames = {
            (mask & ~wires | bits, -sign if flip else sign)
            for mask, sign in frames
            for bits, flip in _z_images(pattern, qubits, mask & wires, blank)
        }
        if not frames or len(frames) > _MAX_FRAMES:
            return None
        live |= wires
    # a system wire that never went live is blank: its bit is free
    system = (1 << (spec.n_qubits - spec.heralded)) - 1
    return next((sign for mask, sign in frames if (mask | ~live) & system == system), None)


def _z_images(pattern: bytes, qubits, z: int, blank: int):
    """Each image ``(bits, flip)`` of a Z string under a gate: its new bits on
    the gate's wires and whether its global sign turns.

    ``pattern`` holds one byte per entry of the gate, row by row, nonzero
    where the entry is not exactly zero, and ``qubits`` are its wires; ``z``
    and ``blank`` are the string's bits on them and those of them not yet
    live, as network masks (wire q is bit q).  An image holds when every
    nonzero entry G[i][j], in a column j where no blank wire reads |->, has
    (-1)^(|i & bits| + flip) = (-1)^|j & z|: then each term of each output
    amplitude's sum turns sign with it.  A row with no such entry is zero
    and a blank wire reads |+>, so neither constrains the string.
    """
    k = len(qubits)
    shifts = range(k - 1, -1, -1)  # the first listed qubit is the most significant local bit

    def local(mask):
        return sum((mask >> q & 1) << s for q, s in zip(qubits, shifts))

    z, blank, dim = local(z), local(blank), 1 << k
    entries = [
        (i, (j & z).bit_count() & 1)
        for i in range(dim)
        for j in range(dim)
        if pattern[i * dim + j] and not j & blank
    ]
    images = []
    for out in range(dim):
        flips = {((i & out).bit_count() ^ sign_in) & 1 for i, sign_in in entries}
        if len(flips) == 1:
            images.append((sum((out >> s & 1) << q for q, s in zip(qubits, shifts)), flips.pop() == 1))
    return tuple(images)


def family_power(theta: float, sign: int, k: int) -> np.ndarray:
    """k-fold tensor power of cos(theta)|0> + sign*sin(theta)|1>, by ``np.kron``.

    The single copy takes its cosine and sine from numpy, as the package
    does, so the power can be compared bit for bit.
    """
    single = np.array([np.cos(theta), sign * np.sin(theta)], dtype=np.complex128)
    return functools.reduce(np.kron, [single] * k)


def prepare_input(problem, sign: str, with_ancilla: bool) -> np.ndarray:
    """Amplitudes of M family-state copies, N-M blank |+> qubits, optional |+> ancilla.

    The copies are `family_power`; every blank wire reads |+>, so the
    amplitudes sit at every 2**blanks-th index of an array of zeros.
    """
    width = problem.n_copies + (1 if with_ancilla else 0)
    amps = np.zeros(2 ** width, dtype=np.complex128)
    amps[:: 2 ** (width - problem.m_copies)] = family_power(
        problem.theta, 1 if sign == "plus" else -1, problem.m_copies
    )
    return amps


def family_amps(theta: float, sign: int) -> np.ndarray:
    """cos(theta)|0> + sign*sin(theta)|1> as a plain array."""
    return np.array([math.cos(theta), sign * math.sin(theta)], dtype=np.complex128)


def kron_all(*vectors: np.ndarray) -> np.ndarray:
    out = np.array([1.0], dtype=np.complex128)
    for v in vectors:
        out = np.kron(out, v)
    return out


def copies_amps(theta: float, sign: int, k: int) -> np.ndarray:
    return kron_all(*([family_amps(theta, sign)] * k))


#: Pauli X, which swaps |+> and |->
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def reflection(beta: float) -> np.ndarray:
    """Real 2x2 reflection: det -1, axis at angle beta/2."""
    c, s = math.cos(beta), math.sin(beta)
    return np.array([[c, s], [s, -c]])


def equal_parity_reflection(delta: float) -> np.ndarray:
    """Reflection by delta on span{|++>, |-->}, identity on the odd sector."""
    m = np.eye(4)
    m[np.ix_([0, 3], [0, 3])] = reflection(delta)
    return m


def controlled_reflection(delta: float) -> np.ndarray:
    """Reflection by delta on the second qubit when the first is |+>."""
    m = np.eye(4)
    m[:2, :2] = reflection(delta)
    return m


def transfer_matrix(delta1: float, delta2: float) -> np.ndarray:
    """The transfer gate from its sector angles, built block by block.

    A zero matrix whose even sector {|++>, |-->} is the reflection by delta1
    and whose odd sector {|+->, |-+>} is the reflection by delta2 + pi/2.
    """
    m = np.zeros((4, 4))
    m[np.ix_([0, 3], [0, 3])] = reflection(delta1)
    m[np.ix_([1, 2], [1, 2])] = reflection(delta2 + math.pi / 2.0)
    return m


#: (1 (x) X) . CNOT(control = second qubit, active on |+>) . (1 (x) X): a
#: Hermitian involution that swaps |+-> with |--> and conjugates a controlled
#: reflection into the equal-parity reflection of the same angle
PARITY_EXCHANGE = (
    np.kron(np.eye(2), PAULI_X) @ np.eye(4)[[2, 1, 0, 3]] @ np.kron(np.eye(2), PAULI_X)
)


def objective(theta_n: float, phi_plus: float, phi_minus: float, eta_plus: float) -> float:
    """Prior-weighted fidelity of output states rotated by (phi_plus, phi_minus)."""
    return (
        eta_plus * math.cos(theta_n - phi_plus) ** 2
        + (1.0 - eta_plus) * math.cos(theta_n + phi_minus) ** 2
    )


def scan_best_fidelity(theta: float, m: int, n: int, eta_plus: float, grid: int = 200001) -> float:
    """Dense-scan maximizer of the cloning objective (slow, trusted)."""
    s = math.cos(2.0 * theta)
    theta_m = 0.5 * math.acos(s ** m)
    theta_n = 0.5 * math.acos(s ** n)
    best = 0.0
    lo, hi = -math.pi / 2, math.pi
    for i in range(grid):
        phi_plus = lo + (hi - lo) * i / (grid - 1)
        best = max(best, objective(theta_n, phi_plus, phi_plus - 2 * theta_m, eta_plus))
    return best
