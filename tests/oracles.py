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
