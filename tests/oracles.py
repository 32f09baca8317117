"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles with explicit loops and
plain formulas -- deliberately NOT importing the package's linear algebra --
so a test comparing the two is a genuine dual-route check.
"""

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


def kron_embed(gate: np.ndarray, qubits, n: int) -> np.ndarray:
    """Embedding of a k-qubit gate built from Kronecker products.

    ``gate`` is first extended by ``np.kron`` with one 2x2 identity per
    untouched wire, which puts the listed qubits first, in their listed
    order; a wire permutation matrix then moves every wire to its place.
    Same conventions as `embed`.
    """
    qubits = list(qubits)
    order = qubits + [q for q in range(n) if q not in qubits]
    full = gate
    for _ in range(n - len(qubits)):
        full = np.kron(full, np.eye(2))
    dim = 2 ** n
    perm = np.zeros((dim, dim))
    for index in range(dim):
        # bit ``pos`` of ``index`` (most significant first) belongs to wire order[pos]
        natural = 0
        for pos, wire in enumerate(order):
            natural |= ((index >> (n - 1 - pos)) & 1) << (n - 1 - wire)
        perm[natural, index] = 1.0
    return perm @ full @ perm.T


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
