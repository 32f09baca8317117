"""Two-qubit gates for concentrating, separating, and redistributing
which-state information, plus their CNOT + single-qubit decompositions.

Basis order is |++>, |+->, |-+>, |--> (first qubit = most significant bit).
Every gate built here is real orthogonal, so decomposition equality is exact
equality of matrices -- there is no global-phase freedom to quotient out.

CNOT convention (used consistently everywhere, including serialized
circuits): the gate is ACTIVE WHEN THE CONTROL QUBIT IS |+>, i.e. on control
bit 0.  This is deliberately not the textbook active-on-1 gate; it keeps the
blank state |+> inert on the target side of every network here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .bounds import separation_bound
from .linalg import Unitary

#: matrices re-multiplied from a decomposition must match the target this well
DECOMPOSITION_TOL = 1e-10
#: internal consistency checks on derived angles
CONSISTENCY_TOL = 1e-12


#: 2x2 blocks of the 4x4 gates: the even and odd parity sectors, the active
#: sector of the separation gate (ancilla first)
_EVEN_SECTOR = np.ix_([0, 3], [0, 3])
_ODD_SECTOR = np.ix_([1, 2], [1, 2])
_ANCILLA_ACTIVE = np.ix_([0, 2], [0, 2])


def _reflection(beta: float) -> np.ndarray:
    """Real 2x2 reflection: det -1, axis at angle beta/2."""
    c, s = math.cos(beta), math.sin(beta)
    return np.array([[c, s], [s, -c]])


def _rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


@functools.lru_cache(maxsize=1)
def cnot() -> Unitary:
    """CNOT with control = first (more significant) qubit, active on |+>.

    Swaps |++> <-> |+-> and leaves |-+>, |--> unchanged.
    """
    m = np.eye(4)[[1, 0, 2, 3]]
    return Unitary(m)


def _check_angle_range(value: float, name: str) -> None:
    if not (0.0 <= value <= math.pi / 4 + 1e-15):
        raise ValueError(f"{name} must lie in [0, pi/4], got {value!r}")


def _odd_sector_weight(theta1: float, theta2: float) -> float:
    """1 - cos(2 t3), the odd-sector norm, in a subtraction-free form."""
    s1, s2 = math.sin(theta1), math.sin(theta2)
    return 2.0 * (s1 * s1 + math.cos(2.0 * theta1) * s2 * s2)


def sector_angles(theta1: float, theta2: float) -> Tuple[float, float]:
    """Reflection angles of the transfer gate's two parity sectors.

    The transfer gate is block-diagonal on the spans {|++>, |-->} (even
    sector) and {|+->, |-+>} (odd sector).  This returns (delta1, delta2)
    with

        cos delta1 = N+ cos t1 cos t2,  sin delta1 = N+ sin t1 sin t2,
        cos delta2 = N- cos t1 sin t2,  sin delta2 = N- sin t1 cos t2,

    N_pm = sqrt(2 / (1 pm cos 2 t3)) and t3 the composed angle.  Both pairs
    are verified to be unit vectors, except that where the odd-sector weight
    is so small that N- overflows, delta2 is taken from the unnormalized odd
    pair (only its direction matters).  When both angles vanish (or are so
    small the odd-sector norm underflows) the odd-sector angle is undefined
    and this raises; the gate builders special-case that corner (the odd
    sector becomes the identity there).
    """
    _check_angle_range(theta1, "theta1")
    _check_angle_range(theta2, "theta2")
    if _odd_sector_weight(theta1, theta2) == 0.0:
        raise ValueError(
            "odd-sector angle is undefined at theta1 = theta2 = 0 "
            "(the transfer gate's odd sector degenerates to the identity)"
        )
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    # 1 -+ cos(2 t3) in subtraction-free form, so the normalizations stay
    # accurate down to arbitrarily small angles
    one_plus_c3 = 1.0 + math.cos(2.0 * theta1) * math.cos(2.0 * theta2)
    n_even = math.sqrt(2.0 / one_plus_c3)
    n_odd = math.sqrt(2.0 / _odd_sector_weight(theta1, theta2))
    even = (n_even * c1 * c2, n_even * s1 * s2)
    if math.isinf(n_odd):
        # a subnormal odd-sector weight overflows the normalization; atan2
        # needs only the direction, which the unnormalized pair keeps
        pairs = (even,)
        odd = (c1 * s2, s1 * c2)
    else:
        odd = (n_odd * c1 * s2, n_odd * s1 * c2)
        pairs = (even, odd)
    for cos_d, sin_d in pairs:
        if abs(cos_d * cos_d + sin_d * sin_d - 1.0) > CONSISTENCY_TOL:
            raise ValueError(
                "internal consistency failure: sector angle pair is not "
                f"normalized ({cos_d!r}, {sin_d!r})"
            )
    delta1 = math.atan2(even[1], even[0])
    delta2 = math.atan2(odd[1], odd[0])
    return delta1, delta2


@functools.lru_cache(maxsize=32)
def transfer_gate(theta1: float, theta2: float) -> Unitary:
    """Two-qubit gate concentrating the pair's distinguishability.

    Acting on a product of family states at angles (theta1, theta2) it
    produces the family state at the composed angle theta3 on the first
    qubit and resets the second qubit to |+>; being Hermitian and
    self-inverse, it equally well redistributes a composed state back over
    two qubits.

    The matrix is real, block-diagonal on the even sector {|++>, |-->}
    (reflection by delta1) and the odd sector {|+->, |-+>} (reflection by
    delta2 + pi/2).  The quarter turn on the odd sector is what makes the
    gate Hermitian; it fixes the sign of the image of the fourth basis
    input.  At theta1 = theta2 = 0 the odd sector is defined as the
    identity (the physical family never populates it there).

    Memoized: the rows of a trade-off sweep rebuild the same compression and
    decompression gates.  The returned ``Unitary`` is immutable, so sharing
    it is safe; invalid angles raise on every call (exceptions are not
    cached).
    """
    _check_angle_range(theta1, "theta1")
    _check_angle_range(theta2, "theta2")
    m = np.zeros((4, 4))
    if _odd_sector_weight(theta1, theta2) == 0.0:
        m[_EVEN_SECTOR] = _reflection(0.0)
        m[1, 1] = m[2, 2] = 1.0
        return Unitary(m)
    delta1, delta2 = sector_angles(theta1, theta2)
    m[_EVEN_SECTOR] = _reflection(delta1)
    m[_ODD_SECTOR] = _reflection(delta2 + math.pi / 2.0)
    return Unitary(m)


def conjugating_rotation(delta: float) -> Unitary:
    """Rotation A(delta) with A^dag X A = reflection by delta.

    Defined as ((1 - i sigma_y) cos(delta/2) + (1 + i sigma_y)
    sin(delta/2)) / sqrt(2); the combination is real orthogonal.
    """
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    i2 = np.eye(2)
    a = ((i2 - 1.0j * sy) * math.cos(delta / 2.0)
         + (i2 + 1.0j * sy) * math.sin(delta / 2.0)) / math.sqrt(2.0)
    if np.max(np.abs(a.imag)) > CONSISTENCY_TOL:
        raise ValueError("internal consistency failure: rotation is not real")
    return Unitary(a.real)


def separation_gamma(theta_in: float, theta_out: float) -> float:
    """Mixing angle of the separation gate's active sector.

    cos(gamma) = sqrt(P) cos(theta_out)/cos(theta_in) and sin(gamma) =
    sqrt(1-P)/cos(theta_in) with P the separation success probability; the
    pair is checked to be normalized, which encodes the probability-
    conservation identity P cos^2(theta_out) + (1 - P) = cos^2(theta_in).
    """
    _check_separation_angles(theta_in, theta_out)
    p = separation_bound(math.cos(2.0 * theta_in), math.cos(2.0 * theta_out))
    cos_g = math.sqrt(p) * math.cos(theta_out) / math.cos(theta_in)
    sin_g = math.sqrt(1.0 - p) / math.cos(theta_in)
    if abs(cos_g * cos_g + sin_g * sin_g - 1.0) > CONSISTENCY_TOL:
        raise ValueError(
            "internal consistency failure: separation angle pair is not "
            f"normalized ({cos_g!r}, {sin_g!r})"
        )
    return math.atan2(sin_g, cos_g)


def _check_separation_angles(theta_in: float, theta_out: float) -> None:
    if not (0.0 < theta_in <= math.pi / 4 + 1e-15):
        raise ValueError(f"theta_in must lie in (0, pi/4], got {theta_in!r}")
    if not (0.0 < theta_out <= math.pi / 4 + 1e-15):
        raise ValueError(f"theta_out must lie in (0, pi/4], got {theta_out!r}")
    if theta_in > theta_out + 1e-12:
        raise ValueError(
            f"not a separation: theta_in {theta_in!r} exceeds theta_out {theta_out!r}"
        )


def separation_rotation(theta_in: float, theta_out: float) -> Unitary:
    """Single-qubit rotation conjugating a CNOT into the separation gate."""
    return conjugating_rotation(separation_gamma(theta_in, theta_out))


def separation_gate(theta_in: float, theta_out: float) -> Unitary:
    """Probabilistic overlap-reducing gate on (ancilla, system) qubits.

    Qubit order: the ancilla is the first (more significant) qubit.  With
    the ancilla prepared in |+>, a system family state at theta_in is mapped
    to sqrt(P) |+>|family(theta_out)> + sqrt(1-P) |->|+>, so measuring the
    ancilla heralds the separation; P is the separation success probability.
    The states |+-> and |--> are left invariant.
    """
    gamma = separation_gamma(theta_in, theta_out)
    m = np.zeros((4, 4))
    m[_ANCILLA_ACTIVE] = _reflection(gamma)
    m[1, 1] = m[3, 3] = 1.0
    return Unitary(m)


def clone_gate(turn: float) -> Unitary:
    """Rotation of qubit 0 by ``turn``: the clone stage of a network.

    It maps the compressed pair at angles +/- theta_M to any pair of output
    angles phi_plus, phi_minus with phi_plus - phi_minus = 2 theta_M, taking
    ``turn`` = phi_plus - theta_M.
    """
    return Unitary(_rotation(turn))


# --------------------------------------------------------------------------
# circuit decompositions
# --------------------------------------------------------------------------

#: placement kinds
KIND_CNOT = "cnot"
KIND_LOCAL = "local"
KIND_TRANSFER = "transfer"
KIND_SEPARATION = "separation"
KIND_CLONE = "clone"


@dataclass(frozen=True)
class GatePlacement:
    """One gate applied to named qubits of a register.

    ``qubits`` is in gate-local significance order (first = control for
    CNOTs).  ``kind`` tags what the gate is so circuits can be serialized or
    re-expanded; ``params`` holds the defining angles for re-derivable
    kinds.
    """

    gate: Unitary
    qubits: Tuple[int, ...]
    label: str
    kind: str = "generic"
    params: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.gate.dim != 2 ** len(self.qubits):
            raise ValueError(
                f"gate dimension {self.gate.dim} does not fit {len(self.qubits)} qubit(s)"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"placement qubits must be distinct, got {self.qubits}")


@dataclass(frozen=True)
class CircuitDecomposition:
    """A target two-qubit gate and an equal CNOT + single-qubit circuit.

    ``placements`` is in time order (first entry acts first) on local wires
    0 and 1.  Construction verifies the re-multiplied product against the
    target; all factors are real, so the comparison is plain matrix
    equality.
    """

    target: Unitary
    placements: Tuple[GatePlacement, ...]
    max_abs_error: float = field(init=False)

    def __post_init__(self):
        if self.target.dim != 4:
            raise ValueError(
                f"decomposition targets must be two-qubit gates, got dimension {self.target.dim}"
            )
        for p in self.placements:
            if p.kind not in (KIND_CNOT, KIND_LOCAL):
                raise ValueError(
                    f"decompositions may contain only CNOT and single-qubit "
                    f"placements, got kind {p.kind!r}"
                )
            if not set(p.qubits) <= {0, 1}:
                raise ValueError(
                    f"decomposition placements act on wires 0 and 1, got {p.qubits}"
                )
        err = float(np.abs(self.rebuild() - self.target.entries).max())
        if err > DECOMPOSITION_TOL:
            raise ValueError(
                f"decomposition does not re-multiply to its target "
                f"(max abs error {err:.3e})"
            )
        object.__setattr__(self, "max_abs_error", err)

    def rebuild(self) -> np.ndarray:
        """Re-multiply the placements into a full matrix on the two wires.

        The placements' 4x4 matrices are multiplied in time order.  A
        two-qubit placement's matrix is its gate, with the local basis
        reordered when its wires are listed as (1, 0); a one-qubit gate is
        copied once for each value of the other wire.  The product is real
        when every factor is, as in every emitted decomposition.
        """
        total = np.eye(4)
        for p in self.placements:
            matrix = p.gate.entries
            if p.qubits == (1, 0):
                matrix = p.gate.swapped.entries
            elif len(p.qubits) == 1:
                matrix = np.zeros((4, 4), dtype=matrix.dtype)
                # wire 0 is the more significant bit: a gate on it acts on
                # entries two apart, a gate on wire 1 on adjacent ones
                if p.qubits == (0,):
                    matrix[0::2, 0::2] = matrix[1::2, 1::2] = p.gate.entries
                else:
                    matrix[:2, :2] = matrix[2:, 2:] = p.gate.entries
            total = matrix @ total
        return total

    @property
    def cnot_count(self) -> int:
        return sum(1 for p in self.placements if p.kind == KIND_CNOT)


def _cnot_placement(control: int, target: int) -> GatePlacement:
    return GatePlacement(
        gate=cnot(),
        qubits=(control, target),
        label=f"CNOT(control={control}, target={target}, active on |+>)",
        kind=KIND_CNOT,
    )


def _local_placement(matrix: np.ndarray, qubit: int, label: str) -> GatePlacement:
    return GatePlacement(
        gate=Unitary(matrix),
        qubits=(qubit,),
        label=f"{label}@{qubit}",
        kind=KIND_LOCAL,
    )


def decompose_transfer(theta1: float, theta2: float) -> CircuitDecomposition:
    """CNOT + single-qubit circuit equal to the transfer gate.

    The regular construction uses four CNOTs and three single-qubit gates
    (seven placements).  Writing F(b) for the reflection by b, R(p) for the
    rotation by p, d2' = delta2 + pi/2 and a = d2' - delta1, the product

        C(0->1) . F(d2')_0 . C(1->0) . R(a/2)_0 . C(1->0) . R(a/2)_0 . C(0->1)

    (rightmost factor first) equals the gate: the outer CNOT pair splits the
    matrix into its two parity sectors, the C(1->0)-conjugated rotations
    realize the sector-angle difference, and the remaining reflection aligns
    both sectors at once.

    At theta1 = theta2 = 0 the gate is diagonal (one sign flip) and a
    shorter five-placement, three-CNOT circuit is emitted instead.
    """
    target = transfer_gate(theta1, theta2)
    if _odd_sector_weight(theta1, theta2) == 0.0:
        placements = (
            _cnot_placement(0, 1),
            _local_placement(_reflection(math.pi / 4.0), 0, "reflection(pi/4)"),
            _cnot_placement(1, 0),
            _local_placement(_rotation(-math.pi / 4.0), 0, "rotation(-pi/4)"),
            _cnot_placement(0, 1),
        )
        return CircuitDecomposition(target=target, placements=placements)
    delta1, delta2 = sector_angles(theta1, theta2)
    d2p = delta2 + math.pi / 2.0
    alpha = d2p - delta1
    cnot_01, cnot_10 = _cnot_placement(0, 1), _cnot_placement(1, 0)
    # both rotations are one matrix: build and check it once
    half_turn = _local_placement(_rotation(alpha / 2.0), 0, f"rotation({alpha / 2.0:.12g})")
    placements = (
        cnot_01,
        half_turn,
        cnot_10,
        half_turn,
        cnot_10,
        _local_placement(_reflection(d2p), 0, f"reflection({d2p:.12g})"),
        cnot_01,
    )
    return CircuitDecomposition(target=target, placements=placements)


def decompose_separation(theta_in: float, theta_out: float) -> CircuitDecomposition:
    """Single-CNOT circuit equal to the separation gate.

    The CNOT targets the ancilla (wire 0) controlled by the system
    (wire 1), conjugated by the separation rotation on the ancilla:
    B^dag_0 . C(1->0) . B_0, rightmost factor first.  Three placements.
    """
    target = separation_gate(theta_in, theta_out)
    b = separation_rotation(theta_in, theta_out).entries.real
    gamma = separation_gamma(theta_in, theta_out)
    placements = (
        _local_placement(b, 0, f"rotation({math.pi / 4.0 - gamma / 2.0:.12g})"),
        _cnot_placement(1, 0),
        _local_placement(b.T, 0, f"rotation({gamma / 2.0 - math.pi / 4.0:.12g})"),
    )
    return CircuitDecomposition(target=target, placements=placements)
