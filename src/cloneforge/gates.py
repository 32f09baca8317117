"""Two-qubit gates for concentrating, separating, and redistributing
which-state information, plus their CNOT + single-qubit decompositions.

Basis order is |++>, |+->, |-+>, |--> (first qubit = most significant bit).
Every gate built here is real orthogonal, so decomposition equality is exact
equality of matrices -- there is no global-phase freedom to quotient out.

CNOT convention (used consistently everywhere, including serialized
circuits): the gate is ACTIVE WHEN THE CONTROL QUBIT IS |+>, i.e. on control
bit 0.  This is deliberately not the textbook active-on-1 gate; it keeps the
blank state |+> inert on the target side of every network here.

A network's gates are checked in batches: a chain's transfer gates as one
stack (`transfer_gates`), its circuits' factors as one stack and their
products as one ``matmul`` per step (`decompositions`); a lone gate is one.
The rows of a trade-off sweep share them: `transfer_gates` and
`decompose_transfers` are memoized per tuple of angle pairs, and every
circuit holds the same two CNOT placements, built at import.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .bounds import separation_bound
from .linalg import Unitary, unitaries

#: matrices re-multiplied from a decomposition must match the target this well
DECOMPOSITION_TOL = 1e-10
#: internal consistency checks on derived angles
CONSISTENCY_TOL = 1e-12


def _reflection(beta: float) -> Tuple[Tuple[float, float], ...]:
    """Rows of the real 2x2 reflection: det -1, axis at angle beta/2."""
    c, s = math.cos(beta), math.sin(beta)
    return ((c, s), (s, -c))


def _rotation(phi: float) -> Tuple[Tuple[float, float], ...]:
    c, s = math.cos(phi), math.sin(phi)
    return ((c, -s), (s, c))


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
    odd_weight = _odd_sector_weight(theta1, theta2)
    if odd_weight == 0.0:
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
    n_odd = math.sqrt(2.0 / odd_weight)
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


@functools.lru_cache(maxsize=16)
def transfer_gates(pairs: Tuple[Tuple[float, float], ...]) -> Tuple[Unitary, ...]:
    """The transfer gates of the angle pairs ``pairs``, checked as one stack.

    Each gate's 16 entries are written row by row (see `transfer_gate`).
    Memoized per tuple (the rows of a trade-off sweep rebuild the same chains);
    the gates are immutable, and invalid angles raise on every call.
    """
    entries = {}  # one gate per distinct pair: far down a long chain the angles repeat
    for theta1, theta2 in pairs:
        if (theta1, theta2) in entries:
            continue
        _check_angle_range(theta1, "theta1")
        _check_angle_range(theta2, "theta2")
        if _odd_sector_weight(theta1, theta2) == 0.0:
            entries[theta1, theta2] = tuple(np.diag([1.0, 1.0, 1.0, -1.0]).flat)
            continue
        delta1, delta2 = sector_angles(theta1, theta2)
        (c1, s1), _ = _reflection(delta1)
        (c2, s2), _ = _reflection(delta2 + math.pi / 2.0)
        entries[theta1, theta2] = (c1, 0.0, 0.0, s1, 0.0, c2, s2, 0.0, 0.0, s2, -c2, 0.0, s1, 0.0, 0.0, -c1)
    built = dict(zip(entries, unitaries(np.reshape(list(entries.values()), (-1, 4, 4)))))
    return tuple(built[pair] for pair in pairs)


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

    The batch of one of `transfer_gates`, and memoized by it.
    """
    return transfer_gates(((theta1, theta2),))[0]


def _conjugating(delta: float) -> np.ndarray:
    """Entries of `conjugating_rotation`, unchecked."""
    c, s = math.cos(delta / 2.0), math.sin(delta / 2.0)
    return np.array(((c + s, s - c), (c - s, c + s))) * (1.0 / math.sqrt(2.0))


def conjugating_rotation(delta: float) -> Unitary:
    """Rotation A(delta) with A^dag X A = reflection by delta.

    Defined as ((1 - i sigma_y) cos(delta/2) + (1 + i sigma_y)
    sin(delta/2)) / sqrt(2), which is real: with c, s = cos, sin(delta/2),
    A = ((c + s, s - c), (c - s, c + s)) / sqrt(2), each entry multiplied
    by 1/sqrt(2) rather than divided by sqrt(2): that rounding is what the
    frozen output bits of the networks (``tests/data/network_bits.json``)
    were taken with.
    """
    return Unitary(_conjugating(delta))


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


def separation_gate(theta_in: float, theta_out: float) -> Unitary:
    """Probabilistic overlap-reducing gate on (ancilla, system) qubits.

    Qubit order: the ancilla is the first (more significant) qubit.  With
    the ancilla prepared in |+>, a system family state at theta_in is mapped
    to sqrt(P) |+>|family(theta_out)> + sqrt(1-P) |->|+>, so measuring the
    ancilla heralds the separation; P is the separation success probability.
    The states |+-> and |--> are left invariant.
    """
    return _separation_gate(separation_gamma(theta_in, theta_out))


def _separation_gate(gamma: float) -> Unitary:
    """The separation gate of mixing angle ``gamma`` (`separation_gamma`)."""
    (c, s), _ = _reflection(gamma)
    return Unitary(((c, 0.0, s, 0.0), (0.0, 1.0, 0.0, 0.0), (s, 0.0, -c, 0.0), (0.0, 0.0, 0.0, 1.0)))


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

    def rewired(self, wires: Sequence[int], label: str) -> "GatePlacement":
        """Moved from each qubit q to ``wires[q]``; an injective ``wires`` needs no re-check."""
        placed = object.__new__(GatePlacement)
        placed.__dict__.update(vars(self), qubits=tuple(map(wires.__getitem__, self.qubits)), label=label)
        return placed


@dataclass(frozen=True)
class CircuitDecomposition:
    """A target two-qubit gate and an equal CNOT + single-qubit circuit.

    ``placements`` is in time order (first entry acts first) on local wires
    0 and 1.  Construction verifies the re-multiplied product against the
    target, as a batch of one (`decompositions`); all factors are real, so
    the comparison is plain matrix equality.
    """

    target: Unitary
    placements: Tuple[GatePlacement, ...]
    max_abs_error: float = field(init=False)

    def __post_init__(self):
        (checked,) = decompositions([(self.target, self.placements)])
        object.__setattr__(self, "max_abs_error", checked.max_abs_error)

    def rebuild(self) -> np.ndarray:
        """Re-multiply the placements into a full matrix on the two wires.

        The batch of one of `_rebuild`.  The product is real when every
        factor is, as in every emitted decomposition.
        """
        return _rebuild((self,))

    @property
    def cnot_count(self) -> int:
        return sum(1 for p in self.placements if p.kind == KIND_CNOT)


def decompositions(circuits: Sequence[tuple]) -> Tuple[CircuitDecomposition, ...]:
    """``(target, placements)`` pairs as `CircuitDecomposition`s, checked as one batch.

    Each is checked as its constructor checks it.  Circuits with the same wires
    at every step are re-multiplied together (`_rebuild`); each keeps its own
    ``max_abs_error``, with the bits it gets alone.
    """
    built, groups = [], {}
    for target, placements in circuits:
        if target.dim != 4:
            raise ValueError(
                f"decomposition targets must be two-qubit gates, got dimension {target.dim}"
            )
        for p in placements:
            if p.kind not in (KIND_CNOT, KIND_LOCAL):
                raise ValueError(
                    f"decompositions may contain only CNOT and single-qubit "
                    f"placements, got kind {p.kind!r}"
                )
            if not set(p.qubits) <= {0, 1}:
                raise ValueError(
                    f"decomposition placements act on wires 0 and 1, got {p.qubits}"
                )
        circuit = object.__new__(CircuitDecomposition)
        circuit.__dict__.update(target=target, placements=tuple(placements))
        groups.setdefault(tuple(p.qubits for p in placements), []).append(circuit)
        built.append(circuit)
    for group in groups.values():
        targets = np.array([c.target.entries for c in group])
        for circuit, err in zip(group, np.abs(_rebuild(group) - targets).max(axis=(1, 2)).tolist()):
            if err > DECOMPOSITION_TOL:
                raise ValueError(
                    f"decomposition does not re-multiply to its target "
                    f"(max abs error {err:.3e})"
                )
            circuit.__dict__["max_abs_error"] = err
    return tuple(built)


def _rebuild(circuits: Sequence[CircuitDecomposition]) -> np.ndarray:
    """The products of G circuits with the same wires at every step: one
    batched ``matmul`` per placement, from the identity, in time order.  Wires
    (1, 0) take the gate's swapped form; a one-qubit gate is copied once for
    each value of the other wire.  A step that is one gate in every circuit is
    one 4x4 matrix, which broadcasts, so one circuit gives one (4, 4).
    """
    total = np.eye(4)
    for step in zip(*(c.placements for c in circuits)):
        qubits, gate = step[0].qubits, step[0].gate
        if all(p.gate is gate for p in step):
            matrix = (gate.swapped if qubits == (1, 0) else gate).entries
        else:
            matrix = np.array([(p.gate.swapped if qubits == (1, 0) else p.gate).entries for p in step])
        if len(qubits) == 1:
            gates, matrix = matrix, np.zeros(matrix.shape[:-2] + (4, 4))
            # wire 0 is the more significant bit: its gate acts on entries two apart
            if qubits == (0,):
                matrix[..., 0::2, 0::2] = matrix[..., 1::2, 1::2] = gates
            else:
                matrix[..., :2, :2] = matrix[..., 2:, 2:] = gates
        total = matrix @ total
    return total


def _cnot_placement(control: int, target: int) -> GatePlacement:
    return GatePlacement(
        gate=cnot(),
        qubits=(control, target),
        label=f"CNOT(control={control}, target={target}, active on |+>)",
        kind=KIND_CNOT,
    )


#: the two CNOT placements of every circuit, built once: a memoized circuit
#: then calls no gate builder that a fresh one would
_C01, _C10 = _cnot_placement(0, 1), _cnot_placement(1, 0)


def _local_placement(gate: Unitary, qubit: int, label: str) -> GatePlacement:
    return GatePlacement(gate=gate, qubits=(qubit,), label=f"{label}@{qubit}", kind=KIND_LOCAL)


def decompose_transfers(pairs: Sequence[Tuple[float, float]]) -> Tuple[CircuitDecomposition, ...]:
    """CNOT + single-qubit circuits equal to the transfer gates of ``pairs``.

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

    The targets (`transfer_gates`), the one-qubit factors and the
    re-multiplications (`decompositions`) are each checked as one batch.
    Memoized per tuple of pairs (a list is taken as its tuple): the rows of
    a trade-off sweep expand the same chain.  The circuits are immutable,
    and invalid angles raise on every call.
    """
    return _decompose_transfers(tuple(pairs))


@functools.lru_cache(maxsize=16)
def _decompose_transfers(pairs: Tuple[Tuple[float, float], ...]) -> Tuple[CircuitDecomposition, ...]:
    """The memoized body of `decompose_transfers`."""
    corners = [_odd_sector_weight(theta1, theta2) == 0.0 for theta1, theta2 in pairs]
    factors, labels = [], []
    for (theta1, theta2), corner in zip(pairs, corners):
        if corner:
            factors += [_reflection(math.pi / 4.0), _rotation(-math.pi / 4.0)]
            labels += ["reflection(pi/4)", "rotation(-pi/4)"]
            continue
        delta1, delta2 = sector_angles(theta1, theta2)
        d2p = delta2 + math.pi / 2.0
        half = (d2p - delta1) / 2.0
        factors += [_rotation(half), _reflection(d2p)]
        labels += [f"rotation({half:.12g})", f"reflection({d2p:.12g})"]
    local = [_local_placement(g, 0, label) for g, label in zip(unitaries(np.array(factors)), labels)]
    # a regular circuit places its one rotation twice
    return decompositions([
        (target, (_C01, a, _C10, b, _C01) if corner else (_C01, a, _C10, a, _C10, b, _C01))
        for target, corner, a, b in zip(transfer_gates(pairs), corners, local[0::2], local[1::2])
    ])


def decompose_transfer(theta1: float, theta2: float) -> CircuitDecomposition:
    """The batch of one of `decompose_transfers`."""
    return decompose_transfers(((theta1, theta2),))[0]


def decompose_separation(theta_in: float, theta_out: float) -> CircuitDecomposition:
    """Single-CNOT circuit equal to the separation gate.

    The CNOT targets the ancilla (wire 0) controlled by the system
    (wire 1), conjugated by a rotation B = `conjugating_rotation` (gamma)
    on the ancilla: B^dag_0 . C(1->0) . B_0, rightmost factor first.  Three
    placements.  gamma (`separation_gamma`) is solved once, for the target
    and for B, and B and B^dag are checked as one stack.
    """
    gamma = separation_gamma(theta_in, theta_out)
    b = _conjugating(gamma)
    rotation, inverse = unitaries((b, b.T))
    placements = (
        _local_placement(rotation, 0, f"rotation({math.pi / 4.0 - gamma / 2.0:.12g})"),
        _C10,
        _local_placement(inverse, 0, f"rotation({gamma / 2.0 - math.pi / 4.0:.12g})"),
    )
    return CircuitDecomposition(target=_separation_gate(gamma), placements=placements)
