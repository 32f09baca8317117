"""Dense state-vector simulation primitives for few-qubit circuits.

Conventions used throughout the package:

* The computational basis of one qubit is written ``|+>`` and ``|->``;
  ``|+>`` maps to bit value 0 and ``|->`` to bit value 1.
* Qubit index 0 is the *most significant* bit of an amplitude index, so the
  two-qubit basis order is ``|++>, |+->, |-+>, |-->`` = indices 0..3.
* Measurement outcomes are the strings ``"plus"`` and ``"minus"``.

All values are immutable after construction and all operations are pure
functions, and the memos below hold only read-only arrays, so everything
here is safe to evaluate concurrently.  Every
``StateVector`` is normalized: `project_qubit` returns the branch
probability beside the renormalized post-state.

Entries are stored as float64.  Every state and gate of the networks is
real, and a state or gate with a nonzero imaginary part is refused when it
is built (`_as_array`).  `project_qubit` multiplies by ``1.0 / sqrt(p)``
rather than dividing, which keeps the frozen output bits of the networks
(``tests/data/network_bits.json``).

Validation happens at the boundaries, once per network: ``StateVector``
checks its entries (`check_normalized`: finite, normalized by one
``vdot``) and `unitaries` checks a whole (G, d, d) stack of gates in one
pass (a lone ``Unitary`` is a stack of one), and notes in the same pass
which entries are exactly zero (`Unitary.nonzero_pattern`, read by the
Z frame of ``networks``), ``gates.GatePlacement`` and
``networks.NetworkSpec`` check qubit lists, and ``networks.run_network``
checks each network output once, in place, with `check_normalized`.
``apply_gate`` checks only its qubit list, once per (gate, qubits, width):
the checked update is memoized (`_kernel`, 128 entries, keyed by the gate's
identity), and a bad list raises on every call.  Its result is valid by
construction and is returned read-only without being copied or re-checked.
``family_state`` checks its arguments on every call but not its amplitudes,
which are normalized by construction; its states are memoized
(`_family_state`, 32 entries).  `project_qubit` checks its post-state with
`check_normalized` and stores it without the constructor's second copy.

A gate may join a blank wire: index n of an n-qubit state names a |+>
wire appended to it, and the result has n + 1 wires.  The join gives the
bytes of the gate on the state padded with that wire (`pad_qubits`), without
building the padding: a permutation moves its rows into zeros, and any
other gate multiplies only its columns where the new wire reads |+>, in the
same BLAS shapes as the padded register.

The gate kernel is chosen once per (gate, qubits, width), when the update
is memoized, and first looks at the gate's entries.  A gate whose entries are
a 0/1 permutation matrix (the CNOT; `Unitary.permutation`, found once per
gate) on one qubit, or on two adjacent ones, is not multiplied: the
amplitudes are copied and each moved row of the k axis of the (A, k, C)
view below is copied into place by slice assignment (``np.take`` is slow
on 8-byte items at small C).  Each output amplitude is then the input
amplitude a multiplication by the 0/1 matrix would give, bit for bit: the
product adds only ``0 * x`` terms, which can at most turn a moved exact
zero into -0.0.  A descending pair uses
the gate's SWAP-conjugated form, `Unitary.swapped`, built once per gate and
shared by both paths.  Every other gate is multiplied, with the BLAS call
picked from the shape of the update.  A gate on one qubit, or on two
adjacent ones, starting at wire ``first`` of an n-qubit register splits the
amplitudes into an (A, k, C) view, A = 2**first batches of k gate rows times
C = 2**(n - first) / k trailing amplitudes:

* A = C = 1 (the gate spans the whole register from wire 0): one ``matmul``
  against the amplitudes plus one zero column, the bits of the same gate on
  the register padded with one blank trailing wire;
* C = 1, or A >= 64 with 2 <= C <= 8: one ``np.dot`` of the (A, k*C) view
  against gate (x) I_C, so many small batches cost one BLAS call;
* otherwise one ``matmul`` over the view, which calls BLAS once per batch.

No gate takes numpy's matrix-vector BLAS path, so ``networks.run_network``
needs no spare wire under a gate that spans its live prefix.  A non-adjacent
pair is one ``np.dot`` of the gate against the amplitudes with its input
wires transposed to the front, then its output axes transposed onto its
wires: the steps of ``np.tensordot`` then ``np.moveaxis``, worked out once
per kernel, so the bytes are theirs.  Only two claims tie the bits to a wider
register: a gate spanning the register has the bits it gets with one more
blank wire, and a join has the bytes of pad-then-apply.

`global_fidelity` makes no BLAS call: it contracts an n-qubit state with n
copies of a one-qubit state wire by wire, with element-wise ufuncs in a
fixed order, so no reported fidelity depends on the BLAS thread count and
the 2**n-amplitude product state is never built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

#: outcome labels for single-qubit projections
PLUS = "plus"
MINUS = "minus"

#: construction-time unitarity tolerance
UNITARITY_TOL = 1e-12
#: tolerance for "this vector is normalized"
NORM_TOL = 1e-12
#: branches with probability below this cannot be post-selected
IMPOSSIBLE_BRANCH_TOL = 1e-14


class ImpossibleBranchError(ValueError):
    """Raised when asked to post-select on an outcome with ~zero probability."""


def _as_array(values, what: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, the entries of a ``what``.

    Complex input is taken by its real part when every imaginary part is
    exactly zero, and refused otherwise.
    """
    if np.iscomplexobj(values):
        values = np.asarray(values)
        if values.imag.any():
            raise ValueError(f"{what} must be real, got an entry with a nonzero imaginary part")
        values = values.real
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def check_normalized(amps: np.ndarray) -> None:
    """Raise unless ``amps`` are finite and normalized to ``NORM_TOL``; copies nothing.

    The test of the ``StateVector`` constructor, with its messages.  One
    ``vdot``: a non-finite entry makes the norm non-finite, so the entries
    are scanned for one only when the norm is not finite.
    """
    norm_sq = float(np.vdot(amps, amps))
    if not math.isfinite(norm_sq):
        _require_finite(amps, "state vector")
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state vector is not normalized (|amps|^2 = {norm_sq!r})")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes of an ``n_qubits``-qubit pure state, normalized to ``NORM_TOL``."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        amps = _as_array(self.amps, "state vector")
        if amps.ndim != 1 or amps.size != 2 ** self.n_qubits:
            raise ValueError(
                f"state vector over {self.n_qubits} qubit(s) must have "
                f"length {2 ** self.n_qubits}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)
        check_normalized(amps)

    @classmethod
    def _trusted(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        """Wrap kernel output without copying or re-validating it.

        Only for amplitudes computed from an already validated state by a
        validated unitary, or copied from it with exact zeros added or
        removed; both are finite and keep the norm by construction.
        """
        amps.flags.writeable = False
        state = object.__new__(cls)
        state.__dict__.update(n_qubits=n_qubits, amps=amps)
        return state


@functools.lru_cache(maxsize=8)
def _identity(dim: int) -> np.ndarray:
    """The real dim x dim identity, shared read-only by the unitarity checks."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


#: local basis order of a two-qubit gate whose two qubits are listed the other way round
_SWAPPED_PAIR = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])


def unitaries(matrices) -> Tuple["Unitary", ...]:
    """One `Unitary` per matrix of a finite, real (G, d, d) stack, checked in one pass: d a
    power of two >= 2, max |U^T U - I| < ``UNITARITY_TOL`` for each matrix, and a failure
    names the first failing matrix in the words a lone `Unitary` would use."""
    if not len(matrices):
        return ()
    mats = _require_finite(_as_array(matrices, "unitary"), "unitary")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"unitary must be square, got shape {mats.shape[1:]}")
    dim = mats.shape[1]
    if dim < 2 or (dim & (dim - 1)) != 0:
        raise ValueError(f"unitary dimension must be a power of two >= 2, got {dim}")
    errors = np.abs(mats.transpose(0, 2, 1) @ mats - _identity(dim))
    if errors.max() >= UNITARITY_TOL:
        worst = errors.reshape(len(mats), -1).max(axis=1)
        err = worst[worst >= UNITARITY_TOL][0]
        raise ValueError(f"matrix is not unitary (max |U^dag U - I| = {err:.3e})")
    patterns = [row.tobytes() for row in (mats != 0).reshape(len(mats), -1)]
    return tuple(map(Unitary._trusted, mats, patterns))


@dataclass(frozen=True, eq=False)
class Unitary:
    """A dense real unitary on one or more qubits, verified as a stack of one (`unitaries`).

    ``nonzero_pattern`` tells which entries are not exactly zero, one byte
    per entry, row by row; `unitaries` finds it for a whole stack at once.
    It is all that the Z-frame rule of ``networks`` (`networks._z_images`)
    reads of a gate.
    """

    entries: np.ndarray
    dim: int = field(init=False)
    nonzero_pattern: bytes = field(init=False, repr=False)

    def __post_init__(self):
        (checked,) = unitaries(np.asarray(self.entries)[np.newaxis])
        self.__dict__.update(vars(checked))

    @classmethod
    def _trusted(cls, entries: np.ndarray, nonzero_pattern: bytes) -> "Unitary":
        """Wrap read-only entries that are already checked (a view of a checked stack)."""
        gate = object.__new__(cls)
        gate.__dict__.update(entries=entries, dim=entries.shape[0], nonzero_pattern=nonzero_pattern)
        return gate

    @functools.cached_property
    def swapped(self) -> "Unitary":
        """The two-qubit gate with its qubits listed the other way round.

        Its entries are ``entries`` conjugated by SWAP; built once per gate
        and shared by every placement on a descending pair.
        """
        mat = self.entries[_SWAPPED_PAIR]
        mat.flags.writeable = False
        return Unitary._trusted(mat, (mat != 0).tobytes())

    @functools.cached_property
    def permutation(self) -> Optional[np.ndarray]:
        """Source index of each row when the entries are a 0/1 permutation.

        ``None`` unless every entry is an exact 0 or 1.  A unitary with only
        ``dim`` nonzero entries, all exactly 1, has one 1 in each row and
        column, and row r of the gate reads amplitude ``permutation[r]``.
        """
        mat = self.entries
        if np.count_nonzero(mat) != self.dim or not (mat[mat != 0] == 1).all():
            return None
        source = np.nonzero(mat)[1]
        source.flags.writeable = False
        return source


def family_state(theta: float, sign: str, copies: int = 1) -> StateVector:
    """The two-state family member cos(theta)|+> +/- sin(theta)|->.

    With ``copies=k`` returns its k-fold tensor power.  ``sign`` selects the
    branch ("plus" or "minus").  Only ``theta`` is checked (it must be
    finite): cos^2 + sin^2 is 1 to a few ulp, and a tensor power of a
    normalized state is normalized, so the amplitudes are not re-checked.
    The arguments are checked on every call; the read-only states are
    memoized (`_family_state`, 32 entries), so the rows of a trade-off sweep
    share their inputs and references.
    """
    if sign not in (PLUS, MINUS):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    # 0.0 == -0.0 as a key, but -sin(-0.0) is +0.0: the sign of theta is keyed too
    return _family_state(theta, math.copysign(1.0, theta), sign, copies)


@functools.lru_cache(maxsize=32, typed=True)
def _family_state(theta: float, theta_sign: float, sign: str, copies: int) -> StateVector:
    """The memoized body of `family_state`, keyed by the type and sign of ``theta``."""
    s = 1.0 if sign == PLUS else -1.0
    single = np.array([np.cos(theta), s * np.sin(theta)])
    amps = single
    for _ in range(copies - 1):
        # each doubling writes amps * single[b] into the column of the new bit b
        doubled = np.empty((amps.size, 2))
        np.multiply(amps, single[0], out=doubled[:, 0])
        np.multiply(amps, single[1], out=doubled[:, 1])
        amps = doubled.reshape(-1)
    return StateVector._trusted(copies, amps)


#: fewest batches (A) for which one ``np.dot`` against gate (x) I_C beats
#: ``matmul``'s per-batch BLAS calls
_DOT_MIN_BATCHES = 64
#: most trailing amplitudes (C) per batch for that ``np.dot``: gate (x) I_C
#: grows as C**2 and past 8 the zero products cost more than the calls saved
_DOT_MAX_TRAILING = 8


def _matrix_kernel(gate: np.ndarray, qubits: Sequence[int], n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Choose how to multiply the listed qubits of a 2**n amplitude array by ``gate``.

    Returns the multiplication, ``amps -> out``; everything that depends
    only on the gate, the qubits and ``n`` (the BLAS shape, gate (x) I_C,
    the transposes of a non-adjacent pair) is worked out here, once.  The first listed
    qubit is the most significant bit of the gate's local basis; an
    adjacent pair must be listed in ascending order (`apply_gate` swaps a
    descending one first).  The result is one new C-contiguous array.
    ``gate`` is (k, k), or (k, k/2) for a join: then ``amps`` covers wires
    0..n-2, the listed wire n - 1 is a blank |+> wire, and ``gate`` holds
    only its columns where that wire reads |+>, the others would multiply
    exact zeros.  One qubit, or an adjacent pair, contract over an (A, k, C)
    view of the amplitudes (C = 1 for a join).  At A = C = 1 (the gate spans
    the register) it is column 0 of one ``matmul`` against the amplitudes
    plus a zero column, the product the gate gets on one more blank wire.
    With C = 1, or with A >= 64 batches of 2 <= C <= 8, it is one ``np.dot``
    of the (A, k*C) view against gate (x) I_C (built by strided assignment;
    every added entry is an exact zero, so each sum gains only exact zero
    terms).  Any other such view goes through one ``matmul``; ``matmul``
    over an (A, k, 1) view would take a matrix-vector BLAS path and change
    the last bits of the amplitudes.  A non-adjacent pair is the ``np.dot``
    that ``np.tensordot`` makes, between the gate and the amplitudes with its
    input wires transposed to the front, followed by the transpose that
    ``np.moveaxis`` makes onto its wires; both are worked out here instead of
    on every call, and the bytes are the same.
    """
    first = min(qubits)
    k, k_in = gate.shape
    if len(qubits) == 1 or max(qubits) - first == 1:
        batches = 2 ** first
        rest = 2 ** (n - first) // k
        if batches == rest == 1:
            def spanning(amps):
                padded = np.zeros((1, k_in, 2))
                padded[0, :, 0] = amps
                return np.matmul(gate, padded)[0, :, 0].copy()
            return spanning
        if rest == 1 or (batches >= _DOT_MIN_BATCHES and rest <= _DOT_MAX_TRAILING):
            if rest > 1:
                wide = np.zeros((k * rest, k * rest))
                for c in range(rest):
                    wide[c::rest, c::rest] = gate
                wide.flags.writeable = False
                gate = wide
            gate_t = gate.T
            return lambda amps: np.dot(amps.reshape(batches, -1), gate_t).reshape(-1)
        view = (batches, k, rest)
        return lambda amps: np.matmul(gate, amps.reshape(view)).reshape(-1)
    # tensordot's transpose of the input wires to the front, and moveaxis' order
    inputs = qubits if k_in == k else [q for q in qubits if q != n - 1]
    shape = (2,) * (n - len(qubits) + len(inputs))
    to_front = list(inputs) + [a for a in range(len(shape)) if a not in inputs]
    out_shape = (2,) * n
    order = list(range(len(qubits), n))
    for wire, axis in sorted(zip(qubits, range(len(qubits)))):
        order.insert(wire, axis)
    return lambda amps: np.dot(
        gate, amps.reshape(shape).transpose(to_front).reshape(k_in, -1)
    ).reshape(out_shape).transpose(order).reshape(-1)


def _permutation_kernel(gate: Unitary, first: int, n: int, joins: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Move the amplitudes of a 0/1 permutation gate on wires ``first``.. of a
    2**n register by copying its moved rows of the (A, k, C) view; on a join
    (n counts the joined wire) rows that read the joined wire's |-> half stay
    exact zeros."""
    dim = gate.dim
    batches, rest = 2 ** first, 2 ** (n - first) // dim
    view = (batches, dim >> joins, rest)
    source = gate.permutation.tolist()
    if joins:
        # the joined wire is the last local bit
        moves = tuple((row, src // 2) for row, src in enumerate(source) if src % 2 == 0)
    else:
        moves = tuple((row, src) for row, src in enumerate(source) if src != row)

    def move(amps):
        amps = amps.reshape(view)
        out = np.zeros((batches, dim, rest)) if joins else amps.copy()
        for row, src in moves:
            out[:, row] = amps[:, src]
        return out.reshape(-1)
    return move


@functools.lru_cache(maxsize=128)
def _kernel(gate: Unitary, qubits: Tuple[int, ...], n: int) -> Tuple[Callable[[np.ndarray], np.ndarray], int]:
    """The update of `apply_gate` for ``gate`` on ``qubits`` of an n-qubit
    state, and the width of its result.

    Memoized per (gate, qubits, n), by the gate's identity: the rows of a
    trade-off sweep place the same gates on the same wires.  The qubit list
    is checked here, so a bad one raises on every call (exceptions are not
    memoized).  A kernel holds only read-only arrays.
    """
    k = len(qubits)
    if gate.dim != 2 ** k:
        raise ValueError(
            f"gate of dimension {gate.dim} cannot act on {k} qubit(s)"
        )
    if len(set(qubits)) != k:
        raise ValueError(f"qubit indices must be distinct, got {list(qubits)}")
    for q in qubits:
        if not (0 <= q <= n):
            raise ValueError(
                f"qubit index {q} out of range for {n}-qubit state"
            )
    joins = n in qubits
    first = min(qubits)
    if k == 2 and qubits[0] == first + 1:
        gate, qubits = gate.swapped, (first, first + 1)
    if qubits == tuple(range(first, first + k)) and gate.permutation is not None:
        return _permutation_kernel(gate, first, n + joins, joins), n + joins
    entries = gate.entries
    if joins:
        # local bit j of a column index: keep the columns where it reads |+>
        j = qubits.index(n)
        entries = entries.reshape(gate.dim, 2 ** j, 2, -1)[:, :, 0].reshape(gate.dim, -1)
        entries.flags.writeable = False
    return _matrix_kernel(entries, qubits, n + joins), n + joins


def apply_gate(state: StateVector, gate: Unitary, qubits) -> StateVector:
    """Apply ``gate`` to the named qubits of ``state``, identity elsewhere.

    ``qubits`` is an ordered list of distinct indices; the first listed qubit
    is the more significant bit of the gate's local basis.  Index
    ``state.n_qubits`` names a blank |+> wire that the gate joins: the
    result has one more wire, the bytes of the gate on ``state`` padded
    with that wire (`pad_qubits`), without the padding.  Only the qubit
    list is checked here, once per (gate, qubits, width) (`_kernel`):
    ``state`` and ``gate`` were validated when they were built and a
    unitary preserves the norm, so the result is returned read-only without
    copying or re-checking its amplitudes.

    A descending adjacent pair is the gate's `Unitary.swapped` form on the
    ascending pair.  A 0/1 permutation gate (`Unitary.permutation`) on one
    qubit or on a run of ascending wires moves amplitudes by copying its
    moved rows (`_permutation_kernel`); on a join, rows that read the joined
    wire's |-> half stay exact zeros.  Every other gate is multiplied in the
    shape `_matrix_kernel` chooses, on a join by the gate's columns where
    the joined wire reads |+>.
    """
    update, width = _kernel(gate, tuple(qubits), state.n_qubits)
    return StateVector._trusted(width, update(state.amps))


def live_prefix(state: StateVector) -> StateVector:
    """``state`` cut to its leading qubits that carry amplitude.

    A trailing qubit is blank when every amplitude with its bit set is
    exactly 0.0.  Blank qubits are cut off from the last one down: the last
    qubit is blank when the odd entries are all zero, and then the even
    entries are the amplitudes of the qubits before it.  At least one qubit
    is kept.  Only exact zeros are dropped, so `pad_qubits` gives back the
    same amplitudes.
    """
    amps = state.amps
    blank = 0
    while blank < state.n_qubits - 1 and not amps[1::2].any():
        amps = amps[::2]
        blank += 1
    if not blank:
        return state
    return StateVector._trusted(state.n_qubits - blank, amps.copy())


def pad_qubits(state: StateVector, n_qubits: int, at: Optional[int] = None) -> StateVector:
    """Insert blank |+> qubits before wire ``at``, up to ``n_qubits`` in all.

    By default they are appended after the last wire.  Exact zero padding:
    the amplitudes are copied unchanged into the slots of an array of zeros
    where every inserted wire reads |+>.
    """
    k = state.n_qubits
    if n_qubits == k:
        return state
    at = k if at is None else at
    amps = np.zeros((2 ** at, 2 ** (n_qubits - k), 2 ** (k - at)))
    amps[:, 0, :] = state.amps.reshape(2 ** at, -1)
    return StateVector._trusted(n_qubits, amps.reshape(-1))


def global_fidelity(single: StateVector, state: StateVector) -> float:
    """|<single^(x)n|state>|^2 for a one-qubit ``single`` and n-qubit ``state``.

    The fidelity of ``state`` with n copies of ``single``, without building
    the 2**n-amplitude power: each pass contracts the last wire,
    ``a[0::2] * c0 + a[1::2] * c1``, halving the amplitudes
    until one is left.  Only element-wise ufuncs run, in a fixed order, so
    the result does not depend on the BLAS library or its thread count.
    """
    if single.n_qubits != 1:
        raise ValueError(f"single must be a one-qubit state, got {single.n_qubits} qubits")
    c0, c1 = single.amps
    amps = state.amps
    while amps.size > 1:
        amps = amps[0::2] * c0 + amps[1::2] * c1
    val = float(amps[0]) ** 2
    return float(min(val, 1.0))


def _branch(amps: np.ndarray, qubit: int, bit: int) -> np.ndarray:
    """View of the amplitudes whose ``qubit`` reads ``bit``, in index order."""
    return amps.reshape(2 ** qubit, 2, -1)[:, bit, :]


def branch_probability(state: StateVector, qubit: int, outcome: str) -> float:
    if outcome not in (PLUS, MINUS):
        raise ValueError(f"outcome must be 'plus' or 'minus', got {outcome!r}")
    if not (0 <= qubit < state.n_qubits):
        raise ValueError(f"qubit index {qubit} out of range")
    bit = 0 if outcome == PLUS else 1
    return float((np.abs(_branch(state.amps, qubit, bit)) ** 2).sum())


def project_qubit(state: StateVector, qubit: int, outcome: str):
    """Project one qubit onto ``outcome`` ("plus"/"minus").

    Returns ``(probability, post_state)`` with the post-state renormalized.
    Raises ImpossibleBranchError when the branch probability is below
    ``IMPOSSIBLE_BRANCH_TOL``.  The post-state is the one copy made here: it
    is checked by the constructor's own test (`check_normalized`) and stored
    without being copied again.
    """
    prob = branch_probability(state, qubit, outcome)
    if prob < IMPOSSIBLE_BRANCH_TOL:
        raise ImpossibleBranchError(
            f"impossible branch: outcome {outcome!r} on qubit {qubit} has "
            f"probability {prob:.3e}"
        )
    bit = 0 if outcome == PLUS else 1
    amps = state.amps.copy()
    _branch(amps, qubit, 1 - bit)[...] = 0.0
    amps *= 1.0 / np.sqrt(prob)
    check_normalized(amps)
    return prob, StateVector._trusted(state.n_qubits, amps)
