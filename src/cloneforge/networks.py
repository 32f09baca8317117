"""Assembly and exact simulation of the cloning networks.

Every network has one shape: compress the M input copies onto qubit 0,
act on that qubit (separate or rotate it), then decompress it over the
N system qubits (indices 0..N-1).  A separation is heralded by one ancilla
at index N (always last, so system indices never shift), and a heralded
run reports its success branch only: the probability of the herald and
the post-selected output.

* exact:   separate the compressed angle all the way to the N-copy angle.
           Succeeds with the exact-cloning probability and yields perfect
           clones.
* approx:  rotate qubit 0 to the optimal compressed output.  Deterministic;
           prior-weighted fidelity saturates the closed-form optimum.  At
           equal priors the rotation is the identity.
* hybrid:  separate part of the way (success probability p_s), then
           decompress.  The equal-prior rotation that would follow is the
           identity, so there is none.  Interpolates between the two
           strategies.

`run_network` simulates these networks, and only these, in one walk over
their placements from the M input copies: each wire joins the register
when a placement first touches it, at its end, the ancilla included, and
the herald is one step of the walk.  Probabilities are computed by exact
projection -- never sampled -- so repeated runs are bit-identical and
1e-10 comparisons are meaningful.

`evaluate_cloner` runs one sign where it can.  Z on every wire swaps the
two M-copy inputs, bit for bit, and each stage of these networks keeps
that symmetry, term by term: a transfer gate has entries only between
basis states of equal parity on its wires, a separation gate leaves its
system wire as it is and turns only the blank ancilla that the herald
projects onto |+>, their CNOT circuits keep it as a whole, and a clone
rotation keeps it when it turns by exactly 0.  So the rule is decided once,
when a network is built (`NetworkSpec.z_symmetric`): a network whose clone
stage, if any, does not turn maps the minus input to Z on every system wire
times the plus output.  IEEE rounding treats signs alike, fl(-a*b) =
-fl(a*b) and fl(-x - y) = -fl(x + y), so the minus run is then the plus
run with its signs turned, bit for bit, up to the sign of an exact zero.
The minus result is taken from the plus result (`_z_flipped`) when the
plus output has no exact zero, and its post-state is formed only when it
is read; otherwise, as for an approx network whose clone stage turns,
both signs run.  ``tests/oracles.py`` proves the rule network by network
with a general Z-frame tracker.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

import numpy as np

from .bounds import (
    MODES,
    CloningProblem,
    angle_for_copies,
    exact_clone_probability,
    fidelity_bound,
    hybrid_fidelity_bound,
    optimal_phis,
    separated_angle,
)
from .gates import (
    KIND_CLONE,
    KIND_SEPARATION,
    KIND_TRANSFER,
    GatePlacement,
    _equal_by_fields,
    _placed,
    clone_gate,
    decompose_separation,
    decompose_transfer,  # noqa: F401  (bound here too: traced runs wrap every binding)
    decompose_transfers,
    separation_gate,
    transfer_gates,
)
from .linalg import (
    MINUS,
    PLUS,
    StateVector,
    Unitary,
    apply_gate,
    check_normalized,
    family_state,
    global_fidelity,
    project_qubit,
)


@dataclass(frozen=True)
@_equal_by_fields
class NetworkSpec:
    """An ordered gate list on ``n_qubits`` wires, optionally heralded.

    A heralded network's last wire is an ancilla.  It is projected onto
    |+> immediately after the last placement touching it, and later
    placements act on that success branch only.
    """

    n_qubits: int
    placements: Tuple[GatePlacement, ...]
    heralded: bool = False
    #: set on the networks built here, by construction, and `run_network` runs only those:
    #: what the networks of one shape share, the wires of every placement, so their
    #: walk's wires are found once per shape (`_shape_steps`); its first entry is M
    shape: ClassVar[Optional[tuple]] = None
    #: set with ``shape``: no clone stage turns, so every stage keeps the Z symmetry of the
    #: two inputs and the minus input's run is the plus run with its signs turned (`_run_signs`)
    z_symmetric: ClassVar[bool] = False

    def __post_init__(self):
        # every wire at once: the first placement off the register is looked up only to name it
        wires = set().union(*[p.qubits for p in self.placements])
        if wires and not (0 <= min(wires) and max(wires) < self.n_qubits):
            p, q = next(
                (p, q) for p in self.placements for q in p.qubits if not (0 <= q < self.n_qubits)
            )
            raise ValueError(
                f"placement {p.label!r} references qubit {q}, but the "
                f"network has {self.n_qubits} qubit(s)"
            )

    def _gates(self) -> list:
        return [p.gate for p in self.placements]

    def _steps(self) -> tuple:
        """The wires of each placement and, in a heralded network, None at the herald: right
        after the last placement on the ancilla (first if none touches it)."""
        steps = [p.qubits for p in self.placements]
        if self.heralded:
            touching = [i for i, qubits in enumerate(steps) if self.n_qubits - 1 in qubits]
            steps.insert(touching[-1] + 1 if touching else 0, None)
        return tuple(steps)

    @functools.cached_property
    def _walk(self) -> Tuple[Tuple[Optional[Unitary], Optional[Tuple[int, ...]]], ...]:
        """The steps of `run_network`, worked out once per network and shared by its runs.

        One ``(gate, live)`` per placement, ``live`` the wires its
        ``apply_gate`` call names; a heralded network has one more step,
        ``(None, None)``, at the herald.  The live wires are found once per
        network shape (`_shape_steps`).
        """
        steps = _shape_steps(_Shape(self.shape, weakref.ref(self)))
        gates = iter(self._gates())
        return tuple([(None if live is None else next(gates), live) for live in steps])


@dataclass(frozen=True)
class _Shape:
    """A memo key: a network shape, and a weak reference (no part of the key) to a
    network of that shape for a miss to walk."""

    key: tuple
    network: weakref.ref = field(compare=False)


@functools.lru_cache(maxsize=128)
def _shape_steps(shape: _Shape) -> tuple:
    """The live wires of each placement of `NetworkSpec._steps`, None at the herald, for
    the networks of a shape: M, N, the middle gates' kinds and, at CNOT level, the
    circuits' lengths.

    The live register starts as the M input wires and ends as the N system
    wires.  A wire joins when a placement first touches it, at the end of
    the live register: index ``state.n_qubits`` of its ``apply_gate`` call.
    So a placement may bring in one wire, the next system wire before the
    ancilla has joined, or the ancilla; the herald projects the ancilla,
    the last live wire, and drops it.  Any other growth would need blank
    wires padded in, and raises.
    """
    network = shape.network()
    system, ancilla = network.n_qubits - network.heralded, network.n_qubits - 1
    live, steps = list(range(shape.key[0])), []
    for qubits in network._steps():
        if qubits is None:
            if live[-1:] != [ancilla]:
                raise ValueError(f"the herald needs the ancilla {ancilla} as the last live wire, got {live}")
            live.pop()
            steps.append(None)
            continue
        new = [q for q in qubits if q not in live]
        if len(new) > 1 or new and new[0] < system and live != list(range(new[0])):
            raise ValueError(
                f"a placement on wires {qubits} would need blank wires padded in: live wires {live}, "
                "and one wire joins at a time, the next system wire or the ancilla"
            )
        live += new
        steps.append(tuple(map(live.index, qubits)))
    if live != list(range(system)):
        raise ValueError(f"the output needs system wires 0..{system - 1} live, got {live}")
    return tuple(steps)


class _Expanded(NetworkSpec):
    """`expand_decompositions`' network: ``_runs`` holds ``(circuit, placement)`` per
    gate-level placement (circuit None for one kept as it is).  The circuits'
    placements are moved onto their wires and labelled only when read."""

    @functools.cached_property
    def placements(self) -> Tuple[GatePlacement, ...]:
        return tuple([
            p if circuit is None else _placed(
                p.gate, tuple([source.qubits[q] for q in p.qubits]), p.kind, p.params, "{} [from {}]", p, source
            )
            for circuit, source in self._runs
            for p in (circuit.placements if circuit else (source,))
        ])

    def _gates(self) -> list:
        if "placements" in self.__dict__:  # read, or given to a copy (`dataclasses.replace`)
            return super()._gates()
        return [p.gate for circuit, src in self._runs for p in (circuit.placements if circuit else (src,))]


@dataclass(frozen=True)
@_equal_by_fields
class SimulationResult:
    """Outcome of one network run on one input: its success branch.

    `evaluate_cloner` may take the minus input's result from the plus run
    (`_z_flipped`) instead of running it; it holds the bytes its own run
    would give, and forms its post-state only when that is read.
    """

    success_probability: float
    post_state: StateVector
    global_fidelity_vs_exact: float


class _ZFlipped(SimulationResult):
    """A result whose post-state is Z^(x)N applied to ``_flip``, the other sign's
    post-state, formed on first read (`_z_flipped`)."""

    @functools.cached_property
    def post_state(self) -> StateVector:
        post = self._flip
        # two broadcast passes, by the parities of the high and the low half of the wires
        low = post.n_qubits // 2
        amps = post.amps.reshape(-1, 2 ** low) * _parities(post.n_qubits - low)[:, None]
        amps *= _parities(low)
        return StateVector._trusted(post.n_qubits, amps.reshape(-1))


@dataclass(frozen=True)
class ClonerReport:
    """Both-sign evaluation of a cloning strategy against its bounds."""

    problem: CloningProblem
    mode: str
    p_s: Optional[float]
    plus_result: SimulationResult
    minus_result: SimulationResult
    fidelity: float
    success_probability: float
    fidelity_bound: float
    success_bound: float
    fidelity_deviation: float
    success_deviation: float


def compression_sequence(theta: float, copies: int) -> Tuple[GatePlacement, ...]:
    """Concentrate ``copies`` copies of the family state onto qubit 0.

    Pair after pair is folded in: the gate at (j-1, j) combines one fresh
    copy with the angle accumulated so far, leaving the accumulated state on
    qubit j-1 and a blank on qubit j.  Empty for one copy.  Every gate is
    self-inverse, so the sequence for N copies, reversed, spreads a state on
    qubit 0 over N qubits: by linearity a superposition of the two
    compressed outputs becomes the same superposition of N-copy states.

    The angles are solved on every call; the placements of a tuple of
    angle pairs are memoized (`_chain`), so the rows of a trade-off sweep
    share one chain.
    """
    return _chain(tuple([(theta, angle_for_copies(theta, j)) for j in range(1, copies)]), copies)


@functools.lru_cache(maxsize=16)
def _chain(pairs: Tuple[Tuple[float, float], ...], copies: int) -> Tuple[GatePlacement, ...]:
    """The placements of `compression_sequence`: pair i of the first copies - 1 of
    ``pairs`` on wires (copies-2-i, copies-1-i), with the gates of all of ``pairs``, so
    a compression chain's gates are a prefix of the decompression chain's."""
    placed = []
    for i, (gate, pair) in enumerate(zip(transfer_gates(pairs), pairs[: copies - 1])):
        wires = (copies - 2 - i, copies - 1 - i)
        placed.append(_placed(gate, wires, KIND_TRANSFER, pair, "transfer({:.6g},{:.6g})@{}", *pair, wires))
    return tuple(placed)


def _separation_placement(theta_in: float, theta_out: float, n: int) -> GatePlacement:
    return _placed(
        separation_gate(theta_in, theta_out), (n, 0), KIND_SEPARATION, (theta_in, theta_out),
        "separation({:.6g},{:.6g})@({},0)", theta_in, theta_out, n,
    )


def _network(problem: CloningProblem, *middle: GatePlacement) -> NetworkSpec:
    """Compress the M copies, apply ``middle`` to qubit 0, decompress over N.

    The network is heralded when ``middle`` separates: the separation's
    ancilla is wire N, one past the system wires.  The compression gates
    are the first M - 1 of the decompression chain's (`_chain`).
    """
    heralded = any(p.kind == KIND_SEPARATION for p in middle)
    chain = compression_sequence(problem.theta, problem.n_copies)
    placements = _chain(tuple([p.params for p in chain]), problem.m_copies) + middle + chain[::-1]
    spec = NetworkSpec(problem.n_copies + heralded, placements, heralded)
    spec.__dict__["shape"] = (problem.m_copies, problem.n_copies) + tuple([p.kind for p in middle])
    # a transfer or separation stage keeps the Z symmetry, and a clone rotation only if it does not turn
    spec.__dict__["z_symmetric"] = all(p.kind != KIND_CLONE or p.params == (0.0,) for p in middle)
    return spec


def exact_network(problem: CloningProblem) -> NetworkSpec:
    """Heralded perfect cloning: compress, separate to theta_N, decompress."""
    return _network(
        problem, _separation_placement(problem.theta_m, problem.theta_n, problem.n_copies)
    )


def approx_network(problem: CloningProblem) -> NetworkSpec:
    """Deterministic optimal cloning: compress, rotate qubit 0, decompress.

    The rotation takes the compressed pair at +/- theta_M to the optimal
    output angles (`optimal_phis`); at equal priors those are +/- theta_M
    themselves and the rotation is the identity.
    """
    turn = optimal_phis(problem).phi_plus - problem.theta_m
    return _network(problem, _placed(clone_gate(turn), (0,), KIND_CLONE, (turn,), "clone({:.6g})@0", turn))


def hybrid_network(problem: CloningProblem, p_s: float) -> NetworkSpec:
    """Partial separation at success probability p_s, then decompression.

    Only defined for equal priors.  The separated angle theta_tilde solves
    the separation bound at equality for p_s.  The optimal equal-prior
    outputs for the separated pair are +/- theta_tilde themselves, so the
    clone stage is the identity and the network is: compress, separate to
    theta_tilde, decompress.  p_s at the exact-cloning probability
    reproduces the exact network; p_s = 1 reproduces the deterministic one.
    """
    if not problem.equal_priors:
        raise ValueError("hybrid cloning requires equal priors")
    tilde = separated_angle(problem.theta_m, problem.theta_n, p_s)
    return _network(problem, _separation_placement(problem.theta_m, tilde, problem.n_copies))


def expand_decompositions(spec: NetworkSpec) -> NetworkSpec:
    """Replace every transfer/separation gate by its CNOT circuit.

    Placements of other kinds (already single-qubit) are kept as-is.  The
    resulting network simulates to the same numbers as the original; its
    wires are the original's, checked when it was built.  Each distinct
    ``(kind, params)`` is decomposed once, the transfer gates as one batch.
    The result runs each circuit on its placement's wires; its placements
    are moved there, unchecked, only when they are read (`_Expanded`).
    """
    keys = dict.fromkeys((p.kind, p.params) for p in spec.placements)
    # sorted: the N-copy chain's pairs (angles grow with copies), memoized with its gates
    transfers = tuple(sorted(params for kind, params in keys if kind == KIND_TRANSFER))
    circuits = {
        (KIND_TRANSFER, params): circuit
        for params, circuit in zip(transfers, decompose_transfers(transfers))
    }
    circuits.update(
        (key, decompose_separation(*key[1])) for key in keys if key[0] == KIND_SEPARATION
    )
    runs = tuple([(circuits.get((p.kind, p.params)), p) for p in spec.placements])
    expanded = object.__new__(_Expanded)
    expanded.__dict__.update(n_qubits=spec.n_qubits, heralded=spec.heralded, _runs=runs)
    if spec.shape is not None:
        # a circuit's length names its form (the transfer corner's is shorter); it keeps its gate's Z symmetry
        expanded.__dict__.update(
            shape=spec.shape + (tuple([len(c.placements) for c, _ in runs if c]),), z_symmetric=spec.z_symmetric
        )
    return expanded


def run_network(
    spec: NetworkSpec,
    input_state: StateVector,
    *,
    reference: StateVector,
) -> SimulationResult:
    """Run a network built here on its M input copies and compare against a product reference.

    ``spec`` is a network of `exact_network`, `approx_network`,
    `hybrid_network` or `expand_decompositions`, and ``input_state`` is on
    its M input wires; anything else is refused.  Placements are applied in
    order.  A heralded network projects its ancilla onto |+> immediately
    after the last placement touching it: the probability of that outcome
    is recorded, the renormalized success branch goes on through the
    remaining placements, and the ancilla, blank after the projection, is
    dropped from it.  The failure branch is not simulated.  ``reference`` is
    a one-qubit state, and the reported fidelity is the squared overlap of
    the output (the system wires, without the ancilla) with one copy of it
    on every wire, contracted wire by wire (`linalg.global_fidelity`), so
    the 2**N reference is never built.

    The walk (``NetworkSpec._walk``, found once per network shape) names
    each step's wires in the live register: each wire joins it when a
    placement first touches it, as index ``state.n_qubits`` of that
    ``apply_gate`` call, with no padded copy, and the herald projects the
    ancilla, the last live wire.  Gates are validated when the placements
    are built and ``apply_gate`` re-checks no amplitudes, so the output is
    checked once and in place, by the ``StateVector`` constructor's own
    test (`linalg.check_normalized`: finite and normalized to ``NORM_TOL``).
    """
    if spec.shape is None:
        raise ValueError(
            "run_network runs the networks that exact_network, approx_network, hybrid_network "
            "and expand_decompositions build, not one built by hand"
        )
    copies = spec.shape[0]
    if input_state.n_qubits != copies:
        raise ValueError(f"input has {input_state.n_qubits} qubit(s), network expects its {copies} input copies")
    if reference.n_qubits != 1:
        raise ValueError(f"reference must be a one-qubit state, got {reference.n_qubits} qubits")
    state, prob = input_state, 1.0
    for gate, live in spec._walk:
        if gate is None:
            # the herald, on the last live wire; the projection left exact zeros in the odd
            # entries: drop the ancilla
            ancilla = state.n_qubits - 1
            prob, success = project_qubit(state, ancilla, PLUS)
            state = StateVector._trusted(ancilla, success.amps[::2].copy())
        else:
            state = apply_gate(state, gate, live)
    check_normalized(state.amps)
    return SimulationResult(
        success_probability=prob,
        post_state=state,
        global_fidelity_vs_exact=global_fidelity(reference, state),
    )


def evaluate_cloner(
    problem: CloningProblem,
    mode: str,
    p_s: Optional[float] = None,
    *,
    decompose_gates: bool = False,
) -> ClonerReport:
    """Simulate both input signs and compare against the analytic bounds.

    The plus input is run.  Where the network keeps the Z symmetry of the
    two inputs (`NetworkSpec.z_symmetric`: every network but an approx one
    whose clone stage turns, as at unequal priors), it maps the minus input
    to Z on every system wire times the plus output, and the minus result is
    taken from the plus one, with the bytes its own run would give
    (`_run_signs`); otherwise the minus input is run too.
    ``decompose_gates=True`` swaps every two-qubit gate for its CNOT
    decomposition before running (the reported numbers must not move).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "hybrid":
        if p_s is None:
            raise ValueError("hybrid mode requires a success probability p_s")
        spec = hybrid_network(problem, p_s)
        point = hybrid_fidelity_bound(
            problem.theta, problem.m_copies, problem.n_copies, p_s
        )
        f_bound, p_bound = point.fidelity_bound, point.p_success
    elif mode == "exact":
        spec = exact_network(problem)
        f_bound = 1.0
        p_bound = exact_clone_probability(
            problem.theta, problem.m_copies, problem.n_copies
        )
    else:
        spec = approx_network(problem)
        f_bound = fidelity_bound(problem)
        p_bound = 1.0
    if decompose_gates:
        spec = expand_decompositions(spec)
    plus, minus = _run_signs(spec, problem.theta, problem.m_copies)
    fidelity = (
        problem.eta_plus * plus.global_fidelity_vs_exact
        + problem.eta_minus * minus.global_fidelity_vs_exact
    )
    success = (
        problem.eta_plus * plus.success_probability
        + problem.eta_minus * minus.success_probability
    )
    return ClonerReport(
        problem=problem,
        mode=mode,
        p_s=p_s,
        plus_result=plus,
        minus_result=minus,
        fidelity=fidelity,
        success_probability=success,
        fidelity_bound=f_bound,
        success_bound=p_bound,
        fidelity_deviation=abs(fidelity - f_bound),
        success_deviation=abs(success - p_bound),
    )


def _run_signs(spec: NetworkSpec, theta: float, copies: int) -> Tuple[SimulationResult, SimulationResult]:
    """The results of ``spec`` on ``copies`` copies of each family state: the plus input's
    run, and the minus input's taken from it (`_z_flipped`) where the network keeps the Z
    symmetry (`NetworkSpec.z_symmetric`), else run too."""
    plus = run_network(
        spec, family_state(theta, PLUS, copies=copies), reference=family_state(theta, PLUS)
    )
    minus = _z_flipped(plus) if spec.z_symmetric else None
    if minus is None:
        minus = run_network(
            spec, family_state(theta, MINUS, copies=copies), reference=family_state(theta, MINUS)
        )
    return plus, minus


def _z_flipped(result: SimulationResult) -> Optional[SimulationResult]:
    """``result`` with Z^(x)N applied to its post-state: the other sign's result.

    None when the post-state has an exact zero, whose sign the symmetry does
    not fix.  Otherwise each amplitude of the other run is this one's times
    +/-1, the probability and the fidelity are its bits, and the post-state
    is formed when it is first read (`_ZFlipped`): no report reads it.
    """
    if not result.post_state.amps.all():
        return None
    flipped = object.__new__(_ZFlipped)
    flipped.__dict__.update(vars(result), _flip=result.post_state)
    del flipped.__dict__["post_state"]
    return flipped


@functools.lru_cache(maxsize=32)
def _parities(k: int) -> np.ndarray:
    """The diagonal of Z^(x)k, read-only: (-1)^|i| for i < 2**k.

    Memoized per half register (k <= 10 for N <= 20), never per full one.
    """
    signs = np.array([1.0])
    for _ in range(k):
        signs = np.concatenate((signs, -signs))
    signs.flags.writeable = False
    return signs
