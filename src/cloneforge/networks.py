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

`run_network` simulates any network in one walk over its placements, on
the live wires only, with the herald as one step of the walk.
Probabilities are computed by exact projection -- never sampled -- so
repeated runs are bit-identical and 1e-10 comparisons are meaningful.

`evaluate_cloner` runs one sign where it can.  Z on every wire swaps the
two M-copy inputs, bit for bit, and every network built here keeps that
symmetry at equal priors, at gate and at CNOT level: the minus output is Z
on every system wire times the plus output.  A Z frame, a Z string with a
global sign tracked over the placements once per network
(`NetworkSpec._z_sign`), shows that the two runs are sign flips of each
other term by term.  IEEE rounding treats signs alike, fl(-a*b) =
-fl(a*b) and fl(-x - y) = -fl(x + y), so the minus run is then the plus
run with its signs turned, bit for bit, up to the sign of an exact zero.
The minus result is taken from the plus result (`_z_flipped`) when the
plus output has no exact zero; any other network, the approx one at
unequal priors among them, runs both signs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

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
    CircuitDecomposition,
    GatePlacement,
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
    live_prefix,
    pad_qubits,
    project_qubit,
)


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered gate list on ``n_qubits`` wires, optionally heralded.

    A heralded network's last wire is an ancilla.  It is projected onto
    |+> immediately after the last placement touching it, and later
    placements act on that success branch only.
    """

    n_qubits: int
    placements: Tuple[GatePlacement, ...]
    heralded: bool = False

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

    @functools.cached_property
    def _walk(self) -> Tuple[Optional[Tuple[Unitary, Tuple[int, ...], int, bool]], ...]:
        """The steps of `run_network`, worked out once per network and shared by its runs.

        One ``(gate, qubits, top, on_last)`` per placement: ``top`` is its
        highest wire other than the last (-1 if none) and ``on_last`` tells
        whether it touches the last wire.  A heralded network has one more
        step, ``None``, after the last placement on the ancilla (first if
        none touches it).
        """
        last = self.n_qubits - 1
        steps = []
        for p in self.placements:
            qubits = p.qubits
            if last in qubits:
                steps.append((p.gate, qubits, max([q for q in qubits if q != last], default=-1), True))
            else:
                steps.append((p.gate, qubits, max(qubits), False))
        if self.heralded:
            touching = [i for i, step in enumerate(steps) if step[3]]
            steps.insert(touching[-1] + 1 if touching else 0, None)
        return tuple(steps)

    def _z_sign(self, width: int) -> Optional[float]:
        """The sign g with which the run of Z^(x)width |in> is g Z^(x)N times the
        run of |in>, for any input |in> on ``width`` wires; None where no Z frame
        shows it.

        N counts the system wires.  A Z frame is a Z string (a mask: wire q is
        bit q) with a global sign.  It claims that each amplitude of the second
        run is the first run's at the same index times
        sign * (-1)^|index & mask|, or that both are zero; then the two runs
        agree bit for bit, up to the sign of an exact zero.  The frame starts
        as Z on the input wires and follows the steps of the walk: each
        placement maps it by the rule of its gate's nonzero pattern
        (`_z_images`), where a wire that is not yet live is blank, so its bit
        is free; the herald keeps the ancilla's |+> branch and drops its bit.
        Every frame that holds is kept; with none left, or more than
        ``_MAX_FRAMES``, there is no answer.  The networks here hold at most
        two: after a CNOT onto a blank target, Z on the control and -Z on the
        target both hold, and a rotation of the control keeps the second.
        The frames are worked out from the placements alone, so an amplitude
        that is zero in a run still constrains them: a frame found holds,
        though one may be missed.
        """
        live = (1 << width) - 1
        frames = {(live, 1.0)}
        for step in self._walk:
            if step is None:
                keep = ~(1 << (self.n_qubits - 1))
                frames = {(mask & keep, sign) for mask, sign in frames}
                live &= keep
                continue
            gate, qubits = step[0], step[1]
            wires = 0
            for q in qubits:
                wires |= 1 << q
            pattern, blank = gate.nonzero_pattern, wires & ~live
            frames = {
                (mask & ~wires | bits, -sign if flip else sign)
                for mask, sign in frames
                for bits, flip in _z_images(pattern, qubits, mask & wires, blank)
            }
            if not frames or len(frames) > _MAX_FRAMES:
                return None
            live |= wires
        # a system wire that never went live is blank: its bit is free
        system = (1 << (self.n_qubits - self.heralded)) - 1
        return next((sign for mask, sign in frames if (mask | ~live) & system == system), None)


#: most Z frames `NetworkSpec._z_sign` follows at once
_MAX_FRAMES = 4


@functools.lru_cache(maxsize=1024)
def _z_images(pattern: bytes, qubits: Tuple[int, ...], z: int, blank: int) -> Tuple[Tuple[int, bool], ...]:
    """Each image ``(bits, flip)`` of a Z string under a gate: its new bits on
    the gate's wires and whether its global sign turns.

    ``pattern`` is the gate's `Unitary.nonzero_pattern` and ``qubits`` its
    wires; ``z`` and ``blank`` are the string's bits on them and those of them
    not yet live, as network masks (wire q is bit q).  An image holds when
    every nonzero entry G[i][j], in a column j where no blank wire reads |->,
    has (-1)^(|i & bits| + flip) = (-1)^|j & z|: then each term of each output
    amplitude's sum turns sign with it.  A row with no such entry is zero and
    a blank wire reads |+>, so neither constrains the string.  Memoized:
    a few gate patterns recur on every wire of every network.
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


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one network run on one input: its success branch.

    `evaluate_cloner` may take the minus input's result from the plus run
    (`_z_flipped`) instead of running it; it holds the bytes its own run
    would give.
    """

    success_probability: float
    post_state: StateVector
    global_fidelity_vs_exact: float


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
    return _chain(tuple((theta, angle_for_copies(theta, j)) for j in range(1, copies)))


@functools.lru_cache(maxsize=16)
def _chain(pairs: Tuple[Tuple[float, float], ...]) -> Tuple[GatePlacement, ...]:
    """The placements of `compression_sequence`: pair i of L on wires (L-1-i, L-i)."""
    wires = range(len(pairs), 0, -1)
    return tuple(
        GatePlacement(
            gate=gate,
            qubits=(j - 1, j),
            label=f"transfer({theta1:.6g},{theta2:.6g})@{(j - 1, j)}",
            kind=KIND_TRANSFER,
            params=(theta1, theta2),
        )
        for j, gate, (theta1, theta2) in zip(wires, transfer_gates(pairs), pairs)
    )


def _separation_placement(theta_in: float, theta_out: float, n: int) -> GatePlacement:
    return GatePlacement(
        gate=separation_gate(theta_in, theta_out),
        qubits=(n, 0),
        label=f"separation({theta_in:.6g},{theta_out:.6g})@({n},0)",
        kind=KIND_SEPARATION,
        params=(theta_in, theta_out),
    )


def _network(problem: CloningProblem, *middle: GatePlacement) -> NetworkSpec:
    """Compress the M copies, apply ``middle`` to qubit 0, decompress over N.

    The network is heralded when ``middle`` separates: the separation's
    ancilla is wire N, one past the system wires.
    """
    heralded = any(p.kind == KIND_SEPARATION for p in middle)
    placements = (
        compression_sequence(problem.theta, problem.m_copies)
        + middle
        + compression_sequence(problem.theta, problem.n_copies)[::-1]
    )
    return NetworkSpec(problem.n_copies + heralded, placements, heralded)


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
    return _network(
        problem,
        GatePlacement(
            gate=clone_gate(turn),
            qubits=(0,),
            label=f"clone({turn:.6g})@0",
            kind=KIND_CLONE,
            params=(turn,),
        ),
    )


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
    resulting network simulates to the same numbers as the original, and
    is validated as any ``NetworkSpec`` is.  Each distinct ``(kind, params)``
    is decomposed once: the compression gates repeat decompression gates,
    and every copy of a gate gets the same circuit.  The distinct transfer
    gates are decomposed as one batch, and the checked circuit placements
    are moved without re-checking (`rewired`).  A circuit's moved and
    labelled run on a wire pair is memoized (`_placed_run`), so the rows of a
    trade-off sweep share their transfer circuits' runs.
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
    expanded = []
    for p in spec.placements:
        circuit = circuits.get((p.kind, p.params))
        if circuit is None:
            expanded.append(p)
        else:
            expanded.extend(_placed_run(circuit, p.qubits, p.label))
    return NetworkSpec(
        n_qubits=spec.n_qubits,
        placements=tuple(expanded),
        heralded=spec.heralded,
    )


@functools.lru_cache(maxsize=16)
def _placed_run(circuit: CircuitDecomposition, wires: Tuple[int, ...], label: str) -> Tuple[GatePlacement, ...]:
    """``circuit``'s placements moved from local wires 0, 1 to ``wires``, each labelled
    with the placement ``label`` it comes from.

    Memoized: the rows of a sweep place the same transfer circuits (at most 7 runs
    a row, at M = 3, N = 6).  A separation circuit, and any circuit of fresh
    angles, is never placed again, so the bound keeps such runs few.
    """
    return tuple(dp.rewired(wires, f"{dp.label} [from {label}]") for dp in circuit.placements)


def run_network(
    spec: NetworkSpec,
    input_state: StateVector,
    *,
    reference: StateVector,
) -> SimulationResult:
    """Run a network on one input and compare against a product reference.

    ``input_state`` covers the register's leading 1..n wires; the wires past
    it are blank |+>.  Placements are applied in order.  A heralded network
    projects its ancilla onto |+> immediately after the last placement
    touching it: the probability of that outcome is recorded, the
    renormalized success branch goes on through the remaining placements,
    and the ancilla, blank after the projection, is dropped from it.  The
    failure branch is not simulated.  ``reference`` is a one-qubit state,
    and the reported fidelity is the squared overlap of the output (the
    system wires, without the ancilla) with one copy of it on every wire,
    contracted wire by wire (`linalg.global_fidelity`), so the 2**N
    reference is never built.

    One walk over the placements simulates only the live register: the
    leading ``width`` wires, and the last wire of the network (the ancilla
    of a heralded one) at position ``width`` once a placement has touched
    it.  Trailing wires whose amplitudes are all exactly zero are cut off
    (`linalg.live_prefix`), on the input and again on the success branch.
    The first placement that touches a wire past the live register brings
    it in.  When that is one wire at the end of the live register (the
    next system wire, or the last wire before it has joined), the
    placement names it by index ``state.n_qubits`` and ``apply_gate`` joins
    it, with no padded copy; in the paper's networks every growth is of
    this kind.  Otherwise (several wires at once, or a system wire before
    a last wire that has joined) blank wires are first inserted before
    the last wire, up to the placement's top qubit (`linalg.pad_qubits`).
    The herald is one step of the walk: it projects the ancilla, drops it
    and re-takes the live prefix.  What the walk needs of each placement
    (its gate, its wires, its top system wire, whether it touches the last
    wire) and where the herald goes are worked out once per network
    (``NetworkSpec._walk``) and shared by its runs, and by the Z frame that
    lets `evaluate_cloner` skip the minus run; the dynamic part (the live
    width, the joins, the padding) is still decided per run.

    Gates are validated when the placements are built and ``apply_gate``
    re-checks no amplitudes, so the output, padded to the system width if a
    system wire was never touched, is checked once and in place, by the
    ``StateVector`` constructor's own test (`linalg.check_normalized`:
    finite and normalized to ``NORM_TOL``).
    """
    n = spec.n_qubits
    if input_state.n_qubits > n:
        raise ValueError(f"input has {input_state.n_qubits} qubit(s), network expects {n}")
    if reference.n_qubits != 1:
        raise ValueError(f"reference must be a one-qubit state, got {reference.n_qubits} qubits")
    last = n - 1
    state = live_prefix(input_state)
    width, joined = min(state.n_qubits, last), state.n_qubits > last
    prob = 1.0
    for step in spec._walk:
        if step is None:
            # the herald
            prob, success = project_qubit(pad_qubits(state, width + 1), width, PLUS)
            # the projection left exact zeros in the odd entries: drop the ancilla
            state = live_prefix(StateVector._trusted(width, success.amps[::2].copy()))
            width, joined = state.n_qubits, False
            continue
        gate, qubits, top, on_last = step
        grown = top + 1 if top >= width else width
        with_last = joined or on_last
        if grown + with_last > state.n_qubits + 1 or joined and grown > width:
            # several wires at once, or a system wire before the joined last wire
            state = pad_qubits(state, grown + with_last, at=width)
        width, joined = grown, with_last
        if on_last:
            qubits = tuple(width if q == last else q for q in qubits)
        # index state.n_qubits joins one blank wire (`apply_gate`)
        state = apply_gate(state, gate, qubits)
    post = pad_qubits(state, n - spec.heralded, at=width)
    check_normalized(post.amps)
    return SimulationResult(
        success_probability=prob,
        post_state=post,
        global_fidelity_vs_exact=global_fidelity(reference, post),
    )


def evaluate_cloner(
    problem: CloningProblem,
    mode: str,
    p_s: Optional[float] = None,
    *,
    decompose_gates: bool = False,
) -> ClonerReport:
    """Simulate both input signs and compare against the analytic bounds.

    The plus input is run.  When a Z frame shows that the network maps the
    minus input to Z on every system wire times the plus output (at equal
    priors, every network here), the minus result is taken from the plus
    one, with the bytes its own run would give (`_run_signs`); otherwise
    the minus input is run too.  ``decompose_gates=True`` swaps every
    two-qubit gate for its CNOT decomposition before running (the reported
    numbers must not move).
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
    """The results of ``spec`` on ``copies`` copies of each family state.

    The plus input is run.  The minus input is Z^(x)copies times it, bit for
    bit, so when a Z frame shows that the minus run is g Z^(x)N times the plus
    run (`NetworkSpec._z_sign`), its result is taken from the plus result
    (`_z_flipped`); otherwise, or if the plus output has an exact zero, it is
    run too.
    """
    plus = run_network(
        spec, family_state(theta, PLUS, copies=copies), reference=family_state(theta, PLUS)
    )
    sign = spec._z_sign(copies)
    minus = None if sign is None else _z_flipped(plus, sign)
    if minus is None:
        minus = run_network(
            spec, family_state(theta, MINUS, copies=copies), reference=family_state(theta, MINUS)
        )
    return plus, minus


def _z_flipped(result: SimulationResult, sign: float) -> Optional[SimulationResult]:
    """``result`` with ``sign`` Z^(x)N applied to its post-state: the other sign's result.

    None when the post-state has an exact zero, whose sign the frame does not
    fix.  Otherwise each amplitude of the other run is this one's times
    +/-1, the probability and the fidelity are its bits, and the post-state
    is signed in two broadcast passes, by the parities of the high and the
    low half of the wires (`_parities`).
    """
    post = result.post_state
    if not post.amps.all():
        return None
    low = post.n_qubits // 2
    amps = post.amps.reshape(-1, 2 ** low) * _parities(post.n_qubits - low, sign)[:, None]
    amps *= _parities(low, 1.0)
    return SimulationResult(
        success_probability=result.success_probability,
        post_state=StateVector._trusted(post.n_qubits, amps.reshape(-1)),
        global_fidelity_vs_exact=result.global_fidelity_vs_exact,
    )


@functools.lru_cache(maxsize=32)
def _parities(k: int, sign: float) -> np.ndarray:
    """``sign`` times the diagonal of Z^(x)k, read-only: sign * (-1)^|i| for i < 2**k.

    Memoized per half register (k <= 10 for N <= 20), never per full one.
    """
    signs = np.array([sign])
    for _ in range(k):
        signs = np.concatenate((signs, -signs))
    signs.flags.writeable = False
    return signs
