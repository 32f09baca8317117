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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

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
        for p in self.placements:
            if not (0 <= min(p.qubits) and max(p.qubits) < self.n_qubits):
                q = next(q for q in p.qubits if not (0 <= q < self.n_qubits))
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


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one network run on one input: its success branch."""

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
    if abs(problem.eta_plus - 0.5) > 1e-12:
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
    (``NetworkSpec._walk``) and shared by its runs, so both signs of
    `evaluate_cloner` share them; the dynamic part (the live width, the
    joins, the padding) is still decided per run.

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
    results = {}
    for sign in (PLUS, MINUS):
        results[sign] = run_network(
            spec,
            family_state(problem.theta, sign, copies=problem.m_copies),
            reference=family_state(problem.theta, sign),
        )
    fidelity = (
        problem.eta_plus * results[PLUS].global_fidelity_vs_exact
        + problem.eta_minus * results[MINUS].global_fidelity_vs_exact
    )
    success = (
        problem.eta_plus * results[PLUS].success_probability
        + problem.eta_minus * results[MINUS].success_probability
    )
    return ClonerReport(
        problem=problem,
        mode=mode,
        p_s=p_s,
        plus_result=results[PLUS],
        minus_result=results[MINUS],
        fidelity=fidelity,
        success_probability=success,
        fidelity_bound=f_bound,
        success_bound=p_bound,
        fidelity_deviation=abs(fidelity - f_bound),
        success_deviation=abs(success - p_bound),
    )
