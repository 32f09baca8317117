"""Assembly and exact simulation of the cloning networks.

Three strategies share one layout: ``N`` system qubits (indices 0..N-1) and,
when a heralding stage exists, one ancilla at index ``N`` (always last, so
system indices never shift).  A heralded run reports its success branch
only: the probability of the herald and the post-selected output.

* exact:   compress M copies onto qubit 0, separate the compressed angle all
           the way to the N-copy angle with an ancilla-heralded gate, then
           decompress.  Succeeds with the exact-cloning probability and
           yields perfect clones.
* approx:  compress, rotate qubit 0 to the optimal compressed output, and
           decompress.  Deterministic; prior-weighted fidelity saturates the
           closed-form optimum.
* hybrid:  compress, separate part of the way (success probability p_s),
           rotate to the optimal equal-prior output for the separated angle,
           and decompress.  Interpolates between the two strategies.

Probabilities are computed by exact projection -- never sampled -- so
repeated runs are bit-identical and 1e-10 comparisons are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .bounds import (
    MODES,
    CloningProblem,
    OptimalAngles,
    angle_for_copies,
    clone_coefficients,
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
    clone_gate,
    decompose_separation,
    decompose_transfer,
    separation_gate,
    transfer_gate,
)
from .linalg import (
    MINUS,
    PLUS,
    StateVector,
    apply_gate,
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
            for q in p.qubits:
                if not (0 <= q < self.n_qubits):
                    raise ValueError(
                        f"placement {p.label!r} references qubit {q}, but the "
                        f"network has {self.n_qubits} qubit(s)"
                    )


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


def _transfer_placement(theta1: float, theta2: float, qubits: Tuple[int, int]) -> GatePlacement:
    return GatePlacement(
        gate=transfer_gate(theta1, theta2),
        qubits=qubits,
        label=f"transfer({theta1:.6g},{theta2:.6g})@{qubits}",
        kind=KIND_TRANSFER,
        params=(theta1, theta2),
    )


def compression_sequence(problem: CloningProblem) -> NetworkSpec:
    """Concentrate the M input copies onto qubit 0 (empty for M = 1).

    Pair after pair is folded in: the gate at (j-1, j) combines one fresh
    copy with the angle accumulated so far, leaving the accumulated state on
    qubit j-1 and a blank on qubit j.
    """
    theta = problem.theta
    placements = tuple(
        _transfer_placement(
            theta,
            angle_for_copies(theta, problem.m_copies - j),
            (j - 1, j),
        )
        for j in range(problem.m_copies - 1, 0, -1)
    )
    return NetworkSpec(n_qubits=problem.n_copies, placements=placements)


def decompression_sequence(problem: CloningProblem) -> NetworkSpec:
    """Spread the compressed state on qubit 0 over all N qubits.

    The same gates as compression for the full N, run in the opposite
    order; each gate is self-inverse, so this is exactly the inverse of an
    N-copy compression.  By linearity a superposition of the two compressed
    outputs becomes the corresponding superposition of N-copy states.
    """
    theta = problem.theta
    placements = tuple(
        _transfer_placement(
            theta,
            angle_for_copies(theta, problem.n_copies - j),
            (j - 1, j),
        )
        for j in range(1, problem.n_copies)
    )
    return NetworkSpec(n_qubits=problem.n_copies, placements=placements)


def _separation_placement(theta_in: float, theta_out: float, n: int) -> GatePlacement:
    return GatePlacement(
        gate=separation_gate(theta_in, theta_out),
        qubits=(n, 0),
        label=f"separation({theta_in:.6g},{theta_out:.6g})@({n},0)",
        kind=KIND_SEPARATION,
        params=(theta_in, theta_out),
    )


def exact_network(problem: CloningProblem) -> NetworkSpec:
    """Heralded perfect cloning: compress, separate to theta_N, decompress."""
    n = problem.n_copies
    theta_m = problem.theta_m
    theta_n = problem.theta_n
    placements = (
        compression_sequence(problem).placements
        + (_separation_placement(theta_m, theta_n, n),)
        + decompression_sequence(problem).placements
    )
    return NetworkSpec(n_qubits=n + 1, placements=placements, heralded=True)


def approx_network(problem: CloningProblem) -> NetworkSpec:
    """Deterministic optimal cloning: compress, rotate qubit 0, decompress."""
    theta_m = problem.theta_m
    theta_n = problem.theta_n
    coeffs = clone_coefficients(optimal_phis(problem), theta_n)
    rotate = GatePlacement(
        gate=clone_gate(theta_m, theta_n, coeffs),
        qubits=(0,),
        label=f"clone({theta_m:.6g}->{theta_n:.6g})@0",
        kind=KIND_CLONE,
        params=(theta_m, theta_n),
    )
    placements = (
        compression_sequence(problem).placements
        + (rotate,)
        + decompression_sequence(problem).placements
    )
    return NetworkSpec(n_qubits=problem.n_copies, placements=placements)


def hybrid_network(problem: CloningProblem, p_s: float) -> NetworkSpec:
    """Partial separation at success probability p_s, then optimal rotation.

    Only defined for equal priors.  The separated angle theta_tilde solves
    the separation bound at equality for p_s; the follow-up rotation uses
    the equal-prior optimal output angles (+/- theta_tilde) for the
    separated pair.  p_s at the exact-cloning probability reproduces the
    exact network (the rotation collapses to the identity); p_s = 1
    reproduces the deterministic network.
    """
    if abs(problem.eta_plus - 0.5) > 1e-12:
        raise ValueError("hybrid cloning requires equal priors")
    n = problem.n_copies
    theta_m = problem.theta_m
    theta_n = problem.theta_n
    tilde = separated_angle(theta_m, theta_n, p_s)
    coeffs = clone_coefficients(
        OptimalAngles(phi_plus=tilde, phi_minus=-tilde), theta_n
    )
    rotate = GatePlacement(
        gate=clone_gate(tilde, theta_n, coeffs),
        qubits=(0,),
        label=f"clone({tilde:.6g}->{theta_n:.6g})@0",
        kind=KIND_CLONE,
        params=(tilde, theta_n),
    )
    placements = (
        compression_sequence(problem).placements
        + (_separation_placement(theta_m, tilde, n),)
        + (rotate,)
        + decompression_sequence(problem).placements
    )
    return NetworkSpec(n_qubits=n + 1, placements=placements, heralded=True)


def expand_decompositions(spec: NetworkSpec) -> NetworkSpec:
    """Replace every transfer/separation gate by its CNOT circuit.

    Placements of other kinds (already single-qubit) are kept as-is.  The
    resulting network simulates to the same numbers as the original.  Each
    distinct ``(kind, params)`` is decomposed once: the compression gates
    repeat decompression gates, and every copy of a gate gets the same
    circuit.
    """
    decompose = {KIND_TRANSFER: decompose_transfer, KIND_SEPARATION: decompose_separation}
    circuits = {}
    expanded = []
    for p in spec.placements:
        if p.kind not in decompose:
            expanded.append(p)
            continue
        key = (p.kind, p.params)
        if key not in circuits:
            circuits[key] = decompose[p.kind](*p.params)
        for dp in circuits[key].placements:
            expanded.append(
                GatePlacement(
                    gate=dp.gate,
                    qubits=tuple(p.qubits[q] for q in dp.qubits),
                    label=f"{dp.label} [from {p.label}]",
                    kind=dp.kind,
                    params=dp.params,
                )
            )
    return NetworkSpec(
        n_qubits=spec.n_qubits,
        placements=tuple(expanded),
        heralded=spec.heralded,
    )


def _run_placements(state: StateVector, placements, n_qubits: int) -> StateVector:
    """Apply placements to a leading-wire prefix of an ``n_qubits`` register.

    The wires past ``state`` are blank |+>.  A placement that reaches one
    first appends blank wires up to its top qubit, plus one more when it
    touches wire 0 (a gate spanning the whole prefix from wire 0 would take
    another BLAS path, see `cloneforge.linalg`), capped at ``n_qubits``.
    """
    for p in placements:
        reach = min(n_qubits, max(p.qubits) + 1 + (0 in p.qubits))
        if reach > state.n_qubits:
            state = pad_qubits(state, reach)
        state = apply_gate(state, p.gate, p.qubits)
    return state


def _run_to_herald(state: StateVector, placements, ancilla: int) -> Tuple[StateVector, int]:
    """Apply the placements before a herald on the live register.

    ``state`` is a leading-wire prefix of a register whose last wire,
    ``ancilla``, is measured.  The working register holds the system wires
    0..width-1 and, from the first placement that touches the ancilla on,
    the ancilla as its last wire, at position ``width``.  System wires grow
    by the reach rule of `_run_placements`, capped at ``ancilla``: blank
    wires go in before the ancilla, and a spare wire past every system wire
    is the ancilla itself.  Returns the register, ancilla last, and
    ``width``.
    """
    width = min(state.n_qubits, ancilla)
    joined = state.n_qubits > ancilla
    for p in placements:
        system = [q for q in p.qubits if q != ancilla]
        reach = max(system, default=-1) + 1 + (0 in system)
        grown = max(width, min(reach, ancilla))
        joins = joined or reach > ancilla or ancilla in p.qubits
        if grown > width or joins > joined:
            state = pad_qubits(state, grown + joins, at=width)
            width, joined = grown, joins
        qubits = tuple(width if q == ancilla else q for q in p.qubits)
        state = apply_gate(state, p.gate, qubits)
    if not joined:
        state = pad_qubits(state, width + 1)
    return state, width


def _output(state: StateVector, n_qubits: int) -> StateVector:
    """The register's first ``n_qubits`` wires, checked once.

    Missing wires are padded blank.  A wire past ``n_qubits`` can only be
    the measured wire that `_run_placements` took as a spare after the
    herald; it is blank and is cut off.  Rebuilding the result as a
    ``StateVector`` checks it is finite and normalized to ``NORM_TOL``.
    """
    if state.n_qubits > n_qubits:
        amps = state.amps[:: 2 ** (state.n_qubits - n_qubits)]
    else:
        amps = pad_qubits(state, n_qubits).amps
    return StateVector(n_qubits, amps)


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

    Placements run on the live prefix of the register: trailing wires whose
    amplitudes are all exactly zero are cut off (`linalg.live_prefix`), on
    the input and again on the success branch, and appended by exact zero
    padding when a placement first reaches them.  The herald runs on that
    prefix too: the ancilla joins it as its last wire when a placement
    first touches it, and is projected and dropped there, so the blank
    system wires past the prefix are never simulated.

    Gates are validated when the placements are built and ``apply_gate``
    re-checks no amplitudes, so the output is padded to the system width
    and checked once (finite and normalized to ``NORM_TOL``).
    """
    n = spec.n_qubits
    if input_state.n_qubits > n:
        raise ValueError(
            f"input has {input_state.n_qubits} qubit(s), network expects {n}"
        )
    if reference.n_qubits != 1:
        raise ValueError(
            f"reference must be a one-qubit state, got {reference.n_qubits} qubits"
        )
    system_width = n - 1 if spec.heralded else n
    state = live_prefix(input_state)
    placements = spec.placements
    prob = 1.0
    if spec.heralded:
        ancilla = n - 1
        last_touch = max(
            (i for i, p in enumerate(placements) if ancilla in p.qubits), default=-1
        )
        state, width = _run_to_herald(state, placements[: last_touch + 1], ancilla)
        prob, success = project_qubit(state, width, PLUS)
        # the projection left exact zeros in the odd entries: drop the ancilla
        system = StateVector._trusted(width, success.amps[::2].copy())
        state = live_prefix(system)
        placements = placements[last_touch + 1 :]
    post = _output(_run_placements(state, placements, n), system_width)
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
