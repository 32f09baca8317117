"""Closed-form fidelity and probability bounds for two-state cloning.

The object of study is the pair of single-qubit states

    cos(theta)|+> + sin(theta)|->   and   cos(theta)|+> - sin(theta)|->

with 0 <= theta <= pi/4, occurring with prior probabilities eta_plus and
eta_minus = 1 - eta_plus.  Their overlap is cos(2 theta), and the overlap of
k-fold copies is cos(2 theta)**k.  Everything in this module is an analytic
function of (theta, M, N, eta_plus) and needs only the standard library, so
``cloneforge bounds`` never loads numpy.  The independent brute-force
maximizer that cross-checks these closed forms lives in ``verify``.

All functions are pure; angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: cloning strategies understood by evaluate_cloner and the CLI; each has its
#: closed-form bound here
MODES = ("exact", "approx", "hybrid")
#: slack admitted when validating probabilities that sit exactly on a boundary
RANGE_SLACK = 1e-12
#: an overlap this close to 1 is a pair of identical states in double precision
UNIT_OVERLAP_TOL = 1e-15


def _check_theta(theta: float, allow_zero: bool = False) -> None:
    if not (0.0 <= theta <= math.pi / 4 + 1e-15):
        raise ValueError(f"theta must lie in [0, pi/4], got {theta!r}")
    if not allow_zero and theta == 0.0:
        raise ValueError("identical states: theta = 0 admits no distinguishability")


@dataclass(frozen=True)
class CloningProblem:
    """A two-state M -> N cloning task."""

    theta: float
    m_copies: int
    n_copies: int
    eta_plus: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi / 4 + 1e-15):
            raise ValueError(f"theta must lie in [0, pi/4], got {self.theta!r}")
        if self.m_copies < 1:
            raise ValueError("m_copies must be >= 1")
        if self.n_copies <= self.m_copies:
            raise ValueError("n_copies must exceed m_copies")
        if not (0.0 <= self.eta_plus <= 1.0):
            raise ValueError("eta_plus must lie in [0, 1]")

    @property
    def eta_minus(self) -> float:
        return 1.0 - self.eta_plus

    @property
    def equal_priors(self) -> bool:
        """Whether eta_plus is 1/2 to within 1e-12, the hybrid trade-off's domain."""
        return abs(self.eta_plus - 0.5) <= 1e-12

    @property
    def theta_m(self) -> float:
        return angle_for_copies(self.theta, self.m_copies)

    @property
    def theta_n(self) -> float:
        return angle_for_copies(self.theta, self.n_copies)


@dataclass(frozen=True)
class OptimalAngles:
    """Rotation angles (phi_plus, phi_minus) of the compressed output states.

    For an M -> N problem the difference phi_plus - phi_minus is pinned to
    2 theta_M so that the two output states keep the overlap of the inputs.
    """

    phi_plus: float
    phi_minus: float


@dataclass(frozen=True)
class TradeoffPoint:
    """One (success probability, fidelity bound) point of the hybrid curve."""

    p_success: float
    fidelity_bound: float


def overlap_after_copies(theta: float, k: int) -> float:
    """Overlap of the k-fold copies: cos(2 theta) ** k."""
    _check_theta(theta, allow_zero=True)
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.cos(2.0 * theta) ** k


def angle_for_copies(theta: float, k: int) -> float:
    """The unique angle in [0, pi/4] whose overlap equals the k-copy overlap."""
    s = overlap_after_copies(theta, k)
    return 0.5 * math.acos(min(1.0, max(-1.0, s)))


def compose_angle(theta_a: float, theta_b: float) -> float:
    """Angle of the pair whose overlap is the product of the two overlaps."""
    _check_theta(theta_a, allow_zero=True)
    _check_theta(theta_b, allow_zero=True)
    c = math.cos(2.0 * theta_a) * math.cos(2.0 * theta_b)
    return 0.5 * math.acos(min(1.0, max(-1.0, c)))


def optimal_phis(problem: CloningProblem) -> OptimalAngles:
    """Output-state angles maximizing the prior-weighted global fidelity.

    The compressed outputs are rotated by phi_plus (towards |+>) and
    phi_minus away from the exact-clone direction; unitarity fixes
    phi_plus - phi_minus = 2 theta_M, leaving a single free parameter.  The
    maximizer has

        cos(phi_plus + phi_minus) = cos(x) / sqrt(1 - 4 eta+ eta- sin^2 x)

    with x = 2 theta_N - 2 theta_M (positive root), and sin(phi_plus +
    phi_minus) carrying the sign of eta_plus - eta_minus; equal priors give
    phi_plus = -phi_minus = theta_M exactly.
    """
    _check_theta(problem.theta)
    theta_m = problem.theta_m
    theta_n = problem.theta_n
    x = 2.0 * (theta_n - theta_m)
    ep, em = problem.eta_plus, problem.eta_minus
    denom = math.sqrt(1.0 - 4.0 * ep * em * math.sin(x) ** 2)
    cos_sum = min(1.0, math.cos(x) / denom)
    if ep == em:
        sin_sum = 0.0
    else:
        sin_sum = math.copysign(math.sqrt(max(0.0, 1.0 - cos_sum * cos_sum)), ep - em)
    total = math.atan2(sin_sum, cos_sum)
    return OptimalAngles(
        phi_plus=0.5 * (total + 2.0 * theta_m),
        phi_minus=0.5 * (total - 2.0 * theta_m),
    )


def fidelity_bound(problem: CloningProblem) -> float:
    """Largest achievable prior-weighted global fidelity for the problem.

    Closed form: (1 + sqrt(1 - 4 eta+ eta- sin^2(2 theta_N - 2 theta_M))) / 2.
    """
    _check_theta(problem.theta)
    x = 2.0 * (problem.theta_n - problem.theta_m)
    ep, em = problem.eta_plus, problem.eta_minus
    return 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * ep * em * math.sin(x) ** 2))


def helstrom_bound(eta_plus: float, overlap: float) -> float:
    """Best two-outcome discrimination probability for a state pair."""
    if not (0.0 <= overlap <= 1.0):
        raise ValueError("overlap must lie in [0, 1]")
    if not (0.0 <= eta_plus <= 1.0):
        raise ValueError("eta_plus must lie in [0, 1]")
    em = 1.0 - eta_plus
    return 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * eta_plus * em * overlap ** 2))


def exact_clone_probability(theta: float, m: int, n: int) -> float:
    """Success probability for producing N exact copies from M, the same for both states.

    Equals (1 - s**M) / (1 - s**N) with s the single-copy overlap: the best
    for strategies that succeed equally often on both states, so optimal at
    equal priors only.  The ratio is evaluated through 1 - s = 2 sin(theta)^2
    and expm1/log1p, keeping full relative accuracy as s -> 1.
    """
    _check_theta(theta)
    if m < 1 or n <= m:
        raise ValueError("need n > m >= 1")
    s = math.cos(2.0 * theta)
    one_minus_s = 2.0 * math.sin(theta) ** 2
    if one_minus_s == 0.0:
        # sin(theta)**2 underflowed: the ratio is its theta -> 0 limit M/N,
        # whose relative correction O(theta**2) is far below one ulp here
        return m / n
    if s <= 0.0 or one_minus_s >= 1.0:
        return (1.0 - s ** m) / (1.0 - s ** n)
    log_s = math.log1p(-one_minus_s)
    return math.expm1(m * log_s) / math.expm1(n * log_s)


def separation_bound(overlap_in: float, overlap_out: float) -> float:
    """Best success probability for reducing a pair's overlap as stated."""
    if not (0.0 <= overlap_out <= 1.0 and 0.0 <= overlap_in <= 1.0):
        raise ValueError("overlaps must lie in [0, 1]")
    if overlap_out > overlap_in + RANGE_SLACK:
        raise ValueError(
            f"not a separation: output overlap {overlap_out!r} exceeds "
            f"input overlap {overlap_in!r}"
        )
    if overlap_out >= 1.0 - UNIT_OVERLAP_TOL:
        raise ValueError("identical states: separation from unit overlap is undefined")
    return min(1.0, (1.0 - overlap_in) / (1.0 - overlap_out))


def idp_probability(overlap: float) -> float:
    """Best probability of error-free discrimination of the pair."""
    if not (0.0 <= overlap <= 1.0):
        raise ValueError("overlap must lie in [0, 1]")
    return 1.0 - overlap


def separated_angle(theta_m: float, theta_n: float, p_s: float) -> float:
    """Angle reachable from theta_m by separation at success probability p_s.

    Solves p_s = (1 - cos 2 theta_m) / (1 - cos 2 theta_tilde) for
    theta_tilde; the result interpolates between theta_m (p_s = 1) and
    theta_n (p_s at the exact-cloning probability for the pair).
    """
    _check_theta(theta_m)
    _check_theta(theta_n, allow_zero=True)
    p_min = separation_bound(math.cos(2.0 * theta_m), math.cos(2.0 * theta_n))
    if not (p_min - RANGE_SLACK <= p_s <= 1.0 + RANGE_SLACK):
        raise ValueError(
            f"success probability {p_s!r} outside [{p_min!r}, 1] for this separation"
        )
    p_s = min(1.0, max(p_min, p_s))
    c = 1.0 - (1.0 - math.cos(2.0 * theta_m)) / p_s
    tilde = 0.5 * math.acos(min(1.0, max(-1.0, c)))
    if not (theta_m - 1e-9 <= tilde <= theta_n + 1e-9):
        raise ValueError(
            f"separated angle {tilde!r} escaped [{theta_m!r}, {theta_n!r}]"
        )
    return tilde


def hybrid_fidelity_bound(theta: float, m: int, n: int, p_s: float) -> TradeoffPoint:
    """Fidelity/probability trade-off for equal-prior hybrid cloning.

    At success probability p_s in [P_exact, 1] the best post-selected global
    fidelity is

        F = (1 + S_N c + sqrt((1 - S_N^2)(1 - c^2))) / 2,

    where S_N = s**N is the exact-clone overlap and c = 1 - (1 - s**M)/p_s.
    The endpoints reproduce exact cloning (F = 1) and the deterministic
    optimum.
    """
    _check_theta(theta)
    if m < 1 or n <= m:
        raise ValueError("need n > m >= 1")
    p_min = exact_clone_probability(theta, m, n)
    if not (p_min - RANGE_SLACK <= p_s <= 1.0 + RANGE_SLACK):
        raise ValueError(
            f"success probability {p_s!r} outside [{p_min!r}, 1]"
        )
    p_s = min(1.0, max(p_min, p_s))
    s = math.cos(2.0 * theta)
    s_n = s ** n
    p_idp = 1.0 - s ** m
    c = 1.0 - p_idp / p_s
    f = 0.5 * (
        1.0
        + s_n * c
        + math.sqrt(max(0.0, (1.0 - s_n * s_n) * (1.0 - c * c)))
    )
    return TradeoffPoint(p_success=p_s, fidelity_bound=min(1.0, f))


def hybrid_limit(p_s: float, p_idp: float) -> float:
    """Many-copy limit of the hybrid trade-off curve.

    F = (1 + sqrt(p_s^2 - (p_s - p_idp)^2) / p_s) / 2 for p_idp <= p_s <= 1.
    """
    if not (0.0 < p_idp <= p_s + RANGE_SLACK and p_s <= 1.0 + RANGE_SLACK):
        raise ValueError(f"need 0 < p_idp <= p_s <= 1, got p_idp={p_idp!r}, p_s={p_s!r}")
    p_s = min(1.0, p_s)
    gap = max(0.0, p_s * p_s - (p_s - p_idp) ** 2)
    return 0.5 * (1.0 + math.sqrt(gap) / p_s)


def d_cloner_local_fidelity(theta3: float, theta1: float) -> float:
    """Single-copy overlap when the transfer gate alone splits one input.

    Feeding the gate a single state at angle theta3 (with a blank second
    input) yields two product copies at angle theta1; each copy overlaps the
    original by cos(theta3 - theta1).
    """
    return math.cos(theta3 - theta1)


def d_cloner_global_fidelity(theta3: float, theta1: float) -> float:
    """Two-copy overlap of the same split: the square of the local value."""
    return d_cloner_local_fidelity(theta3, theta1) ** 2
