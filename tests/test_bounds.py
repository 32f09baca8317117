import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneforge import bounds
from cloneforge.bounds import (
    CloningProblem,
    OptimalAngles,
    TradeoffPoint,
    angle_for_copies,
    compose_angle,
    d_cloner_global_fidelity,
    d_cloner_local_fidelity,
    exact_clone_probability,
    fidelity_bound,
    helstrom_bound,
    hybrid_fidelity_bound,
    hybrid_limit,
    idp_probability,
    optimal_phis,
    overlap_after_copies,
    separated_angle,
    separation_bound,
)
from cloneforge.verify import brute_force_fidelity

import oracles

# Reference values below were computed from the closed forms with an
# independent script before these tests were written, then frozen.
S8 = 0.7071067811865476  # overlap of the pi/8 pair
F12_EQUAL = 0.9829629131445341  # 1->2 bound at pi/8, equal priors
F12_ETA07 = 0.9857290061313675
PHI_PLUS_07 = 0.4460851189273285
PHI_MINUS_07 = -0.3393130444701198
P12 = 0.5857864376269049  # = 2 - sqrt(2)
P13 = 0.4530818393219728
TILDE_COS_08 = 0.6338834764831844
TILDE_THETA_08 = 0.44211613245714376
F_HYBRID_08 = 0.9933752598359651


def problem(theta=math.pi / 8, m=1, n=2, eta_plus=0.5):
    return CloningProblem(theta=theta, m_copies=m, n_copies=n, eta_plus=eta_plus)


# ----------------------------------------------------------- overlap algebra


def test_overlap_after_copies_values():
    assert overlap_after_copies(math.pi / 8, 1) == pytest.approx(S8, abs=1e-15)
    assert overlap_after_copies(math.pi / 8, 2) == pytest.approx(0.5, abs=1e-15)
    assert overlap_after_copies(math.pi / 8, 3) == pytest.approx(
        0.35355339059327384, abs=1e-15
    )
    assert overlap_after_copies(math.pi / 4, 5) == pytest.approx(0.0, abs=1e-15)


def test_angle_for_copies_values():
    assert angle_for_copies(math.pi / 8, 2) == pytest.approx(math.pi / 6, abs=1e-15)
    assert angle_for_copies(math.pi / 4, 5) == pytest.approx(math.pi / 4, abs=1e-15)
    th = 0.3
    assert angle_for_copies(th, 1) == pytest.approx(th, abs=1e-15)


def test_compose_angle_values():
    # composing a pair angle with zero leaves it unchanged
    assert compose_angle(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
    # composing equal angles doubles the copy count
    th = math.pi / 8
    assert compose_angle(th, th) == pytest.approx(angle_for_copies(th, 2), abs=1e-15)


@given(
    st.floats(min_value=1e-3, max_value=math.pi / 4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_angle_composition_is_copy_addition(theta, j, k):
    a = angle_for_copies(theta, j)
    b = angle_for_copies(theta, k)
    combined = compose_angle(a, b)
    assert combined == pytest.approx(angle_for_copies(theta, j + k), abs=1e-12)


def test_theta_zero_rejected_by_analyses():
    # the problem itself is constructible (theta = 0 is a valid corner of the
    # family), but every cloning analysis refuses it
    prob = problem(theta=0.0)
    with pytest.raises(ValueError, match="identical"):
        fidelity_bound(prob)
    with pytest.raises(ValueError, match="identical"):
        optimal_phis(prob)
    with pytest.raises(ValueError, match="identical"):
        exact_clone_probability(0.0, 1, 2)
    assert overlap_after_copies(0.0, 3) == 1.0


def test_theta_out_of_range_rejected():
    with pytest.raises(ValueError):
        problem(theta=math.pi / 4 + 1e-6)
    with pytest.raises(ValueError):
        problem(theta=-0.1)


def test_problem_validates_copy_counts_and_priors():
    with pytest.raises(ValueError):
        CloningProblem(theta=0.3, m_copies=2, n_copies=2)
    with pytest.raises(ValueError):
        CloningProblem(theta=0.3, m_copies=0, n_copies=2)
    with pytest.raises(ValueError):
        CloningProblem(theta=0.3, m_copies=1, n_copies=2, eta_plus=1.2)


# ----------------------------------------------------------- optimal angles


def test_optimal_phis_equal_priors():
    """With equal priors the two rotations are symmetric: phi+ = -phi- = theta_m."""
    angles = optimal_phis(problem())
    assert angles.phi_plus == pytest.approx(math.pi / 8, abs=1e-14)
    assert angles.phi_minus == pytest.approx(-math.pi / 8, abs=1e-14)


def test_optimal_phis_biased_priors():
    angles = optimal_phis(problem(eta_plus=0.7))
    assert angles.phi_plus == pytest.approx(PHI_PLUS_07, abs=1e-14)
    assert angles.phi_minus == pytest.approx(PHI_MINUS_07, abs=1e-14)


@given(
    st.floats(min_value=0.02, max_value=math.pi / 4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=120, deadline=None)
def test_optimal_phis_gap_is_universal(theta, m, extra, eta_plus):
    """phi+ - phi- = 2 theta_M holds for every problem (unitarity), and the
    angle sum never leaves (-pi/2, pi/2)."""
    n = m + extra
    prob = problem(theta, m, n, eta_plus)
    angles = optimal_phis(prob)
    assert angles.phi_plus - angles.phi_minus == pytest.approx(
        2 * prob.theta_m, abs=1e-12
    )
    assert abs(angles.phi_plus + angles.phi_minus) < math.pi / 2


@given(
    st.floats(min_value=0.02, max_value=math.pi / 4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.35, max_value=0.65),
)
@settings(max_examples=120, deadline=None)
def test_optimal_phis_quadrants_at_moderate_priors(theta, m, extra, eta_plus):
    """phi+ sits in the first quadrant and phi- in the fourth.

    This containment is genuine for moderate priors; heavily lopsided priors
    combined with a large copy gap push the optimum past zero (the scan
    oracle confirms those corner optima), so the claim is asserted on the
    regime where it holds.
    """
    prob = problem(theta, m, m + extra, eta_plus)
    angles = optimal_phis(prob)
    assert 0.0 <= angles.phi_plus <= math.pi / 2 + 1e-12
    assert -math.pi / 2 - 1e-12 <= angles.phi_minus <= 1e-12


def test_fidelity_bound_values():
    assert fidelity_bound(problem()) == pytest.approx(F12_EQUAL, abs=1e-15)
    assert fidelity_bound(problem()) == pytest.approx(
        0.5 * (1.0 + math.cos(math.pi / 12)), abs=1e-15
    )
    assert fidelity_bound(problem(eta_plus=0.7)) == pytest.approx(F12_ETA07, abs=1e-15)
    # a prior of 1 means only one state is ever sent: cloning is free
    assert fidelity_bound(problem(eta_plus=1.0)) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_at_angles_matches_bound_at_optimum():
    prob = problem(eta_plus=0.7)
    angles = optimal_phis(prob)
    at_optimum = oracles.objective(prob.theta_n, angles.phi_plus, angles.phi_minus, prob.eta_plus)
    assert at_optimum == pytest.approx(fidelity_bound(prob), abs=1e-14)


def test_fidelity_bound_monotone_in_prior_product():
    """More lopsided priors can only make approximate cloning easier."""
    values = [fidelity_bound(problem(eta_plus=e)) for e in np.linspace(0.5, 0.99, 25)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


@given(
    st.floats(min_value=0.02, max_value=math.pi / 4 - 1e-3),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_beats_any_scanned_angle(theta, eta_plus):
    prob = problem(theta, 1, 2, eta_plus)
    best = fidelity_bound(prob)
    scanned = oracles.scan_best_fidelity(theta, 1, 2, eta_plus, grid=4001)
    assert best >= scanned - 1e-9


def test_closed_form_agrees_with_independent_scan():
    for theta, eta in [(math.pi / 8, 0.5), (math.pi / 8, 0.7), (3 * math.pi / 16, 0.9)]:
        prob = problem(theta, 1, 2, eta)
        scanned = oracles.scan_best_fidelity(theta, 1, 2, eta)
        assert fidelity_bound(prob) == pytest.approx(scanned, abs=1e-9)


def test_brute_force_matches_closed_form():
    for theta, eta in [(math.pi / 8, 0.5), (math.pi / 8, 0.7), (math.pi / 16, 0.9)]:
        prob = problem(theta, 1, 3, eta)
        assert brute_force_fidelity(prob) == pytest.approx(
            fidelity_bound(prob), abs=1e-6
        )


def test_brute_force_trivial_prior():
    assert brute_force_fidelity(problem(eta_plus=1.0)) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------- other bounds


def test_helstrom_values():
    assert helstrom_bound(0.5, 0.70710678118654757) == pytest.approx(
        0.8535533905932737, abs=1e-15
    )
    assert helstrom_bound(0.5, 0.0) == pytest.approx(1.0)
    assert helstrom_bound(0.5, 1.0) == pytest.approx(0.5)
    assert helstrom_bound(1.0, 0.3) == pytest.approx(1.0)


def test_exact_clone_probability_values():
    assert exact_clone_probability(math.pi / 8, 1, 2) == pytest.approx(P12, abs=1e-15)
    assert exact_clone_probability(math.pi / 8, 1, 3) == pytest.approx(P13, abs=1e-15)
    assert exact_clone_probability(math.pi / 4, 1, 2) == pytest.approx(1.0)


@pytest.mark.parametrize("theta", [1e-300, 1e-200, 1e-170, 1e-163])
@pytest.mark.parametrize("m, n", [(1, 2), (2, 5), (3, 7)])
def test_exact_clone_probability_below_sin_squared_underflow(theta, m, n):
    """Where sin(theta)**2 underflows to 0 the ratio is its limit M/N."""
    assert 2.0 * math.sin(theta) ** 2 == 0.0
    assert exact_clone_probability(theta, m, n) == m / n


@pytest.mark.parametrize("m, n", [(1, 2), (2, 5), (3, 7)])
def test_exact_clone_probability_is_continuous_at_the_underflow(m, n):
    """Just above the underflow the expm1 ratio already reads M/N to an ulp."""
    for theta in (1e-150, 1e-160, 1e-161):
        assert exact_clone_probability(theta, m, n) == pytest.approx(m / n, rel=4e-16)


@given(st.floats(min_value=1e-3, max_value=math.pi / 4 - 1e-3))
@settings(max_examples=60, deadline=None)
def test_single_to_double_probability_identity(theta):
    s = math.cos(2 * theta)
    assert exact_clone_probability(theta, 1, 2) == pytest.approx(
        1.0 / (1.0 + s), abs=1e-12
    )


def test_idp_probability():
    assert idp_probability(S8) == pytest.approx(1.0 - S8, abs=1e-15)
    assert idp_probability(0.0) == pytest.approx(1.0)


def test_separation_bound_values():
    # separating all the way to orthogonal is exactly unambiguous discrimination
    assert separation_bound(S8, 0.0) == pytest.approx(1.0 - S8, abs=1e-15)
    assert separation_bound(0.3, 0.3) == pytest.approx(1.0)
    assert separation_bound(0.70710678118654757, 0.5) == pytest.approx(
        0.5857864376269049, abs=1e-12
    )


def test_separation_bound_rejects_bad_direction():
    with pytest.raises(ValueError, match="separation"):
        separation_bound(0.3, 0.5)
    # a unit-overlap pair cannot be pulled apart at all
    with pytest.raises(ValueError, match="identical"):
        separation_bound(1.0, 1.0)
    # separating away from unit overlap is possible but never succeeds
    assert separation_bound(1.0, 0.5) == 0.0


def test_separated_angle_endpoints():
    th_m, th_n = math.pi / 8, angle_for_copies(math.pi / 8, 2)
    # keeping every event leaves the pair where it started
    assert separated_angle(th_m, th_n, 1.0) == pytest.approx(th_m, abs=1e-12)
    # discarding down to the exact-cloning rate pushes the pair to the target
    p_min = exact_clone_probability(math.pi / 8, 1, 2)
    assert separated_angle(th_m, th_n, p_min) == pytest.approx(th_n, abs=1e-12)


def test_separated_angle_interior_value():
    th_m, th_n = math.pi / 8, angle_for_copies(math.pi / 8, 2)
    tilde = separated_angle(th_m, th_n, 0.8)
    assert math.cos(2 * tilde) == pytest.approx(TILDE_COS_08, abs=1e-14)
    assert tilde == pytest.approx(TILDE_THETA_08, abs=1e-14)


def test_separated_angle_rejects_out_of_range_rate():
    th_m, th_n = math.pi / 8, angle_for_copies(math.pi / 8, 2)
    p_min = exact_clone_probability(math.pi / 8, 1, 2)
    with pytest.raises(ValueError):
        separated_angle(th_m, th_n, p_min - 1e-3)
    with pytest.raises(ValueError):
        separated_angle(th_m, th_n, 1.1)


# ------------------------------------------------------------ hybrid bounds


def test_hybrid_bound_endpoints():
    point = hybrid_fidelity_bound(math.pi / 8, 1, 2, 1.0)
    assert isinstance(point, TradeoffPoint)
    assert point.fidelity_bound == pytest.approx(F12_EQUAL, abs=1e-14)
    point = hybrid_fidelity_bound(math.pi / 8, 1, 2, P12)
    assert point.fidelity_bound == pytest.approx(1.0, abs=1e-12)


def test_hybrid_bound_interior_value():
    point = hybrid_fidelity_bound(math.pi / 8, 1, 2, 0.8)
    assert point.p_success == pytest.approx(0.8)
    assert point.fidelity_bound == pytest.approx(F_HYBRID_08, abs=1e-14)


def test_hybrid_bound_monotone_decreasing_in_rate():
    rates = np.linspace(P12, 1.0, 40)
    fids = [hybrid_fidelity_bound(math.pi / 8, 1, 2, p).fidelity_bound for p in rates]
    assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))


def test_hybrid_limit_endpoints():
    p_idp = idp_probability(S8)
    assert hybrid_limit(p_idp, p_idp) == pytest.approx(1.0, abs=1e-14)
    # at unit rate the many-copy limit collapses onto the discrimination bound
    assert hybrid_limit(1.0, p_idp) == pytest.approx(
        helstrom_bound(0.5, S8), abs=1e-14
    )


def test_hybrid_bound_converges_to_limit_moderate_angle():
    """At theta = 3pi/16 the N = 40 curve sits on its limit to better than 1e-8."""
    theta = 3 * math.pi / 16
    p_idp = idp_probability(math.cos(2 * theta))
    start = exact_clone_probability(theta, 1, 40)  # curve domain begins here
    for p_s in np.linspace(start, 1.0, 9):
        point = hybrid_fidelity_bound(theta, 1, 40, float(p_s))
        assert abs(point.fidelity_bound - hybrid_limit(float(p_s), p_idp)) < 1e-8


def test_hybrid_bound_converges_to_limit_small_angle():
    # at pi/8 convergence is slower: N = 40 only reaches ~3e-7, N = 60 passes 1e-8
    theta = math.pi / 8
    p_idp = idp_probability(math.cos(2 * theta))
    for n, tol in [(40, 1e-6), (60, 1e-8)]:
        start = exact_clone_probability(theta, 1, n)
        for p_s in np.linspace(start, 1.0, 9):
            point = hybrid_fidelity_bound(theta, 1, n, float(p_s))
            assert abs(point.fidelity_bound - hybrid_limit(float(p_s), p_idp)) < tol


def test_bound_converges_to_helstrom():
    for theta in (math.pi / 8, 3 * math.pi / 16, math.pi / 4):
        for eta in (0.5, 0.7):
            prob = problem(theta, 1, 50, eta)
            target = helstrom_bound(eta, math.cos(2 * theta))
            assert abs(fidelity_bound(prob) - target) < 1e-6


# ------------------------------------------------- single-gate cloner marks


def test_d_cloner_fidelities():
    assert d_cloner_local_fidelity(math.pi / 6, math.pi / 8) == pytest.approx(
        math.cos(math.pi / 24), abs=1e-15
    )
    assert d_cloner_global_fidelity(math.pi / 6, math.pi / 8) == pytest.approx(
        math.cos(math.pi / 24) ** 2, abs=1e-15
    )
    assert d_cloner_local_fidelity(math.pi / 8, math.pi / 8) == pytest.approx(1.0)


# -------------------------------------------------------------- value types


def test_optimal_angles_is_frozen():
    angles = OptimalAngles(0.1, -0.1)
    with pytest.raises(Exception):
        angles.phi_plus = 0.2


def test_tradeoff_point_fields():
    point = TradeoffPoint(0.8, 0.99)
    assert point.p_success == 0.8
    assert point.fidelity_bound == 0.99
