from fractions import Fraction

import pytest

from fourops.estermann import candidate_set, pick_descent_direction
from fourops.poly import NonFiniteObjectiveError, Polynomial
from fourops.sampling import SplitMix64, random_box_float
from fourops.scalars import ComplexScalar, ZERO
from fourops.solver import (
    EXACT_MAX_DEGREE,
    ConvergenceError,
    SolveError,
    SolverConfig,
    certified_decrease_bound,
    descend_to_root,
    find_all_roots,
    positive_nth_root,
)


def C(re, im=0):
    return ComplexScalar(re, im)


def P(*coeffs):
    return Polynomial.from_scalars(list(coeffs))


def directed_real_part(step):
    zk = step.direction.zeta_pow_k
    return step.alpha.re * zk.re - step.alpha.im * zk.im


# ---------------------------------------------------------------------------
# the per-step majorant
# ---------------------------------------------------------------------------


def test_certified_decrease_bound_hand_value():
    # z^2 + 1 recentred at 1: P(1+h) = 2 + 2h + h^2, so k = 1, Q = (2, 1).
    # Stepping along -1 (one_norm 1): M1 = 2 * 1 * 1 = 2, M2 = (2+1)^2 = 9,
    # M = 2*2 + 9 = 13.
    shift = P(1, 0, 1).taylor_shift(C(1))
    minus_one = candidate_set(1)[1]
    assert certified_decrease_bound(shift, minus_one) == 13


def test_certified_decrease_bound_constant_quotient():
    # z^2 + 1 at 0: k = 2, Q = (1,), so M1 = 0 and M reduces to
    # (one_norm(zeta)^k * |Q0|)^2.
    shift = P(1, 0, 1).taylor_shift(ZERO)
    unit, upper, _ = candidate_set(2)
    assert certified_decrease_bound(shift, unit) == 1
    assert certified_decrease_bound(shift, upper) == Fraction(2401, 256)  # (7/4)^4


# ---------------------------------------------------------------------------
# single descent runs
# ---------------------------------------------------------------------------


def test_descend_linear_float():
    root, trace = descend_to_root(P(-2.0, 1.0), C(0.0, 0.0))
    assert root == C(2.0, 0.0)
    assert trace.converged
    assert len(trace.steps) == 2  # 0 -> 1 -> 2, both at full step r = 1
    assert trace.final_f == 0.0


def test_descend_starting_at_root():
    root, trace = descend_to_root(P(-2.0, 1.0), C(2.0, 0.0))
    assert root == C(2.0, 0.0)
    assert trace.steps == ()
    assert trace.converged


def test_descend_quadratic_trace_invariants():
    poly = P(1.0, 0.0, 1.0)
    root, trace = descend_to_root(poly, C(1.0, 0.0))
    assert min((root - C(0.0, 1.0)).one_norm(), (root - C(0.0, -1.0)).one_norm()) < 1e-8
    fs = [s.f_value for s in trace.steps] + [trace.final_f]
    assert all(b < a for a, b in zip(fs, fs[1:]))  # strict monotone decrease
    for step in trace.steps:
        assert directed_real_part(step) < 0
        assert step.order >= 1
        assert 0 < step.r_accepted <= 1


def test_descend_certificate_on_backtracked_steps():
    # Whenever a step was accepted at r < 1, the rejected trial at 2r forces
    # -2 Re[alpha zeta^k] <= 3 r M.
    checked = 0
    for coeffs, start in (
        ((2.0, 0.0, 1.0), C(1.5, 0.5)),
        ((1.0, 3.0, -2.0, 1.0), C(2.0, -1.0)),
        ((-1.0, 0.5, 0.0, 0.0, 1.0), C(0.75, 0.25)),
    ):
        _, trace = descend_to_root(P(*coeffs), start)
        for step in trace.steps:
            if step.r_accepted < 1.0:
                checked += 1
                assert -2 * directed_real_part(step) <= 3 * step.r_accepted * step.m_bound
    assert checked > 0


def test_descend_max_outer_exhaustion():
    poly = P(1.0, 0.0, 1.0)
    with pytest.raises(ConvergenceError) as info:
        descend_to_root(poly, C(8.0, 0.0), SolverConfig(max_outer=1))
    err = info.value
    assert not err.trace.converged
    assert len(err.trace.steps) <= 1
    assert err.best_f <= poly.objective(C(8.0, 0.0))


def test_descend_exact_linear():
    root, trace = descend_to_root(P(-2, 1), ZERO)
    assert root == C(2)
    assert root.is_exact()
    assert trace.final_f == 0
    assert trace.converged


def test_descend_rejects_degree_zero():
    with pytest.raises(ValueError):
        descend_to_root(Polynomial.from_scalars([3.0]), C(0.0, 0.0))


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------


def test_find_all_roots_exact_quadratics():
    result = find_all_roots(P(2, -3, 1))  # (z-1)(z-2)
    assert result.roots == (C(1), C(2))
    assert result.residual_one_norms == (0, 0)
    result = find_all_roots(P(1, 0, 1))  # roots -i, i; sorted by (re, im)
    assert result.roots == (C(0, -1), C(0, 1))
    assert result.residual_one_norms == (0, 0)


def test_exact_degree_gate():
    coeffs = [1, 0, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        find_all_roots(P(*coeffs))
    with pytest.raises(ValueError):
        descend_to_root(P(*coeffs), ZERO)
    assert EXACT_MAX_DEGREE == 4


def test_find_all_roots_float_cubic():
    poly = P(-6.0, 11.0, -6.0, 1.0)  # roots 1, 2, 3
    result = find_all_roots(poly, SolverConfig(residual_tol=1e-11))
    assert len(result.roots) == 3
    for got, want in zip(result.roots, (C(1.0, 0.0), C(2.0, 0.0), C(3.0, 0.0))):
        assert (got - want).one_norm() < 1e-7
    scale = poly.coeff_one_norm()
    assert all(r <= 1e-8 * scale for r in result.residual_one_norms)
    assert result.iterations > 0
    assert result.traces is not None
    assert {t.phase for t in result.traces} <= {"descent", "polish"}


def test_find_all_roots_monomial():
    result = find_all_roots(P(0.0, 0.0, 0.0, 1.0))
    assert result.roots == (C(0.0, 0.0),) * 3
    assert result.iterations == 0


def test_find_all_roots_mixed_zero_root():
    result = find_all_roots(P(0.0, 0.0, -1.0, 1.0))  # z^2 (z - 1)
    assert result.roots[:2] == (C(0.0, 0.0), C(0.0, 0.0))
    assert (result.roots[2] - C(1.0, 0.0)).one_norm() < 1e-8


def test_find_all_roots_fifth_roots_of_unity():
    # After the real root 1 is deflated away, the remaining quartic has a
    # near-critical point on the real axis; descent must escalate past the
    # numerically stranded first-order coefficient and leave the axis.
    import math

    result = find_all_roots(P(-1.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    expected = sorted(
        (math.cos(2 * math.pi * j / 5), math.sin(2 * math.pi * j / 5))
        for j in range(5)
    )
    assert len(result.roots) == 5
    for got, (re, im) in zip(result.roots, expected):
        assert (got - C(re, im)).one_norm() < 1e-7
    scale = 2.0
    assert all(r <= 1e-8 * scale for r in result.residual_one_norms)


def test_find_all_roots_is_deterministic():
    poly = P(0.5, -1.25, 2.0, 1.0)
    a = find_all_roots(poly)
    b = find_all_roots(poly)
    assert a.roots == b.roots
    assert a.iterations == b.iterations


def test_keep_traces_off():
    result = find_all_roots(P(-6.0, 11.0, -6.0, 1.0), SolverConfig(keep_traces=False))
    assert result.traces is None


def test_find_all_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        find_all_roots(Polynomial.from_scalars([5.0]))


def test_solve_error_carries_partial():
    with pytest.raises(SolveError) as info:
        find_all_roots(P(2.0, 0.0, 1.0), SolverConfig(max_outer=1))
    err = info.value
    assert err.partial.roots == ()
    assert isinstance(err.cause, ConvergenceError)
    assert err.partial.traces is not None
    assert any(not t.converged for t in err.partial.traces)


def test_objective_out_of_float_range_is_a_solve_error():
    with pytest.raises(SolveError) as info:
        find_all_roots(P(1e300, 1.0))
    err = info.value
    assert isinstance(err.cause, NonFiniteObjectiveError)
    assert err.partial.roots == ()
    assert err.partial.iterations == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_find_all_roots_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="coefficient 1 "):
        find_all_roots(P(1.0, C(0.5, bad), 1.0))


def test_vieta_on_random_monic_polynomials():
    rng = SplitMix64(41)
    config = SolverConfig(residual_tol=1e-11)
    for _ in range(25):
        degree = 2 + int(rng.next_u64() % 7)  # 2 .. 8
        true_roots = [
            C(random_box_float(rng, 2.0), random_box_float(rng, 2.0))
            for _ in range(degree)
        ]
        poly = Polynomial.from_roots(true_roots)
        result = find_all_roots(poly, config)
        total = C(0.0, 0.0)
        product = C(1.0, 0.0)
        for z in result.roots:
            total = total + z
            product = product * z
        scale = poly.coeff_one_norm()
        # sum of roots = -a_{n-1}, product = (-1)^n a_0 for monic P
        assert (total + poly.coeffs[degree - 1]).one_norm() <= 1e-6 * scale
        signed = product if degree % 2 == 0 else -product
        assert (signed - poly.coeffs[0]).one_norm() <= 1e-6 * scale


# ---------------------------------------------------------------------------
# real roots of z^n - c
# ---------------------------------------------------------------------------


def bisect_nth_root(c, n):
    lo, hi = 0.0, max(1.0, c)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid**n <= c:
            lo = mid
        else:
            hi = mid
    return lo


def test_nth_root_against_bisection():
    for c, n in ((2.0, 2), (2.0, 3), (10.0, 3), (0.5, 2)):
        got = positive_nth_root(c, n)
        assert abs(got - bisect_nth_root(c, n)) <= 1e-9, (c, n)


def test_nth_root_perfect_powers_snap():
    assert positive_nth_root(4.0, 2) == 2.0
    assert positive_nth_root(8.0, 3) == 2.0
    assert positive_nth_root(81.0, 4) == 3.0
    assert positive_nth_root(1.0, 5) == 1.0


def test_nth_root_rejects_bad_input():
    with pytest.raises(ValueError):
        positive_nth_root(0.0, 2)
    with pytest.raises(ValueError):
        positive_nth_root(-3.0, 2)
    with pytest.raises(ValueError):
        positive_nth_root(float("inf"), 2)
    with pytest.raises(ValueError):
        positive_nth_root(2.0, 1)
    with pytest.raises(ValueError):
        positive_nth_root(2.0, True)


# ---------------------------------------------------------------------------
# direction choice is wired through (sanity link between modules)
# ---------------------------------------------------------------------------


def test_steps_record_the_picked_direction():
    _, trace = descend_to_root(P(2.0, 0.0, 1.0), C(1.5, 0.5))
    for step in trace.steps:
        assert step.direction == pick_descent_direction(step.alpha, step.order)


# ---------------------------------------------------------------------------
# solver settings
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, bad",
    [
        ("residual_tol", 0.0),
        ("residual_tol", -1e-9),
        ("residual_tol", INF),
        ("residual_tol", NAN),
        ("step_init", 0.0),
        ("step_init", -1.0),
        ("step_init", INF),
        ("step_init", NAN),
        ("step_shrink", 0.0),
        ("step_shrink", 1.0),
        ("step_shrink", 1.5),
        ("step_shrink", NAN),
        ("max_outer", 0),
        ("max_outer", -1),
        ("max_outer", 2.5),
        ("max_backtracks", -1),
        ("max_backtracks", 1.5),
    ],
)
def test_solver_config_rejects_out_of_range(field, bad):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: bad})


def test_solver_config_accepts_the_edges():
    config = SolverConfig(residual_tol=1e-300, step_shrink=0.999, max_outer=1, max_backtracks=0)
    assert config.max_backtracks == 0
    # The smallest limits still run: one round, a single trial per order.
    with pytest.raises(SolveError):
        find_all_roots(P(2.0, 0.0, 1.0), config)
