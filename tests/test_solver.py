from collections import Counter
from fractions import Fraction

import pytest

from fourops import solver
from fourops.estermann import candidate_set, pick_descent_direction
from fourops.poly import NonFiniteObjectiveError, Polynomial
from fourops.sampling import SplitMix64, random_box_float
from fourops.scalars import ComplexScalar, ZERO
from fourops.solver import (
    DEFAULT_CONFIG,
    EXACT_MAX_DEGREE,
    FLOAT_ORIGIN,
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
    # one Newton step 0 -> 2 at r = 1: zeta = -P(0) conj(P'(0)) / |P'(0)|^2 = 2
    (step,) = trace.steps
    assert step.rule == "newton"
    assert step.direction.zeta == step.direction.zeta_pow_k == C(2.0, 0.0)
    assert (step.order, step.r_accepted, step.backtracks, step.m_bound) == (1, 1.0, 0, None)
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


def test_descend_max_outer_exhaustion(monkeypatch):
    monkeypatch.setattr(solver, "MAX_OUTER", 1)
    poly = P(1.0, 0.0, 1.0)
    with pytest.raises(ConvergenceError) as info:
        descend_to_root(poly, C(8.0, 0.0))
    err = info.value
    assert not err.trace.converged
    assert len(err.trace.steps) <= 1
    assert err.best_f <= poly.objective(C(8.0, 0.0))


def test_stop_test_past_the_float_range():
    # tol^2 * scale^2 overflows for all three; the stop reads f / (tol*scale)^2.
    # |P(0)| = 1e200 is far above tol * scale = 1e191: not a root.
    with pytest.raises((ConvergenceError, NonFiniteObjectiveError)):
        descend_to_root(P(1e200, 0.0, 1.0), C(0.0, 0.0))
    # |P(0)| / scale is about 5e-301 and 1e-200: 0 meets the contract.
    for coeffs in ((0.5, 1e300), (1.0, 1e200)):
        root, trace = descend_to_root(P(*coeffs), C(0.0, 0.0))
        assert trace.converged
        assert root == C(0.0, 0.0)
        assert trace.steps == ()


def test_decrease_bound_overflow_is_inf():
    # f(0) = (1e160)^2 is inf; the bound's float square overflows to inf
    # instead of raising, and the step to the root 1 is taken.
    root, trace = descend_to_root(P(-1e160, 1e160), C(0.0, 0.0))
    assert trace.converged
    assert root == C(1.0, 0.0)
    assert trace.steps[0].m_bound == INF


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


def small_rational(rng):
    return Fraction(int(rng.next_u64() % 11) - 5, 1 + int(rng.next_u64() % 3))


def test_exact_solve_escalates_off_the_real_axis():
    # Real coefficients make alpha real on the real axis, so an exact descent
    # from 0 steers along it toward the real critical point -2/3 of
    # z^2 + 4/3 z + 2 until the order-1 line search runs out; the round then
    # retries at the next nonzero order, whose direction leaves the axis.
    poly = P(2, Fraction(4, 3), 1)
    result = find_all_roots(poly)
    stop = (Fraction(DEFAULT_CONFIG.residual_tol) * poly.coeff_one_norm()) ** 2
    assert all(poly.objective(z) <= stop for z in result.roots)
    assert sorted(z.im > 0 for z in result.roots) == [False, True]
    assert "escalated" in [step.rule for step in result.traces[0].steps]


def test_exact_sweep_solves_with_monotone_certified_steps():
    # Seeded monic degree 1-4 rational polynomials: every solve succeeds, and
    # every step lowers f and meets the per-step certificate, checked in exact
    # rationals, escalated steps included.
    rng = SplitMix64(99)
    rules = Counter()
    backtracked = 0
    for _ in range(40):
        degree = 1 + int(rng.next_u64() % 4)
        result = find_all_roots(P(*[small_rational(rng) for _ in range(degree)], 1))
        for trace in result.traces:
            fs = [step.f_value for step in trace.steps] + [trace.final_f]
            assert all(isinstance(f, (int, Fraction)) for f in fs)
            assert all(b < a for a, b in zip(fs, fs[1:]))
            for step in trace.steps:
                rules[step.rule] += 1
                rate = directed_real_part(step)
                assert rate < 0
                if step.r_accepted < 1:
                    backtracked += 1
                    assert -2 * rate <= 3 * step.r_accepted * step.m_bound
    assert rules["escalated"] > 0 and rules["quadrant"] > 0 and backtracked > 0


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
    expected = [
        C(math.cos(2 * math.pi * j / 5), math.sin(2 * math.pi * j / 5)) for j in range(5)
    ]
    assert len(result.roots) == 5
    # Match each root to its nearest expected root: sorting both lists by
    # (re, im) mis-pairs a conjugate pair whose real parts differ in the
    # last ulp.
    nearest = []
    for got in result.roots:
        err, j = min(((got - want).one_norm(), j) for j, want in enumerate(expected))
        assert err < 1e-7
        nearest.append(j)
    assert sorted(nearest) == list(range(5))
    scale = 2.0
    assert all(r <= 1e-8 * scale for r in result.residual_one_norms)


def test_find_all_roots_is_deterministic():
    poly = P(0.5, -1.25, 2.0, 1.0)
    a = find_all_roots(poly)
    b = find_all_roots(poly)
    assert a.roots == b.roots
    assert a.iterations == b.iterations


def test_find_all_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        find_all_roots(Polynomial.from_scalars([5.0]))


def test_solve_error_carries_partial(monkeypatch):
    monkeypatch.setattr(solver, "MAX_OUTER", 1)
    with pytest.raises(SolveError) as info:
        find_all_roots(P(2.0, 0.0, 1.0))
    err = info.value
    assert err.partial.roots == ()
    assert isinstance(err.cause, ConvergenceError)
    assert err.partial.traces is not None
    assert any(not t.converged for t in err.partial.traces)


def test_objective_out_of_float_range_is_a_solve_error():
    # Re P(0) * Im P(0) overflows at the start 0.
    with pytest.raises(SolveError) as info:
        find_all_roots(P(C(1e160, 1e160), 1.0))
    err = info.value
    assert isinstance(err.cause, NonFiniteObjectiveError)
    assert err.partial.roots == ()
    assert err.partial.iterations == 0


def test_a_line_search_trial_past_the_float_range_is_a_failed_trial():
    # The second descent on the all-ones polynomial of degree 549 meets
    # trials such as 0.375 + 1.90625i, where |P|^2 overflows: the line
    # search halves r there and goes on, where it used to end the solve.
    poly = Polynomial.from_scalars([1.0] * 550)
    root, _ = descend_to_root(poly, FLOAT_ORIGIN)
    root, _ = descend_to_root(poly, root, phase="polish")
    work, _ = poly.deflate(root)
    _, trace = descend_to_root(work, FLOAT_ORIGIN)
    assert trace.converged and trace.steps[0].backtracks > 0


def test_steering_value_out_of_float_range_is_a_solve_error():
    # f(0) is finite, but alpha = conj(P(0)) * P'(0) overflows to
    # (inf, -9.6e113), so no float direction has Re[alpha * zeta] < 0.
    with pytest.raises(SolveError) as info:
        find_all_roots(P(1e308, C(2.843928618668299, -9.563391706754466e-195)))
    err = info.value
    assert isinstance(err.cause, NonFiniteObjectiveError)
    assert "no float descent direction" in str(err)
    assert err.partial.roots == ()
    assert err.partial.iterations == 0


def test_steering_value_underflow_is_a_solve_error():
    # P'(0) is nonzero, so the order at 0 is 1, but |P'(0)|^2 underflows, so
    # Newton declines, and alpha = conj(P(0)) * P'(0) underflows to 0: the
    # round passes over order 1 and has no higher order to move to.
    with pytest.raises(SolveError) as info:
        find_all_roots(P(8.85902118327365e-86, 1.2624436241066084e-286))
    err = info.value
    assert isinstance(err.cause, ConvergenceError)
    assert "at every usable order" in str(err)
    assert err.partial.roots == ()
    assert err.partial.iterations == 0


def test_escalation_steps_over_a_tiny_first_order():
    # At 0 the order of z^2 + 1e-20 z + 1 is 1, but no float step along
    # the real axis lowers f, so the first step escalates to order 2.
    result = find_all_roots(P(1.0, 1e-20, 1.0))
    assert result.roots == (C(-5e-21, -1.0), C(-5e-21, 1.0))
    first = result.traces[0].steps[0]
    assert (first.order, first.rule) == (2, "escalated")


def test_root_at_zero_has_a_zero_step_descent():
    result = find_all_roots(P(0.0, 0.0, -1.0, 1.0))  # z^2 (z - 1)
    zero = [t for t in result.traces if t.final_z == C(0.0, 0.0)]
    assert [(t.phase, t.steps, t.final_f, t.converged) for t in zero] == [
        ("descent", (), 0.0, True)
    ] * 2
    assert result.iterations == sum(len(t.steps) for t in result.traces)


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
    # No rounding to integers: the solve itself lands on the exact root.
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


def all_roots_nth_root(c, n):
    """The rule that one descent replaced: every root of z^n - c, then the
    one with Re > 0 and the least |Im|, checked as ``positive_nth_root``
    checks its root.  A failed solve gives the type of its cause."""
    poly = P(-c, *[0.0] * (n - 1), 1.0)
    try:
        roots = find_all_roots(poly).roots
    except SolveError as err:
        return type(err.cause).__name__
    on_axis = [z for z in roots if z.re > 0]
    if not on_axis:
        return "ArithmeticError"
    x = min(on_axis, key=lambda z: abs(z.im)).re
    power = 1.0
    for _ in range(n):
        power *= x
    allowance = DEFAULT_CONFIG.residual_tol * (1.0 + c)
    if (power - c) * (power - c) > allowance * allowance:
        return "ArithmeticError"
    return repr(x)


def test_nth_root_is_the_all_roots_answer_from_one_descent(monkeypatch):
    rng = SplitMix64(36)
    cases = []
    for n in (2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32, 48, 64):
        for _ in range(11):
            e = -8 + 14 * rng.unit_float()
            cases.append((min((1 + rng.unit_float()) * 10**e, 2e6), n))
    want = [all_roots_nth_root(c, n) for c, n in cases]
    calls = []
    monkeypatch.setattr(solver, "find_all_roots", lambda *args: calls.append(args))
    got = []
    for c, n in cases:
        try:
            got.append(repr(positive_nth_root(c, n)))
        except ArithmeticError as err:  # NonFiniteObjectiveError included
            got.append(type(err).__name__)
        except ConvergenceError:
            got.append("ConvergenceError")
    assert got == want
    assert calls == []
    assert sum(w[0].isdigit() for w in want) >= 150


# ---------------------------------------------------------------------------
# direction choice is wired through (sanity link between modules)
# ---------------------------------------------------------------------------


def test_steps_record_the_picked_direction():
    # z^2 + 2 from 0: order 2 there, so the first step is a quadrant
    # candidate; Newton steps follow once the order is 1.
    _, trace = descend_to_root(P(2.0, 0.0, 1.0), C(0.0, 0.0))
    rules = [step.rule for step in trace.steps]
    assert rules[0] == "quadrant" and "newton" in rules
    for step in trace.steps:
        if step.rule == "newton":
            zeta = step.direction.zeta
            assert step.direction.zeta_pow_k == zeta and step.order == 1
            assert step.m_bound is None and step.r_accepted == 1.0
            # Re[alpha zeta] = -f for the Newton step
            assert directed_real_part(step) == pytest.approx(-step.f_value, rel=1e-12)
        else:
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
    ],
)
def test_solver_config_rejects_out_of_range(field, bad):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: bad})


def test_solver_config_has_no_step_schedule_setting():
    with pytest.raises(TypeError):
        SolverConfig(step_init=0.75)


def test_solver_config_has_no_shrink_limit_setting():
    # Neither limit is a setting: the round limit is the constant MAX_OUTER.
    with pytest.raises(TypeError):
        SolverConfig(max_backtracks=0)
    with pytest.raises(TypeError):
        SolverConfig(max_outer=1)


def test_solver_config_accepts_the_edges(monkeypatch):
    config = SolverConfig(residual_tol=1e-300)
    # The smallest limits still run: one round per root.
    monkeypatch.setattr(solver, "MAX_OUTER", 1)
    with pytest.raises(SolveError):
        find_all_roots(P(2.0, 0.0, 1.0), config)


@pytest.mark.parametrize("tol", [1e-12, 1e-9])
def test_every_returned_root_meets_the_residual_target(tol):
    # Residual one-norm <= sqrt(2) * |P(z)| <= sqrt(2) * tol * scale whenever
    # f <= (tol * scale)^2; a solve that cannot get there raises instead.
    rng = SplitMix64(77)
    config = SolverConfig(residual_tol=tol)
    solved = 0
    for degree in range(1, 33):
        roots = [C(random_box_float(rng, 2.0), random_box_float(rng, 2.0)) for _ in range(degree)]
        poly = Polynomial.from_roots(roots)
        try:
            result = find_all_roots(poly, config)
        except SolveError:
            continue
        solved += 1
        assert len(result.roots) == degree
        bound = 2 * tol * poly.coeff_one_norm()
        assert all(r <= bound for r in result.residual_one_norms), degree
    assert solved >= 16


def test_newton_rounds_build_no_taylor_shift(monkeypatch):
    # A float round builds the O(n^2) shift only when its Newton step is
    # not taken, so the shifts counted equal the descent steps not Newton's.
    calls = []
    shifted = solver.shifted

    def counting(coeffs, w):
        calls.append(w)
        return shifted(coeffs, w)

    monkeypatch.setattr(solver, "shifted", counting)
    rng = SplitMix64(1)
    roots = [C(random_box_float(rng, 2.0), random_box_float(rng, 2.0)) for _ in range(24)]
    result = find_all_roots(Polynomial.from_roots(roots))
    steps = [s for t in result.traces if t.phase == "descent" for s in t.steps]
    assert len(calls) == sum(s.rule != "newton" for s in steps) > 0
    assert len(steps) > 4 * len(calls)

