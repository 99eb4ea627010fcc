"""The solver's descent round, polish and start rule against reference
loops written on plain ``ComplexScalar`` arithmetic, compared by ``repr``
of the whole trace (every ``DescentStep``, signed zeros and float bits
included) and the steering rule of every step.

The reference is the round as the solver's docstring states it: Taylor
shift by repeated synthetic division, the order as the first nonzero
coefficient past the constant, in floats the Newton step
zeta = -b0 conj(b1) / |b1|^2 taken at r = 1 when it halves f, else
alpha = conj(P(z)) * Q(0), the steepest candidate, the bound M, and the
backtracking line search with its sufficient-decrease test, where a
trial whose objective leaves the float range fails as a Newton trial
does, plus the retry at the next nonzero order when the line search runs out or alpha
underflows to 0, in both backends.  The float polish is Newton
steps on P and P' from a two-row Horner pass while f falls, checked
against the residual target at the end.  Every descent starts at 0: exact
0 for an exact polynomial, 0.0 otherwise.  The solver runs the same
formulas on builtin ``complex`` for float points; these tests pin that
the iterates do not move.
"""

from fractions import Fraction

import pytest

from fourops import solver
from fourops.estermann import DirectionCandidate, candidate_set
from fourops.poly import NonFiniteObjectiveError, Polynomial
from fourops.sampling import SplitMix64, random_float_complex
from fourops.scalars import ComplexScalar, ZERO
from fourops.solver import (
    EXACT_MAX_BACKTRACKS,
    EXACT_MAX_OUTER,
    POLISH_MAX_OUTER,
    ConvergenceError,
    DescentStep,
    DescentTrace,
    SolverConfig,
    descend_to_root,
    descent_start,
    find_all_roots,
)


def C(re, im=0):
    return ComplexScalar(re, im)


# ---------------------------------------------------------------------------
# the reference round, on ComplexScalar only
# ---------------------------------------------------------------------------


def ref_objective(p, z):
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + c
    prod = acc * acc.conj()
    if prod.im != 0:
        raise NonFiniteObjectiveError(f"objective at {z!r} is not a finite real number")
    return prod.re


def ref_shift(p, z0):
    """(b, order) with P(z0 + h) = sum_j b_j h^j and order the first j >= 1
    with b_j != 0."""
    n = p.degree
    b = list(p.coeffs)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            b[j] = b[j] + z0 * b[j + 1]
    return b, next(j for j in range(1, n + 1) if not b[j].is_zero)


def ref_pick(alpha, k):
    float_mode = isinstance(alpha.re, float) or isinstance(alpha.im, float)
    candidates = candidate_set(k)
    if float_mode:
        candidates = [c.to_float() for c in candidates]
    best = best_ratio = best_num = None
    for cand in candidates:
        zk = cand.zeta_pow_k
        num = alpha.re * zk.re - alpha.im * zk.im
        ratio = num / (alpha.one_norm() * zk.one_norm())
        if best_ratio is None or ratio < best_ratio:
            best, best_ratio, best_num = cand, ratio, num
    assert best_num < 0
    return best, best_num


def ref_bound(base, quotient, zeta, k):
    zeta_norm = zeta.one_norm()
    weighted_rest, weight = 0, 1
    for c in quotient[1:]:
        weighted_rest = weighted_rest + c.one_norm() * weight
        weight = weight * zeta_norm
    weighted_all, weight = 0, 1
    for c in quotient:
        weighted_all = weighted_all + c.one_norm() * weight
        weight = weight * zeta_norm
    zeta_norm_k = zeta_norm**k
    m1 = base.one_norm() * zeta_norm_k * zeta_norm * weighted_rest
    try:
        m2 = (zeta_norm_k * weighted_all) ** 2
    except OverflowError:  # float ** raises where * gives inf
        m2 = float("inf")
    return 2 * m1 + m2


def ref_newton(b0, b1):
    """(alpha, zeta) of the Newton step, or None where the solver skips it."""
    d = b1.re * b1.re + b1.im * b1.im
    if not 0 < d < float("inf"):
        return None
    num = b0 * b1.conj()
    zeta = C(-num.re / d, -num.im / d)
    alpha = b0.conj() * b1
    if not alpha.re * zeta.re - alpha.im * zeta.im < 0:
        return None
    return alpha, zeta


def newton_step(z, f_z, alpha, zeta):
    return DescentStep(z, f_z, 1, alpha, DirectionCandidate(zeta, zeta), 1.0, 0, None, "newton")


def ref_value_and_slope(p, z):
    value = slope = p.coeffs[-1]
    for c in reversed(p.coeffs[1:-1]):
        value = value * z + c
        slope = slope * z + value
    return value * z + p.coeffs[0], slope


def ref_square(value, z):
    prod = value * value.conj()
    if prod.im != 0:
        raise NonFiniteObjectiveError(f"objective at {z!r} is not a finite real number")
    return prod.re


def ref_polish(p, z_start, stop):
    """The float polish: Newton steps while f > 0 and each step lowers f."""
    z = z_start.to_float()
    value, slope = ref_value_and_slope(p, z)
    f_z = ref_square(value, z)
    steps = []
    while f_z != 0 and len(steps) < POLISH_MAX_OUTER:
        newton = ref_newton(value, slope)
        if newton is None:
            break
        alpha, zeta = newton
        trial = C(z.re + zeta.re, z.im + zeta.im)
        trial_value, trial_slope = ref_value_and_slope(p, trial)
        try:
            f_trial = ref_square(trial_value, trial)
        except NonFiniteObjectiveError:
            break
        if not f_trial < f_z:
            break
        steps.append(newton_step(z, f_z, alpha, zeta))
        z, value, slope, f_z = trial, trial_value, trial_slope, f_trial
    trace = DescentTrace(z_start, tuple(steps), z, f_z, f_z <= stop, "polish")
    if not trace.converged:
        raise ConvergenceError("polish", z, f_z, trace)
    return z, trace


def ref_descend(p, z_start, config=SolverConfig(), phase="descent", escalations=None):
    exact = p.is_exact() and z_start.is_exact()
    step_init, shrink, tol = 1.0, 0.5, config.residual_tol
    max_outer = POLISH_MAX_OUTER if phase == "polish" else solver.MAX_OUTER
    max_backtracks = 200
    if exact:
        step_init, shrink, tol = Fraction(1), Fraction(1, 2), Fraction(tol)
        max_outer = min(max_outer, EXACT_MAX_OUTER)
        max_backtracks = EXACT_MAX_BACKTRACKS
    scale = p.coeff_one_norm()
    stop = tol * tol * scale * scale
    if phase == "polish" and not exact:
        return ref_polish(p.to_float(), z_start, stop)
    z = z_start
    f_z = ref_objective(p, z)
    best_z, best_f = z, f_z
    steps = []
    while f_z > stop:
        if len(steps) >= max_outer:
            trace = DescentTrace(z_start, tuple(steps), z, f_z, False, phase)
            raise ConvergenceError("max_outer", best_z, best_f, trace)
        b, order = ref_shift(p, z)
        detected = order
        newton = None if exact else ref_newton(b[0], b[1])
        if newton is not None:
            alpha, zeta = newton
            trial = C(z.re + zeta.re, z.im + zeta.im)
            try:
                f_trial = ref_objective(p, trial)
            except NonFiniteObjectiveError:
                f_trial = None
            if f_trial is not None and f_trial < f_z and f_trial <= f_z / 2:
                steps.append(newton_step(z, f_z, alpha, zeta))
                z, f_z = trial, f_trial
                continue
        accepted = None
        while accepted is None:
            alpha = b[0].conj() * b[order]
            if not alpha.is_zero:
                cand, num = ref_pick(alpha, order)
                r = step_init
                for backtracks in range(max_backtracks + 1):
                    trial = C(z.re + cand.zeta.re * r, z.im + cand.zeta.im * r)
                    try:
                        f_trial = ref_objective(p, trial)
                    except NonFiniteObjectiveError:
                        f_trial = None
                    if (
                        f_trial is not None
                        and f_trial < f_z
                        and 2 * (f_z - f_trial) >= r**order * -num
                    ):
                        accepted = (trial, f_trial, r, backtracks)
                        break
                    r = r * shrink
            if accepted is None:
                higher = [j for j in range(order + 1, len(b)) if not b[j].is_zero]
                if not higher:
                    trace = DescentTrace(z_start, tuple(steps), z, f_z, False, phase)
                    raise ConvergenceError("exhausted", best_z, best_f, trace)
                order = higher[0]
                if escalations is not None:
                    escalations.append(order)
        m_bound = ref_bound(b[0], b[order:], cand.zeta, order)
        if order != detected:
            rule = "escalated"
        elif order % 2 == 0 and cand.zeta.im != 0:
            rule = "quadrant"
        else:
            rule = "unit"
        steps.append(
            DescentStep(z, f_z, order, alpha, cand, accepted[2], accepted[3], m_bound, rule)
        )
        z, f_z = accepted[0], accepted[1]
        if f_z < best_f:
            best_z, best_f = z, f_z
    return z, DescentTrace(z_start, tuple(steps), z, f_z, True, phase)


def ref_start(p):
    return C(0, 0) if p.is_exact() else C(0.0, 0.0)


def ref_find_all_roots(p, config, escalations):
    """Roots in the order found, and the traces, as ``find_all_roots`` keeps
    them.  A root at 0 is no special case: its descent takes no step."""
    roots, traces = [], []
    work = p
    while work.degree >= 1:
        root, trace = ref_descend(work, ref_start(work), config, escalations=escalations)
        traces.append(trace)
        root, polish = ref_descend(p, root, config, "polish", escalations)
        if polish.steps:
            traces.append(polish)
        roots.append(root)
        work, _ = work.deflate(root)
    return roots, traces


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def rules(trace):
    return [step.rule for step in trace.steps]


def outcome(fn, *args):
    """repr of the result and the rule of every step, or of the error with
    its trace, the trace's rules and the best point."""
    try:
        z, trace = fn(*args)
        return repr((z, trace, rules(trace)))
    except ConvergenceError as err:
        return repr(("ConvergenceError", err.best_z, err.best_f, err.trace, rules(err.trace)))
    except NonFiniteObjectiveError as err:
        return repr(("NonFiniteObjectiveError", str(err)))


def seeded_float_polys():
    rng = SplitMix64(61)
    for degree in range(1, 33):
        roots = [random_float_complex(rng, 2.0) for _ in range(degree)]
        yield Polynomial.from_roots(roots), roots


@pytest.fixture
def short(monkeypatch):
    """Descents stopped after 150 rounds, in the solver and the reference."""
    monkeypatch.setattr(solver, "MAX_OUTER", 150)


def test_every_descent_starts_at_the_origin():
    # Exact descents start at exact 0, also where the start scan this rule
    # replaced picked a point away from it (2 for z^3 - 8, 2i for z^2 + 5),
    # and float descents at 0.0.
    for coeffs in ([-8, 0, 0, 1], [5, 0, 1], [Fraction(1, 3), Fraction(-2, 7), 1]):
        traces = find_all_roots(Polynomial.from_scalars(coeffs)).traces
        starts = {repr(t.start) for t in traces if t.phase == "descent"}
        assert starts == {"ComplexScalar(re=0, im=0)"}
    for p, _ in list(seeded_float_polys())[:8]:
        assert repr(descent_start(p)) == repr(C(0.0, 0.0))
        traces = find_all_roots(p).traces
        starts = {repr(t.start) for t in traces if t.phase == "descent"}
        assert starts == {"ComplexScalar(re=0.0, im=0.0)"}


def test_descent_from_origin_and_fixed_points_matches_reference(short):
    kinds = set()
    for p, _ in seeded_float_polys():
        for start in (ref_start(p), C(1.5, -0.5), C(-0.0, 3.0)):
            got = outcome(descend_to_root, p, start)
            assert got == outcome(ref_descend, p, start)
            kinds.update(kind for kind in ("newton", "unit") if f"'{kind}'" in got)
    assert kinds == {"newton", "unit"}


def test_polish_phase_matches_reference():
    config = SolverConfig(residual_tol=1e-14)
    rng = SplitMix64(62)
    compared = 0
    failed = 0
    for p, roots in seeded_float_polys():
        for root in roots[:2]:
            start = root + random_float_complex(rng, 1e-6)
            got = outcome(descend_to_root, p, start, config, "polish")
            assert got == outcome(ref_descend, p, start, config, "polish")
            compared += 1
            failed += got.startswith("('ConvergenceError'")
    assert compared > 30
    assert 0 < failed < compared  # both ends of the residual check are reached


def test_fifth_roots_escalation_matches_reference():
    p = Polynomial.from_scalars([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    config = SolverConfig()
    escalations = []
    roots, traces = ref_find_all_roots(p, config, escalations)
    assert escalations  # the stranded-order retry is exercised
    result = find_all_roots(p, config)
    assert repr(result.traces) == repr(tuple(traces))
    assert repr(result.roots) == repr(tuple(sorted(roots, key=lambda z: (z.re, z.im))))


def test_float_polynomial_at_int_point_matches_reference(short):
    # The reference runs its first round on ComplexScalar (int parts) and the
    # solver on complex: the bits agree.
    for p, _ in list(seeded_float_polys())[:12]:
        for start in (C(0, 0), C(1, -1), ZERO):
            assert outcome(descend_to_root, p, start) == outcome(ref_descend, p, start)


def test_fraction_polynomial_matches_reference():
    polys = [
        Polynomial.from_scalars([Fraction(1, 3), Fraction(-2, 7), 1]),
        Polynomial.from_scalars([Fraction(5, 3), 0, Fraction(-2, 7), Fraction(3, 2)]),
        Polynomial.from_scalars([1, 0, 0, 0, 1]),
        Polynomial.from_scalars([2, Fraction(4, 3), 1]),
    ]
    for p in polys:
        # float points: complex kernels on the converted coefficients, with
        # the leading coefficient's own Fraction norm
        for start in (C(0.5, 0.25), C(0.0, 0.0), C(-1.25, 2.0)):
            assert outcome(descend_to_root, p, start) == outcome(ref_descend, p, start)
        # exact points: the same round in exact rationals
        for start in (C(Fraction(1, 2), Fraction(1, 3)), C(0, 0)):
            assert outcome(descend_to_root, p, start) == outcome(ref_descend, p, start)
    # A whole exact solve whose first descent retries at the next order.
    escalations = []
    roots, traces = ref_find_all_roots(polys[-1], SolverConfig(), escalations)
    assert escalations
    result = find_all_roots(polys[-1])
    assert repr(result.traces) == repr(tuple(traces))
    assert repr(result.roots) == repr(tuple(sorted(roots, key=lambda z: (z.re, z.im))))


def test_roots_at_zero_match_reference():
    # A root at 0 takes a 0-step descent from the start 0, since f(0) = 0
    # meets the stop test, and a division by z - 0, like any other root.
    rng = SplitMix64(63)
    polys = []
    for degree in range(1, 9):
        roots = [random_float_complex(rng, 2.0) for _ in range(degree)]
        polys.append(Polynomial.from_roots([C(0.0, 0.0)] * (1 + degree % 3) + roots))
    for degree in range(1, 4):
        roots = [
            C(Fraction(rng.next_u64() % 7 - 3, 1 + rng.next_u64() % 4), rng.next_u64() % 3 - 1)
            for _ in range(degree)
        ]
        polys.append(Polynomial.from_roots([C(0, 0)] * (4 - degree) + roots))
    # int and Fraction coefficients mixed: z^2 (z^2 + 4/3 z + 2), whose
    # first nonzero descent escalates.
    polys.append(Polynomial.from_scalars([0, 0, 2, Fraction(4, 3), 1]))
    for p in polys:
        roots, traces = ref_find_all_roots(p, SolverConfig(), None)
        result = find_all_roots(p)
        assert repr(result.traces) == repr(tuple(traces))
        assert repr(result.roots) == repr(tuple(sorted(roots, key=lambda z: (z.re, z.im))))
        assert result.iterations == sum(len(t.steps) for t in traces)
        at_zero = sum(1 for z in result.roots if z.is_zero)
        assert sum(1 for t in result.traces if not t.steps) >= at_zero > 0


def test_non_finite_objective_message_matches_reference():
    # The start: Re P(0) * Im P(0) overflows, in the descent and the polish.
    p = Polynomial((C(1e160, 1e160), C(1.0, 0.0)))
    for phase in ("descent", "polish"):
        with pytest.raises(NonFiniteObjectiveError) as start:
            descend_to_root(p, C(0.0, 0.0), SolverConfig(), phase)
        with pytest.raises(NonFiniteObjectiveError) as ref_start_error:
            ref_descend(p, C(0.0, 0.0), SolverConfig(), phase)
        assert str(start.value) == str(ref_start_error.value)
    # The line search: f at the start is about 1e300, the first trial
    # overflows and fails, and the search goes on at r = 1/2.
    q = Polynomial((C(1e150, 0.0), C(1e155, 1e155)))
    start = C(0.0, 0.0)
    got = outcome(descend_to_root, q, start)
    assert got == outcome(ref_descend, q, start)
    _, trace = descend_to_root(q, start)
    assert trace.converged and trace.steps[0].backtracks > 0
