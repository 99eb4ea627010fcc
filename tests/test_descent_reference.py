"""The solver's descent round and start scan against reference loops written
on plain ``ComplexScalar`` arithmetic, compared by ``repr`` of the whole
trace (every ``DescentStep``, signed zeros and float bits included).

The reference is the round as the solver's docstring states it: Taylor
shift by repeated synthetic division, the order by the float or exact
rule, alpha = conj(P(z)) * Q(0), the steepest candidate, the bound M, and
the backtracking line search with its sufficient-decrease test, plus the
float backend's retry at the next nonzero order.  The solver runs the same
formulas on builtin ``complex`` for float points; these tests pin that the
iterates do not move.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from fourops.estermann import candidate_set
from fourops.poly import REL_ZERO_EPS, NonFiniteObjectiveError, Polynomial
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
    _best_start,
    descend_to_root,
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


def ref_shift(p, z0, exact):
    """(b, order) with P(z0 + h) = sum_j b_j h^j."""
    n = p.degree
    b = list(p.coeffs)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            b[j] = b[j] + z0 * b[j + 1]
    if exact:
        return b, next(j for j in range(1, n + 1) if not b[j].is_zero)
    norms = [c.one_norm() for c in b]
    threshold = REL_ZERO_EPS * max(norms)
    order = next((j for j in range(1, n + 1) if norms[j] > threshold), None)
    if order is None:
        order = next(j for j in range(1, n + 1) if not b[j].is_zero)
    return b, order


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
    m2 = (zeta_norm_k * weighted_all) ** 2
    return 2 * m1 + m2


def ref_descend(p, z_start, config=SolverConfig(), phase="descent", escalations=None):
    exact = p.is_exact() and z_start.is_exact()
    step_init, shrink, tol = config.step_init, config.step_shrink, config.residual_tol
    max_outer, max_backtracks = config.max_outer, config.max_backtracks
    if exact:
        step_init, shrink, tol = Fraction(step_init), Fraction(shrink), Fraction(tol)
        max_outer = min(max_outer, EXACT_MAX_OUTER)
        max_backtracks = min(max_backtracks, EXACT_MAX_BACKTRACKS)
    scale = p.coeff_one_norm()
    stop = tol * tol * scale * scale
    z = z_start
    f_z = ref_objective(p, z)
    best_z, best_f = z, f_z
    steps = []
    while f_z > stop:
        if len(steps) >= max_outer:
            trace = DescentTrace(z_start, tuple(steps), z, f_z, False, phase)
            raise ConvergenceError("max_outer", best_z, best_f, trace)
        b, order = ref_shift(p, z, exact)
        accepted = None
        while accepted is None:
            alpha = b[0].conj() * b[order]
            cand, num = ref_pick(alpha, order)
            r = step_init
            for backtracks in range(max_backtracks + 1):
                trial = C(z.re + cand.zeta.re * r, z.im + cand.zeta.im * r)
                f_trial = ref_objective(p, trial)
                if f_trial < f_z and 2 * (f_z - f_trial) >= r**order * -num:
                    accepted = (trial, f_trial, r, backtracks)
                    break
                r = r * shrink
            else:
                higher = [j for j in range(order + 1, len(b)) if not b[j].is_zero]
                if exact or not higher:
                    trace = DescentTrace(z_start, tuple(steps), z, f_z, False, phase)
                    raise ConvergenceError("exhausted", best_z, best_f, trace)
                order = higher[0]
                if escalations is not None:
                    escalations.append(order)
        m_bound = ref_bound(b[0], b[order:], cand.zeta, order)
        steps.append(DescentStep(z, f_z, order, alpha, cand, accepted[2], accepted[3], m_bound))
        z, f_z = accepted[0], accepted[1]
        if f_z < best_f:
            best_z, best_f = z, f_z
    return z, DescentTrace(z_start, tuple(steps), z, f_z, True, phase)


def ref_best_start(p):
    exact = p.is_exact()
    radius = p.growth_radius()
    o = 0 if exact else 0.0
    points = [C(o, o)]
    for m in range(5):
        s = Fraction(radius, 2**m) if exact else radius / float(2**m)
        points += [C(s, o), C(-s, o), C(o, s), C(o, -s), C(s, s), C(s, -s), C(-s, s), C(-s, -s)]
    best = best_f = None
    for point in points:
        f = ref_objective(p, point)
        if best_f is None or f < best_f:
            best, best_f = point, f
    return best


def ref_find_all_roots(p, config, escalations):
    """Roots in the order found, and the traces, as ``find_all_roots`` keeps
    them (no roots at 0 in the inputs used here)."""
    roots, traces = [], []
    work = p
    while work.degree >= 1:
        root, trace = ref_descend(work, ref_best_start(work), config, escalations=escalations)
        traces.append(trace)
        try:
            root, polish = ref_descend(
                p, root, replace(config, max_outer=POLISH_MAX_OUTER), "polish", escalations
            )
        except ConvergenceError as err:
            root, polish = err.best_z, err.trace
        if polish.steps:
            traces.append(polish)
        roots.append(root)
        work, _ = work.deflate(root)
    return roots, traces


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """repr of the result, or of the error with its trace and best point."""
    try:
        return repr(fn(*args))
    except ConvergenceError as err:
        return repr(("ConvergenceError", err.best_z, err.best_f, err.trace))
    except NonFiniteObjectiveError as err:
        return repr(("NonFiniteObjectiveError", str(err)))


def seeded_float_polys():
    rng = SplitMix64(61)
    for degree in range(1, 33):
        roots = [random_float_complex(rng, 2.0) for _ in range(degree)]
        yield Polynomial.from_roots(roots), roots


SHORT = SolverConfig(max_outer=150)


def test_best_start_matches_reference():
    for p, _ in seeded_float_polys():
        assert outcome(_best_start, p) == outcome(ref_best_start, p)
    exact = Polynomial.from_scalars([Fraction(1, 3), Fraction(-2, 7), 1])
    assert outcome(_best_start, exact) == outcome(ref_best_start, exact)


def test_descent_from_best_start_and_fixed_points_matches_reference():
    started = 0
    for p, _ in seeded_float_polys():
        starts = [C(1.5, -0.5), C(0.0, 0.0), C(-0.0, 3.0)]
        try:
            starts.append(ref_best_start(p))
            started += 1
        except NonFiniteObjectiveError:
            pass
        for start in starts:
            assert outcome(descend_to_root, p, start, SHORT) == outcome(
                ref_descend, p, start, SHORT
            )
    assert started >= 10


def test_polish_phase_matches_reference():
    config = SolverConfig(max_outer=POLISH_MAX_OUTER, residual_tol=1e-14)
    rng = SplitMix64(62)
    compared = 0
    for p, roots in seeded_float_polys():
        for root in roots[:2]:
            start = root + random_float_complex(rng, 1e-6)
            assert outcome(descend_to_root, p, start, config, "polish") == outcome(
                ref_descend, p, start, config, "polish"
            )
            compared += 1
    assert compared > 30


def test_fifth_roots_escalation_matches_reference():
    p = Polynomial.from_scalars([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    config = SolverConfig()
    escalations = []
    roots, traces = ref_find_all_roots(p, config, escalations)
    assert escalations  # the stranded-order retry is exercised
    result = find_all_roots(p, config)
    assert repr(result.traces) == repr(tuple(traces))
    assert repr(result.roots) == repr(tuple(sorted(roots, key=lambda z: (z.re, z.im))))


def test_float_polynomial_at_int_point_matches_reference():
    # The first round runs on ComplexScalar (int parts), the rest on complex.
    for p, _ in list(seeded_float_polys())[:12]:
        for start in (C(0, 0), C(1, -1), ZERO):
            assert outcome(descend_to_root, p, start, SHORT) == outcome(
                ref_descend, p, start, SHORT
            )


def test_fraction_polynomial_matches_reference():
    polys = [
        Polynomial.from_scalars([Fraction(1, 3), Fraction(-2, 7), 1]),
        Polynomial.from_scalars([Fraction(5, 3), 0, Fraction(-2, 7), Fraction(3, 2)]),
        Polynomial.from_scalars([1, 0, 0, 0, 1]),
    ]
    for p in polys:
        # float points: complex kernels on the converted coefficients, with
        # the leading coefficient's own Fraction norm
        for start in (C(0.5, 0.25), C(0.0, 0.0), C(-1.25, 2.0)):
            assert outcome(descend_to_root, p, start) == outcome(ref_descend, p, start)
        # exact points: the same round in exact rationals
        for start in (C(Fraction(1, 2), Fraction(1, 3)), C(0, 0)):
            assert outcome(descend_to_root, p, start) == outcome(ref_descend, p, start)


def test_non_finite_objective_message_matches_reference():
    # The start scan: the sampler reaches a point where Re P * Im P overflows.
    p = Polynomial.from_scalars([1e300, 1.0])
    with pytest.raises(NonFiniteObjectiveError) as scan:
        _best_start(p)
    with pytest.raises(NonFiniteObjectiveError) as ref_scan:
        ref_best_start(p)
    assert str(scan.value) == str(ref_scan.value)
    # The line search: f at the start is finite, the first trial overflows.
    q = Polynomial.from_scalars([0.0, 1.0])
    start, config = C(1e150, 1e150), SolverConfig(step_init=1e160)
    with pytest.raises(NonFiniteObjectiveError) as search:
        descend_to_root(q, start, config)
    with pytest.raises(NonFiniteObjectiveError) as ref_search:
        ref_descend(q, start, config)
    assert str(search.value) == str(ref_search.value)
    assert str(search.value).startswith("objective at ComplexScalar(re=")
