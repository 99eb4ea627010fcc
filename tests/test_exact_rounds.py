"""The exact descent round on Gaussian integers against the ``Fraction``
kernels that stay in ``poly`` and ``estermann``.

The exact round runs its Taylor shift, its line search, the steering
value alpha and the direction pick on integer numerators over common
denominators, and builds a ``Fraction`` only for what an accepted
``DescentStep`` records, the one-norms that its bound M reads among
them.  Each integer kernel is compared here
with the ``ComplexScalar`` arithmetic it replaces, by ``==`` and, for
every value that a step records, by ``repr``: the repr carries the type,
and an int-coefficient solve at exact 0 records ints where a Fraction
solve records Fractions.
"""

from fractions import Fraction

from fourops import solver
from fourops.estermann import candidate_set, pick_descent_direction, steepest_candidate
from fourops.poly import (
    Polynomial,
    gaussian_ray,
    gaussian_shifted,
    ray_square_modulus,
    shift_norms,
    shift_order,
    shifted,
    square_modulus,
)
from fourops.sampling import SplitMix64, random_fraction
from fourops.scalars import ComplexScalar, gaussian_parts
from fourops.solver import EXACT_MAX_BACKTRACKS, find_all_roots

C = ComplexScalar


def random_part(rng, ints_only):
    """An exact part: an int (zero, negative or positive), a small or a
    30-bit Fraction, or a Fraction with an integral value."""
    kind = rng.next_u64() % (2 if ints_only else 6)
    small = int(rng.next_u64() % 11) - 5
    if kind == 0:
        return small
    if kind == 1:
        return 0
    if kind == 2:
        return Fraction(small, 1 + int(rng.next_u64() % 6))
    if kind == 3:
        return random_fraction(rng)
    if kind == 4:
        return Fraction(small)
    return Fraction(0)


def random_point(rng, ints_only):
    return C(random_part(rng, ints_only), random_part(rng, ints_only))


def random_case(rng):
    """(polynomial, z) of degree 1-4; one case in four has int parts only."""
    ints_only = rng.next_u64() % 4 == 0
    degree = 1 + int(rng.next_u64() % 4)
    coeffs = [random_point(rng, ints_only) for _ in range(degree)]
    lead = random_point(rng, ints_only)
    if lead.is_zero:
        lead = C(1, 0) if ints_only else C(Fraction(-2, 3), 0)
    return Polynomial(tuple(coeffs) + (lead,)), random_point(rng, ints_only)


def integer_shift(p, z):
    re, im, denom, _ = p.gaussian_coeffs()
    x, y, d = gaussian_parts(z)
    b_re, b_im = gaussian_shifted(re, im, x, y, d)
    return b_re, b_im, denom, d


def ref_search(coeffs, z, zeta, k, descent_rate, f_z):
    """The exact line search as a loop over Fraction trial points."""
    r = Fraction(1)
    for backtracks in range(EXACT_MAX_BACKTRACKS + 1):
        trial = C(z.re + zeta.re * r, z.im + zeta.im * r)
        f_trial = square_modulus(coeffs, trial)
        if f_trial < f_z and 2 * (f_z - f_trial) >= r**k * descent_rate:
            return backtracks, r, trial, f_trial
        r = r * Fraction(1, 2)
    return None


def test_shift_alpha_and_bound_match_fraction_kernels():
    rng = SplitMix64(2101)
    ints_cases = 0
    for _ in range(2000):
        p, z = random_case(rng)
        n = p.degree
        b = shifted(p.coeffs, z)
        norms = shift_norms(b)
        b_re, b_im, denom, d = integer_shift(p, z)
        for j in range(n + 1):
            scale = denom * d ** (n - j)
            assert C(Fraction(b_re[j], scale), Fraction(b_im[j], scale)) == b[j]
        shift = solver._ExactShift(p.gaussian_coeffs(), z)
        assert shift.order == shift_order(norms)
        ints_cases += shift.ints
        # By value: an integral b_j's norm is Fraction(m, 1) here and m there.
        assert shift.norms == norms
        for k in range(1, n + 1):
            if b[k].is_zero:
                assert shift.norms[k] == 0
                continue
            alpha = b[0].conjugate() * b[k]
            assert repr(shift.alpha(k)) == repr(alpha)
            for candidate in candidate_set(k):
                zeta_norm = candidate.zeta.one_norm()
                want = solver._decrease_bound(norms[0], norms[k:], zeta_norm, k)
                got = solver._decrease_bound(shift.norms[0], shift.norms[k:], zeta_norm, k)
                assert repr(got) == repr(want)
    assert ints_cases > 300


def test_ray_objective_matches_square_modulus():
    rng = SplitMix64(2102)
    compared = 0
    for _ in range(2000):
        p, z = random_case(rng)
        n = p.degree
        b_re, b_im, denom, d = integer_shift(p, z)
        # Any order's candidates, also past the detected one, so the Fraction
        # quadrant directions of escalated rounds are covered.
        k = 1 + int(rng.next_u64() % n)
        candidates = candidate_set(k)
        zeta = candidates[rng.next_u64() % len(candidates)].zeta
        px, py, pd = gaussian_parts(zeta)
        c_re, c_im = gaussian_ray(b_re, b_im, d, px, py, pd)
        scale = denom * (d * pd) ** n
        for shrinks in (0, 1, int(rng.next_u64() % 65), 64):
            r = Fraction(1, 2**shrinks)
            trial = C(z.re + zeta.re * r, z.im + zeta.im * r)
            got = Fraction(ray_square_modulus(c_re, c_im, shrinks), (scale << n * shrinks) ** 2)
            want = square_modulus(p.coeffs, trial)
            assert got == want and repr(got) == repr(want)
            compared += 1
    assert compared == 8000


def test_line_search_matches_fraction_loop():
    rng = SplitMix64(2103)
    outcomes = set()
    for _ in range(300):
        p, z = random_case(rng)
        b = shifted(p.coeffs, z)
        f_z = square_modulus(p.coeffs, z)
        if f_z == 0:
            continue
        shift = solver._ExactShift(p.gaussian_coeffs(), z)
        for k in range(shift.order, p.degree + 1):
            if b[k].is_zero:
                continue
            _, zeta, rate = steepest_candidate(b[0].conjugate() * b[k], k)
            got = shift.search(zeta, k, -rate, f_z, EXACT_MAX_BACKTRACKS)
            want = ref_search(p.coeffs, z, zeta, k, -rate, f_z)
            assert repr(got) == repr(want)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def ref_pick(alpha, k):
    """The direction pick by Fraction ratios, earliest candidate on ties."""
    best = best_ratio = None
    for cand in candidate_set(k):
        zk = cand.zeta_pow_k
        num = alpha.re * zk.re - alpha.im * zk.im
        ratio = num / (alpha.one_norm() * zk.one_norm())
        if best_ratio is None or ratio < best_ratio:
            best, best_ratio, best_num = cand, ratio, num
    return best, best.zeta, best_num


def test_direction_pick_on_integers_matches_fraction_ratios():
    rng = SplitMix64(2104)
    alphas = [C(Fraction(1, 3), Fraction(1, 3)), C(Fraction(-2, 5), 0), C(0, Fraction(7))]
    alphas += [C(Fraction(1, 3), Fraction(-1, 3)), C(Fraction(5), Fraction(-5))]
    while len(alphas) < 600:
        alpha = random_point(rng, False)
        if not alpha.is_zero and not (isinstance(alpha.re, int) and isinstance(alpha.im, int)):
            alphas.append(alpha)
    for alpha in alphas:
        for k in range(1, 7):
            assert repr(steepest_candidate(alpha, k)) == repr(ref_pick(alpha, k))
    # A tie keeps the earliest candidate: -1 and i at odd k for re == im.
    assert steepest_candidate(alphas[0], 1)[0].zeta == C(-1, 0)


def as_fractions(alpha):
    return C(Fraction(alpha.re), Fraction(alpha.im))


def test_int_alpha_tie_picks_the_steeper_unit():
    # Re[alpha * i] = -(2^60 + 1) < -2^60 = Re[alpha * 1], but as float
    # quotients over one_norm(alpha) = 2^61 + 1 both round to -0.5, and a
    # float tie would keep the earlier candidate 1.
    alpha = C(-(2**60), 2**60 + 1)
    want = ref_pick(as_fractions(alpha), 1)
    assert want[1] == C(0, 1)
    for picked in (steepest_candidate(alpha, 1), steepest_candidate(as_fractions(alpha), 1)):
        assert repr(picked[:2]) == repr(want[:2]) and picked[2] == want[2]
    assert repr(pick_descent_direction(alpha, 1)) == repr(want[0])


def test_direction_pick_on_int_alphas_matches_fraction_ratios():
    # Int alphas take the same integer pick as Fraction ones: the same
    # candidate and zeta (with their types) and the same rate.
    rng = SplitMix64(2505)
    alphas = []
    while len(alphas) < 400:
        alpha = random_point(rng, True)
        if rng.next_u64() % 2:
            # Parts near +-2^60, where float quotients of near ties round equal.
            signs = [1 - 2 * int(rng.next_u64() % 2) for _ in range(2)]
            alpha = C(alpha.re + signs[0] * 2**60, alpha.im + signs[1] * 2**60)
        if not alpha.is_zero:
            alphas.append(alpha)
    for alpha in alphas:
        for k in range(1, 7):
            candidate, zeta, rate = steepest_candidate(alpha, k)
            want = ref_pick(as_fractions(alpha), k)
            assert repr((candidate, zeta)) == repr(want[:2]) and rate == want[2]


def test_first_exact_step_keeps_the_int_type():
    # At exact 0 on int coefficients, P(0), the shift, alpha and M are ints;
    # from the first accepted point on, every value is a Fraction.
    first = find_all_roots(Polynomial.from_scalars([2, -3, 1])).traces[0].steps
    assert first[0].z == C(0, 0) and first[0].direction.zeta == C(1, 0)
    assert [type(v) for v in (first[0].alpha.re, first[0].alpha.im)] == [int, int]
    assert type(first[0].m_bound) is int and type(first[0].f_value) is int
    assert type(first[0].r_accepted) is Fraction
    for step in first[1:]:
        values = (step.alpha.re, step.alpha.im, step.m_bound, step.f_value, step.z.re)
        assert all(type(v) is Fraction for v in values)
    # An even order steers by the Fraction quadrant direction: alpha stays
    # int, M takes that direction's Fraction norm.
    quadrant = find_all_roots(Polynomial.from_scalars([1, 0, 1])).traces[0].steps[0]
    assert quadrant.rule == "quadrant"
    assert [type(v) for v in (quadrant.alpha.re, quadrant.alpha.im)] == [int, int]
    assert type(quadrant.m_bound) is Fraction


def test_first_exact_step_on_fractions_records_fractions():
    # Fraction coefficients, even integral ones, and a single Fraction part
    # among ints all give Fraction alpha and M, as Fraction arithmetic does.
    for coeffs in ([Fraction(2), Fraction(-3), 1], [2, Fraction(-3, 2), 1], [C(2, Fraction(0)), -3, 1]):
        step = find_all_roots(Polynomial.from_scalars(coeffs)).traces[0].steps[0]
        assert step.z == C(0, 0) and step.direction.zeta == C(1, 0)
        values = (step.alpha.re, step.alpha.im, step.m_bound, step.f_value)
        assert all(type(v) is Fraction for v in values), coeffs


def test_exact_shift_objective_and_residual_match_the_fraction_kernels():
    # f(z) = |B_0|^2 / K^2 and one_norm(P(z)) = (|Re B_0| + |Im B_0|) / K,
    # in value and in type: int where every part is an int.
    rng = SplitMix64(33)
    for _ in range(500):
        p, z = random_case(rng)
        shift = solver._ExactShift(p.gaussian_coeffs(), z)
        assert repr(shift.objective()) == repr(p.objective(z)), (p, z)
        assert repr(shift.residual()) == repr(p.evaluate(z).one_norm()), (p, z)


# Int, denominator-1 Fraction, and mixed-part coefficients (one part an
# int, the other a Fraction).
EXACT_KINDS = [
    Polynomial.from_roots([C(1, 2), C(-3, 0), C(2, -1)]),
    Polynomial.from_scalars([2, -3, 1]),
    Polynomial.from_scalars([Fraction(2), Fraction(-3), Fraction(1)]),
    Polynomial((C(Fraction(2), 1), C(-3, Fraction(0)), C(1, 0))),
    Polynomial((C(2, Fraction(1, 2)), C(-3, 0), C(Fraction(1, 3), 1))),
    Polynomial.from_roots([C(Fraction(1, 2), 0), C(0, Fraction(-2, 3))]),
]


def test_exact_start_objective_and_residuals_keep_the_fraction_kernels_types():
    for p in EXACT_KINDS:
        for z in (C(0, 0), C(1, -1), C(Fraction(1, 2), 2), C(Fraction(3), 0)):
            try:
                _, trace = solver.descend_to_root(p, z)
            except solver.ConvergenceError as err:
                trace = err.trace
            f_start = trace.steps[0].f_value if trace.steps else trace.final_f
            assert repr(f_start) == repr(p.objective(z)), (p, z)
        result = find_all_roots(p)
        want = tuple(p.evaluate(z).one_norm() for z in result.roots)
        assert repr(result.residual_one_norms) == repr(want), p
        # A polish starts at a root found on the deflated polynomial.
        for trace in result.traces:
            if trace.phase == "polish":
                assert repr(trace.steps[0].f_value) == repr(p.objective(trace.start)), p


def test_an_exact_solve_evaluates_no_fraction_objective(monkeypatch):
    calls = {"objective": 0, "evaluate": 0}
    for name in calls:
        method = getattr(Polynomial, name)

        def counted(self, z, name=name, method=method):
            calls[name] += 1
            return method(self, z)

        monkeypatch.setattr(Polynomial, name, counted)
    for p in EXACT_KINDS:
        find_all_roots(p)
    assert calls == {"objective": 0, "evaluate": 0}
    # The counter counts: a float solve reads its residuals with evaluate.
    find_all_roots(EXACT_KINDS[0].to_float())
    assert calls["evaluate"] == 3
