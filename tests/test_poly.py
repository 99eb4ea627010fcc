from fractions import Fraction

import pytest

from fourops.poly import (
    NonFiniteObjectiveError,
    Polynomial,
    horner_slope,
    shift_norms,
    shift_order,
    shifted,
)
from fourops.sampling import SplitMix64, random_exact_complex, random_float_complex
from fourops.scalars import ComplexScalar, I, ONE, ZERO


def C(re, im=0):
    return ComplexScalar(re, im)


def exact_poly(rng, max_degree):
    degree = 1 + int(rng.next_u64() % max_degree)
    coeffs = [random_exact_complex(rng) for _ in range(degree)]
    coeffs.append(ComplexScalar(1 + int(rng.next_u64() % 5), 0))
    return Polynomial.from_scalars(coeffs)


def float_roots_poly(rng, degree):
    """Monic from_roots polynomial: float coefficients, int leading parts."""
    roots = [random_float_complex(rng, 2.0) for _ in range(degree)]
    return Polynomial.from_roots(roots), roots


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_leading_zero_trim():
    p = Polynomial.from_scalars([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (C(1), C(2))


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        Polynomial.from_scalars([0, 0])
    with pytest.raises(ValueError):
        Polynomial.from_scalars([])


def test_from_roots_cubic():
    p = Polynomial.from_roots([C(1), C(2), C(3)])
    assert p.coeffs == (C(-6), C(11), C(-6), C(1))


def test_coeff_norms_are_cached_per_coefficient():
    p = Polynomial.from_scalars([C(1, -2), C(0.5, 0.25), C(3)])
    assert p.coeff_norms() == (3, 0.75, 3)
    assert p.coeff_norms() is p.coeff_norms()


def test_coeff_one_norm():
    p = Polynomial.from_scalars([1, -2, 1])
    assert p.coeff_one_norm() == 4


# ---------------------------------------------------------------------------
# evaluation and objective
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    p = Polynomial.from_scalars([1, 0, 1])  # z^2 + 1
    assert p.evaluate(C(2)) == C(5)
    assert p.evaluate(I) == ZERO
    q = Polynomial.from_scalars([1, -2, 1])  # (z-1)^2
    assert q.evaluate(C(3)) == C(4)


def test_evaluate_matches_power_sum_oracle():
    rng = SplitMix64(21)
    for _ in range(300):
        p = exact_poly(rng, 6)
        z = random_exact_complex(rng)
        total = ZERO
        power = ONE
        for a in p.coeffs:
            total = total + a * power
            power = power * z
        assert p.evaluate(z) == total


def test_objective_examples():
    p = Polynomial.from_scalars([1, 0, 1])
    # P(1+i) = (1+i)^2 + 1 = 1 + 2i, squared modulus 5
    assert p.objective(C(1, 1)) == 5
    assert p.objective(I) == 0
    rng = SplitMix64(22)
    for _ in range(200):
        assert exact_poly(rng, 6).objective(random_exact_complex(rng)) >= 0


def test_objective_raises_outside_float_range():
    # P(z) = 1e300 + z at z = 1e200 (1 + i): Re P * Im P overflows, so the
    # imaginary part of P * conj(P) is NaN instead of 0.
    p = Polynomial.from_scalars([1e300, 1.0])
    with pytest.raises(NonFiniteObjectiveError):
        p.objective(C(1e200, 1e200))
    assert issubclass(NonFiniteObjectiveError, ArithmeticError)
    # A square modulus that overflows on its own is still real: f = inf.
    assert p.objective(C(0.0, 0.0)) == float("inf")


# ---------------------------------------------------------------------------
# float kernels against the ComplexScalar loops
# ---------------------------------------------------------------------------


def reference_evaluate(p, z):
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + c
    return acc


def reference_objective(p, z):
    """(Re, Im) of P(z) * conj(P(z)) on ComplexScalar."""
    w = reference_evaluate(p, z)
    prod = w * w.conj()
    return prod.re, prod.im


def reference_shift(p, z0):
    """(base, order, quotient coefficients), the order being the first
    nonzero coefficient past the constant, as in both backends."""
    n = p.degree
    b = list(p.coeffs)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            b[j] = b[j] + z0 * b[j + 1]
    order = next(j for j in range(1, n + 1) if not b[j].is_zero)
    return b[0], order, tuple(b[order:])


def reference_deflate(p, root):
    """(quotient coefficients, remainder) by synthetic division on ComplexScalar."""
    n = p.degree
    q = [None] * n
    q[n - 1] = p.coeffs[n]
    for j in range(n - 1, 0, -1):
        q[j - 1] = p.coeffs[j] + root * q[j]
    return tuple(q), p.coeffs[0] + root * q[0]


def bits(z):
    """The parts by repr: equal only for the same type and the same float
    bits, signed zeros included."""
    return repr(z.re), repr(z.im)


def kernel_cases():
    """Seeded float from_roots polynomials of degree 1-32 and exact ones,
    each with random points, points next to its roots and far points."""
    rng = SplitMix64(27)
    for degree in range(1, 33):
        for _ in range(2):
            p, roots = float_roots_poly(rng, degree)
            points = [random_float_complex(rng, 2.0) for _ in range(4)]
            points += [random_float_complex(rng, 40.0), random_float_complex(rng, 1e12)]
            for root in roots[:3]:
                points.append(root)
                points.append(root + random_float_complex(rng, 1e-9))
            yield p, points
    for _ in range(40):
        # Fraction coefficients at float points: mixed arithmetic rounds the
        # exact parts to float exactly as the kernels' conversion does.
        yield exact_poly(rng, 8), [random_float_complex(rng, 2.0) for _ in range(3)]


def test_float_kernels_match_complexscalar_reference_bit_for_bit():
    far_points = 0
    for p, points in kernel_cases():
        for z in points:
            assert bits(p.evaluate(z)) == bits(reference_evaluate(p, z))
            re, im = reference_objective(p, z)
            if im == 0:
                assert repr(p.objective(z)) == repr(re)
            else:
                far_points += 1
                with pytest.raises(NonFiniteObjectiveError):
                    p.objective(z)
            base, order, quotient = reference_shift(p, z)
            shift = p.taylor_shift(z)
            assert bits(shift.base_value) == bits(base)
            assert shift.order == order
            assert [bits(c) for c in shift.quotient.coeffs] == [bits(c) for c in quotient]
            quotient, remainder = reference_deflate(p, z)
            got, got_remainder = p.deflate(z)
            assert [bits(c) for c in got.coeffs] == [bits(c) for c in quotient]
            assert bits(got_remainder) == bits(remainder)
            # The cached complex coefficients are the coefficients' values.
            assert repr(got.complex_coeffs()) == repr(tuple(complex(c.re, c.im) for c in quotient))
    assert far_points > 0  # the overflow trigger is covered as well


def test_float_kernels_keep_degree_zero_and_exact_points():
    # Degree 0 returns the coefficient itself; exact points stay exact.
    const = Polynomial.from_scalars([3])
    assert bits(const.evaluate(C(0.5, 0.25))) == bits(C(3))
    assert repr(const.objective(C(0.5, 0.25))) == "9"
    p = Polynomial.from_scalars([1, 0, 1])
    assert bits(p.evaluate(C(2, 0))) == bits(C(5, 0))
    assert bits(p.evaluate(C(2.0, 0.0))) == bits(C(5.0, 0.0))


def test_float_polynomial_at_exact_point_runs_on_floats():
    # Only an exact polynomial at an exact point stays exact: a float
    # polynomial gives the same bits at a point with int or Fraction parts
    # as at that point rounded to float.
    rng = SplitMix64(28)
    polys = [Polynomial.from_scalars([0, 1.5, 1])]
    polys += [float_roots_poly(rng, degree)[0] for degree in (2, 5, 9)]
    points = [
        (C(1, 0), C(1.0, 0.0)),
        (C(0, 0), C(0.0, 0.0)),
        (C(-2, 3), C(-2.0, 3.0)),
        (C(Fraction(1, 2), Fraction(-3, 4)), C(0.5, -0.75)),
        (C(Fraction(1, 3), 1), C(1 / 3, 1.0)),
    ]
    for p in polys:
        for exact_z, float_z in points:
            assert bits(p.evaluate(exact_z)) == bits(p.evaluate(float_z))
            assert repr(p.objective(exact_z)) == repr(p.objective(float_z))
            a, b = p.taylor_shift(exact_z), p.taylor_shift(float_z)
            assert (bits(a.base_value), a.order) == (bits(b.base_value), b.order)
            assert [bits(c) for c in a.quotient.coeffs] == [bits(c) for c in b.quotient.coeffs]
    # P(1 + h) = 2.5 + h (3.5 + h): every computed part is a float.
    shift = polys[0].taylor_shift(C(1, 0))
    assert bits(shift.quotient.coeffs[0]) == ("3.5", "0.0")


# ---------------------------------------------------------------------------
# recentering
# ---------------------------------------------------------------------------


def test_taylor_shift_at_simple_root():
    p = Polynomial.from_scalars([1, 0, 1])
    shift = p.taylor_shift(I)
    assert shift.base_value == ZERO
    assert shift.order == 1
    assert shift.quotient.coeffs == (C(0, 2), C(1))


def test_taylor_shift_at_origin():
    p = Polynomial.from_scalars([1, -2, 1])
    shift = p.taylor_shift(ZERO)
    assert shift.base_value == C(1)
    assert shift.order == 1
    assert shift.quotient.coeffs == (C(-2), C(1))


def test_taylor_shift_double_root():
    p = Polynomial.from_scalars([0, 0, 1])  # z^2
    shift = p.taylor_shift(ZERO)
    assert shift.base_value == ZERO
    assert shift.order == 2
    assert shift.quotient.coeffs == (C(1),)


def test_taylor_shift_reconstruction_random():
    rng = SplitMix64(23)
    for _ in range(300):
        p = exact_poly(rng, 8)
        z0 = random_exact_complex(rng)
        h = random_exact_complex(rng)
        shift = p.taylor_shift(z0)
        assert shift.evaluate_at(h) == p.evaluate(z0 + h)
        assert shift.base_value == p.evaluate(z0)


def test_taylor_shift_reads_a_tiny_first_order_in_both_backends():
    # A first-order coefficient 1e-20 of the largest is still order 1, in
    # floats as in exact arithmetic.
    p_float = Polynomial.from_scalars([C(0.0, 0.0), C(1e-20, 0.0), C(1.0, 0.0)])
    assert p_float.taylor_shift(ZERO.to_float()).order == 1
    p_exact = Polynomial.from_scalars([0, Fraction(1, 10**20), 1])
    assert p_exact.taylor_shift(ZERO).order == 1


def test_order_one_certificate_is_sound():
    # The two-row Horner pass gives the shift's b_0 and b_1 bit for bit, so
    # the float order is 1 exactly when P'(w) != 0.
    rng = SplitMix64(31)
    first = higher = 0
    for degree in range(1, 41):
        for _ in range(2):
            p, roots = float_roots_poly(rng, degree)
            if degree > 1:
                # A close pair puts a critical point near its midpoint.
                roots[1] = roots[0] + random_float_complex(rng, 1e-6)
                p = Polynomial.from_roots(roots)
            points = [root + random_float_complex(rng, 1e-9) for root in roots[:4]]
            points += [(a + b) * 0.5 for a, b in zip(roots, roots[1:4])]
            points += [random_float_complex(rng, 2.0**e) for e in (0, 2, 8, 16, 30)]
            coeffs = p.complex_coeffs()
            for z in points:
                w = complex(z.re, z.im)
                b = shifted(coeffs, w)
                value, slope = horner_slope(coeffs, w)
                assert repr((value, slope)) == repr((b[0], b[1]))
                order = shift_order(shift_norms(b))
                assert (order == 1) == (slope != 0)
                first += order == 1
                higher += order > 1
    # The midpoint of a degree-2 pair is its critical point: P' is 0 there.
    assert first > 600 and higher > 0


def test_taylor_shift_degree_zero_rejected():
    with pytest.raises(ValueError):
        Polynomial.from_scalars([3]).taylor_shift(ZERO)


# ---------------------------------------------------------------------------
# growth radius
# ---------------------------------------------------------------------------


def test_growth_radius_example():
    p = Polynomial.from_scalars([1, 0, 1])
    assert p.growth_radius() == 16
    f0 = p.objective(ZERO)
    assert p.growth_bound_at(16) > f0
    assert p.growth_bound_at(8) <= f0


def test_growth_radius_doubling_property():
    # growth_radius (integers) is the first power of two at which the
    # Fraction bound growth_bound_at exceeds the exact f(0), for exact
    # inputs and for float from_roots inputs of degree 1-32.
    rng = SplitMix64(24)
    exact = [exact_poly(rng, 5) for _ in range(50)]
    floats = [float_roots_poly(rng, degree)[0] for degree in range(1, 33) for _ in range(2)]
    radii = []
    for p in exact + floats:
        radius = p.growth_radius()
        a0 = p.coeffs[0]
        f0 = Fraction(a0.re) ** 2 + Fraction(a0.im) ** 2
        assert radius & (radius - 1) == 0
        assert p.growth_bound_at(radius) > f0
        if radius > 1:
            assert p.growth_bound_at(radius // 2) <= f0
        radii.append(radius)
    assert max(radii[len(exact):]) >= 2**30


def test_growth_bound_is_objective_lower_bound():
    rng = SplitMix64(25)
    for _ in range(200):
        p = exact_poly(rng, 5)
        z = random_exact_complex(rng)
        assert p.objective(z) >= p.growth_bound_at(z.one_norm())


# ---------------------------------------------------------------------------
# deflation
# ---------------------------------------------------------------------------


def test_deflate_examples():
    p = Polynomial.from_scalars([1, 0, 1])
    quotient, remainder = p.deflate(I)
    assert quotient.coeffs == (I, C(1))
    assert remainder == ZERO
    quotient, remainder = p.deflate(C(2))
    assert quotient.coeffs == (C(2), C(1))
    assert remainder == C(5)


def test_deflate_multiply_back_random():
    rng = SplitMix64(26)
    for _ in range(200):
        p = exact_poly(rng, 6)
        root = random_exact_complex(rng)
        quotient, remainder = p.deflate(root)
        # (z - root) * quotient + remainder, expanded by convolution
        rebuilt = [ZERO] * (quotient.degree + 2)
        for j, q in enumerate(quotient.coeffs):
            rebuilt[j + 1] = rebuilt[j + 1] + q
            rebuilt[j] = rebuilt[j] - root * q
        rebuilt[0] = rebuilt[0] + remainder
        assert tuple(rebuilt) == p.coeffs


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def test_to_float_backend():
    p = Polynomial.from_scalars([Fraction(1, 4), 1])
    q = p.to_float()
    assert not q.is_exact()
    assert q.coeffs[0].re == 0.25


def test_json_roundtrip():
    p = Polynomial.from_scalars([Fraction(-7, 16), C(0, Fraction(3, 2)), 1])
    assert Polynomial.from_json(p.to_json()) == p
    q = Polynomial.from_scalars([0.5, C(1.0, -2.0)])
    assert Polynomial.from_json(q.to_json()) == q


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        Polynomial.from_json({"coeffs": []})
    with pytest.raises(ValueError):
        Polynomial.from_json({})
