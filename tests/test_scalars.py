import math
from fractions import Fraction

import pytest

from fourops.sampling import SplitMix64, random_exact_complex
from fourops.scalars import (
    ComplexScalar,
    I,
    ONE,
    ZERO,
    check_norm_product,
    complex_from_json,
    complex_to_json,
    product_bounds_hold,
    scalar_from_json,
    scalar_to_json,
)


def C(re, im=0):
    return ComplexScalar(re, im)


# ---------------------------------------------------------------------------
# arithmetic on hand-worked pairs
# ---------------------------------------------------------------------------


def test_mul_examples():
    assert C(1, 1) * C(1, -1) == C(2, 0)
    assert C(3, 4) * C(2, -1) == C(10, 5)  # 6 - 3i + 8i - 4i^2
    assert C(5, -2) * ONE == C(5, -2)
    assert I * I == C(-1, 0)


def test_div_examples():
    # 2i / (1+i) = 2i(1-i)/2 = 1+i
    assert C(0, 2) / C(1, 1) == C(1, 1)
    # inverse of the mul example above
    assert C(10, 5) / C(2, -1) == C(3, 4)
    z = C(Fraction(3, 7), Fraction(-2, 5))
    assert (z / C(Fraction(1, 3), Fraction(4, 9))) * C(Fraction(1, 3), Fraction(4, 9)) == z


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        C(1, 2) / ZERO


def test_conj():
    assert C(3, -2).conj() == C(3, 2)
    assert C(3, -2).conj().conj() == C(3, -2)
    assert ZERO.conj() == ZERO
    # The builtin complex spellings, which the solver's kernels use.
    z = C(Fraction(3, 2), -2)
    assert (z.real, z.imag) == (Fraction(3, 2), -2)
    assert z.conjugate() == C(Fraction(3, 2), 2)
    w = complex(1.5, -2.0).conjugate()
    assert C(1.5, -2.0).conjugate() == C(w.real, w.imag)


def test_one_norm_examples():
    assert C(3, 4).one_norm() == 7
    assert C(-3, 4).one_norm() == 7
    assert ZERO.one_norm() == 0
    assert C(Fraction(-7, 16), Fraction(3, 2)).one_norm() == Fraction(31, 16)


def test_pow_int():
    assert C(1, 1).pow_int(0) == ONE
    assert C(1, 1).pow_int(2) == C(0, 2)
    assert C(0, 1).pow_int(3) == C(0, -1)
    with pytest.raises(ValueError):
        C(1, 1).pow_int(-1)


# ---------------------------------------------------------------------------
# norm product inequalities
# ---------------------------------------------------------------------------


def test_norm_product_examples():
    # lower bound tight: (1+i)(1-i) = 2, norms 2*2
    v = check_norm_product(C(1, 1), C(1, -1))
    assert (v.lower_bound, v.product_norm, v.upper_bound) == (2, 2, 4)
    assert v.holds
    # upper bound tight: 1 * i
    v = check_norm_product(ONE, I)
    assert (v.lower_bound, v.product_norm, v.upper_bound) == (Fraction(1, 2), 1, 1)
    assert v.holds
    # strictly interior
    v = check_norm_product(C(3, 4), C(2, -1))
    assert (v.lower_bound, v.product_norm, v.upper_bound) == (Fraction(21, 2), 15, 21)
    assert v.holds


def test_norm_product_random_exact():
    rng = SplitMix64(11)
    for _ in range(2000):
        z = random_exact_complex(rng)
        w = random_exact_complex(rng)
        assert check_norm_product(z, w).holds


def test_mutated_product_norm_is_rejected():
    # A harness that replaced one_norm(z*w) with 0.49 * one_norm(z) *
    # one_norm(w) must fail the lower bound; guards the comparator itself.
    rng = SplitMix64(12)
    checked = 0
    for _ in range(200):
        z = random_exact_complex(rng)
        w = random_exact_complex(rng)
        if z.is_zero or w.is_zero:
            continue
        checked += 1
        norms = z.one_norm() * w.one_norm()
        assert not product_bounds_hold(norms / 2, Fraction(49, 100) * norms, norms)
    assert checked >= 190


def test_conjugation_norm_identity_random():
    rng = SplitMix64(13)
    for _ in range(2000):
        z = random_exact_complex(rng)
        assert z.conj().one_norm() == z.one_norm()


def test_triangle_inequality_random():
    rng = SplitMix64(14)
    for _ in range(1000):
        z = random_exact_complex(rng)
        w = random_exact_complex(rng)
        assert (z + w).one_norm() <= z.one_norm() + w.one_norm()


# ---------------------------------------------------------------------------
# field behaviour
# ---------------------------------------------------------------------------


def test_field_axioms_random_exact():
    rng = SplitMix64(15)
    for _ in range(500):
        z = random_exact_complex(rng)
        w = random_exact_complex(rng)
        v = random_exact_complex(rng)
        assert (z + w) + v == z + (w + v)
        assert z * w == w * z
        assert (z * w) * v == z * (w * v)
        assert z * (w + v) == z * w + z * v
        if not w.is_zero:
            assert (z / w) * w == z


def test_scalar_scaling():
    assert 2 * C(1, -3) == C(2, -6)
    assert C(1, -3) * Fraction(1, 2) == C(Fraction(1, 2), Fraction(-3, 2))


def test_float_backend_matches_exact_within_8_ulp():
    # Addition and subtraction are single correctly rounded operations per
    # component, so 8 ULP of the result always holds.  Multiplication and
    # division form a*c - b*d style sums whose rounding error lives at the
    # scale of the summands, not of a (possibly cancelled) small result, so
    # their 8 ULP budget is measured at that intermediate scale.
    rng = SplitMix64(16)
    for _ in range(400):
        parts = []
        for _ in range(4):
            j = int(rng.next_u64() % 41) - 20  # magnitudes 2^-20 .. 2^20
            sign = -1.0 if rng.next_u64() & 1 else 1.0
            parts.append(sign * (0.5 + rng.unit_float() / 2) * 2.0**j)
        zf = C(parts[0], parts[1])
        wf = C(parts[2], parts[3])
        ze = C(Fraction(parts[0]), Fraction(parts[1]))
        we = C(Fraction(parts[2]), Fraction(parts[3]))

        def check(got, want, scale_re, scale_im):
            for g, exact, scale in (
                (got.re, want.re, scale_re),
                (got.im, want.im, scale_im),
            ):
                tol = 8 * math.ulp(max(abs(g), scale, 1e-300))
                assert abs(g - float(exact)) <= tol, (g, float(exact), scale)

        check(zf + wf, ze + we, 0.0, 0.0)
        check(zf - wf, ze - we, 0.0, 0.0)
        a, b, c, d = parts
        check(zf * wf, ze * we, abs(a * c) + abs(b * d), abs(a * d) + abs(b * c))
        den = c * c + d * d
        check(
            zf / wf,
            ze / we,
            (abs(a * c) + abs(b * d)) / den,
            (abs(b * c) + abs(a * d)) / den,
        )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_scalar_serialization():
    assert scalar_to_json(Fraction(3, 2)) == "3/2"
    assert scalar_to_json(Fraction(-7, 16)) == "-7/16"
    assert scalar_to_json(2) == "2/1"
    assert scalar_to_json(0.25) == 0.25
    assert scalar_from_json("3/2") == Fraction(3, 2)
    assert scalar_from_json("-5") == Fraction(-5)
    assert scalar_from_json(0.25) == 0.25
    with pytest.raises(ValueError):
        scalar_from_json(None)


def test_complex_serialization_roundtrip():
    z = C(Fraction(-7, 16), Fraction(3, 2))
    assert complex_from_json(complex_to_json(z)) == z
    zf = C(0.1, -2.5)
    assert complex_from_json(complex_to_json(zf)) == zf
    with pytest.raises(ValueError):
        complex_from_json([1.0])
