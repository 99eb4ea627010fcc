import copy
import math
import pickle
from fractions import Fraction

import pytest

from fourops import scalars
from fourops.sampling import SplitMix64, random_box_float, random_exact_complex, random_fraction
from fourops.scalars import (
    ComplexScalar,
    I,
    ONE,
    ZERO,
    NormProductVerdict,
    check_norm_product,
    complex_from_json,
    complex_to_json,
    conjugation_keeps_norm,
    gaussian_parts,
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


def _reference_norm_product(z, w):
    """The norm-product verdict in ComplexScalar arithmetic on the parts
    themselves, as it was computed before the integer form."""
    norms = z.one_norm() * w.one_norm()
    half = norms / 2 if isinstance(norms, float) else Fraction(norms, 2)
    return NormProductVerdict(half, (z * w).one_norm(), norms)


def _assert_matches_reference(z, w):
    got, want = check_norm_product(z, w), _reference_norm_product(z, w)
    assert got == want, (z, w)
    assert repr(got) == repr(want), (z, w)


def test_norm_product_matches_fraction_reference_on_random_pairs():
    rng = SplitMix64(7)
    for _ in range(5000):
        _assert_matches_reference(random_exact_complex(rng), random_exact_complex(rng))


F = Fraction
NORM_EDGE_CASES = [
    (ZERO, ZERO),
    (ZERO, C(F(3, 7), F(-2, 5))),
    (C(3, -4), C(-2, 5)),  # pure int
    (C(7, 0), C(0, -9)),
    (C(2**70, -(3**50)), C(-(5**30), 11)),
    (C(3, F(1, 2)), C(F(-5, 6), 4)),  # int mixed with Fraction
    (C(1, 1), C(F(2, 3), F(-1, 3))),
    (C(F(3), F(-4)), C(F(2), F(5))),  # Fractions with denominator 1
    (C(F(3), 4), C(2, F(-5))),
    (C(F(-9, 4), F(-9, 4)), C(F(-1, 2**61), F(-(2**80), 3**40))),  # negative parts
    (C(-1, -1), C(-1, 1)),
]


@pytest.mark.parametrize("z, w", NORM_EDGE_CASES)
def test_norm_product_matches_fraction_reference_on_edge_cases(z, w):
    _assert_matches_reference(z, w)
    _assert_matches_reference(w, z)


def test_norm_product_with_a_float_part_keeps_float_arithmetic():
    v = check_norm_product(C(1.5, -2), C(F(1, 4), 3))
    assert repr(v) == repr(NormProductVerdict(5.6875, 10.375, 11.375))
    assert v.holds
    rng = SplitMix64(8)
    for _ in range(500):
        z = C(random_box_float(rng, 1e3), random_exact_complex(rng).im)
        w = random_exact_complex(rng)
        _assert_matches_reference(z, w)
        _assert_matches_reference(w, z)


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


class _NoFraction:
    """Stands in for Fraction where a test pins that none is built."""

    def __new__(cls, *args):
        raise AssertionError("a Fraction was built")


def test_norm_product_holds_builds_no_fraction(monkeypatch):
    # holds is decided on integer numerators; the Fraction fields are built
    # when first read, and then match the Fraction reference.
    rng = SplitMix64(15)
    pairs = [(random_exact_complex(rng), random_exact_complex(rng)) for _ in range(300)]
    pairs += [(C(random_fraction(rng), 3), C(-2, random_fraction(rng))) for _ in range(100)]
    ints = [rng.next_u64() % 2001 - 1000 for _ in range(400)]
    pairs += [(C(a, b), C(c, e)) for a, b, c, e in zip(*[iter(ints)] * 4)]
    pairs += NORM_EDGE_CASES
    monkeypatch.setattr(scalars, "Fraction", _NoFraction)
    verdicts = [check_norm_product(z, w) for z, w in pairs]
    assert all(v.holds for v in verdicts)
    monkeypatch.undo()
    for (z, w), got in zip(pairs, verdicts):
        want = _reference_norm_product(z, w)
        assert (got.lower_bound, got.product_norm, got.upper_bound) == (
            want.lower_bound,
            want.product_norm,
            want.upper_bound,
        )
        assert got == want and repr(got) == repr(want), (z, w)


class _Float(float):
    """A float subclass, as numpy.float64 is."""


def test_norm_product_field_types():
    # Int parts keep int fields (the lower bound is a Fraction, a half).
    v = check_norm_product(C(3, -4), C(-2, 5))
    assert [type(x) for x in (v.lower_bound, v.product_norm, v.upper_bound)] == [
        Fraction,
        int,
        int,
    ]
    # Parts with denominator 1 give d*f = 1 and Fraction fields.
    for z, w in ((C(F(3), F(-4)), C(F(2), F(5))), (C(F(3), 4), C(2, F(-5))), (C(3, 4), C(F(2), 5))):
        for pair in ((z, w), (w, z)):
            v = check_norm_product(*pair)
            assert {type(x) for x in (v.lower_bound, v.product_norm, v.upper_bound)} == {Fraction}
            assert repr(v) == repr(_reference_norm_product(*pair))
    # A part of a float subclass takes the float branch.
    _assert_float_branch(_Float(1.5))
    numpy = pytest.importorskip("numpy")
    _assert_float_branch(numpy.float64(1.5))


def _assert_float_branch(part):
    for z, w in ((C(part, -2), C(F(1, 4), 3)), (C(F(1, 4), 3), C(-2, part))):
        v = check_norm_product(z, w)
        assert {type(x) for x in (v.lower_bound, v.product_norm, v.upper_bound)} <= {
            float,
            type(part),
        }
        assert v == _reference_norm_product(z, w) and v.holds


@pytest.mark.parametrize("df", [None, 1, 6, 2**61 - 1])
@pytest.mark.parametrize("norms", [0, 1, 4, 7, 10, 2**70 + 1])
def test_integer_norm_predicate_agrees_with_the_fraction_fields_at_the_bounds(norms, df):
    # At 2p = n (or the nearest p above it for odd n) and at p = n, and one
    # numerator unit past each, the integer test of the parts
    # (norms, product_norm, d*f) and the comparison of the Fraction fields
    # built from them agree.
    half = -(-norms // 2)
    for product_norm, want in ((half - 1, False), (half, True), (norms, True), (norms + 1, False)):
        lazy = NormProductVerdict._from_parts((norms, product_norm, df))
        holds = lazy.holds
        built = NormProductVerdict(lazy.lower_bound, lazy.product_norm, lazy.upper_bound)
        assert holds == built.holds == want, (norms, product_norm, df)


def test_norm_verdict_behaves_as_a_frozen_dataclass():
    z, w = C(3, F(1, 2)), C(F(-5, 6), 4)
    built = _reference_norm_product(z, w)
    assert hash(check_norm_product(z, w)) == hash(built)
    assert check_norm_product(z, w) == built
    assert built == check_norm_product(z, w)
    assert check_norm_product(z, w) != check_norm_product(w, C(1, 1))
    lazy = check_norm_product(z, w)
    assert lazy != (built.lower_bound, built.product_norm, built.upper_bound)
    for verdict in (lazy, built):
        for name in ("lower_bound", "product_norm", "upper_bound", "holds", "other"):
            with pytest.raises(AttributeError):
                setattr(verdict, name, 0)
        with pytest.raises(AttributeError):
            del verdict.lower_bound
    for verdict in (check_norm_product(z, w), built):
        assert pickle.loads(pickle.dumps(verdict)) == verdict
        assert copy.copy(verdict) == verdict == copy.deepcopy(verdict)
    # A float subclass still takes the float path.
    class F64(float):
        pass

    v = check_norm_product(C(F64(1.5), -2), C(F(1, 4), 3))
    assert repr(v) == repr(NormProductVerdict(5.6875, 10.375, 11.375))


def test_conjugation_norm_identity_random():
    rng = SplitMix64(13)
    for _ in range(2000):
        z = random_exact_complex(rng)
        assert z.conj().one_norm() == z.one_norm()


def test_integer_conjugation_check_matches_fraction_one_norms(monkeypatch):
    # The identity as check-norms runs it, on integer numerators, agrees
    # with the Fraction one-norms, for the true conjugate and for images
    # whose one-norm differs from z's by a little or not at all.
    rng = SplitMix64(14)
    values = [ZERO, C(3, -4), C(Fraction(-1, 3), 0), C(0, Fraction(5, 7))]
    values += [random_exact_complex(rng) for _ in range(500)]
    for z in values:
        assert conjugation_keeps_norm(z)
    conj = ComplexScalar.conj
    for z in values:
        for image in (C(z.im, z.re), C(-z.re, z.im), C(z.re, z.im + Fraction(1, 10**9))):
            monkeypatch.setattr(ComplexScalar, "conj", lambda self: image)
            assert conjugation_keeps_norm(z) == (image.one_norm() == z.one_norm())
        monkeypatch.setattr(ComplexScalar, "conj", conj)


def test_gaussian_parts_use_the_least_common_denominator():
    assert gaussian_parts(C(Fraction(1, 6), Fraction(-3, 4))) == (2, -9, 12)
    assert gaussian_parts(C(-5, 0)) == (-5, 0, 1)
    assert gaussian_parts(C(Fraction(7), Fraction(0))) == (7, 0, 1)
    rng = SplitMix64(15)
    for _ in range(500):
        z = random_exact_complex(rng)
        x, y, d = gaussian_parts(z)
        assert C(Fraction(x, d), Fraction(y, d)) == z
        assert d == math.lcm(z.re.denominator, z.im.denominator)


def test_integer_parts_match_the_numerator_and_denominator_formulas():
    # Both helpers read a part with one as_integer_ratio() call; the
    # integers are those of the numerator and denominator properties.
    rng = SplitMix64(16)
    parts = [0, 7, -3, Fraction(0), Fraction(6), Fraction(-5, 4)]
    values = [C(a, b) for a in parts for b in parts]
    for _ in range(2000):
        z = random_exact_complex(rng)
        values += [z, C(int(z.re * 8), z.im), C(z.re, int(z.im * 8))]
    for z in values:
        p, q, r, s = z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator
        d = math.lcm(q, s)
        want = (p * (d // q), r * (d // s), d)
        assert gaussian_parts(z) == want
        assert all(type(v) is int for v in gaussian_parts(z))
        assert scalars._over_common_denominator(z) == (p * s, r * q, q * s)


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


def test_scalar_with_an_exponent_is_rejected_before_fraction_sees_it(monkeypatch):
    # Fraction("1e99999999999") builds 10^99999999999 exactly, which takes
    # unbounded time and memory; with Fraction stubbed out, reaching it
    # fails the test instead.
    monkeypatch.setattr(scalars, "Fraction", _NoFraction)
    for raw in ("1e99999999999", "1E99999999999", "-2.5e-3", "1e-99999999999", "3/2e5"):
        with pytest.raises(ValueError, match="exponent"):
            scalar_from_json(raw)
    monkeypatch.undo()
    assert scalar_from_json("1.25") == Fraction(5, 4)
    for value in (Fraction(-7, 16), Fraction(10**30, 3), 2, 0):
        assert scalar_from_json(scalar_to_json(value)) == value


def test_complex_serialization_roundtrip():
    z = C(Fraction(-7, 16), Fraction(3, 2))
    assert complex_from_json(complex_to_json(z)) == z
    zf = C(0.1, -2.5)
    assert complex_from_json(complex_to_json(zf)) == zf
    with pytest.raises(ValueError):
        complex_from_json([1.0])
