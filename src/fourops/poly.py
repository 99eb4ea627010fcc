"""Polynomials over the shared complex scalar type, plus the pieces the
descent solver needs: Horner evaluation, the square-magnitude objective,
Taylor shifts by repeated synthetic division, a certified search radius,
and synthetic-division deflation.

Coefficients are stored in ascending order (constant term first).  The
degree-n coefficient is nonzero after construction; literal zero
coefficients at the high end are trimmed.

Kernels.  Horner evaluation (also with P', ``horner_slope``), the
objective and the Taylor shift are module functions over one value
type: builtin ``complex`` (over the cached ``complex_coeffs``) or
``ComplexScalar``.  One rule picks it,
``Polynomial.kernel_args``: ``ComplexScalar`` when both the polynomial
and the point are exact (and at degree 0), else ``complex``, so a float
polynomial at a point with int parts runs on floats.  The methods apply
the rule per call, the solver once per descent.
The kernels use + and x only, and read values through ``real``,
``imag`` and ``conjugate()``, which both types have.  CPython computes
complex + and x with the same IEEE expressions as
``ComplexScalar.__add__`` / ``__mul__``, and converting an ``int`` or
``Fraction`` part to ``float`` rounds exactly as Python's mixed
arithmetic does, so both types give the same bits.  No complex division
and no ``abs()`` of a complex value occur, so there is no square root and
no Smith division.  The methods convert back to ``ComplexScalar`` only
for what they return; the solver's float descent round calls the kernels
directly.

The solver's exact descent rounds run on Gaussian integers instead: the
coefficients as integers over one denominator (``gaussian_coeffs``), the
shift on integer numerators (``gaussian_shifted``) and the objective
along a ray as an integer over a known power-of-two scale
(``gaussian_ray``, ``ray_square_modulus``), so no trial builds a
Fraction.  They give the values of the ``ComplexScalar`` kernels, which
stay for the methods and as the rational reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import ComplexScalar, ZERO, _Frozen, _setattr, complex_from_json, complex_to_json

__all__ = ["NonFiniteObjectiveError", "Polynomial", "ShiftDecomposition"]


class NonFiniteObjectiveError(ArithmeticError):
    """The float objective is not a finite real number: P(z) is infinite or
    NaN, or the product Re P(z) * Im P(z) overflowed, so the imaginary
    part of P(z) * conj(P(z)) did not cancel to 0.  Not every overflow
    raises: see ``square_modulus``.  Also raised when a descent's
    steering value alpha = conj(P(z)) * b_k is outside the float range,
    too large or too small for any direction to lower f in floats
    (``steepest_candidate``)."""


class ShiftDecomposition(_Frozen):
    """P rewritten around a point z0:  P(z0 + h) = base_value + h^order * quotient(h).

    The quotient's constant term is nonzero, so ``order`` is the lowest
    power of h that actually moves the value away from ``base_value``.
    """

    __slots__ = __match_args__ = ("base_value", "order", "quotient")

    def __init__(self, base_value: ComplexScalar, order: int, quotient: "Polynomial"):
        _setattr(self, "base_value", base_value)
        _setattr(self, "order", order)
        _setattr(self, "quotient", quotient)

    def evaluate_at(self, h: ComplexScalar) -> ComplexScalar:
        """base_value + h^order * quotient(h), for reconstruction checks."""
        return self.base_value + h.pow_int(self.order) * self.quotient.evaluate(h)


class Polynomial(_Frozen):
    """A polynomial by its ``coeffs``.  Three caches, filled on first use,
    are left out of ``==``, ``hash`` and the repr: the coefficients as
    builtin complex values (``complex_coeffs``), their one-norms
    (``coeff_norms``) and the exact coefficients as Gaussian integers
    (``gaussian_coeffs``)."""

    __slots__ = ("coeffs", "_complex", "_norms", "_gaussian")
    __match_args__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ComplexScalar]):
        coeffs = tuple(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        # After the trim only the last coefficient can be the zero value.
        if not coeffs or coeffs[-1].is_zero:
            raise ValueError("the zero polynomial is not representable")
        _setattr(self, "coeffs", coeffs)
        _setattr(self, "_complex", None)
        _setattr(self, "_norms", None)
        _setattr(self, "_gaussian", None)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_scalars(cls, values: Iterable) -> "Polynomial":
        """Build from plain numbers (taken as real coefficients) or ComplexScalar."""
        coeffs = []
        for v in values:
            if isinstance(v, ComplexScalar):
                coeffs.append(v)
            else:
                coeffs.append(ComplexScalar(v, 0))
        return cls(tuple(coeffs))

    @classmethod
    def from_roots(cls, roots: Sequence[ComplexScalar]) -> "Polynomial":
        """The monic polynomial with exactly the given roots, by expansion."""
        coeffs = [ComplexScalar(1, 0)]
        for root in roots:
            grown = [ZERO] * (len(coeffs) + 1)
            for j, c in enumerate(coeffs):
                grown[j + 1] = grown[j + 1] + c
                grown[j] = grown[j] - root * c
            coeffs = grown
        return cls(tuple(coeffs))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_exact(self) -> bool:
        return all(c.is_exact() for c in self.coeffs)

    def to_float(self) -> "Polynomial":
        return Polynomial(tuple(c.to_float() for c in self.coeffs))

    def coeff_norms(self) -> tuple:
        """The one-norm of each coefficient, cached on first use."""
        norms = self._norms
        if norms is None:
            norms = tuple(c.one_norm() for c in self.coeffs)
            _setattr(self, "_norms", norms)
        return norms

    def coeff_one_norm(self):
        """Sum of coefficient one-norms; the natural scale of the polynomial.
        Summed left to right by hand: ``sum()`` of floats is compensated from
        Python 3.12 on, which would change the bits."""
        norms = self.coeff_norms()
        total = norms[0]
        for v in norms[1:]:
            total = total + v
        return total

    def require_finite(self) -> None:
        """Raise ValueError naming the first coefficient with an infinite or
        NaN part."""
        for j, c in enumerate(self.coeffs):
            for part in (c.re, c.im):
                if isinstance(part, float) and not math.isfinite(part):
                    raise ValueError(
                        f"coefficient {j} ({c.re!r}, {c.im!r}) is not finite"
                    )

    # -- evaluation -------------------------------------------------------------

    def complex_coeffs(self) -> tuple[complex, ...]:
        """The coefficients as builtin ``complex`` values, cached on first use."""
        coeffs = self._complex
        if coeffs is None:
            coeffs = tuple(complex(c.re, c.im) for c in self.coeffs)
            _setattr(self, "_complex", coeffs)
        return coeffs

    def gaussian_coeffs(self) -> tuple[tuple[int, ...], tuple[int, ...], int, bool]:
        """The exact coefficients as Gaussian integers over one denominator,
        cached on first use: (re, im, D, ints) with a_j = (re[j] + im[j] i)/D,
        D > 0 the least common denominator of every part, and ints whether
        every part is an ``int``."""
        gaussian = self._gaussian
        if gaussian is None:
            parts = [part for c in self.coeffs for part in (c.re, c.im)]
            denom = math.lcm(*(part.denominator for part in parts))
            scaled = [part.numerator * (denom // part.denominator) for part in parts]
            ints = all(isinstance(part, int) for part in parts)
            gaussian = (tuple(scaled[0::2]), tuple(scaled[1::2]), denom, ints)
            _setattr(self, "_gaussian", gaussian)
        return gaussian

    def kernel_args(self, z: ComplexScalar) -> tuple[tuple, complex | ComplexScalar, bool]:
        """The kernels' coefficients, z in their value type, and whether the
        arithmetic is exact.  Exact when both the polynomial and z are
        exact: the ``ComplexScalar`` coefficients and z itself.  Otherwise
        the cached builtin ``complex`` coefficients and ``complex(z.re,
        z.im)``, except at degree 0, where the constant keeps its own
        coefficient."""
        exact = z.is_exact() and self.is_exact()
        if exact or len(self.coeffs) == 1:
            return self.coeffs, z, exact
        return self.complex_coeffs(), complex(z.re, z.im), False

    def evaluate(self, z: ComplexScalar) -> ComplexScalar:
        """Horner evaluation from the leading coefficient down."""
        coeffs, w, _ = self.kernel_args(z)
        value = horner(coeffs, w)
        return ComplexScalar(value.real, value.imag)

    def objective(self, z: ComplexScalar):
        """f(z) = P(z) * conj(P(z)), a real nonnegative scalar (see
        ``square_modulus``)."""
        coeffs, w, _ = self.kernel_args(z)
        return square_modulus(coeffs, w)

    # -- Taylor shift -------------------------------------------------------------

    def taylor_shift(self, z0: ComplexScalar) -> ShiftDecomposition:
        """Expand P around z0 by n rounds of synthetic division (Horner with
        remainders), giving P(z0 + h) = P(z0) + h^k Q(h) with Q(0) != 0.

        In both backends k is the first index >= 1 whose shifted
        coefficient is nonzero (``shift_order``).
        """
        n = self.degree
        if n < 1:
            raise ValueError("taylor_shift requires degree >= 1")
        coeffs, w, _ = self.kernel_args(z0)
        b = shifted(coeffs, w)
        order = shift_order(shift_norms(b))
        values = [ComplexScalar(v.real, v.imag) for v in b[:n]]
        values.append(self.coeffs[n])
        return ShiftDecomposition(values[0], order, Polynomial(tuple(values[order:])))

    # -- certified outer radius -----------------------------------------------

    def growth_radius(self) -> int:
        """Smallest radius R in {1, 2, 4, ...} with a certified excess of the
        objective over f(0) everywhere outside the taxicab ball of radius R.

        For one_norm(z) = t the objective is bounded below by

            g(t) = lead^2 * t^(2n) / 2^(2n+1)
                   - sum over j < k of 2 * norm_j * norm_k * t^(j+k)

        where norm_j = one_norm(a_j).  Once g(R) > f(0) the same holds for
        every t >= R, because the subtracted terms all carry powers below
        t^(2n): g(t) >= (t/R)^(2n) * g(R).  The search doubles R from 1 and
        returns the first radius whose excess is strict.

        Arithmetic is done in exact integers even for float inputs, so
        overflow cannot spoil the comparison.  The norms are scaled to
        integers N_j by their common denominator, R = 2^m makes every power
        of R a shift, and with S = sum_j N_j R^j the pair sum is

            sum over j < k of 2 N_j N_k R^(j+k) = S^2 - sum_j N_j^2 R^(2j),

        so each doubling costs O(n) integer operations.  The result equals
        the first R with ``growth_bound_at(R) > f(0)``.

        No solver code calls it: every descent starts at 0.  It stays as a
        certified bound on where the minimum of f lies, checked by the tests.
        """
        n = self.degree
        if n < 1:
            raise ValueError("growth_radius requires degree >= 1")
        ratios = [c.one_norm().as_integer_ratio() for c in self.coeffs]
        denom = math.lcm(*(d for _, d in ratios))
        norms = [num * (denom // d) for num, d in ratios]
        squares = [v * v for v in norms]
        # f(0) = f0_num / f0_den, from the exact parts of a0.
        re_num, re_den = self.coeffs[0].re.as_integer_ratio()
        im_num, im_den = self.coeffs[0].im.as_integer_ratio()
        f0_num = (re_num * im_den) ** 2 + (im_num * re_den) ** 2
        f0_den = (re_den * im_den) ** 2
        # g(R) > f(0), multiplied through by f0_den * denom^2 * 2^(2n+1):
        # f0_den * (N_n^2 R^(2n) - 2^(2n+1) (S^2 - Q)) > f0_num * denom^2 * 2^(2n+1).
        target = (f0_num * denom * denom) << (2 * n + 1)
        m = 0
        while True:
            s = q = 0
            for v, sq in zip(reversed(norms), reversed(squares)):
                s = (s << m) + v
                q = (q << (2 * m)) + sq
            excess = (squares[n] << (2 * n * m)) - ((s * s - q) << (2 * n + 1))
            if f0_den * excess > target:
                return 1 << m
            m += 1

    def growth_bound_at(self, t):
        """The lower-bound expression from ``growth_radius`` at one_norm = t,
        exposed so tests can check f(z) >= bound(one_norm(z)) directly."""
        n = self.degree
        norms = [_exact(c.one_norm()) for c in self.coeffs]
        t = _exact(t)
        bound = norms[n] * norms[n] * t ** (2 * n) / 2 ** (2 * n + 1)
        for j in range(n + 1):
            for k in range(j + 1, n + 1):
                bound -= 2 * norms[j] * norms[k] * t ** (j + k)
        return bound

    # -- deflation ---------------------------------------------------------------

    def deflate(self, root: ComplexScalar) -> tuple["Polynomial", ComplexScalar]:
        """Divide by (z - root) synthetically.

        Returns (quotient, remainder).  The remainder equals P(root) and is
        handed back as a residual diagnostic instead of being dropped.
        The division runs on the kernels' values (``kernel_args``); in
        floats the quotient keeps them as its ``complex_coeffs``.
        """
        n = self.degree
        if n < 1:
            raise ValueError("deflate requires degree >= 1")
        coeffs, w, exact = self.kernel_args(root)
        q: list = [None] * n
        q[n - 1] = coeffs[n]
        for j in range(n - 1, 0, -1):
            q[j - 1] = coeffs[j] + w * q[j]
        remainder = coeffs[0] + w * q[0]
        if exact:
            return Polynomial(tuple(q)), remainder
        # The lead is the original coefficient, not its complex copy.
        values = [ComplexScalar(v.real, v.imag) for v in q[:-1]]
        values.append(self.coeffs[n])
        quotient = Polynomial(tuple(values))
        _setattr(quotient, "_complex", tuple(q))
        return quotient, ComplexScalar(remainder.real, remainder.imag)

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [complex_to_json(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, payload) -> "Polynomial":
        if not isinstance(payload, dict) or "coeffs" not in payload:
            raise ValueError('polynomial JSON must be an object with a "coeffs" list')
        coeffs = payload["coeffs"]
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError('"coeffs" must be a non-empty list of [re, im] pairs')
        return cls(tuple(complex_from_json(c) for c in coeffs))


def _exact(value) -> Fraction:
    """Floats are binary rationals, so this conversion is lossless."""
    return value if isinstance(value, Fraction) else Fraction(value)


# ---------------------------------------------------------------------------
# Kernels.  Each takes ascending coefficients and a point of one value type,
# builtin complex or ComplexScalar (see the module docstring), and uses
# + and x only.
# ---------------------------------------------------------------------------


def horner(coeffs, z):
    """P(z), from the leading coefficient down."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def horner_slope(coeffs, z):
    """(P(z), P'(z)) in one two-row Horner pass, for degree >= 1."""
    slope = value = coeffs[-1]
    for c in coeffs[-2:0:-1]:
        value = value * z + c
        slope = slope * z + value
    return value * z + coeffs[0], slope


def square_modulus(coeffs, z):
    """f(z) = P(z) * conj(P(z)), by ``value_square_modulus`` of P(z)."""
    return value_square_modulus(horner(coeffs, z), z)


def value_square_modulus(w, z):
    """w * conj(w) for the value w = P(z), from the parts x, y of w.

    The product's imaginary part x*(-y) + y*x cancels identically for
    finite w (also in floats, where both contributions round the same
    way).  When it does not, w or x*y left the float range, and
    NonFiniteObjectiveError is raised rather than the part dropped.  When
    w lies on an axis and its square overflows, f = inf is returned.
    """
    x, y = w.real, w.imag
    if x * -y + y * x != 0:
        point = ComplexScalar(z.real, z.imag)
        raise NonFiniteObjectiveError(f"objective at {point!r} is not a finite real number")
    return x * x - y * -y


def shifted(coeffs, z) -> list:
    """The coefficients b of P(z + h) = sum_j b_j h^j, by n rounds of
    synthetic division.  b[n] is never updated: it is coeffs[n] itself."""
    b = list(coeffs)
    n = len(b) - 1
    for i in range(n):
        acc = b[n]
        for j in range(n - 1, i - 1, -1):
            acc = b[j] + z * acc
            b[j] = acc
    return b


def gaussian_shifted(re, im, x: int, y: int, d: int) -> tuple[list, list]:
    """``shifted`` on Gaussian integers, for a_j = (re[j] + im[j] i)/D
    (``Polynomial.gaussian_coeffs``) and z = (x + iy)/d: the real and
    imaginary parts of B with b_j = B_j / (D d^(n-j)).  B_j starts as
    A_j d^(n-j), and each round of synthetic division does
    B_j <- B_j + (x + iy) B_(j+1)."""
    n = len(re) - 1
    b_re, b_im = list(re), list(im)
    scale = d
    for j in range(n - 1, -1, -1):
        b_re[j] *= scale
        b_im[j] *= scale
        scale *= d
    for i in range(n):
        acc_re, acc_im = b_re[n], b_im[n]
        for j in range(n - 1, i - 1, -1):
            acc_re, acc_im = b_re[j] + x * acc_re - y * acc_im, b_im[j] + x * acc_im + y * acc_re
            b_re[j], b_im[j] = acc_re, acc_im
    return b_re, b_im


def gaussian_ray(b_re, b_im, d: int, px: int, py: int, pd: int) -> tuple[list, list]:
    """P(z + t zeta) on the ray of zeta = (px + py i)/pd, from the parts of B
    and the d of ``gaussian_shifted``: the parts of
    C_j = B_j (px + py i)^j d^j pd^(n-j), so that
    P(z + t zeta) = sum_j C_j t^j / K with K = D d^n pd^n."""
    n = len(b_re) - 1
    step_re, step_im = px * d, py * d
    pow_re, pow_im = 1, 0  # ((px + py i) d)^j
    scales = [1]
    for _ in range(n):
        scales.append(scales[-1] * pd)
    c_re, c_im = [], []
    for j in range(n + 1):
        scale = scales[n - j]
        c_re.append((b_re[j] * pow_re - b_im[j] * pow_im) * scale)
        c_im.append((b_re[j] * pow_im + b_im[j] * pow_re) * scale)
        pow_re, pow_im = pow_re * step_re - pow_im * step_im, pow_re * step_im + pow_im * step_re
    return c_re, c_im


def ray_square_modulus(c_re, c_im, b: int) -> int:
    """|sum_j C_j 2^(b(n-j))|^2 for the C of ``gaussian_ray``: the objective
    at t = 2^-b on the ray, times K^2 2^(2bn).  Horner in 2^b from C_0 up,
    by shifts."""
    acc_re, acc_im = c_re[0], c_im[0]
    for j in range(1, len(c_re)):
        acc_re = (acc_re << b) + c_re[j]
        acc_im = (acc_im << b) + c_im[j]
    return acc_re * acc_re + acc_im * acc_im


def shift_norms(b) -> list:
    """one_norm of each shifted coefficient."""
    return [abs(v.real) + abs(v.imag) for v in b]


def shift_order(norms) -> int:
    """The order k of a shift from its coefficient norms: the first j >= 1
    whose norm is nonzero.  A norm is 0 exactly when the coefficient is."""
    return next(j for j in range(1, len(norms)) if norms[j] != 0)
