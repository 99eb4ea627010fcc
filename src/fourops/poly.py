"""Polynomials over the shared complex scalar type, plus the pieces the
descent solver needs: Horner evaluation, the square-magnitude objective,
Taylor shifts by repeated synthetic division, a certified search radius,
and synthetic-division deflation.

Coefficients are stored in ascending order (constant term first).  The
degree-n coefficient is nonzero after construction; literal zero
coefficients at the high end are trimmed.

Kernels.  Horner evaluation, the objective and the Taylor shift are
module functions over one value type (``Polynomial.native`` picks it):
builtin ``complex`` (a copy of the coefficients cached on the polynomial)
when both parts of the point are ``float``, ``ComplexScalar`` otherwise.
They use + and x only, and read values through ``real``, ``imag`` and
``conjugate()``, which both types have.  CPython computes complex + and x
with the same IEEE expressions as ``ComplexScalar.__add__`` / ``__mul__``,
and converting an ``int`` or ``Fraction`` part to ``float`` rounds exactly
as Python's mixed arithmetic does, so both types give the same bits.  No
complex division and no ``abs()`` of a complex value occur, so there is no
square root and no Smith division.  The methods convert back to
``ComplexScalar`` only for what they return; the solver's descent round
calls the kernels directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import ComplexScalar, ZERO, complex_from_json, complex_to_json

# A shifted coefficient counts as vanished (float backend only) when its
# one_norm is at most this fraction of the largest shifted coefficient
# one_norm.  Tight enough that genuine terms of reasonably scaled inputs
# survive, loose enough that pure rounding debris does not fake a term.
REL_ZERO_EPS = 2.0**-40

__all__ = ["REL_ZERO_EPS", "NonFiniteObjectiveError", "Polynomial", "ShiftDecomposition"]


class NonFiniteObjectiveError(ArithmeticError):
    """The float objective is not a finite real number: P(z) is infinite or
    NaN, or the product Re P(z) * Im P(z) overflowed, so the imaginary
    part of P(z) * conj(P(z)) did not cancel to 0."""


@dataclass(frozen=True, slots=True)
class ShiftDecomposition:
    """P rewritten around a point z0:  P(z0 + h) = base_value + h^order * quotient(h).

    The quotient's constant term is nonzero, so ``order`` is the lowest
    power of h that actually moves the value away from ``base_value``.
    """

    base_value: ComplexScalar
    order: int
    quotient: "Polynomial"

    def evaluate_at(self, h: ComplexScalar) -> ComplexScalar:
        """base_value + h^order * quotient(h), for reconstruction checks."""
        return self.base_value + h.pow_int(self.order) * self.quotient.evaluate(h)


@dataclass(frozen=True, slots=True)
class Polynomial:
    coeffs: tuple[ComplexScalar, ...]
    # The coefficients as builtin complex values, built by the first
    # ``native`` call at a float point.
    _complex: tuple[complex, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        # After the trim only the last coefficient can be the zero value.
        if not coeffs or coeffs[-1].is_zero:
            raise ValueError("the zero polynomial is not representable")
        object.__setattr__(self, "coeffs", coeffs)

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

    def coeff_one_norm(self):
        """Sum of coefficient one-norms; the natural scale of the polynomial."""
        total = self.coeffs[0].one_norm()
        for c in self.coeffs[1:]:
            total = total + c.one_norm()
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

    def trailing_zero_order(self) -> int:
        """Index of the first literally nonzero coefficient (0 if a0 != 0).

        Equals the multiplicity of z = 0 as a root when positive.
        """
        for j, c in enumerate(self.coeffs):
            if not c.is_zero:
                return j
        raise AssertionError("unreachable: zero polynomial is rejected at construction")

    # -- evaluation -------------------------------------------------------------

    def native(self, z: ComplexScalar) -> tuple[tuple, complex | ComplexScalar]:
        """The coefficients and z in the kernels' value type: builtin
        ``complex`` when both parts of z are ``float`` and the degree is at
        least 1, else the ``ComplexScalar`` values themselves (so exact
        points stay exact and degree 0 keeps its coefficient's parts)."""
        if len(self.coeffs) > 1 and isinstance(z.re, float) and isinstance(z.im, float):
            coeffs = self._complex
            if coeffs is None:
                coeffs = tuple(complex(c.re, c.im) for c in self.coeffs)
                object.__setattr__(self, "_complex", coeffs)
            return coeffs, complex(z.re, z.im)
        return self.coeffs, z

    def evaluate(self, z: ComplexScalar) -> ComplexScalar:
        """Horner evaluation from the leading coefficient down."""
        coeffs, w = self.native(z)
        value = horner(coeffs, w)
        return ComplexScalar(value.real, value.imag)

    def objective(self, z: ComplexScalar):
        """f(z) = P(z) * conj(P(z)), a real nonnegative scalar (see
        ``square_modulus``)."""
        coeffs, w = self.native(z)
        return square_modulus(coeffs, w)

    # -- Taylor shift -------------------------------------------------------------

    def taylor_shift(self, z0: ComplexScalar) -> ShiftDecomposition:
        """Expand P around z0 by n rounds of synthetic division (Horner with
        remainders), giving P(z0 + h) = P(z0) + h^k Q(h) with Q(0) != 0.

        Exact backend: k is the first index >= 1 whose shifted coefficient
        is exactly nonzero.  Float backend: a coefficient is treated as
        vanished when its one_norm is <= REL_ZERO_EPS times the largest
        shifted coefficient one_norm, which keeps k stable when z0 sits
        near a root and low coefficients turn into rounding residue.
        """
        n = self.degree
        if n < 1:
            raise ValueError("taylor_shift requires degree >= 1")
        coeffs, w = self.native(z0)
        b = shifted(coeffs, w)
        norms = shift_norms(b, self.coeffs[n].one_norm())
        order = shift_order(norms, self.is_exact() and z0.is_exact())
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
        """
        n = self.degree
        if n < 1:
            raise ValueError("deflate requires degree >= 1")
        q: list = [None] * n
        q[n - 1] = self.coeffs[n]
        for j in range(n - 1, 0, -1):
            q[j - 1] = self.coeffs[j] + root * q[j]
        remainder = self.coeffs[0] + root * q[0]
        return Polynomial(tuple(q)), remainder

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
# builtin complex or ComplexScalar (``Polynomial.native`` picks it), and uses
# + and x only.
# ---------------------------------------------------------------------------


def horner(coeffs, z):
    """P(z), from the leading coefficient down."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def square_modulus(coeffs, z):
    """f(z) = P(z) * conj(P(z)) from the parts x, y of P(z).

    The product's imaginary part x*(-y) + y*x cancels identically for
    finite P(z) (also in floats, where both contributions round the same
    way).  When it does not, P(z) or x*y left the float range, and
    NonFiniteObjectiveError is raised rather than the part dropped.
    """
    w = horner(coeffs, z)
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


def shift_norms(b, lead_norm) -> list:
    """one_norm of each shifted coefficient.  The leading one is passed in,
    so it is read from the polynomial's own coefficient, whose parts may be
    int or Fraction (as in a monic ``from_roots`` polynomial), whatever
    type the kernel ran on."""
    norms = [abs(v.real) + abs(v.imag) for v in b[:-1]]
    norms.append(lead_norm)
    return norms


def shift_order(norms, exact: bool) -> int:
    """The order k of a shift from its coefficient norms, by the rule of
    ``Polynomial.taylor_shift``.  A norm is 0 exactly when the coefficient
    is."""
    n = len(norms) - 1
    if not exact:
        threshold = REL_ZERO_EPS * max(norms)
        for j in range(1, n + 1):
            if norms[j] > threshold:
                return j
        # Badly scaled input: fall back to the literal reading.
    return next(j for j in range(1, n + 1) if norms[j] != 0)
