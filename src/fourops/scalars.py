"""Complex arithmetic over exact rational or binary floating point scalars.

Every operation here uses only addition, subtraction, multiplication and
division.  There is no square root anywhere: the magnitude of a complex
value is measured with the taxicab norm

    one_norm(z) = |Re z| + |Im z|

which satisfies, for all z and w,

    one_norm(z) * one_norm(w) / 2  <=  one_norm(z * w)
                                   <=  one_norm(z) * one_norm(w)

and is invariant under conjugation.  Those three facts are what the
solver and the verification harnesses rely on, and ``check_norm_product``
packages the two product inequalities as a checkable verdict.

Two scalar backends share one algorithm.  Exact values carry ``int`` or
``fractions.Fraction`` components (Fraction keeps lowest terms and a
positive denominator on its own).  Float values carry ordinary binary
``float`` components.  ``ComplexScalar`` divides by the one fixed formula

    z / w = z * conj(w) / (Re(w)^2 + Im(w)^2)

so its results are bit-for-bit reproducible in the float backend.

``ComplexScalar`` also answers to the spellings of builtin ``complex``
(``real``, ``imag``, ``conjugate()``), so the kernels in ``poly`` and the
solver's descent round are written once and run on either type: on
builtin ``complex`` for float points, using + and x only.  CPython
evaluates those with the same IEEE expressions as ``ComplexScalar.__add__``
and ``__mul__``, so both types give the same bits.  The kernels never
divide complex values (CPython's complex division is Smith's method,
which rounds differently from the formula above) and never take ``abs()``
of one, which is a square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]

__all__ = [
    "Scalar",
    "ComplexScalar",
    "ZERO",
    "ONE",
    "I",
    "NormProductVerdict",
    "check_norm_product",
    "product_bounds_hold",
    "scalar_to_json",
    "scalar_from_json",
    "complex_to_json",
    "complex_from_json",
]


def _is_exact(value: Scalar) -> bool:
    return not isinstance(value, float)


@dataclass(frozen=True, slots=True)
class ComplexScalar:
    """An immutable complex number with explicit real and imaginary parts.

    This is the type of every value the API takes and returns.  The builtin
    ``complex`` is float-only and its ``abs`` takes a square root, so it
    appears only inside the kernels and the descent round (see the module
    docstring).  Components may be ``int``/``Fraction`` (exact backend) or
    ``float``; mixing a float into an exact value demotes results to float,
    as ordinary Python arithmetic would.
    """

    re: Scalar
    im: Scalar

    def is_exact(self) -> bool:
        return _is_exact(self.re) and _is_exact(self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conj(self) -> "ComplexScalar":
        return ComplexScalar(self.re, -self.im)

    # The spellings of builtin ``complex``, so that the solver's kernels run
    # unchanged on either type (see the module docstring).
    conjugate = conj

    @property
    def real(self) -> Scalar:
        return self.re

    @property
    def imag(self) -> Scalar:
        return self.im

    def one_norm(self) -> Scalar:
        """Taxicab magnitude |Re| + |Im|.  Absolute values are sign flips."""
        return abs(self.re) + abs(self.im)

    def to_float(self) -> "ComplexScalar":
        return ComplexScalar(float(self.re), float(self.im))

    def __neg__(self) -> "ComplexScalar":
        return ComplexScalar(-self.re, -self.im)

    def __add__(self, other: "ComplexScalar") -> "ComplexScalar":
        if not isinstance(other, ComplexScalar):
            return NotImplemented
        return ComplexScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexScalar") -> "ComplexScalar":
        if not isinstance(other, ComplexScalar):
            return NotImplemented
        return ComplexScalar(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, ComplexScalar):
            return ComplexScalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, float, Fraction)):
            return ComplexScalar(self.re * other, self.im * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return ComplexScalar(self.re * other, self.im * other)
        return NotImplemented

    def __truediv__(self, other: "ComplexScalar") -> "ComplexScalar":
        if not isinstance(other, ComplexScalar):
            return NotImplemented
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by the zero complex value")
        if _is_exact(denom):
            # Keep pure-int inputs exact instead of letting / produce floats.
            denom = Fraction(denom)
        num = self * other.conj()
        return ComplexScalar(num.re / denom, num.im / denom)

    def pow_int(self, exponent: int) -> "ComplexScalar":
        """The exponent-fold product of the value with itself (exponent >= 0).

        Computed by repeated multiplication so the exact backend reproduces
        literally "z multiplied by itself k times".
        """
        if exponent < 0:
            raise ValueError("pow_int requires a nonnegative exponent")
        result = ComplexScalar(1, 0)
        for _ in range(exponent):
            result = result * self
        return result


ZERO = ComplexScalar(0, 0)
ONE = ComplexScalar(1, 0)
I = ComplexScalar(0, 1)


def product_bounds_hold(lower: Scalar, value: Scalar, upper: Scalar) -> bool:
    """The bare comparison used by the norm-product verdict, kept separate
    so harness tests can feed it deliberately corrupted middle values."""
    return lower <= value <= upper


@dataclass(frozen=True, slots=True)
class NormProductVerdict:
    """Outcome of checking one_norm(z)*one_norm(w)/2 <= one_norm(z*w)
    <= one_norm(z)*one_norm(w) for a concrete pair."""

    lower_bound: Scalar
    product_norm: Scalar
    upper_bound: Scalar

    @property
    def holds(self) -> bool:
        return product_bounds_hold(self.lower_bound, self.product_norm, self.upper_bound)


def check_norm_product(z: ComplexScalar, w: ComplexScalar) -> NormProductVerdict:
    """Evaluate both taxicab product inequalities for the pair (z, w)."""
    norms = z.one_norm() * w.one_norm()
    half = norms / 2 if isinstance(norms, float) else Fraction(norms, 2)
    return NormProductVerdict(half, (z * w).one_norm(), norms)


# ---------------------------------------------------------------------------
# Serialization: exact scalars as "num/den" strings, floats as JSON numbers,
# complex values as [re, im] pairs.
# ---------------------------------------------------------------------------


def scalar_to_json(value: Scalar):
    if isinstance(value, float):
        return value
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def scalar_from_json(raw) -> Scalar:
    if isinstance(raw, str):
        return Fraction(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"not a scalar: {raw!r}")
    return float(raw)


def complex_to_json(z: ComplexScalar) -> list:
    return [scalar_to_json(z.re), scalar_to_json(z.im)]


def complex_from_json(raw) -> ComplexScalar:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValueError(f"a complex value must be a [re, im] pair, got {raw!r}")
    return ComplexScalar(scalar_from_json(raw[0]), scalar_from_json(raw[1]))
