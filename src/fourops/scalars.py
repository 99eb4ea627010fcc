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
packages the two product inequalities as a checkable verdict.  For exact
values it writes z = (a + b*i)/d and w = (c + e*i)/f over common
denominators, so that both sides are integers over d*f:

    one_norm(z) * one_norm(w) = (|a| + |b|) * (|c| + |e|) / (d*f)
    one_norm(z * w)           = (|ac - be| + |ae + bc|) / (d*f)

``holds`` multiplies both inequalities through by the positive 2*d*f and
compares the integers; the verdict's three Fraction fields are built on
first read.

Two scalar backends share one algorithm.  Exact values carry ``int`` or
``fractions.Fraction`` components (Fraction keeps lowest terms and a
positive denominator on its own).  Float values carry ordinary binary
``float`` components.  ``ComplexScalar`` divides by the one fixed formula

    z / w = z * conj(w) / (Re(w)^2 + Im(w)^2)

so its results are bit-for-bit reproducible in the float backend.

``ComplexScalar`` also answers to the spellings of builtin ``complex``
(``real``, ``imag``, ``conjugate()``), so the kernels in ``poly`` and the
solver's descent round are written once and run on either type, using
+ and x only: on ``ComplexScalar`` when both the polynomial and the point
are exact, else on builtin ``complex`` (``Polynomial.kernel_args``).
CPython evaluates those with the same IEEE expressions as
``ComplexScalar.__add__`` and ``__mul__``, so both types give the same
bits.  The kernels never divide complex values (CPython's complex
division is Smith's method, which rounds differently from the formula
above) and never take ``abs()`` of one, which is a square root.

The package's value types (``ComplexScalar`` here, ``Polynomial``,
``SolverConfig``, ``RootResult`` and the rest) are hand-written frozen
``__slots__`` classes on ``_Frozen``, which gives them the immutability,
``==``, ``hash``, repr and pickling of a frozen slotted dataclass at no
import cost.  Its subclass ``_LazyFields`` holds values whose fields are
built on first read from the parts their producer computed: the three
exact verdicts (``NormProductVerdict`` here, the direct and termwise
verdicts of ``estermann``), from their integers, and
``solver.DescentTrace``, whose steps, exact or float, wait as the parts
of their records.
"""

from __future__ import annotations

import math
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
    "conjugation_keeps_norm",
    "gaussian_parts",
    "product_bounds_hold",
    "scalar_to_json",
    "scalar_from_json",
    "complex_to_json",
    "complex_from_json",
]


def _is_exact(value: Scalar) -> bool:
    return not isinstance(value, float)


# Sets a slot of a frozen value; bound once, because the hot constructors
# (``ComplexScalar``, ``DescentStep``) call it for every field.
_setattr = object.__setattr__


def _frozen_error(message: str) -> AttributeError:
    # Imported here, on the error path only: the module costs milliseconds
    # at every start, and nothing else in the package needs it.
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields, in constructor order, as its
    ``__slots__`` and ``__match_args__``, and its ``__init__`` sets them
    with ``_setattr``.  The base gives it what a frozen slotted dataclass
    with those fields has: assigning or deleting any name raises
    ``FrozenInstanceError``, ``==`` compares the tuples of field values of
    two instances of the same class (NotImplemented for any other class),
    ``hash`` is the hash of that tuple, the repr is
    ``Name(field=value, ...)`` over the fields not listed in
    ``_repr_omits``, and ``__reduce__`` rebuilds an instance through its
    constructor, so pickle and ``copy`` work.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _repr_omits: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__match_args__
            if name not in self._repr_omits
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class ComplexScalar(_Frozen):
    """An immutable complex number with explicit real and imaginary parts.

    This is the type of every value the API takes and returns.  The builtin
    ``complex`` is float-only and its ``abs`` takes a square root, so it
    appears only inside the kernels and the descent round (see the module
    docstring).  Components may be ``int``/``Fraction`` (exact backend) or
    ``float``; mixing a float into an exact value demotes results to float,
    as ordinary Python arithmetic would.
    """

    __slots__ = __match_args__ = ("re", "im")

    def __init__(self, re: Scalar, im: Scalar):
        _setattr(self, "re", re)
        _setattr(self, "im", im)

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


class _LazyFields(_Frozen):
    """Immutable value whose fields are built from its parts on first read.

    A subclass lists its public fields as its ``__slots__`` and
    ``__match_args__``, and keeps the parts its producer computed (an
    exact verdict's integers, a descent's unbuilt steps) in the ``_parts``
    slot, or None when the public constructor was given the fields
    themselves.  A verdict's predicates decide on ``_parts`` when it is
    set.  The first read of a field (``==``, ``hash`` and ``repr`` read
    every field) calls the subclass's ``_field_values()`` and stores the
    results.  Immutability, equality, hashing, the repr and pickling are
    ``_Frozen``'s.
    """

    __slots__ = ("_parts",)

    @classmethod
    def _from_parts(cls, parts):
        value = object.__new__(cls)
        _setattr(value, "_parts", parts)
        return value

    def _set_fields(self, values) -> None:
        for name, value in zip(self.__match_args__, values):
            _setattr(self, name, value)

    def __getattr__(self, name):
        # Reached only for an unset slot: a field not yet built.
        if name not in self.__match_args__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._set_fields(self._field_values())
        return object.__getattribute__(self, name)


class NormProductVerdict(_LazyFields):
    """Outcome of checking one_norm(z)*one_norm(w)/2 <= one_norm(z*w)
    <= one_norm(z)*one_norm(w) for a concrete pair.

    ``check_norm_product`` on an exact pair keeps the integers
    (norms, product_norm, d*f), where the three fields are
    norms/(2*d*f), product_norm/(d*f) and norms/(d*f), and d*f is None
    for int parts (fields norms/2, product_norm and norms).  ``holds``
    multiplies through by 2*d*f > 0 and compares integers.
    """

    __slots__ = __match_args__ = ("lower_bound", "product_norm", "upper_bound")

    def __init__(self, lower_bound: Scalar, product_norm: Scalar, upper_bound: Scalar):
        self._set_fields((lower_bound, product_norm, upper_bound))
        _setattr(self, "_parts", None)

    def _field_values(self) -> tuple:
        norms, product_norm, df = self._parts
        if df is None:
            return Fraction(norms, 2), product_norm, norms
        return Fraction(norms, 2 * df), Fraction(product_norm, df), Fraction(norms, df)

    @property
    def holds(self) -> bool:
        if self._parts is None:
            return product_bounds_hold(self.lower_bound, self.product_norm, self.upper_bound)
        norms, product_norm, _ = self._parts
        return product_bounds_hold(norms, 2 * product_norm, 2 * norms)


def gaussian_parts(z) -> tuple[int, int, int]:
    """Integers (x, y, d) with z = (x + y*i)/d for an exact z, d > 0 the
    least common denominator of its parts.  The exact solver's iterates
    have parts that share most of their denominator, so the lcm keeps its
    integers far smaller than the product would."""
    (p, q), (r, s) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = math.lcm(q, s)
    return p * (d // q), r * (d // s), d


def _over_common_denominator(z: ComplexScalar) -> tuple[int, int, int]:
    """Integers (a, b, d) with z = (a + b*i)/d and d > 0; z exact.  d is
    the product of the part denominators: for the unrelated denominators
    of sampled values the lcm's gcd costs more than it saves."""
    (p, q), (r, s) = z.re.as_integer_ratio(), z.im.as_integer_ratio()
    return p * s, r * q, q * s


def check_norm_product(z: ComplexScalar, w: ComplexScalar) -> NormProductVerdict:
    """Evaluate both taxicab product inequalities for the pair (z, w).

    When every part is an int or a Fraction, both norms are computed on
    the integer numerators over the common denominator d*f (see the module
    docstring), each part read with one ``as_integer_ratio()`` call, and
    ``holds`` is decided on those integers; the verdict's fields are
    built as Fractions when first read.  Int parts give int norms, as int
    arithmetic always has.  A pair with a float part, of a float subclass
    too, is evaluated in float arithmetic.
    """
    zr, zi, wr, wi = z.re, z.im, w.re, w.im
    if (
        isinstance(zr, float)
        or isinstance(zi, float)
        or isinstance(wr, float)
        or isinstance(wi, float)
    ):
        norms = z.one_norm() * w.one_norm()
        return NormProductVerdict(norms / 2, (z * w).one_norm(), norms)
    # One call per part: numerator and denominator are Python properties.
    p, q = zr.as_integer_ratio()
    r, s = zi.as_integer_ratio()
    a, b, d = p * s, r * q, q * s
    p, q = wr.as_integer_ratio()
    r, s = wi.as_integer_ratio()
    c, e, f = p * s, r * q, q * s
    norms = (abs(a) + abs(b)) * (abs(c) + abs(e))
    product_norm = abs(a * c - b * e) + abs(a * e + b * c)
    df = d * f
    if (
        df == 1
        and isinstance(zr, int)
        and isinstance(zi, int)
        and isinstance(wr, int)
        and isinstance(wi, int)
    ):
        return NormProductVerdict._from_parts((norms, product_norm, None))
    return NormProductVerdict._from_parts((norms, product_norm, df))


def conjugation_keeps_norm(z: ComplexScalar) -> bool:
    """one_norm(conj(z)) == one_norm(z) for an exact z, compared on integer
    numerators: with z = (a + b*i)/d and conj(z) = (c + e*i)/f over common
    denominators, (|a| + |b|) * f == (|c| + |e|) * d."""
    a, b, d = _over_common_denominator(z)
    c, e, f = _over_common_denominator(z.conj())
    return (abs(a) + abs(b)) * f == (abs(c) + abs(e)) * d


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
    """A scalar from its JSON form: a string is an exact rational such as
    "p/q", "p" or "1.25", a number is a float.  A string with an exponent
    part ("1e5") raises ValueError: ``Fraction`` would expand it into an
    integer exactly, which for "1e99999999999" takes unbounded time and
    memory."""
    if isinstance(raw, str):
        if "e" in raw or "E" in raw:
            raise ValueError(f"exact scalar {raw!r} has an exponent part; write it as p/q")
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
