"""Descent directions built from powers of zeta = (1 + i/k)^2, certified
in exact rational arithmetic.

For every even k >= 2 the k-th power of zeta lands strictly inside the
upper-left quadrant:

    Re[zeta^k] < 0 < Im[zeta^k].

That single sign fact is what lets the descent solver move off any point
where the leading correction term has even order.  It is verified here in
two independent ways:

* ``verify_lemma_direct``: compute zeta^k by exact multiplication and
  read off the signs.  Since zeta = ((k^2 - 1) + 2k*i) / k^2, the
  multiplications run on the Gaussian integer (k^2 - 1) + 2k*i, raised
  to the k-th power by repeated squaring, and zeta^k is that power over
  the one denominator k^(2k) > 0.  The verdict keeps the two integers
  and reads its signs off them; the Fraction field is built on first
  read.

* ``verify_lemma_termwise``: expand (1 + i/k)^(2k) binomially and group
  the alternating series so every group is sign-definite.  Writing
  C(m, j) for binomial coefficients, the real part is

      1 - C(2k,2)/k^2 + C(2k,4)/k^4
        + sum over odd j in [3, k-1] of ( -C(2k,2j)/k^(2j) + C(2k,2j+2)/k^(2j+2) )

  where the three-term head is at most -(3/2)*(5k-3)/(6k^2) < 0 and each
  grouped pair is negative, while the imaginary part is

      sum over odd j in [1, k-1] of ( C(2k,2j-1)/k^(2j-1) - C(2k,2j+1)/k^(2j+1) )

  with every grouped pair positive.  Every term C(2k,m)/k^m is the
  integer C(2k,m)*k^(2k-m) over the common denominator k^(2k), so the
  head, the groups, both sums and the directly multiplied power are
  integer numerators over one positive denominator.  The checker
  verifies each group's sign, the closed-form head bound, and that both
  regrouped series sum back exactly to the directly computed power, all
  by comparing those integers; the verdict's Fraction fields are built
  on first read.

For odd k no special direction is needed: the four units 1, -1, i, -i
already have k-th powers covering {1, -1, i, -i}, so one of them opposes
any nonzero alpha.  ``candidate_set`` packages both cases and
``pick_descent_direction`` selects the steepest candidate for a given
alpha.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .poly import NonFiniteObjectiveError
from .scalars import ComplexScalar, _Frozen, _LazyFields, _setattr, gaussian_parts

__all__ = [
    "BinomialTable",
    "DirectionCandidate",
    "DirectVerdict",
    "TermwiseVerdict",
    "estermann_zeta",
    "verify_lemma_direct",
    "verify_lemma_termwise",
    "candidate_set",
    "pick_descent_direction",
]


class BinomialTable:
    """Pascal-triangle rows of exact integers, C(m, j) for m <= m_max.

    Built by the additive recurrence C(m, j) = C(m-1, j-1) + C(m-1, j),
    so no factorials and no division are involved.
    """

    def __init__(self, m_max: int):
        if m_max < 0:
            raise ValueError("m_max must be nonnegative")
        rows = [[1]]
        for m in range(1, m_max + 1):
            prev = rows[m - 1]
            row = [1] * (m + 1)
            for j in range(1, m):
                row[j] = prev[j - 1] + prev[j]
            rows.append(row)
        self._rows = rows
        self.m_max = m_max

    def value(self, m: int, j: int) -> int:
        if not 0 <= m <= self.m_max:
            raise ValueError(f"row {m} outside table (m_max={self.m_max})")
        if not 0 <= j <= m:
            raise ValueError(f"C({m}, {j}) is outside the triangle")
        return self._rows[m][j]

    def row(self, m: int) -> tuple[int, ...]:
        if not 0 <= m <= self.m_max:
            raise ValueError(f"row {m} outside table (m_max={self.m_max})")
        return tuple(self._rows[m])


class DirectionCandidate(_Frozen):
    """A step direction zeta together with its precomputed k-th power."""

    __slots__ = __match_args__ = ("zeta", "zeta_pow_k")

    def __init__(self, zeta: ComplexScalar, zeta_pow_k: ComplexScalar):
        _setattr(self, "zeta", zeta)
        _setattr(self, "zeta_pow_k", zeta_pow_k)

    def to_float(self) -> "DirectionCandidate":
        return DirectionCandidate(self.zeta.to_float(), self.zeta_pow_k.to_float())


def _require_even_k(k: int) -> None:
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k!r}")


def _zeta_power(k: int) -> tuple[int, int]:
    """Integers (pow_re, pow_im) with zeta^k = (pow_re + pow_im*i) / k^(2k):
    the k-th power of the Gaussian integer (k^2 - 1) + 2k*i, by repeated
    squaring.  Integer arithmetic is exact, so these are the integers of
    the k-fold product."""
    re, im = k * k - 1, 2 * k
    pow_re, pow_im = 1, 0
    while True:
        if k & 1:
            pow_re, pow_im = pow_re * re - pow_im * im, pow_re * im + pow_im * re
        k >>= 1
        if not k:
            return pow_re, pow_im
        re, im = re * re - im * im, 2 * re * im


def estermann_zeta(k: int) -> DirectionCandidate:
    """zeta = (1 + i/k)^2 with zeta^k attached, all exact; k even, k >= 2.

    zeta = (re + im*i) / k^2 with the integers re = k^2 - 1 and im = 2k.
    The Gaussian integer re + im*i is raised to the k-th power
    (``_zeta_power``), and the result is put over k^(2k) only when the
    Fractions are built.
    """
    _require_even_k(k)
    re, im, den = k * k - 1, 2 * k, k * k
    pow_re, pow_im = _zeta_power(k)
    pow_den = den**k
    return DirectionCandidate(
        ComplexScalar(Fraction(re, den), Fraction(im, den)),
        ComplexScalar(Fraction(pow_re, pow_den), Fraction(pow_im, pow_den)),
    )


class DirectVerdict(_LazyFields):
    """Outcome of the direct check of the quadrant lemma for one k: the
    power zeta^k, multiplied out exactly, and whether it lies in the open
    second quadrant.

    ``verify_lemma_direct`` keeps the integers it computed as ``_parts``
    = (k, pow_re, pow_im), with zeta^k = (pow_re + pow_im*i) / k^(2k).
    ``holds`` reads their signs, since k^(2k) > 0; the field ``power`` is
    built when first read.
    """

    __slots__ = __match_args__ = ("k", "power")

    def __init__(self, k: int, power: ComplexScalar):
        self._set_fields((k, power))
        _setattr(self, "_parts", None)

    def _field_values(self) -> tuple:
        k, pow_re, pow_im = self._parts
        den = k ** (2 * k)
        return k, ComplexScalar(Fraction(pow_re, den), Fraction(pow_im, den))

    @property
    def holds(self) -> bool:
        if self._parts is None:
            return self.power.re < 0 and self.power.im > 0
        _, pow_re, pow_im = self._parts
        return pow_re < 0 and pow_im > 0


def verify_lemma_direct(k: int) -> DirectVerdict:
    """Sign check on zeta^k computed by exact multiplication."""
    _require_even_k(k)
    return DirectVerdict._from_parts((k,) + _zeta_power(k))


class TermwiseVerdict(_LazyFields):
    """Outcome of the termwise check of the quadrant lemma for one k.

    ``verify_lemma_termwise`` keeps the integers it computed as
    ``_parts`` = (k, den, head, real_groups, imag_groups, real_sum,
    imag_sum, pow_re, pow_im), every one after den a numerator over
    den = k^(2k): the head, the real and imaginary groups, their sums and
    the directly multiplied power zeta^k.  The predicates compare those
    integers; the Fraction fields are built when first read.
    """

    __slots__ = __match_args__ = (
        "k",
        "head",
        "head_bound",
        "real_groups",
        "imag_groups",
        "real_sum",
        "imag_sum",
        "direct",
    )

    def __init__(
        self,
        k: int,
        head: Fraction,
        head_bound: Fraction,
        real_groups: tuple[Fraction, ...],
        imag_groups: tuple[Fraction, ...],
        real_sum: Fraction,
        imag_sum: Fraction,
        direct: ComplexScalar,
    ):
        self._set_fields(
            (k, head, head_bound, real_groups, imag_groups, real_sum, imag_sum, direct)
        )
        _setattr(self, "_parts", None)

    def _field_values(self) -> tuple:
        k, den, head, real_groups, imag_groups, real_sum, imag_sum, pow_re, pow_im = self._parts

        def over_den(n: int) -> Fraction:
            return Fraction(n, den)

        return (
            k,
            over_den(head),
            Fraction(3 * (3 - 5 * k), 12 * k * k),
            tuple(map(over_den, real_groups)),
            tuple(map(over_den, imag_groups)),
            over_den(real_sum),
            over_den(imag_sum),
            ComplexScalar(over_den(pow_re), over_den(pow_im)),
        )

    @property
    def head_ok(self) -> bool:
        if self._parts is None:
            return self.head < 0 and self.head <= self.head_bound
        k, den, head = self._parts[:3]
        # head / den <= 3(3 - 5k)/(12k^2), multiplied through by 12k^2 * den > 0.
        return head < 0 and head * 12 * k * k <= 3 * (3 - 5 * k) * den

    @property
    def real_groups_ok(self) -> bool:
        groups = self.real_groups if self._parts is None else self._parts[3]
        return all(g < 0 for g in groups)

    @property
    def imag_groups_ok(self) -> bool:
        groups = self.imag_groups if self._parts is None else self._parts[4]
        return all(g > 0 for g in groups)

    @property
    def matches_direct(self) -> bool:
        if self._parts is None:
            return self.real_sum == self.direct.re and self.imag_sum == self.direct.im
        real_sum, imag_sum, pow_re, pow_im = self._parts[5:]
        return real_sum == pow_re and imag_sum == pow_im

    @property
    def holds(self) -> bool:
        return (
            self.head_ok
            and self.real_groups_ok
            and self.imag_groups_ok
            and self.matches_direct
        )


def verify_lemma_termwise(k: int, table: BinomialTable | None = None) -> TermwiseVerdict:
    """Sign-definite regrouping of the binomial expansion of (1 + i/k)^(2k).

    Checks, in exact rationals: the three-term head of the real part is
    below its closed-form bound -(3/2)*(5k-3)/(6k^2); every later real
    group is negative; every imaginary group is positive; and both
    regrouped sums equal the directly multiplied power.  The sums are
    formed on integer numerators over k^(2k), independently of the
    direct power they are compared with.
    """
    _require_even_k(k)
    if table is None:
        table = BinomialTable(2 * k)
    elif table.m_max < 2 * k:
        raise ValueError(f"table holds rows up to {table.m_max}, need {2 * k}")

    # For m >= 1, term[m] / den = C(2k, m) / k^m, the m-th term of the expansion.
    den = k ** (2 * k)
    term = list(table.row(2 * k))
    scale = 1
    for m in range(2 * k, 0, -1):
        term[m] *= scale
        scale *= k

    head = den - term[2] + term[4]
    real_groups = tuple(-term[2 * j] + term[2 * j + 2] for j in range(3, k, 2))
    imag_groups = tuple(term[2 * j - 1] - term[2 * j + 1] for j in range(1, k, 2))
    return TermwiseVerdict._from_parts(
        (k, den, head, real_groups, imag_groups, head + sum(real_groups), sum(imag_groups))
        + _zeta_power(k)
    )


_UNIT_DIRECTIONS = (
    ComplexScalar(1, 0),
    ComplexScalar(-1, 0),
    ComplexScalar(0, 1),
    ComplexScalar(0, -1),
)


@lru_cache(maxsize=None)
def candidate_set(k: int) -> tuple[DirectionCandidate, ...]:
    """Exact candidate directions for a leading correction term of order k.

    Odd k: the four units (their k-th powers are again the four units,
    so some candidate makes Re[alpha * zeta^k] = -max(|Re alpha|, |Im alpha|)).
    Even k: 1 plus the two conjugate quadrant directions from
    ``estermann_zeta``, which cover every sign pattern of alpha.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if k % 2 == 1:
        return tuple(DirectionCandidate(u, u.pow_int(k)) for u in _UNIT_DIRECTIONS)
    est = estermann_zeta(k)
    one = ComplexScalar(1, 0)
    conj = DirectionCandidate(est.zeta.conj(), est.zeta_pow_k.conj())
    return (DirectionCandidate(one, one.pow_int(k)), est, conj)


@lru_cache(maxsize=None)
def _scored_candidates(k: int) -> tuple:
    """(candidate, zeta, zeta^k, one_norm(zeta^k)) for each candidate of
    order k rounded to float, with zeta and zeta^k builtin complex."""
    scored = []
    for c in map(DirectionCandidate.to_float, candidate_set(k)):
        zeta, zk = c.zeta, c.zeta_pow_k
        scored.append((c, complex(zeta.re, zeta.im), complex(zk.re, zk.im), zk.one_norm()))
    return tuple(scored)


@lru_cache(maxsize=None)
def _gaussian_candidates(k: int) -> tuple:
    """(candidate, u, v, |u| + |v|, q) with zeta^k = (u + v*i)/q for each
    exact candidate of order k."""
    scored = []
    for c in candidate_set(k):
        u, v, q = gaussian_parts(c.zeta_pow_k)
        scored.append((c, u, v, abs(u) + abs(v), q))
    return tuple(scored)


def steepest_candidate(alpha, k: int):
    """``pick_descent_direction`` for alpha of the kernels' value types:
    builtin complex (float mode, among the candidates rounded to float) or
    an exact ComplexScalar.  Returns (candidate, zeta in alpha's type,
    Re[alpha * zeta^k]).

    An exact alpha picks on integers, with int parts as with Fraction
    ones: with alpha = (a + b*i)/d (d = 1 for int parts) and
    zeta^k = (u + v*i)/q, the ratio is (au - bv) / (d * one_norm(alpha) *
    (|u| + |v|)), so candidates compare by cross-multiplying n = au - bv
    against m = |u| + |v|, and Re[alpha * zeta^k] is the Fraction
    n / (d q).

    A float alpha leaves no candidate with Re[alpha * zeta^k] < 0 only
    when it is outside the float range (alpha = conj(P(w)) * b_k can
    overflow where f(w) does not) or so small that every product
    underflows to 0; that raises NonFiniteObjectiveError, which ends a
    solve like a non-finite objective.  For an exact alpha it cannot
    happen (ArithmeticError)."""
    re, im = alpha.real, alpha.imag
    if re == 0 and im == 0:
        raise ValueError("alpha must be nonzero (the point is already a root)")
    best = None
    if type(alpha) is not complex:
        a, b, d = gaussian_parts(alpha)
        for candidate, u, v, m, q in _gaussian_candidates(k):
            n = a * u - b * v
            if best is None or n * best_m < best_n * m:
                best, best_n, best_m, best_q = candidate, n, m, q
        if best_n >= 0:
            raise ArithmeticError(
                f"no descent direction for alpha={alpha!r}, k={k}; "
                "candidate set is incomplete"
            )
        return best, best.zeta, Fraction(best_n, d * best_q)
    alpha_norm = abs(re) + abs(im)
    for candidate, zeta, zk, zk_norm in _scored_candidates(k):
        num = re * zk.real - im * zk.imag  # Re[alpha * zeta^k]
        ratio = num / (alpha_norm * zk_norm)
        if best is None or ratio < best_ratio:
            best, best_zeta, best_ratio, best_num = candidate, zeta, ratio, num
    if not best_num < 0:
        raise NonFiniteObjectiveError(
            f"no float descent direction for alpha={ComplexScalar(re, im)!r}, k={k}: "
            "Re[alpha * zeta^k] overflowed or underflowed"
        )
    return best, best_zeta, best_num


def pick_descent_direction(alpha: ComplexScalar, k: int) -> DirectionCandidate:
    """The candidate minimizing Re[alpha * zeta^k] / (one_norm(alpha) *
    one_norm(zeta^k)); its numerator is strictly negative for alpha != 0.

    Normalizing by the candidate's own one_norm(zeta^k) keeps the unit
    directions and the longer quadrant directions comparable.  Ties keep
    the earliest candidate in enumeration order.  An alpha with a float
    part is rounded to builtin complex and picks among the candidates
    rounded to float.
    """
    if not alpha.is_exact():
        alpha = complex(alpha.re, alpha.im)
    return steepest_candidate(alpha, k)[0]
