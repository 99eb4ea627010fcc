"""Descent directions built from powers of zeta = (1 + i/k)^2, certified
in exact rational arithmetic.

For every even k >= 2 the k-th power of zeta lands strictly inside the
upper-left quadrant:

    Re[zeta^k] < 0 < Im[zeta^k].

That single sign fact is what lets the descent solver move off any point
where the leading correction term has even order.  It is verified here in
two independent ways:

* ``verify_lemma_direct``: compute zeta^k by repeated exact
  multiplication and read off the signs.

* ``verify_lemma_termwise``: expand (1 + i/k)^(2k) binomially and group
  the alternating series so every group is sign-definite.  Writing
  C(m, j) for binomial coefficients, the real part is

      1 - C(2k,2)/k^2 + C(2k,4)/k^4
        + sum over odd j in [3, k-1] of ( -C(2k,2j)/k^(2j) + C(2k,2j+2)/k^(2j+2) )

  where the three-term head is at most -(3/2)*(5k-3)/(6k^2) < 0 and each
  grouped pair is negative, while the imaginary part is

      sum over odd j in [1, k-1] of ( C(2k,2j-1)/k^(2j-1) - C(2k,2j+1)/k^(2j+1) )

  with every grouped pair positive.  The checker verifies each group's
  sign, the closed-form head bound, and that both regrouped series sum
  back exactly to the directly computed power.

For odd k no special direction is needed: the four units 1, -1, i, -i
already have k-th powers covering {1, -1, i, -i}, so one of them opposes
any nonzero alpha.  ``candidate_set`` packages both cases and
``pick_descent_direction`` selects the steepest candidate for a given
alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scalars import ComplexScalar

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


@dataclass(frozen=True, slots=True)
class DirectionCandidate:
    """A step direction zeta together with its precomputed k-th power."""

    zeta: ComplexScalar
    zeta_pow_k: ComplexScalar

    def to_float(self) -> "DirectionCandidate":
        return DirectionCandidate(self.zeta.to_float(), self.zeta_pow_k.to_float())


def _require_even_k(k: int) -> None:
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k!r}")


def estermann_zeta(k: int) -> DirectionCandidate:
    """zeta = (1 + i/k)^2 with zeta^k attached, all exact; k even, k >= 2."""
    _require_even_k(k)
    base = ComplexScalar(1, Fraction(1, k))
    zeta = base.pow_int(2)
    return DirectionCandidate(zeta, zeta.pow_int(k))


@dataclass(frozen=True, slots=True)
class DirectVerdict:
    k: int
    power: ComplexScalar

    @property
    def holds(self) -> bool:
        return self.power.re < 0 and self.power.im > 0


def verify_lemma_direct(k: int) -> DirectVerdict:
    """Sign check on zeta^k computed by repeated exact multiplication."""
    return DirectVerdict(k, estermann_zeta(k).zeta_pow_k)


@dataclass(frozen=True, slots=True)
class TermwiseVerdict:
    k: int
    head: Fraction
    head_bound: Fraction
    real_groups: tuple[Fraction, ...]
    imag_groups: tuple[Fraction, ...]
    real_sum: Fraction
    imag_sum: Fraction
    direct: ComplexScalar

    @property
    def head_ok(self) -> bool:
        return self.head < 0 and self.head <= self.head_bound

    @property
    def real_groups_ok(self) -> bool:
        return all(g < 0 for g in self.real_groups)

    @property
    def imag_groups_ok(self) -> bool:
        return all(g > 0 for g in self.imag_groups)

    @property
    def matches_direct(self) -> bool:
        return self.real_sum == self.direct.re and self.imag_sum == self.direct.im

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
    regrouped sums equal the directly multiplied power.
    """
    _require_even_k(k)
    if table is None:
        table = BinomialTable(2 * k)
    elif table.m_max < 2 * k:
        raise ValueError(f"table holds rows up to {table.m_max}, need {2 * k}")

    def c_over_k(j: int, power: int) -> Fraction:
        return Fraction(table.value(2 * k, j), k**power)

    head = 1 - c_over_k(2, 2) + c_over_k(4, 4)
    head_bound = -Fraction(3, 2) * Fraction(5 * k - 3, 6 * k * k)

    real_groups = tuple(
        -c_over_k(2 * j, 2 * j) + c_over_k(2 * j + 2, 2 * j + 2)
        for j in range(3, k, 2)
    )
    imag_groups = tuple(
        c_over_k(2 * j - 1, 2 * j - 1) - c_over_k(2 * j + 1, 2 * j + 1)
        for j in range(1, k, 2)
    )

    real_sum = head + sum(real_groups, Fraction(0))
    imag_sum = sum(imag_groups, Fraction(0))
    direct = estermann_zeta(k).zeta_pow_k
    return TermwiseVerdict(
        k=k,
        head=head,
        head_bound=head_bound,
        real_groups=real_groups,
        imag_groups=imag_groups,
        real_sum=real_sum,
        imag_sum=imag_sum,
        direct=direct,
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
def _scored_candidates(k: int, float_mode: bool, native: type) -> tuple:
    """(candidate, zeta, zeta^k, one_norm(zeta^k)) for each candidate of
    order k, with float parts in float mode, and zeta and zeta^k in the
    value type ``native`` (builtin complex or ComplexScalar)."""
    candidates = candidate_set(k)
    if float_mode:
        candidates = tuple(c.to_float() for c in candidates)
    return tuple(
        (
            c,
            native(c.zeta.re, c.zeta.im),
            native(c.zeta_pow_k.re, c.zeta_pow_k.im),
            c.zeta_pow_k.one_norm(),
        )
        for c in candidates
    )


def steepest_candidate(alpha, k: int):
    """``pick_descent_direction`` for alpha of either value type, builtin
    complex or ComplexScalar.  Returns (candidate, zeta in alpha's type,
    Re[alpha * zeta^k]).  Float mode, with the candidates rounded to float,
    is chosen by alpha's parts."""
    re, im = alpha.real, alpha.imag
    if re == 0 and im == 0:
        raise ValueError("alpha must be nonzero (the point is already a root)")
    float_mode = isinstance(re, float) or isinstance(im, float)
    alpha_norm = abs(re) + abs(im)
    best = None
    best_ratio = None
    best_num = None
    for candidate, zeta, zk, zk_norm in _scored_candidates(k, float_mode, type(alpha)):
        num = re * zk.real - im * zk.imag  # Re[alpha * zeta^k]
        ratio = num / (alpha_norm * zk_norm)
        if best_ratio is None or ratio < best_ratio:
            best, best_ratio, best_num = (candidate, zeta), ratio, num
    if best_num >= 0:
        raise ArithmeticError(
            f"no descent direction for alpha={ComplexScalar(re, im)!r}, k={k}; "
            "candidate set is incomplete"
        )
    return best[0], best[1], best_num


def pick_descent_direction(alpha: ComplexScalar, k: int) -> DirectionCandidate:
    """The candidate minimizing Re[alpha * zeta^k] / (one_norm(alpha) *
    one_norm(zeta^k)); its numerator is strictly negative for alpha != 0.

    Normalizing by the candidate's own one_norm(zeta^k) keeps the unit
    directions and the longer quadrant directions comparable.  Ties keep
    the earliest candidate in enumeration order.  A float alpha picks
    among the candidates rounded to float.
    """
    return steepest_candidate(alpha, k)[0]
