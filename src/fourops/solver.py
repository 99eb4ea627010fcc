"""Root finding by certified descent on f(z) = P(z) * conj(P(z)).

One descent round at a point z:

1. Shift: P(z + h) = P(z) + h^k Q(h) with Q(0) != 0 (``taylor_shift``),
   k the first order whose coefficient is nonzero, in both backends.
   Float backend: each round first tries the Newton step once:
   zeta = -P(z) conj(P'(z)) / |P'(z)|^2 at r = 1 (the one division is by
   a real number), accepted when f(z + zeta) <= f(z) / 2.  The order is
   1 exactly when P'(z) != 0, and then Q(0) = P'(z); with alpha as below,
   Re[alpha * zeta] = -f(z), so that is the sufficient decrease of step 3
   at r = 1, and the per-step certificate, which is about r < 1, has
   nothing to check.  Newton is skipped when |P'(z)|^2 is 0 or not
   finite, or when the trial leaves the float range, and a skipped or
   rejected trial falls back to steps 2 and 3.  P(z) and P'(z) come from
   one two-row Horner pass (``horner_slope``, the shift's b_0 and b_1 bit
   for bit) carried over from the previous round's trial, so every round
   at order 1 costs O(n), Newton taken or not: steps 2 and 3 read only
   alpha = conj(P(z)) * P'(z).  The O(n^2) shift is built where P'(z) = 0,
   when the round escalates (below), or when its step's record is read,
   for the bound M; every iterate is the one the full shift would give.
2. Steer: alpha = conj(P(z)) * Q(0); pick the candidate direction zeta
   with the most negative normalized Re[alpha * zeta^k]
   (``pick_descent_direction``; such a direction always exists for
   alpha != 0).  A float alpha that underflows to 0 moves the round to
   the next nonzero order, as an exhausted line search does (below); one
   that overflows where f(z) does not stops the descent with
   NonFiniteObjectiveError.
3. Step: backtracking line search over the fixed schedule
   r = 1, 1/2, 1/4, ... until the sufficient decrease

       f(z + r*zeta) <= f(z) - (1/2) * r^k * |Re[alpha * zeta^k]|

   holds (the right side tracks the leading term 2 r^k Re[alpha*zeta^k]
   of the expansion of f along the ray); a float trial whose f leaves the
   float range fails.  The schedule is not a setting: the per-step
   certificate of ``certified_decrease_bound`` is a theorem only for a
   first trial at 1 and each next trial at half the last.

In both backends, when the line search exhausts its shrinks, the round
is retried at the next nonzero order.  That happens next to a critical
point of P, where the detected order's coefficient is so small that its
descent term would lead only at steps shorter than the last trial (below
float granularity, or past the exact shrink limit), while the following
term dominates every trial step.  Treating the stranded coefficient as
zero and steering by the next order (typically the even-k quadrant
direction, which leaves the axis the critical point sits on) restores a
visible decrease.  Exact descents need it as much as float ones: on a
real polynomial alpha is real along the real axis, so the +-1 candidates
win there and an exact descent from 0 creeps toward a real critical point
until the shrinks run out.  The accepted step still has to lower the true
objective, so monotonicity is never taken on faith.

Descent stops when f(z) <= residual_tol^2 * scale^2 where scale is the
coefficient one-norm of the polynomial, a scale-invariant way of saying
"the residual is tiny next to the coefficients".  When residual_tol^2 *
scale^2 leaves the float range, the test reads f(z) / (residual_tol *
scale)^2 <= 1 instead, divided in an order that cannot overflow.

The same round, less the Newton step, runs over exact rationals from
exact 0, where it certifies rather than approximates.  Its arithmetic is
on Gaussian integers (below), but the sizes of the rational iterates grow
with every accepted step, so exact mode stays gated to low degree and few
rounds as a bound on the cost of one exact solve.

``descend_to_root`` settles each descent's arithmetic and limits once, at
entry (see ``SolverConfig`` for the limits), and with them the round's
shift and line search: ``_ExactShift`` when both the polynomial and the
start are exact (``Polynomial.kernel_args``), else ``_FloatShift`` on
builtin ``complex``, with any int or Fraction part of the start rounded
to float.  The loop of ``descend_to_root`` holds the one Newton decision
of a float round; ``_descent_round`` is the candidate round of both
backends: steering, escalation, the rule and the parts of the step.
Every step, exact or float, Newton or candidate, is kept as the same
parts, its round's shift among them (None for Newton), and
``_step_record`` builds its ``DescentStep``, M by ``_decrease_bound`` on
the shift's ``norms``, when its trace is first read (``DescentTrace``).

In floats the shift, the order, alpha, the direction, the bound M and
every line-search trial stay in ``complex``, through the kernels of
``poly`` and ``estermann.steepest_candidate``, and so does the iterate
between rounds (the round returns the trial point in its own type; the
Newton step divides float parts by the real |Q(0)|^2); the point
reached is built once, when the descent ends.  CPython computes complex
+ and x with the same IEEE expressions as ``ComplexScalar``, so both
types take the same iterates bit for bit.  A trial point is built from
its parts, z.re + zeta.re*r and z.im + zeta.im*r: a complex times a
float multiplies by x+0j, which changes signed zeros and inf*0.  The public
``taylor_shift``, ``pick_descent_direction`` and
``certified_decrease_bound`` wrap the same kernels at the API boundary.

Exact rounds write the coefficients as Gaussian integers A_j over one
denominator D (``Polynomial.gaussian_coeffs``) and z as Z/d, so the shift
is b_j = B_j / (D d^(n-j)) with B on integers (``poly.gaussian_shifted``).
Along a direction zeta the line search reads f(z + r*zeta) off the same
shift: at r = 2^-b it is an integer over K^2 * 2^(2bn)
(``poly.gaussian_ray`` and ``poly.ray_square_modulus``), and both parts of
the sufficient decrease compare integers, with no Fraction and no gcd per
trial.  alpha and the direction pick are integer products as well.
P(z) is b_0 = B_0 / (D d^n), so a descent takes f(z_start) =
|B_0|^2 / (D d^n)^2 from the shift it builds at z_start, which its first
round then uses, and ``find_all_roots`` takes the residual one-norm of
each exact root as (|Re B_0| + |Im B_0|) / (D d^n) from the shift of the
original polynomial there: an exact solve runs no ``Fraction`` Horner
pass.  A Fraction is built only for a value that is returned or that a
record or an escalation reads (alpha, the norms of the b_j, M, r, the
accepted point and its f), and
an int where every coefficient part and both parts of z are ints, which
is what ``ComplexScalar`` arithmetic gives; so the exact iterates,
records and residuals are those of the rational arithmetic, type for
type.

``descent_start`` is the one origin rule of both backends: a descent
begins at exact 0 on an exact polynomial and at 0.0 otherwise.

``find_all_roots`` peels roots off by synthetic deflation and polishes
every root against the original polynomial.  A root at 0 is no special
case: f(0) = 0 meets the stop test, so its descent takes no step.  The
float polish is Newton steps only (P and P' from one two-row Horner
pass), taken while each lowers f, for at most POLISH_MAX_OUTER steps;
the exact polish is up to POLISH_MAX_OUTER descent rounds.  A root whose
polish ends above the residual target on the original polynomial fails
the solve with SolveError, so every returned root meets it.
``positive_nth_root`` reads a real n-th root off one descent on z^n - c.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The round calls steepest_candidate; pick_descent_direction, its form at the
# API boundary, stays importable from here (the benchmark's tracer wraps it).
from .estermann import DirectionCandidate, pick_descent_direction, steepest_candidate
from .poly import (
    NonFiniteObjectiveError,
    Polynomial,
    ShiftDecomposition,
    gaussian_ray,
    gaussian_shifted,
    horner_slope,
    ray_square_modulus,
    shift_norms,
    shift_order,
    shifted,
    square_modulus,
    value_square_modulus,
)
from .scalars import ComplexScalar, Scalar, ZERO, _Frozen, _LazyFields, _setattr, gaussian_parts

__all__ = [
    "SolverConfig",
    "DEFAULT_CONFIG",
    "DescentStep",
    "DescentTrace",
    "RootResult",
    "ConvergenceError",
    "SolveError",
    "certified_decrease_bound",
    "descend_to_root",
    "descent_start",
    "find_all_roots",
    "positive_nth_root",
]

# The most descent rounds per root: a bound on a descent that cannot end,
# far above what a converging descent takes.
MAX_OUTER = 10_000

# The most halvings of the step in one line search at one order.
MAX_BACKTRACKS = 200

# Exact rounds run on Gaussian integers, but the rational iterates grow
# with every accepted step: the gate bounds the cost of an exact solve.
EXACT_MAX_DEGREE = 4
EXACT_MAX_OUTER = 64
EXACT_MAX_BACKTRACKS = 64

# The most polish steps run against the original polynomial after each
# deflated solve, to stop deflation error from accumulating.
POLISH_MAX_OUTER = 20

# Where a float descent starts.
FLOAT_ORIGIN = ComplexScalar(0.0, 0.0)


class SolverConfig(_Frozen):
    """Descent settings: the one setting is the residual target
    ``residual_tol`` (see the module docstring for the stop test).
    Construction raises ValueError unless it is finite and > 0.  Every
    root that ``find_all_roots`` returns meets the target on the original
    polynomial, which its polish enforces.

    The limits are part of the algorithm: a descent gets at most
    MAX_OUTER = 10_000 rounds, a polish POLISH_MAX_OUTER = 20 steps and
    an exact descent EXACT_MAX_OUTER = 64 rounds, and a line search
    shrinks the step (1, 1/2, ...) at most MAX_BACKTRACKS = 200 times per
    order in floats and EXACT_MAX_BACKTRACKS = 64 times exact; running out
    moves the round to the next order."""

    __slots__ = __match_args__ = ("residual_tol",)

    def __init__(self, residual_tol: float = 1e-9):
        # NaN fails every comparison, so it is rejected too.
        if not 0 < residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and > 0, got {residual_tol!r}")
        _setattr(self, "residual_tol", residual_tol)


DEFAULT_CONFIG = SolverConfig()


class DescentStep(_Frozen):
    """One accepted step: the state at departure plus the decision taken.

    ``rule`` names how the step was steered: "unit" (a unit candidate, or
    1 at even k), "quadrant" (an even-k quadrant direction), "escalated"
    (a candidate at an order past the detected one) or "newton" (the
    Newton step at r = 1, recorded with k = 1 and direction (zeta, zeta);
    its ``m_bound`` is None, since the certificate covers r < 1 only).
    The rule is left out of the repr, which stays a record of the iterates
    alone.  A solve builds its records, and ``m_bound`` with them, when
    their trace is first read (``DescentTrace``)."""

    __slots__ = __match_args__ = (
        "z",
        "f_value",
        "order",
        "alpha",
        "direction",
        "r_accepted",
        "backtracks",
        "m_bound",
        "rule",
    )
    _repr_omits = ("rule",)

    def __init__(
        self,
        z: ComplexScalar,
        f_value: Scalar,
        order: int,
        alpha: ComplexScalar,
        direction: DirectionCandidate,
        r_accepted: Scalar,
        backtracks: int,
        m_bound: Scalar | None,
        rule: str,
    ):
        _setattr(self, "z", z)
        _setattr(self, "f_value", f_value)
        _setattr(self, "order", order)
        _setattr(self, "alpha", alpha)
        _setattr(self, "direction", direction)
        _setattr(self, "r_accepted", r_accepted)
        _setattr(self, "backtracks", backtracks)
        _setattr(self, "m_bound", m_bound)
        _setattr(self, "rule", rule)


class DescentTrace(_LazyFields):
    """One descent (``phase`` "descent") or polish ("polish"): where it
    started, every accepted step, where it ended and whether it met its
    stop test.

    ``descend_to_root`` builds its trace from parts: the fields, with
    each step kept as the tuple (shift, z, f, order, alpha, direction, r,
    backtracks, rule) of the values at hand.  shift is the candidate
    round's ``_FloatShift`` or ``_ExactShift``, or None for a Newton step,
    whose direction is its ``complex`` zeta; z is the start as given or
    the round's point, a ``complex`` one in floats.  The first read of a
    field builds every step record (``_step_record``), so a solve whose
    traces are never read builds no record and no M, and no float Taylor
    shift where its rounds are all at order 1."""

    __slots__ = __match_args__ = ("start", "steps", "final_z", "final_f", "converged", "phase")

    def __init__(
        self,
        start: ComplexScalar,
        steps: tuple[DescentStep, ...],
        final_z: ComplexScalar,
        final_f: Scalar,
        converged: bool,
        phase: str = "descent",
    ):
        _setattr(self, "start", start)
        _setattr(self, "steps", steps)
        _setattr(self, "final_z", final_z)
        _setattr(self, "final_f", final_f)
        _setattr(self, "converged", converged)
        _setattr(self, "phase", phase)
        _setattr(self, "_parts", None)

    def _field_values(self) -> tuple:
        start, steps, final_z, final_f, converged, phase = self._parts
        steps = tuple([_step_record(*s) for s in steps])
        return start, steps, final_z, final_f, converged, phase


class RootResult(_Frozen):
    """Every root found, the one-norm of the residual of each on the
    original polynomial, the number of accepted steps over every descent
    and polish, and their traces."""

    __slots__ = __match_args__ = ("roots", "residual_one_norms", "iterations", "traces")

    def __init__(
        self,
        roots: tuple[ComplexScalar, ...],
        residual_one_norms: tuple[Scalar, ...],
        iterations: int,
        traces: tuple[DescentTrace, ...],
    ):
        _setattr(self, "roots", roots)
        _setattr(self, "residual_one_norms", residual_one_norms)
        _setattr(self, "iterations", iterations)
        _setattr(self, "traces", traces)


class ConvergenceError(RuntimeError):
    """Descent ran out of iterations (or of step sizes) before the residual
    target; carries the point reached, which is the best seen because every
    accepted step lowers f, and the trace so far."""

    def __init__(self, message: str, best_z: ComplexScalar, best_f, trace: DescentTrace):
        super().__init__(message)
        self.best_z = best_z
        self.best_f = best_f
        self.trace = trace


class SolveError(RuntimeError):
    """A multi-root solve failed part way; carries the partial result and
    the cause: a ConvergenceError, or a NonFiniteObjectiveError when the
    float objective left the float range."""

    def __init__(
        self,
        message: str,
        partial: RootResult,
        cause: ConvergenceError | NonFiniteObjectiveError,
    ):
        super().__init__(message)
        self.partial = partial
        self.cause = cause


def certified_decrease_bound(shift: ShiftDecomposition, candidate: DirectionCandidate):
    """Explicit majorant M for the non-leading terms of the step expansion

        f(z + r*zeta) - f(z) = 2 r^k Re[alpha zeta^k]
                               + 2 r^(k+1) Re[conj(P(z)) zeta^(k+1) R(r zeta)]
                               + r^(2k) |zeta^k Q(r zeta)|^2

    over r in (0, 1], where Q(h) = Q(0) + h R(h).  Writing N for one_norm,

        M1 = N(P(z)) * N(zeta)^(k+1) * sum_j N(R_j) N(zeta)^j
        M2 = ( N(zeta)^k * sum_j N(Q_j) N(zeta)^j )^2

    bound the two terms, and the returned value is M = 2*M1 + M2.  Both
    terms are nonnegative, so M dominates the plain max(M1, M2) majorant;
    the weighting makes the per-step certificate

        -2 Re[alpha zeta^k] <= 3 r M          (accepted r < 1)

    a theorem rather than a heuristic.  The proof rests on the fixed step
    schedule r = 1, 1/2, 1/4, ...: acceptance at r < 1 means the trial at
    2r <= 1 failed sufficient decrease, which forces
    (3/2) |Re[alpha zeta^k]| < 2*(2r) M1 + (2r)^k M2 <= 4 r M1 + 2 r M2,
    hence -2 Re[alpha zeta^k] < (16/3) r M1 + (8/3) r M2 <= 3 r (2 M1 + M2).

    The proof holds at the detected order only.  A step at an escalated
    order k' (rule "escalated") takes M from Q = (b_k', b_k'+1, ...), which
    leaves out the stranded coefficients b_k .. b_(k'-1); there the
    certificate is not proved but replayed on the recorded step (exactly,
    for exact traces) by the tests and the benchmark's trace checks.
    """
    return _decrease_bound(
        shift.base_value.one_norm(),
        [c.one_norm() for c in shift.quotient.coeffs],
        candidate.zeta.one_norm(),
        shift.order,
    )


def _decrease_bound(base_norm, quotient_norms, zeta_norm, k: int):
    """M = 2*M1 + M2 of ``certified_decrease_bound`` from the one-norms of
    P(z), of the quotient coefficients Q_0 .. Q_m and of zeta."""
    weighted_rest = 0
    weight = 1
    for c in quotient_norms[1:]:
        weighted_rest = weighted_rest + c * weight
        weight = weight * zeta_norm
    weighted_all = 0
    weight = 1
    for c in quotient_norms:
        weighted_all = weighted_all + c * weight
        weight = weight * zeta_norm

    zeta_norm_k = zeta_norm**k
    m1 = base_norm * zeta_norm_k * zeta_norm * weighted_rest
    try:
        m2 = (zeta_norm_k * weighted_all) ** 2
    except OverflowError:  # float ** raises where * gives inf
        m2 = math.inf
    return 2 * m1 + m2


def descend_to_root(
    poly: Polynomial,
    z_start: ComplexScalar,
    config: SolverConfig = DEFAULT_CONFIG,
    phase: str = "descent",
) -> tuple[ComplexScalar, DescentTrace]:
    """Run descent from z_start until the residual target is met.

    In floats, phase "polish" runs Newton steps instead (``_newton_polish``)
    and then checks the point reached against the residual target.

    Returns (root, trace).  Raises ConvergenceError when the round limit
    (POLISH_MAX_OUTER when phase is "polish", else MAX_OUTER, at most
    EXACT_MAX_OUTER when exact) or the shrink limit of a round at every
    usable order runs out first, or when a float polish ends above the
    residual target; the error carries the point reached and the partial
    trace.
    """
    if poly.degree < 1:
        raise ValueError("descend_to_root requires degree >= 1")
    coeffs, w, exact = poly.kernel_args(z_start)
    tol = config.residual_tol
    max_outer = POLISH_MAX_OUTER if phase == "polish" else MAX_OUTER
    max_backtracks = MAX_BACKTRACKS
    if exact:
        if poly.degree > EXACT_MAX_DEGREE:
            raise ValueError(
                f"exact descent is gated to degree <= {EXACT_MAX_DEGREE}, got {poly.degree}"
            )
        tol = Fraction(tol)
        max_outer = min(max_outer, EXACT_MAX_OUTER)
        max_backtracks = EXACT_MAX_BACKTRACKS
    # An exact round's shift and line search run on Gaussian integers.
    gaussian = poly.gaussian_coeffs() if exact else None
    scale = poly.coeff_one_norm()
    stop = tol * tol * scale * scale
    # Past the float range, test f / (tol*scale)^2 <= 1 instead.
    tol_scale = tol * scale if stop == math.inf else None

    def met(f) -> bool:
        return (f <= stop) if tol_scale is None else (f / tol_scale / tol_scale <= 1)

    # The point of the next step's record: z_start as given, then w.
    z = z_start
    # Each step as its parts (see DescentTrace).
    steps: list = []
    failure = None
    if phase == "polish" and not exact:
        w, f_z = _newton_polish(coeffs, w, max_outer, steps)
        z = ComplexScalar(w.real, w.imag)
        if not met(f_z):
            failure = f"Newton polish ended above the residual target after {len(steps)} steps"
    else:
        if exact:
            # The first round's shift, which holds f(z_start) in B_0.
            shift = _ExactShift(gaussian, w)
            f_z = shift.objective()
        else:
            # P(w) and P'(w), carried from round to round; f(w) from P(w).
            value, slope = horner_slope(coeffs, w)
            f_z = value_square_modulus(value, w)
        while not met(f_z):
            if len(steps) >= max_outer:
                failure = f"no convergence within {max_outer} descent rounds"
                break
            # A float round tries Newton once.  The order is 1 exactly when
            # P'(w) != 0, and the trial declines where P'(w) = 0.
            newton = None if exact else _newton_trial(coeffs, w, value, slope)
            # Sufficient decrease at r = 1, since Re[alpha zeta] = -f.
            if newton is not None and newton[5] < f_z and newton[5] <= f_z * 0.5:
                alpha, zeta, w, value, slope, f_trial = newton
                step = (None, z, f_z, 1, alpha, zeta, 1.0, 0, "newton")
                f_z = f_trial
            else:
                if not exact:
                    shift = _FloatShift(coeffs, w, value, slope)
                elif shift is None:
                    shift = _ExactShift(gaussian, w)
                accepted = _descent_round(shift, z, f_z, max_backtracks)
                if accepted is None:
                    failure = f"line search exhausted {max_backtracks} shrinks at every usable order"
                    break
                step, w, f_z = accepted
                if exact:
                    shift = None
                else:
                    value, slope = horner_slope(coeffs, w)
            z = w
            steps.append(step)
        if isinstance(z, complex):
            z = ComplexScalar(z.real, z.imag)
    trace = DescentTrace._from_parts((z_start, steps, z, f_z, failure is None, phase))
    if failure is not None:
        raise ConvergenceError(f"{failure} (best f = {f_z})", z, f_z, trace)
    return z, trace


def _step_record(shift, z, f_z, order: int, alpha, direction, r, backtracks: int, rule: str):
    """The ``DescentStep`` of a step's parts (see ``DescentTrace``), from
    z a ``ComplexScalar`` or a ``complex``.  A candidate step takes
    ``m_bound`` from its round's shift; a Newton step (shift None) has
    direction (zeta, zeta) and no ``m_bound``."""
    if isinstance(z, complex):
        z = ComplexScalar(z.real, z.imag)
    if shift is None:
        zeta = ComplexScalar(direction.real, direction.imag)
        direction, m_bound = DirectionCandidate(zeta, zeta), None
    else:
        norms = shift.norms
        m_bound = _decrease_bound(norms[0], norms[order:], direction.zeta.one_norm(), order)
    alpha = ComplexScalar(alpha.real, alpha.imag)
    return DescentStep(z, f_z, order, alpha, direction, r, backtracks, m_bound, rule)


def _newton_trial(coeffs: tuple, w: complex, value: complex, slope: complex):
    """The Newton step zeta = -P(w) conj(P'(w)) / |P'(w)|^2 from w at r = 1,
    from value = P(w) and slope = P'(w), with alpha = conj(P(w)) * P'(w),
    so that Re[alpha * zeta] = -|P(w)|^2 = -f(w); the only division is by
    the real |P'(w)|^2.  Returns (alpha, zeta, the trial point, P and P'
    there from one two-row Horner pass, f there), or None when |P'(w)|^2
    is 0 or not finite, when Re[alpha * zeta] is not negative (it can
    underflow to 0), or when f at the trial point is not finite."""
    d = slope.real * slope.real + slope.imag * slope.imag
    if not 0 < d < math.inf:
        return None
    step = value * slope.conjugate()
    zeta = complex(-step.real / d, -step.imag / d)
    alpha = value.conjugate() * slope
    if not alpha.real * zeta.real - alpha.imag * zeta.imag < 0:
        return None
    trial = complex(w.real + zeta.real, w.imag + zeta.imag)
    trial_value, trial_slope = horner_slope(coeffs, trial)
    try:
        f_trial = value_square_modulus(trial_value, trial)
    except NonFiniteObjectiveError:
        return None
    return alpha, zeta, trial, trial_value, trial_slope, f_trial


class _FloatShift:
    """A float round's Taylor shift at w on the kernels' complex
    coefficients, with its line search, from value = P(w) and slope =
    P'(w) of ``horner_slope``, which are b_0 and b_1 bit for bit.  The
    order is 1 exactly when P'(w) != 0, and alpha at order 1 is
    conj(P(w)) * P'(w), so an order-1 round is O(n).  The O(n^2) shift b
    and its ``norms`` are built on first use: where P'(w) = 0, when the
    round escalates, or when its record is built and M is read."""

    __slots__ = ("coeffs", "w", "value", "slope", "b", "_norms", "order")

    def __init__(self, coeffs: tuple, w: complex, value: complex, slope: complex):
        self.coeffs, self.w, self.value, self.slope = coeffs, w, value, slope
        self._norms = None
        self.order = 1 if slope.real != 0 or slope.imag != 0 else shift_order(self.norms)

    @property
    def norms(self) -> list:
        """one_norm of each b_j, b built on first use."""
        if self._norms is None:
            self.b = shifted(self.coeffs, self.w)
            self._norms = shift_norms(self.b)
        return self._norms

    def alpha(self, k: int) -> complex:
        """conj(P(w)) * b_k; past order 1 only after ``norms`` built b."""
        return self.value.conjugate() * (self.slope if k == 1 else self.b[k])

    def search(self, zeta: complex, k: int, descent_rate, f_z, max_backtracks: int):
        """The line search along zeta at order k over r = 1, 1/2, ...:
        (backtracks, r, the trial point, f there) for the first trial with
        sufficient decrease, or None; a trial past the float range fails."""
        coeffs, z_re, z_im = self.coeffs, self.w.real, self.w.imag
        zeta_re, zeta_im = zeta.real, zeta.imag
        r = 1.0
        for backtracks in range(max_backtracks + 1):
            # w + zeta * r, built from its parts.
            trial = complex(z_re + zeta_re * r, z_im + zeta_im * r)
            try:
                f_trial = square_modulus(coeffs, trial)
            except NonFiniteObjectiveError:  # past the float range: a failed trial
                f_trial = math.inf
            # The strict part guards against zero steps once r underflows.
            if f_trial < f_z and 2 * (f_z - f_trial) >= r**k * descent_rate:
                return backtracks, r, trial, f_trial
            r = r * 0.5
        return None


class _ExactShift:
    """An exact round's Taylor shift at z on Gaussian integers
    (``gaussian_shifted``), with its line search on integers.  ``nums``
    holds the numerators |Re B_j| + |Im B_j|, 0 exactly when b_j is, and
    ``norms`` the one-norms of the b_j, built from them on first read.

    Values leave as ints where every coefficient part and both parts of z
    are ints, and as Fractions otherwise, the types that the same
    arithmetic on ``ComplexScalar`` gives."""

    __slots__ = ("point", "denom", "b_re", "b_im", "ints", "nums", "_norms", "order")

    def __init__(self, gaussian: tuple, z: ComplexScalar):
        re, im, self.denom, ints = gaussian
        # z = (x + iy)/d.
        x, y, d = self.point = gaussian_parts(z)
        # b_j = B_j / (D d^(n-j)).
        self.b_re, self.b_im = gaussian_shifted(re, im, x, y, d)
        self.ints = ints and isinstance(z.re, int) and isinstance(z.im, int)
        self.nums = [abs(u) + abs(v) for u, v in zip(self.b_re, self.b_im)]
        self._norms = self.nums if self.ints else None
        self.order = shift_order(self.nums)

    @property
    def norms(self) -> list:
        """one_norm of each b_j, nums_j / (D d^(n-j)), built on first read."""
        if self._norms is None:
            n, d, denom = len(self.nums) - 1, self.point[2], self.denom
            self._norms = [Fraction(v, denom * d ** (n - j)) for j, v in enumerate(self.nums)]
        return self._norms

    def _value_denom(self) -> int:
        """K = D d^n, with P(z) = b_0 = B_0 / K."""
        n = len(self.nums) - 1
        return self.denom * self.point[2] ** n

    def objective(self) -> Scalar:
        """f(z) = |B_0|^2 / K^2."""
        re, im = self.b_re[0], self.b_im[0]
        s = re * re + im * im
        if self.ints:
            return s
        k = self._value_denom()
        return Fraction(s, k * k)

    def residual(self) -> Scalar:
        """one_norm(P(z)) = (|Re B_0| + |Im B_0|) / K."""
        if self.ints:
            return self.nums[0]
        return Fraction(self.nums[0], self._value_denom())

    def alpha(self, k: int) -> ComplexScalar:
        """conj(P(z)) * b_k."""
        re0, im0, rek, imk = self.b_re[0], self.b_im[0], self.b_re[k], self.b_im[k]
        re, im = re0 * rek + im0 * imk, re0 * imk - im0 * rek
        if self.ints:
            return ComplexScalar(re, im)
        n, d = len(self.nums) - 1, self.point[2]
        den = self.denom * self.denom * d ** (2 * n - k)
        return ComplexScalar(Fraction(re, den), Fraction(im, den))

    def search(self, zeta: ComplexScalar, k: int, descent_rate, f_z, max_backtracks: int):
        """``_FloatShift.search`` on integers.  With C and K of
        ``gaussian_ray``, f(z) = S_0 / K^2 for S_0 = |C_0|^2 and
        |Re[alpha zeta^k]| = E / K^2 for E = -Re[conj(C_0) C_k], so
        descent_rate and f_z are not read.  At r = 2^-b the trial has
        f = S / (K^2 2^(2bn)) with S from ``ray_square_modulus``, and with
        G = S_0 2^(2bn) the sufficient decrease reads S < G and
        2 (G - S) >= E 2^(b(2n - k)): no Fraction and no gcd per trial."""
        x, y, d = self.point
        px, py, pd = gaussian_parts(zeta)
        c_re, c_im = gaussian_ray(self.b_re, self.b_im, d, px, py, pd)
        n = len(c_re) - 1
        s0 = c_re[0] * c_re[0] + c_im[0] * c_im[0]
        e = -(c_re[0] * c_re[k] + c_im[0] * c_im[k])
        for backtracks in range(max_backtracks + 1):
            s = ray_square_modulus(c_re, c_im, backtracks)
            g = s0 << (2 * n * backtracks)
            if s < g and (g - s) << 1 >= e << (backtracks * (2 * n - k)):
                break
        else:
            return None
        # z + zeta * 2^-b over d pd 2^b, and f over (K 2^(bn))^2.
        den = (d * pd) << backtracks
        trial = ComplexScalar(
            Fraction((x * pd << backtracks) + px * d, den),
            Fraction((y * pd << backtracks) + py * d, den),
        )
        k_scaled = (self.denom * (d * pd) ** n) << (n * backtracks)
        return backtracks, Fraction(1, 1 << backtracks), trial, Fraction(s, k_scaled * k_scaled)


def _descent_round(
    shift: _FloatShift | _ExactShift,
    z: ComplexScalar | complex,
    f_z,
    max_backtracks: int,
) -> tuple[tuple, complex | ComplexScalar, Scalar] | None:
    """The candidate round at z (steps 2 and 3 of the module docstring)
    from its Taylor shift.  Returns the step's parts (the arguments of
    ``_step_record``), the accepted point in the shift's value type and
    its objective, or None when the line search exhausts its shrinks at
    every usable order.  An order whose float alpha underflows to 0 is
    passed over as if its line search had run out."""
    order = detected = shift.order
    while order is not None:
        alpha = shift.alpha(order)
        found = None
        if alpha.real != 0 or alpha.imag != 0:
            candidate, zeta, rate = steepest_candidate(alpha, order)
            found = shift.search(zeta, order, -rate, f_z, max_backtracks)
        if found is not None:
            backtracks, r, trial, f_trial = found
            if order != detected:
                rule = "escalated"
            elif order % 2 == 0 and zeta.imag != 0:
                rule = "quadrant"
            else:
                rule = "unit"
            return (shift, z, f_z, order, alpha, candidate, r, backtracks, rule), trial, f_trial
        # Exhausted: the order's coefficient is stranded (see module
        # docstring); retry the round at the next nonzero order, dropping
        # the stranded coefficients.
        norms = shift.norms
        order = next((j for j in range(order + 1, len(norms)) if norms[j] != 0), None)
    return None


def _newton_polish(
    coeffs: tuple, w: complex, max_steps: int, steps: list
) -> tuple[complex, float]:
    """Newton steps from w on the float kernels' coefficients, each taken
    at r = 1 and appended to steps as its parts (see ``DescentTrace``),
    while f > 0, a step lowers f and fewer than max_steps are taken.  P
    and P' come from one two-row Horner pass per point.  Returns the
    point reached and its objective; raises NonFiniteObjectiveError when
    f(w) itself is not finite."""
    value, slope = horner_slope(coeffs, w)
    f_w = value_square_modulus(value, w)
    while f_w != 0 and len(steps) < max_steps:
        newton = _newton_trial(coeffs, w, value, slope)
        if newton is None:
            break
        alpha, zeta, trial, trial_value, trial_slope, f_trial = newton
        if not f_trial < f_w:
            break
        steps.append((None, w, f_w, 1, alpha, zeta, 1.0, 0, "newton"))
        w, value, slope, f_w = trial, trial_value, trial_slope, f_trial
    return w, f_w


def descent_start(poly: Polynomial) -> ComplexScalar:
    """Where a descent on poly starts, the one origin rule of both
    backends: exact 0 for an exact polynomial, 0.0 otherwise."""
    return ZERO if poly.is_exact() else FLOAT_ORIGIN


def find_all_roots(poly: Polynomial, config: SolverConfig = DEFAULT_CONFIG) -> RootResult:
    """All roots of P with multiplicity, by repeated descent and deflation.

    Every root, one at 0 included, is found on the current deflated
    polynomial starting from ``descent_start``, then polished against the
    original P, which must meet the residual target there or the solve
    fails.  Output is sorted by (Re, Im); residual one-norms are evaluated
    on the original polynomial.
    """
    if poly.degree < 1:
        raise ValueError("degree must be >= 1")
    poly.require_finite()

    roots: list[ComplexScalar] = []
    traces: list[DescentTrace] = []
    work = poly
    while work.degree >= 1:
        try:
            root, trace = descend_to_root(work, descent_start(work), config)
            traces.append(trace)
            root, polish_trace = descend_to_root(poly, root, config, phase="polish")
        except ConvergenceError as err:
            partial = _package(poly, roots, traces + [err.trace])
            raise SolveError(
                f"stalled after {len(roots)} of {poly.degree} roots: {err}",
                partial,
                err,
            ) from err
        except NonFiniteObjectiveError as err:
            partial = _package(poly, roots, traces)
            raise SolveError(
                f"stopped after {len(roots)} of {poly.degree} roots: {err}",
                partial,
                err,
            ) from err
        if _step_count(polish_trace):
            traces.append(polish_trace)

        roots.append(root)
        work, _ = work.deflate(root)

    return _package(poly, roots, traces)


def _package(
    original: Polynomial, roots: list[ComplexScalar], traces: list[DescentTrace]
) -> RootResult:
    """The RootResult of the roots found so far.  An exact polynomial's
    roots are exact, and each residual is read off the Gaussian integers
    of its ``_ExactShift``."""
    ordered = tuple(sorted(roots, key=lambda z: (z.re, z.im)))
    if original.is_exact():
        gaussian = original.gaussian_coeffs()
        residuals = tuple(_ExactShift(gaussian, z).residual() for z in ordered)
    else:
        residuals = tuple(original.evaluate(z).one_norm() for z in ordered)
    return RootResult(
        roots=ordered,
        residual_one_norms=residuals,
        iterations=sum(_step_count(t) for t in traces),
        traces=tuple(traces),
    )


def _step_count(trace: DescentTrace) -> int:
    """len(trace.steps) of a trace from ``descend_to_root``, read off its
    parts, so that the solver itself builds no record."""
    return len(trace._parts[1])


def _real_pow(x: float, n: int) -> float:
    power = 1.0
    for _ in range(n):
        power *= x
    return power


def positive_nth_root(c: float, n: int, config: SolverConfig = DEFAULT_CONFIG) -> float:
    """The positive real x with x^n = c (c > 0, integer n >= 2), the real
    part of the root that one descent on z^n - c from 0.0 and its polish
    reach, the first root of ``find_all_roots``: from 0 the order is n and
    alpha = -c, so the candidate 1 wins, and every step stays on the
    positive real axis.  Raises ValueError for n or c out of range, what
    ``descend_to_root`` raises, and ArithmeticError when x <= 0 or x^n
    misses c by more than the residual target."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    c = float(c)
    if not 0 < c < float("inf"):
        raise ValueError(f"c must be positive and finite, got {c!r}")

    coeffs = [ComplexScalar(-c, 0.0)]
    coeffs.extend(ComplexScalar(0.0, 0.0) for _ in range(n - 1))
    coeffs.append(ComplexScalar(1.0, 0.0))
    poly = Polynomial(tuple(coeffs))
    root, _ = descend_to_root(poly, FLOAT_ORIGIN, config)
    root, _ = descend_to_root(poly, root, config, phase="polish")

    x = root.re
    if not x > 0:
        raise ArithmeticError(f"no root with positive real part for c={c}, n={n}")
    residual = _real_pow(x, n) - c
    allowance = config.residual_tol * (1.0 + c)  # coefficient one-norm of z^n - c
    if residual * residual > allowance * allowance:
        raise ArithmeticError(
            f"residual check failed: |x^n - c| = {abs(residual)} exceeds {allowance}"
        )
    return x
