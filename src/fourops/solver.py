"""Root finding by certified descent on f(z) = P(z) * conj(P(z)).

One descent round at a point z:

1. Shift: P(z + h) = P(z) + h^k Q(h) with Q(0) != 0 (``taylor_shift``).
2. Steer: alpha = conj(P(z)) * Q(0); pick the candidate direction zeta
   with the most negative normalized Re[alpha * zeta^k]
   (``pick_descent_direction``; such a direction always exists for
   alpha != 0).
3. Step: backtracking line search from r = step_init, multiplying by
   step_shrink until the sufficient decrease

       f(z + r*zeta) <= f(z) - (1/2) * r^k * |Re[alpha * zeta^k]|

   holds (the right side tracks the leading term 2 r^k Re[alpha*zeta^k]
   of the expansion of f along the ray).

Float backend only: when the line search exhausts its shrinks, the round
is retried at the next nonzero order.  That happens next to a critical
point of P, where the detected order's coefficient is far too small for
its descent term to rise above float granularity while the following
term still dominates every trial step; treating the stranded coefficient
as numerically zero and steering by the next order (typically the even-k
quadrant direction, which leaves the axis the critical point sits on)
restores a float-visible decrease.  The accepted step still has to lower
the true objective, so monotonicity is never taken on faith.

Descent stops when f(z) <= residual_tol^2 * scale where scale is the
squared coefficient one-norm of the polynomial, a scale-invariant way of
saying "the residual is tiny next to the coefficients".

The same round runs over exact rationals, where it certifies rather than
approximates; rational step arithmetic squares coefficient sizes every
iteration, so exact mode is gated to low degree and few iterations.

The round is written once, over the value type ``Polynomial.native``
picks for the point: builtin ``complex`` when both parts of z are float,
``ComplexScalar`` otherwise (``ComplexScalar`` has the ``real``, ``imag``
and ``conjugate()`` spellings of ``complex``).  The shift, the order,
alpha, the direction, the bound M and every line-search trial stay in
that type, through the kernels of ``poly`` and
``estermann.steepest_candidate``; only the ``DescentStep`` and the
accepted point are built as ``ComplexScalar``.  CPython computes complex
+ and x with the same IEEE expressions as ``ComplexScalar``, so both
types take the same iterates bit for bit.  A trial point is built from
its parts, z.re + zeta.re*r and z.im + zeta.im*r: a complex times a float
multiplies by x+0j, which changes signed zeros and inf*0.  The public
``taylor_shift``, ``pick_descent_direction`` and
``certified_decrease_bound`` wrap the same kernels at the API boundary.
The start scan (``_best_start``) evaluates its candidates the same way.

``find_all_roots`` peels roots off by synthetic deflation, re-polishing
every root against the original polynomial, and ``positive_nth_root``
reduces real n-th roots to a solve of z^n - c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

# The round calls steepest_candidate; pick_descent_direction, its form at the
# API boundary, stays importable from here (the benchmark's tracer wraps it).
from .estermann import DirectionCandidate, pick_descent_direction, steepest_candidate
from .poly import (
    NonFiniteObjectiveError,
    Polynomial,
    ShiftDecomposition,
    shift_norms,
    shift_order,
    shifted,
    square_modulus,
)
from .scalars import ComplexScalar, Scalar, ZERO

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
    "find_all_roots",
    "positive_nth_root",
]

# Exact (rational) descent squares denominators at every objective
# evaluation, so it is only offered for small instances.
EXACT_MAX_DEGREE = 4
EXACT_MAX_OUTER = 64
EXACT_MAX_BACKTRACKS = 64

# Extra descent rounds run against the original polynomial after each
# deflated solve, to stop deflation error from accumulating.
POLISH_MAX_OUTER = 5


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Descent settings.  Construction raises ValueError unless residual_tol
    and step_init are finite and > 0, 0 < step_shrink < 1, and max_outer
    >= 1 and max_backtracks >= 0 are integers."""

    residual_tol: float = 1e-9
    step_init: float = 1.0
    step_shrink: float = 0.5
    max_outer: int = 10_000
    max_backtracks: int = 200
    keep_traces: bool = True

    def __post_init__(self):
        # NaN fails every comparison, so it is rejected too.
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and > 0, got {self.residual_tol!r}")
        if not 0 < self.step_init < math.inf:
            raise ValueError(f"step_init must be finite and > 0, got {self.step_init!r}")
        if not 0 < self.step_shrink < 1:
            raise ValueError(f"step_shrink must be > 0 and < 1, got {self.step_shrink!r}")
        if not isinstance(self.max_outer, int) or self.max_outer < 1:
            raise ValueError(f"max_outer must be an integer >= 1, got {self.max_outer!r}")
        if not isinstance(self.max_backtracks, int) or self.max_backtracks < 0:
            raise ValueError(
                f"max_backtracks must be an integer >= 0, got {self.max_backtracks!r}"
            )


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, slots=True)
class DescentStep:
    """One accepted step: the state at departure plus the decision taken."""

    z: ComplexScalar
    f_value: Scalar
    order: int
    alpha: ComplexScalar
    direction: DirectionCandidate
    r_accepted: Scalar
    backtracks: int
    m_bound: Scalar


@dataclass(frozen=True, slots=True)
class DescentTrace:
    start: ComplexScalar
    steps: tuple[DescentStep, ...]
    final_z: ComplexScalar
    final_f: Scalar
    converged: bool
    phase: str = "descent"


@dataclass(frozen=True, slots=True)
class RootResult:
    roots: tuple[ComplexScalar, ...]
    residual_one_norms: tuple[Scalar, ...]
    iterations: int
    traces: tuple[DescentTrace, ...] | None


class ConvergenceError(RuntimeError):
    """Descent ran out of iterations (or of step sizes) before the residual
    target; carries the best point seen and the trace so far."""

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

    a theorem rather than a heuristic: acceptance at r < 1 means the trial
    at 2r <= 1 failed sufficient decrease, which forces
    (3/2) |Re[alpha zeta^k]| < 2*(2r) M1 + (2r)^k M2 <= 4 r M1 + 2 r M2,
    hence -2 Re[alpha zeta^k] < (16/3) r M1 + (8/3) r M2 <= 3 r (2 M1 + M2).
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
    m2 = (zeta_norm_k * weighted_all) ** 2
    return 2 * m1 + m2


def _exact_limits(poly: Polynomial, z_start: ComplexScalar, config: SolverConfig):
    """Per-backend numeric constants for one descent run."""
    exact = poly.is_exact() and z_start.is_exact()
    if exact:
        if poly.degree > EXACT_MAX_DEGREE:
            raise ValueError(
                f"exact descent is gated to degree <= {EXACT_MAX_DEGREE}, got {poly.degree}"
            )
        return (
            True,
            Fraction(config.step_init),
            Fraction(config.step_shrink),
            Fraction(config.residual_tol),
            min(config.max_outer, EXACT_MAX_OUTER),
            min(config.max_backtracks, EXACT_MAX_BACKTRACKS),
        )
    return (
        False,
        config.step_init,
        config.step_shrink,
        config.residual_tol,
        config.max_outer,
        config.max_backtracks,
    )


def descend_to_root(
    poly: Polynomial,
    z_start: ComplexScalar,
    config: SolverConfig = DEFAULT_CONFIG,
    phase: str = "descent",
) -> tuple[ComplexScalar, DescentTrace]:
    """Run descent from z_start until the residual target is met.

    Returns (root, trace).  Raises ConvergenceError when max_outer rounds
    (or max_backtracks shrinks within a round) do not reach the target;
    the error carries the best point seen and the partial trace.
    """
    if poly.degree < 1:
        raise ValueError("descend_to_root requires degree >= 1")
    exact, step_init, shrink, tol, max_outer, max_backtracks = _exact_limits(
        poly, z_start, config
    )
    scale = poly.coeff_one_norm()
    stop = tol * tol * scale * scale

    lead_norm = poly.coeffs[-1].one_norm()

    z = z_start
    f_z = poly.objective(z)
    best_z, best_f = z, f_z
    steps: list[DescentStep] = []
    outer = 0
    while True:
        if f_z <= stop:
            return z, DescentTrace(z_start, tuple(steps), z, f_z, True, phase)
        if outer >= max_outer:
            trace = DescentTrace(z_start, tuple(steps), z, f_z, False, phase)
            raise ConvergenceError(
                f"no convergence within {max_outer} descent rounds (best f = {best_f})",
                best_z,
                best_f,
                trace,
            )
        outer += 1

        accepted = _descent_round(
            poly, z, f_z, lead_norm, exact, step_init, shrink, max_backtracks
        )
        if accepted is None:
            trace = DescentTrace(z_start, tuple(steps), z, f_z, False, phase)
            raise ConvergenceError(
                f"line search exhausted {max_backtracks} shrinks at every "
                f"usable order (best f = {best_f})",
                best_z,
                best_f,
                trace,
            )
        step, z, f_z = accepted
        steps.append(step)
        if f_z < best_f:
            best_z, best_f = z, f_z


def _descent_round(
    poly: Polynomial,
    z: ComplexScalar,
    f_z,
    lead_norm,
    exact: bool,
    step_init,
    shrink,
    max_backtracks: int,
) -> tuple[DescentStep, ComplexScalar, Scalar] | None:
    """One descent round at z (see the module docstring), on the value type
    ``poly.native`` picks for z.  Returns the step, the accepted point and
    its objective, or None when the line search exhausts its shrinks at
    every usable order."""
    coeffs, w = poly.native(z)
    make = type(w)
    b = shifted(coeffs, w)
    norms = shift_norms(b, lead_norm)
    order = shift_order(norms, exact)
    z_re, z_im = w.real, w.imag
    while True:
        alpha = b[0].conjugate() * b[order]
        candidate, zeta, rate = steepest_candidate(alpha, order)
        descent_rate = -rate  # |Re[alpha zeta^k]|
        zeta_re, zeta_im = zeta.real, zeta.imag
        r = step_init
        for backtracks in range(max_backtracks + 1):
            # z + zeta * r, built from its parts.
            trial = make(z_re + zeta_re * r, z_im + zeta_im * r)
            f_trial = square_modulus(coeffs, trial)
            # Sufficient decrease, written multiplicatively so exact integer
            # coefficients stay exact.  The strict part guards against zero
            # steps once r underflows.
            if f_trial < f_z and 2 * (f_z - f_trial) >= r**order * descent_rate:
                step = DescentStep(
                    z=z,
                    f_value=f_z,
                    order=order,
                    alpha=ComplexScalar(alpha.real, alpha.imag),
                    direction=candidate,
                    r_accepted=r,
                    backtracks=backtracks,
                    m_bound=_decrease_bound(
                        norms[0], norms[order:], candidate.zeta.one_norm(), order
                    ),
                )
                return step, ComplexScalar(trial.real, trial.imag), f_trial
            r = r * shrink
        # Exhausted.  In the float backend the order's coefficient is
        # numerically stranded (see module docstring); retry the round at
        # the next nonzero order, dropping the stranded coefficients.
        # Exact mode keeps literal orders.
        if exact:
            return None
        order = next((j for j in range(order + 1, len(b)) if norms[j] != 0), None)
        if order is None:
            return None


def _start_parts(poly: Polynomial) -> list[tuple]:
    """The parts of 0 plus axis and corner points at the certified radius
    and four halvings of it, in a fixed enumeration order."""
    exact = poly.is_exact()
    radius = poly.growth_radius()
    o = 0 if exact else 0.0
    parts = [(o, o)]
    for m in range(5):
        s = Fraction(radius, 2**m) if exact else radius / float(2**m)
        parts += [(s, o), (-s, o), (o, s), (o, -s), (s, s), (s, -s), (-s, s), (-s, -s)]
    return parts


def _best_start(poly: Polynomial) -> ComplexScalar:
    """The start point with the smallest objective (the first on ties)."""
    parts = _start_parts(poly)
    coeffs, w = poly.native(ComplexScalar(*parts[0]))
    make = type(w)
    best = None
    best_f = None
    for re, im in parts:
        f = square_modulus(coeffs, make(re, im))
        if best_f is None or f < best_f:
            best, best_f = (re, im), f
    return ComplexScalar(*best)


def _polish(
    original: Polynomial, z: ComplexScalar, config: SolverConfig
) -> tuple[ComplexScalar, DescentTrace]:
    """A few descent rounds against the original polynomial; best effort,
    never worse than the input point."""
    polish_config = replace(config, max_outer=POLISH_MAX_OUTER)
    try:
        return descend_to_root(original, z, polish_config, phase="polish")
    except ConvergenceError as err:
        return err.best_z, err.trace


def find_all_roots(poly: Polynomial, config: SolverConfig = DEFAULT_CONFIG) -> RootResult:
    """All roots of P with multiplicity, by repeated descent and deflation.

    Roots at 0 are read off directly from trailing zero coefficients.
    Every other root is found on the current deflated polynomial starting
    from the best of a coarse sample inside the certified radius, then
    polished against the original P.  Output is sorted by (Re, Im);
    residual one-norms are evaluated on the original polynomial.
    """
    if poly.degree < 1:
        raise ValueError("degree must be >= 1")
    poly.require_finite()
    exact = poly.is_exact()
    if exact and poly.degree > EXACT_MAX_DEGREE:
        raise ValueError(
            f"exact solves are gated to degree <= {EXACT_MAX_DEGREE}, got {poly.degree}"
        )

    roots: list[ComplexScalar] = []
    traces: list[DescentTrace] = []
    iterations = 0

    zero_order = poly.trailing_zero_order()
    if zero_order:
        zero = ZERO if exact else ZERO.to_float()
        roots.extend([zero] * zero_order)
    work = Polynomial(poly.coeffs[zero_order:])

    while work.degree >= 1:
        try:
            start = _best_start(work)
            root, trace = descend_to_root(work, start, config)
            iterations += len(trace.steps)
            if config.keep_traces:
                traces.append(trace)
            root, polish_trace = _polish(poly, root, config)
        except ConvergenceError as err:
            iterations += len(err.trace.steps)
            partial = _package(poly, roots, traces + [err.trace], iterations, config)
            raise SolveError(
                f"stalled after {len(roots)} of {poly.degree} roots: {err}",
                partial,
                err,
            ) from err
        except NonFiniteObjectiveError as err:
            partial = _package(poly, roots, traces, iterations, config)
            raise SolveError(
                f"stopped after {len(roots)} of {poly.degree} roots: {err}",
                partial,
                err,
            ) from err
        iterations += len(polish_trace.steps)
        if config.keep_traces and polish_trace.steps:
            traces.append(polish_trace)

        roots.append(root)
        work, _ = work.deflate(root)

    return _package(poly, roots, traces, iterations, config)


def _package(
    original: Polynomial,
    roots: list[ComplexScalar],
    traces: list[DescentTrace],
    iterations: int,
    config: SolverConfig,
) -> RootResult:
    ordered = tuple(sorted(roots, key=lambda z: (z.re, z.im)))
    residuals = tuple(original.evaluate(z).one_norm() for z in ordered)
    return RootResult(
        roots=ordered,
        residual_one_norms=residuals,
        iterations=iterations,
        traces=tuple(traces) if config.keep_traces else None,
    )


def _real_pow(x: float, n: int) -> float:
    power = 1.0
    for _ in range(n):
        power *= x
    return power


def positive_nth_root(c: float, n: int, config: SolverConfig = DEFAULT_CONFIG) -> float:
    """The positive real x with x^n = c (c > 0, integer n >= 2), found by
    solving z^n - c = 0 and keeping the root on the positive real axis."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    c = float(c)
    if not 0 < c < float("inf"):
        raise ValueError(f"c must be positive and finite, got {c!r}")

    coeffs = [ComplexScalar(-c, 0.0)]
    coeffs.extend(ComplexScalar(0.0, 0.0) for _ in range(n - 1))
    coeffs.append(ComplexScalar(1.0, 0.0))
    result = find_all_roots(Polynomial(tuple(coeffs)), config)

    on_axis = [z for z in result.roots if z.re > 0]
    if not on_axis:
        raise ArithmeticError(f"no root with positive real part for c={c}, n={n}")
    root = min(on_axis, key=lambda z: abs(z.im))
    x = root.re

    # Perfect powers snap to the integer root (detection multiplies only),
    # so e.g. (4, 2) gives exactly 2.0.
    snapped = float(round(x))
    if snapped > 0 and _real_pow(snapped, n) == c:
        x = snapped

    residual = _real_pow(x, n) - c
    allowance = config.residual_tol * (1.0 + c)  # coefficient one-norm of z^n - c
    if residual * residual > allowance * allowance:
        raise ArithmeticError(
            f"residual check failed: |x^n - c| = {abs(residual)} exceeds {allowance}"
        )
    return x
