"""The benchmark's four workloads: seeded inputs, the calls they time, and
the checks on every output.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come in strata, blocks with a
fixed mix (one polynomial of every degree in the range, or one round of
each certificate kind), drawn from ``SplitMix64(seed)``.  A stratum fixes
the degree mix so that the figures of two seeds differ only by the roots
drawn, not by how many slow high-degree instances a seed happened to get.

An operation fails when it raises, returns a wrong root count, matches
its construction roots (optimal assignment) worse than ``MATCH_TOL`` in
one-norm, leaves a residual above ``RESIDUAL_TOL`` times the coefficient
one-norm, returns a certificate whose ``holds`` is false, breaks the
monotone-descent or per-step certificate on a recorded trace, or (``cli``)
exits nonzero.  A failed operation is also a wrong answer, which makes the
run incorrect, when it breaks the program's own contract: the root count,
the residual, a certificate or a step.  A raise, or roots that miss
``MATCH_TOL`` with the residual met (clustered roots are ill-conditioned),
count as failed and nothing more.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from scipy.optimize import linear_sum_assignment

from fourops import cli, estermann, scalars, solver
from fourops.poly import Polynomial
from fourops.sampling import SplitMix64, random_box_float, random_exact_complex
from fourops.scalars import ComplexScalar
from fourops.solver import SolverConfig

MATCH_TOL = 1e-6
RESIDUAL_TOL = 1e-8
FLOAT_CONFIG = SolverConfig(residual_tol=1e-12)
LEMMA_MAX_K = 200
# Sized so that the lemma sweep, the norm pairs and the exact solves each
# take about a third of a certify stratum's operation time.
PAIRS_PER_STRATUM = 24000
PAIRS_PER_OP = 1000
EXACT_PER_DEGREE = 10


@dataclass
class Op:
    """The measured outcome of one operation."""

    kind: str
    ms: float
    attempted: int = 1
    failed: int = 0
    units: int = 0  # correct outputs delivered: roots, or certificate verdicts
    error: str | None = None  # exception type, or the check that failed
    wrong: bool = False  # an answer came back that breaks the program's contract
    degree: int = 0
    match: float = 0.0
    residual_ratio: float = 0.0
    counts: Counter = field(default_factory=Counter)


def shuffled(values, rng: SplitMix64) -> list:
    """Fisher-Yates shuffle driven by the benchmark's own seeded stream."""
    out = list(values)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def box_roots(rng: SplitMix64, degree: int) -> list[ComplexScalar]:
    """Roots uniform in [-2, 2)^2, drawn as in the acceptance recovery test."""
    return [
        ComplexScalar(random_box_float(rng, 2.0), random_box_float(rng, 2.0))
        for _ in range(degree)
    ]


def small_rational(rng: SplitMix64) -> Fraction:
    """num/den with num in [-8, 8] and den in [1, 4]: small enough that the
    exact descent finishes in milliseconds."""
    return Fraction(int(rng.next_u64() % 17) - 8, 1 + int(rng.next_u64() % 4))


def check_roots(poly: Polynomial, true_roots, roots, residuals) -> tuple[str | None, float, float]:
    """(failed check or None, worst match error, worst residual / scale)."""
    if len(roots) != len(true_roots):
        return "root count", float("inf"), float("inf")
    cost = [[float((t - g).one_norm()) for g in roots] for t in true_roots]
    rows, cols = linear_sum_assignment(cost)
    match = max(cost[i][j] for i, j in zip(rows, cols))
    scale = poly.coeff_one_norm()
    ratio = float(max(residuals) / scale)
    if match > MATCH_TOL:
        return "match", match, ratio
    if ratio > RESIDUAL_TOL:
        return "residual", match, ratio
    return None, match, ratio


def trace_counts(traces) -> Counter:
    """Solver counts from recorded traces, with the acceptance checks of
    monotone descent and the per-step certificate replayed on every step."""
    c = Counter()
    for trace in traces:
        fs = [s.f_value for s in trace.steps] + [trace.final_f]
        c["violations"] += sum(1 for a, b in zip(fs, fs[1:]) if not b < a)
        c["objective_evals"] += 1
        for step in trace.steps:
            c["accepted"] += 1
            c["backtracks"] += step.backtracks
            c["objective_evals"] += step.backtracks + 1
            if trace.phase == "polish":
                c["polish"] += 1
            if step.order % 2 == 0 and step.direction.zeta.im != 0:
                c["quadrant"] += 1
            zk = step.direction.zeta_pow_k
            rate = step.alpha.re * zk.re - step.alpha.im * zk.im
            r = step.r_accepted
            if not rate < 0 or (r < 1 and not -2 * rate <= 3 * r * step.m_bound):
                c["violations"] += 1
    return c


def error_name(err: BaseException) -> str:
    return str(err) if isinstance(err, ExitStatus) else type(err).__name__


def fingerprint(out):
    """What a traced call must reproduce exactly."""
    if isinstance(out, BaseException):
        return ("raised", error_name(out))
    if isinstance(out, solver.RootResult):
        return tuple((z.re, z.im) for z in out.roots)
    return repr(out)  # certificate verdicts, or the cli's printed report


def solve_op(kind: str, poly: Polynomial, true_roots, ms: float, out) -> Op:
    op = Op(kind, ms, degree=poly.degree)
    if isinstance(out, BaseException):
        op.failed, op.error = 1, error_name(out)
        return op
    op.counts = trace_counts(out.traces)
    op.counts["roots"] = len(out.roots)
    failure, op.match, op.residual_ratio = check_roots(
        poly, true_roots, out.roots, out.residual_one_norms
    )
    if failure is None and op.counts["violations"]:
        failure = "step certificate"
    if failure is None:
        op.units = len(out.roots)
    else:
        op.failed, op.error, op.wrong = 1, failure, failure != "match"
    return op


class FloatSolve:
    """``recovery`` and ``high_degree``: ``find_all_roots`` on monic
    ``Polynomial.from_roots`` instances, roots uniform in [-2, 2)^2,
    ``SolverConfig(residual_tol=1e-12)``."""

    def __init__(self, name, degrees, default_seed, strata_per_s):
        self.name = name
        self.degrees = degrees
        self.default_seed = default_seed
        self.strata_per_s = strata_per_s

    def stratum(self, rng: SplitMix64) -> list:
        items = []
        for degree in shuffled(self.degrees, rng):
            true_roots = box_roots(rng, degree)
            items.append((Polynomial.from_roots(true_roots), true_roots))
        return items

    def call(self, item):
        return solver.find_all_roots(item[0], FLOAT_CONFIG)

    def check(self, item, ms: float, out) -> Op:
        return solve_op("solve", item[0], item[1], ms, out)


class Certify:
    """Exact-rational work only.  A stratum is the quadrant lemma for every
    even k up to 200 (one operation per k: direct and termwise, sharing one
    binomial table built with the inputs), ``check_norm_product`` on
    PAIRS_PER_STRATUM seeded exact pairs (PAIRS_PER_OP to an operation), and exact
    ``find_all_roots`` on EXACT_PER_DEGREE polynomials of each degree 1-4
    with seeded small rational roots."""

    name = "certify"
    default_seed = 7
    strata_per_s = 0.12

    def stratum(self, rng: SplitMix64) -> list:
        pairs = [
            (random_exact_complex(rng), random_exact_complex(rng))
            for _ in range(PAIRS_PER_STRATUM)
        ]
        table = estermann.BinomialTable(2 * LEMMA_MAX_K)
        items = [("lemma", (k, table)) for k in range(2, LEMMA_MAX_K + 1, 2)]
        items += [("pairs", pairs[i : i + PAIRS_PER_OP]) for i in range(0, len(pairs), PAIRS_PER_OP)]
        for degree in shuffled([d for d in range(1, 5) for _ in range(EXACT_PER_DEGREE)], rng):
            true_roots = [
                ComplexScalar(small_rational(rng), small_rational(rng)) for _ in range(degree)
            ]
            items.append(("exact", (Polynomial.from_roots(true_roots), true_roots)))
        return items

    def call(self, item):
        kind, payload = item
        if kind == "lemma":
            k, table = payload
            return [estermann.verify_lemma_direct(k), estermann.verify_lemma_termwise(k, table)]
        if kind == "pairs":
            return [scalars.check_norm_product(z, w) for z, w in payload]
        return solver.find_all_roots(payload[0])

    def check(self, item, ms: float, out) -> Op:
        kind, payload = item
        if kind == "exact":
            return solve_op("exact", payload[0], payload[1], ms, out)
        if isinstance(out, BaseException):
            return Op(kind, ms, failed=1, error=error_name(out))
        held = sum(1 for v in out if v.holds)
        op = Op(kind, ms, attempted=len(out), failed=len(out) - held, units=held)
        if op.failed:
            op.error, op.wrong = "holds false", True
        return op


class ExitStatus(Exception):
    """A ``fourops`` command that exited nonzero."""

    def __init__(self, code: int):
        super().__init__(f"exit {code}")


def coeff_arg(poly: Polynomial) -> str:
    """Inline ``--coeffs`` text that parses back to exactly these floats."""
    terms = []
    for c in poly.coeffs:
        im = repr(c.im)
        terms.append(f"{c.re!r}{'' if im.startswith('-') else '+'}{im}i")
    return "--coeffs=" + ",".join(terms)


class Cli:
    """``python -m fourops.cli solve --coeffs=... --json`` as a fresh process
    per polynomial, degrees 1-8, roots as in ``recovery``, at the CLI's
    default tolerance."""

    name = "cli"
    default_seed = 2024
    strata_per_s = 0.36

    def __init__(self, src: Path):
        self.env = child_env(src)

    def stratum(self, rng: SplitMix64) -> list:
        items = []
        for degree in shuffled(range(1, 9), rng):
            true_roots = box_roots(rng, degree)
            poly = Polynomial.from_roots(true_roots)
            items.append((poly, true_roots, ["solve", coeff_arg(poly), "--json"]))
        return items

    def call(self, item):
        done = subprocess.run(
            [sys.executable, "-m", "fourops.cli", *item[2]],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return ExitStatus(done.returncode) if done.returncode else done.stdout

    def call_in_process(self, item):
        """The same solve through ``cli.main`` in this process, for the
        traced run: spans cannot cross a process boundary."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(item[2])
        return ExitStatus(code) if code else buf.getvalue()

    def check(self, item, ms: float, out) -> Op:
        poly, true_roots, _ = item
        op = Op("process", ms, degree=poly.degree)
        if isinstance(out, BaseException):
            op.failed, op.error = 1, error_name(out)
            return op
        report = json.loads(out)
        roots = [ComplexScalar(re, im) for re, im in report["roots"]]
        failure, op.match, op.residual_ratio = check_roots(
            poly, true_roots, roots, report["residual_one_norms"]
        )
        if failure is None:
            op.units = len(roots)
        else:
            op.failed, op.error, op.wrong = 1, failure, failure != "match"
        return op


def child_env(src: Path) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH and
    bytecode caching on, as an installed package has it, whatever the
    caller's PYTHONDONTWRITEBYTECODE says."""
    paths = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up() -> None:
    """Fill the solver's candidate caches and load the matcher before any
    timing; users pay these once per process, not per solve."""
    rng = SplitMix64(0)
    true_roots = box_roots(rng, 3)
    poly = Polynomial.from_roots(true_roots)
    out = solver.find_all_roots(poly, FLOAT_CONFIG)
    check_roots(poly, true_roots, out.roots, out.residual_one_norms)
    solver.find_all_roots(Polynomial.from_scalars([2, -3, 1]))


def make_workloads(src: Path) -> dict:
    return {
        "recovery": FloatSolve("recovery", range(1, 13), 2024, 0.4),
        "high_degree": FloatSolve("high_degree", range(13, 33), 1, 0.12),
        "certify": Certify(),
        "cli": Cli(src),
    }
