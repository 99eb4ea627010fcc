"""Command line front end.

Subcommands:

* ``solve``: find all roots of a polynomial (inline or JSON coefficients).
* ``verify-lemma``: exact sign certification of the quadrant directions
  for every even k up to a bound, one report line per k.
* ``check-norms``: seeded random verification of the taxicab norm
  product inequalities and the conjugation identity.
* ``nth-root``: positive real n-th root via a polynomial solve.
* ``trace``: run one descent and export the per-step CSV record.

Exit codes: 0 success, 2 usage error (including coefficients that are
infinite, NaN or outside the float range, solver settings that
``SolverConfig`` rejects, such as ``--tol 0``, ``--tol inf`` or
``--max-outer 0``, and a ``--csv`` path that cannot be written), 3 the
solve stopped early, by non-convergence or by an objective outside the
float range (with a partial report on stdout).  Output for a fixed
invocation and seed is byte-for-byte deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .estermann import BinomialTable, verify_lemma_direct, verify_lemma_termwise
from .poly import NonFiniteObjectiveError, Polynomial
from .sampling import SplitMix64, random_exact_complex
from .scalars import ComplexScalar, ZERO, check_norm_product
from .solver import (
    ConvergenceError,
    SolveError,
    SolverConfig,
    _best_start,
    descend_to_root,
    find_all_roots,
    positive_nth_root,
)

TRACE_FIELDS = [
    "step",
    "re_z",
    "im_z",
    "f",
    "k",
    "re_alpha",
    "im_alpha",
    "re_zeta",
    "im_zeta",
    "r",
    "backtracks",
]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _parse_term(term: str) -> ComplexScalar:
    """One coefficient: 're', 're+imi', 're-imi', or a pure imaginary 'imi'."""
    text = term.replace(" ", "")
    if not text:
        raise UsageError("empty coefficient term")
    if not text.endswith("i"):
        try:
            return ComplexScalar(float(text), 0.0)
        except ValueError:
            raise UsageError(f"bad coefficient {term!r}") from None
    body = text[:-1]
    split = None
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            split = pos
            break
    re_text, im_text = ("0", body) if split is None else (body[:split], body[split:])
    if im_text in ("", "+"):
        im_text = "1"
    elif im_text == "-":
        im_text = "-1"
    try:
        return ComplexScalar(float(re_text), float(im_text))
    except ValueError:
        raise UsageError(f"bad coefficient {term!r}") from None


def parse_inline_coeffs(text: str) -> Polynomial:
    terms = text.split(",")
    try:
        return Polynomial(tuple(_parse_term(t) for t in terms))
    except ValueError as err:
        raise UsageError(str(err)) from None


def load_polynomial(args) -> Polynomial:
    if args.coeffs is not None:
        poly = parse_inline_coeffs(args.coeffs)
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read {args.input}: {err}") from None
        except json.JSONDecodeError as err:
            raise UsageError(f"bad JSON in {args.input}: {err}") from None
        try:
            poly = Polynomial.from_json(payload)
        except ValueError as err:
            raise UsageError(str(err)) from None
    if poly.degree < 1:
        raise UsageError("degree must be >= 1")
    try:
        poly = poly.to_float()
        poly.require_finite()
    except (OverflowError, ValueError) as err:
        raise UsageError(str(err)) from None
    return poly


def _config(args) -> SolverConfig:
    """The solver settings; a flag left out keeps its default, and a value
    that ``SolverConfig`` rejects is a usage error."""
    flags = {
        "residual_tol": getattr(args, "tol", None),
        "max_outer": getattr(args, "max_outer", None),
        "max_backtracks": getattr(args, "max_backtracks", None),
    }
    try:
        return SolverConfig(**{k: v for k, v in flags.items() if v is not None})
    except ValueError as err:
        raise UsageError(str(err)) from None


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _print_result(result, as_json: bool) -> None:
    if as_json:
        payload = {
            "roots": [[z.re, z.im] for z in result.roots],
            "residual_one_norms": list(result.residual_one_norms),
            "iterations": result.iterations,
        }
        print(json.dumps(payload))
        return
    for idx, (root, residual) in enumerate(
        zip(result.roots, result.residual_one_norms), start=1
    ):
        print(f"root {idx}: re={root.re!r} im={root.im!r} residual={residual!r}")
    print(f"iterations: {result.iterations}")


def cmd_solve(args) -> int:
    config = _config(args)
    poly = load_polynomial(args)
    try:
        result = find_all_roots(poly, config)
    except SolveError as err:
        _print_result(err.partial, args.json)
        print(f"error: {err}", file=sys.stderr)
        return 3
    _print_result(result, args.json)
    return 0


def cmd_verify_lemma(args) -> int:
    if args.max_k < 2:
        raise UsageError("--max-k must be >= 2")
    top = args.max_k - (args.max_k % 2)
    table = BinomialTable(2 * top)
    all_ok = True
    for k in range(2, top + 1, 2):
        direct = verify_lemma_direct(k)
        termwise = verify_lemma_termwise(k, table)
        ok = direct.holds and termwise.holds
        all_ok = all_ok and ok
        d = "OK" if direct.holds else "FAIL"
        t = "OK" if termwise.holds else "FAIL"
        print(f"k={k} direct={d} termwise={t} re={direct.power.re} im={direct.power.im}")
    return 0 if all_ok else 1


def cmd_check_norms(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    rng = SplitMix64(args.seed)
    failures = 0

    def check(z, w) -> bool:
        verdict = check_norm_product(z, w)
        conj_ok = (
            z.conj().one_norm() == z.one_norm() and w.conj().one_norm() == w.one_norm()
        )
        return verdict.holds and conj_ok

    if not check(ZERO, ZERO):  # forced degenerate case
        failures += 1
    for _ in range(args.samples):
        z = random_exact_complex(rng)
        w = random_exact_complex(rng)
        if not check(z, w):
            failures += 1
    print(f"pairs checked: {args.samples} random + 1 forced zero (seed {args.seed})")
    if failures:
        print(f"FAIL: {failures} pairs violated the norm inequalities")
        return 1
    print("all product inequalities and conjugation identities hold")
    return 0


def cmd_nth_root(args) -> int:
    if args.n < 2:
        raise UsageError("n must be >= 2")
    if not 0 < args.c < float("inf"):
        raise UsageError("c must be positive and finite")
    config = _config(args)
    try:
        value = positive_nth_root(args.c, args.n, config)
    except (ConvergenceError, SolveError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(repr(value))
    return 0


def cmd_trace(args) -> int:
    config = _config(args)
    poly = load_polynomial(args)
    code = 0
    try:
        _, trace = descend_to_root(poly, _best_start(poly), config)
    except ConvergenceError as err:
        trace = err.trace
        print(f"error: {err}", file=sys.stderr)
        code = 3
    except NonFiniteObjectiveError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    try:
        fh = open(args.csv, "w", encoding="utf-8", newline="")
    except OSError as err:
        raise UsageError(f"cannot write {args.csv}: {err}") from None
    with fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for idx, step in enumerate(trace.steps):
            writer.writerow(
                [
                    idx,
                    repr(step.z.re),
                    repr(step.z.im),
                    repr(step.f_value),
                    step.order,
                    repr(step.alpha.re),
                    repr(step.alpha.im),
                    repr(step.direction.zeta.re),
                    repr(step.direction.zeta.im),
                    repr(step.r_accepted),
                    step.backtracks,
                ]
            )
    print(f"wrote {len(trace.steps)} steps to {args.csv}")
    print(f"final: re={trace.final_z.re!r} im={trace.final_z.im!r} f={trace.final_f!r}")
    return code


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_poly_inputs(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--coeffs",
        help="comma separated coefficients, ascending powers; terms look like '2', '-0.5', '1+2i', '3i'",
    )
    group.add_argument("--input", help="path to a JSON file {\"coeffs\": [[re, im], ...]}")


def _add_config_flags(sub) -> None:
    sub.add_argument("--tol", type=float, help="residual tolerance (default 1e-9)")
    sub.add_argument("--max-outer", type=int, help="descent round limit (default 10000)")
    sub.add_argument(
        "--max-backtracks", type=int, help="line search shrink limit (default 200)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourops",
        description="Polynomial roots from the four field operations; exact certification tools.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="find all roots of a polynomial")
    _add_poly_inputs(solve)
    _add_config_flags(solve)
    solve.add_argument("--json", action="store_true", help="emit a JSON report")
    solve.set_defaults(handler=cmd_solve)

    lemma = commands.add_parser(
        "verify-lemma", help="certify the quadrant sign facts for even k"
    )
    lemma.add_argument("--max-k", type=int, default=200, help="largest k to check (>= 2)")
    lemma.set_defaults(handler=cmd_verify_lemma)

    norms = commands.add_parser(
        "check-norms", help="sample random exact pairs and check the norm inequalities"
    )
    norms.add_argument("--samples", type=int, default=100_000, help="number of random pairs")
    norms.add_argument("--seed", type=int, default=7, help="64-bit splitmix64 seed")
    norms.set_defaults(handler=cmd_check_norms)

    nroot = commands.add_parser("nth-root", help="positive real n-th root of c")
    nroot.add_argument("c", type=float, help="positive real radicand")
    nroot.add_argument("n", type=int, help="root order (integer >= 2)")
    nroot.add_argument("--tol", type=float, help="residual tolerance (default 1e-9)")
    nroot.set_defaults(handler=cmd_nth_root)

    trace = commands.add_parser("trace", help="run one descent and export its CSV trace")
    _add_poly_inputs(trace)
    _add_config_flags(trace)
    trace.add_argument("--csv", required=True, help="output CSV path")
    trace.set_defaults(handler=cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
