"""Run one fourops benchmark workload and print its metrics.

    python3 bench/run.py --workload recovery --seed 2024 --seconds 25 --trace 0

Each run takes a batch of inputs fixed by ``--seed`` and ``--seconds``
(sized to take about ``--seconds`` on a 2-CPU machine), so runs with the
same arguments attempt and fail the same operations.
``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off.  Every operation runs twice, half a run apart, and keeps its
faster time, so that slowdowns from other load on the machine drop out
when they hit one run only; the second run must reproduce the first
output.
``--trace 1`` runs the batch twice, untraced and then traced, checks
that the traced calls reproduce the untraced outputs and solver counts
exactly, and reports the per-layer metrics.
``--workload all`` runs the four workloads one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when an answer came back wrong or a second or traced call changed a
result;
``failed`` counts every failed operation, including ones that raised.
The line before it holds diagnostics: each workload's own figures by
name, the recovery breakdown by degree, error types and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("recovery", "high_degree", "certify", "cli")
SETUP_SAMPLES = 11
SETUP_REPEATS = 3
SETUP_CHILD = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import fourops.cli\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed(fn, item):
    """(milliseconds, result); a raised exception is the result."""
    t0 = perf_counter()
    try:
        out = fn(item)
    except Exception as err:  # counted as a failed operation; the run goes on
        out = err
    return (perf_counter() - t0) * 1000.0, out


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100)[q - 1]


def setup_seconds(env) -> float:
    """Time for a fresh interpreter to import fourops.cli, timed in the child."""
    cmd = [sys.executable, "-c", SETUP_CHILD]
    return float(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60).stdout)


def batch(wl, seed: int, seconds: float):
    """The run's inputs: the first ``round(seconds * strata_per_s)`` strata
    drawn from ``SplitMix64(seed)``, and the time it took to draw them.

    The batch is fixed by the seed and the run length, not by how fast the
    machine is, so two runs with the same arguments attempt the same
    operations and fail the same ones."""
    from fourops.sampling import SplitMix64

    rng = SplitMix64(seed)
    t0 = perf_counter()
    items = [
        item
        for _ in range(max(1, round(seconds * wl.strata_per_s)))
        for item in wl.stratum(rng)
    ]
    return items, perf_counter() - t0


def run_measured(wl, seed: int, seconds: float):
    """The batch, run twice in the same order.

    An operation keeps the faster of its two times and its first output;
    the second run must reproduce that output.  SETUP_SAMPLES *
    SETUP_REPEATS set-up children run between operations, evenly spread
    over both passes; a set-up sample is the fastest of SETUP_REPEATS
    children a third of the run apart.

    Returns the operations, the goodput (correct outputs per second of
    operation time), whether every second run reproduced its first output,
    the input generation time and the set-up samples.
    """
    from workloads import child_env, fingerprint

    env = child_env(SRC)
    setup_seconds(env)  # untimed: writes the bytecode caches
    items, gen_s = batch(wl, seed, seconds)
    children = SETUP_SAMPLES * SETUP_REPEATS
    turns = 2 * len(items)
    setup, first, second = [], [], []
    for turn, item in enumerate(items + items):
        while len(setup) < children and len(setup) * turns <= turn * children:
            setup.append(setup_seconds(env))
        (first if turn < len(items) else second).append(timed(wl.call, item))
    setup += [setup_seconds(env) for _ in range(children - len(setup))]
    samples = [min(setup[i::SETUP_SAMPLES]) for i in range(SETUP_SAMPLES)]
    repeatable = all(fingerprint(a[1]) == fingerprint(b[1]) for a, b in zip(first, second))
    ops = [wl.check(item, min(a[0], b[0]), a[1]) for item, a, b in zip(items, first, second)]
    goodput = sum(op.units for op in ops) * 1000.0 / sum(op.ms for op in ops)
    return ops, goodput, repeatable, gen_s, samples


def run_traced(wl, seed: int, seconds: float):
    """The batch, each item run untraced and then traced."""
    from tracer import Tracer

    items, gen_s = batch(wl, seed, seconds)

    # Spans cannot cross a process boundary, so the cli workload is traced
    # through cli.main in this process and compared with its process outputs.
    # Untraced and traced runs of each item alternate, so that the machine's
    # drift falls on both sides of the overhead ratio alike.
    in_process = getattr(wl, "call_in_process", None)
    tracer = Tracer()
    plain, base, traced = [], [], []
    for item in items:
        plain.append(timed(wl.call, item))
        if in_process:
            base.append(timed(in_process, item))
        with tracer.installed():
            traced.append(timed(in_process or wl.call, item))
    base = base or plain
    ops = [wl.check(item, ms, out) for item, (ms, out) in zip(items, plain)]
    traced_ops = [wl.check(item, ms, out) for item, (ms, out) in zip(items, traced)]

    from workloads import fingerprint as fp

    reproduced = all(
        fp(a[1]) == fp(b[1]) == fp(c[1]) for a, b, c in zip(plain, base, traced)
    ) and [o.counts for o in ops] == [o.counts for o in traced_ops]
    overhead = sum(ms for ms, _ in traced) / sum(ms for ms, _ in base) - 1.0
    return ops, gen_s, tracer.summary(), overhead, reproduced, len(items)


def solver_layer(ops) -> dict:
    c = Counter()
    for op in ops:
        c.update(op.counts)
    roots = c["roots"]
    tried = c["accepted"] + c["backtracks"]
    finite = [op for op in ops if math.isfinite(op.match)]
    return {
        "solver.accepted_steps": c["accepted"],
        "solver.backtracks": c["backtracks"],
        "solver.polish_steps": c["polish"],
        "solver.accept_ratio": c["accepted"] / tried if tried else 0.0,
        "solver.steps_per_root": c["accepted"] / roots if roots else 0.0,
        "solver.objective_evals_per_root": c["objective_evals"] / roots if roots else 0.0,
        "solver.certificate_violations": c["violations"],
        "solver.max_match_err": max((op.match for op in finite), default=0.0),
        "solver.max_residual_ratio": max((op.residual_ratio for op in finite), default=0.0),
        "estermann.quadrant_steps": c["quadrant"],
    }


def named_metrics(name: str, ops) -> dict:
    """Each workload's own figures by name: name -> [value, unit]
    (percentiles also carry their sample count)."""

    def busy_s(kind):
        return sum(op.ms for op in ops if op.kind == kind) / 1000.0

    def correct_ms(kind):
        return [op.ms for op in ops if op.kind == kind and not op.failed]

    def rate(kind, unit):
        spent = busy_s(kind)
        return [sum(op.units for op in ops if op.kind == kind) / spent if spent else 0.0, unit]

    def pct(kind, q):
        ms = correct_ms(kind)
        return [percentile(ms, q), "ms", len(ms)]

    attempted = sum(op.attempted for op in ops)
    out = {"fail_frac": [sum(op.failed for op in ops) / attempted, "ratio"]}
    if name in ("recovery", "high_degree"):
        out["roots_per_s"] = rate("solve", "roots/s")
    if name == "recovery":
        out["solve_p50_ms"] = pct("solve", 50)
        out["solve_p90_ms"] = pct("solve", 90)
    if name == "certify":
        from workloads import LEMMA_MAX_K

        sweeps = sum(op.kind == "lemma" for op in ops) / (LEMMA_MAX_K // 2)
        out["lemma_s"] = [busy_s("lemma") / sweeps, "s"]
        out["norm_pairs_per_s"] = rate("pairs", "pairs/s")
        out["exact_solve_p50_ms"] = pct("exact", 50)
    if name == "cli":
        out["cli_p50_ms"] = pct("process", 50)
        out["cli_p90_ms"] = pct("process", 90)
    return out


def per_degree(ops) -> dict:
    """Recovery diagnostics by degree: median solve ms and steps per root."""
    rows = {}
    for degree in sorted({op.degree for op in ops}):
        group = [op for op in ops if op.degree == degree]
        roots = sum(op.counts["roots"] for op in group)
        rows[degree] = {
            "n": len(group),
            "median_ms": statistics.median(op.ms for op in group),
            "steps_per_root": sum(op.counts["accepted"] for op in group) / roots if roots else 0.0,
        }
    return rows


def git_commit() -> str:
    """HEAD's commit, or 'unknown' outside a git repository.  The search
    stops at the checkout's root, so no enclosing repository is read."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(wl, seed: int, seconds: float, trace: bool, spec) -> dict:
    """One workload; returns the result object plus diagnostics."""
    from workloads import warm_up

    env = environment()
    warm_up()
    diagnostics = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        ops, gen_s, layer, overhead, reproduced, n_items = run_traced(wl, seed, seconds)
        values = {**layer, **solver_layer(ops), "sampling.gen_s": gen_s, "trace.overhead_frac": overhead}
        diagnostics.update(batch_items=n_items, traced_reproduces_untraced=reproduced)
        correct = reproduced and values["solver.certificate_violations"] == 0
        wanted = spec["per_layer"]
    else:
        ops, goodput, repeatable, gen_s, setup_runs = run_measured(wl, seed, seconds)
        values = {"setup_s": statistics.median(setup_runs), "goodput_per_s": goodput}
        diagnostics.update(
            named=named_metrics(wl.name, ops),
            setup_samples_s=setup_runs,
            busy_s={kind: sum(op.ms for op in ops if op.kind == kind) / 1000.0 for kind in {op.kind for op in ops}},
            second_run_reproduces_first=repeatable,
        )
        diagnostics["sampling.gen_s"] = gen_s
        if wl.name == "recovery":
            diagnostics["per_degree"] = per_degree(ops)
        correct = repeatable
        wanted = spec["end_to_end"]
    correct = correct and not any(op.wrong for op in ops)
    diagnostics["errors"] = dict(Counter(op.error for op in ops if op.error))
    env["loadavg_end"] = os.getloadavg()
    diagnostics["env"] = env
    return {
        "correct": correct,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "diagnostics": diagnostics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fourops" / "__init__.py").is_file():
        print(f"error: no fourops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fourops

    if Path(fourops.__file__).resolve().parent != SRC / "fourops":
        print(f"error: imported fourops from {fourops.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = make_workloads(SRC)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        wl = workloads[name]
        seed = wl.default_seed if args.seed is None else args.seed
        result = run_workload(wl, seed, args.seconds, bool(args.trace), spec)
        diagnostics = result.pop("diagnostics")
        for metric, cell in {**diagnostics.get("named", {}), **result["metrics"]}.items():
            value, unit = (cell["value"], cell["unit"]) if isinstance(cell, dict) else cell[:2]
            print(f"{name:<12} {metric:<40} {value:.6g} {unit}")
        print(f"{name:<12} attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
        print(json.dumps({"diagnostics": diagnostics}))
        results[name] = result

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": cell
                for name, r in results.items()
                for metric, cell in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
