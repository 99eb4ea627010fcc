"""The solver against the benchmark's span tracer (``bench/tracer.py``).

The tracer wraps solver functions where their callers look them up, and
its ``descend_to_root`` wrapper passes exactly ``(poly, z_start, config,
phase)``.  A traced solve must compute what an untraced one does, and the
spans the benchmark reports must still be recorded.  These tests read
``bench/`` and change nothing there.
"""

import importlib
from pathlib import Path

import pytest

from fourops import solver
from fourops.poly import Polynomial
from fourops.sampling import SplitMix64, random_float_complex
from fourops.solver import SolverConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("tracer")


def solves():
    rng = SplitMix64(12)
    float_poly = Polynomial.from_roots([random_float_complex(rng, 2.0) for _ in range(8)])
    exact_poly = Polynomial.from_scalars([2, -3, 1])
    config = SolverConfig(residual_tol=1e-12)
    # Looked up on the module at call time, so the traced runs go through
    # the tracer's wrappers.
    return [
        lambda: solver.find_all_roots(float_poly, config),
        lambda: solver.find_all_roots(exact_poly),
    ]


def test_span_targets_exist(tracer):
    for owner, attr, _ in tracer.SPAN_TARGETS:
        assert callable(getattr(owner, attr, None)), attr


def test_traced_solves_match_untraced(tracer):
    untraced = [repr(solve()) for solve in solves()]
    spans = tracer.Tracer()
    with spans.installed():
        traced = [repr(solve()) for solve in solves()]
    assert traced == untraced
    summary = spans.summary()
    assert summary["solver.find_all_roots.calls"] == 2
    assert summary["solver.descend_to_root.descent.calls"] > 0
    assert summary["solver.descend_to_root.polish.calls"] > 0
