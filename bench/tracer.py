"""In-memory span tracer for the benchmark's traced runs.

``Tracer.installed()`` wraps public fourops functions at the place their
callers look them up (``Polynomial`` methods on the class, functions that
``fourops.solver`` and ``fourops.cli`` imported by name in those modules'
namespaces).  Each wrapped call records one span: its name, start, end and
the index of the enclosing span.  Spans stay in flat arrays until the run
ends; ``summary()`` then reduces them to per-name call counts and self time
(span duration minus the time covered by its child spans).

The scalar operations take well under a microsecond, so they are counted,
not timed: a timing wrapper around them would mostly measure itself.
Wrappers only pass arguments and results through, so a traced run computes
exactly what an untraced one does; the benchmark checks that.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

from fourops import cli, estermann, scalars, solver
from fourops.poly import Polynomial
from fourops.scalars import ComplexScalar

# (owner, attribute, span name)
SPAN_TARGETS = (
    (Polynomial, "objective", "poly.objective"),
    (Polynomial, "growth_radius", "poly.growth_radius"),
    (Polynomial, "taylor_shift", "poly.taylor_shift"),
    (solver, "pick_descent_direction", "estermann.pick_descent_direction"),
    (solver, "certified_decrease_bound", "solver.certified_decrease_bound"),
    (solver, "find_all_roots", "solver.find_all_roots"),
    (cli, "find_all_roots", "solver.find_all_roots"),
    (estermann, "verify_lemma_direct", "estermann.verify_lemma_direct"),
    (estermann, "verify_lemma_termwise", "estermann.verify_lemma_termwise"),
    (scalars, "check_norm_product", "scalars.check_norm_product"),
    (cli, "parse_inline_coeffs", "cli.parse_inline_coeffs"),
    (cli, "main", "cli.main"),
)

COUNT_TARGETS = (
    (ComplexScalar, "__mul__", "scalars.mul"),
    (ComplexScalar, "__add__", "scalars.add"),
    (ComplexScalar, "__truediv__", "scalars.div"),
)


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_of = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._counts: dict[str, list[int]] = {}
        self._deflations: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name_of.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _descend_span(self, fn):
        """descend_to_root, split into one span name per ``phase``."""
        ids = {
            phase: self._name_id(f"solver.descend_to_root.{phase}")
            for phase in ("descent", "polish")
        }
        open_, close = self._open, self._close

        def wrapper(poly_, z_start, config=solver.DEFAULT_CONFIG, phase="descent"):
            idx = open_(ids[phase])
            try:
                return fn(poly_, z_start, config, phase)
            finally:
                close(idx)

        return wrapper

    def _deflate_span(self, fn):
        """deflate, keeping each (polynomial, remainder) for the remainder ratio."""
        name_id = self._name_id("poly.deflate")
        open_, close, kept = self._open, self._close, self._deflations

        def wrapper(self_, root):
            idx = open_(name_id)
            try:
                out = fn(self_, root)
            finally:
                close(idx)
            kept.append((self_, out[1]))
            return out

        return wrapper

    def _counter(self, name: str, fn):
        cell = self._counts.setdefault(name, [0])

        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals = []

        def patch(owner, attr, wrapper):
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        try:
            for owner, attr, name in SPAN_TARGETS:
                patch(owner, attr, self._span(name, getattr(owner, attr)))
            patch(solver, "descend_to_root", self._descend_span(solver.descend_to_root))
            patch(Polynomial, "deflate", self._deflate_span(Polynomial.deflate))
            for owner, attr, name in COUNT_TARGETS:
                patch(owner, attr, self._counter(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-name ``<name>.calls`` and ``<name>.self_s``, the scalar counts
        as ``<name>.calls``, and ``poly.deflate.remainder_max``."""
        n = len(self._start)
        child = [0.0] * n
        start, end, parent = self._start, self._end, self._parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self._names)
        self_s = [0.0] * len(self._names)
        for i in range(n):
            k = self._name_of[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self._names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        for name, cell in self._counts.items():
            out[f"{name}.calls"] = cell[0]
        out["poly.deflate.remainder_max"] = max(
            (float(rem.one_norm() / p.coeff_one_norm()) for p, rem in self._deflations),
            default=0.0,
        )
        return out
