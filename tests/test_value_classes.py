"""The package's value types, pinned to the behaviour of frozen slotted
dataclasses: constructor signatures and defaults, validation, repr (the
golden digests hash reprs), ``==``/``hash`` as a compare of the field
tuple, ``__match_args__``, immutability, and pickle/``copy`` round trips.
"""

import copy
import inspect
import math
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from pathlib import Path

import pytest

import fourops
from fourops.estermann import DirectionCandidate, DirectVerdict, verify_lemma_termwise
from fourops.poly import Polynomial, ShiftDecomposition
from fourops.sampling import SplitMix64, random_box_float
from fourops.scalars import ComplexScalar as C
from fourops.scalars import check_norm_product
from fourops import solver
from fourops.solver import (
    FLOAT_ORIGIN,
    DescentStep,
    DescentTrace,
    RootResult,
    SolverConfig,
    certified_decrease_bound,
    descend_to_root,
    find_all_roots,
)

# Each class's __match_args__: its fields, which are also its constructor
# parameters, in order, every one positional-or-keyword.
MATCH_ARGS = {
    C: ("re", "im"),
    ShiftDecomposition: ("base_value", "order", "quotient"),
    Polynomial: ("coeffs",),
    DirectionCandidate: ("zeta", "zeta_pow_k"),
    DirectVerdict: ("k", "power"),
    SolverConfig: ("residual_tol",),
    DescentStep: (
        "z",
        "f_value",
        "order",
        "alpha",
        "direction",
        "r_accepted",
        "backtracks",
        "m_bound",
        "rule",
    ),
    DescentTrace: ("start", "steps", "final_z", "final_f", "converged", "phase"),
    RootResult: ("roots", "residual_one_norms", "iterations", "traces"),
}
DEFAULTS = {(SolverConfig, "residual_tol"): 1e-9, (DescentTrace, "phase"): "descent"}


def examples(a, b):
    """One instance of each class, built from the scalars a and b, as
    (instance, its field values in ``__match_args__`` order)."""
    z, w = C(a, b), C(b, a)
    quotient = Polynomial((C(a, 0), C(1, 0)))
    direction = DirectionCandidate(z, w)
    step = (z, a, 2, w, direction, a, 3, b, "quadrant")
    trace = (z, (DescentStep(*step),), w, a, True, "descent")
    fields = [
        (C, (a, b)),
        (ShiftDecomposition, (z, 2, quotient)),
        (Polynomial, ((z, C(b, 0), C(a, 0)),)),
        (DirectionCandidate, (z, w)),
        (DirectVerdict, (4, z)),
        (SolverConfig, (a,)),
        (DescentStep, step),
        (DescentTrace, trace),
        (RootResult, ((z,), (a,), 1, (DescentTrace(*trace),))),
    ]
    return [(cls(*values), values) for cls, values in fields]


KINDS = {"int": (1, -2), "fraction": (F(1, 3), F(-2, 5)), "float": (0.5, -0.0)}
INSTANCES = [(kind, obj, values) for kind, ab in KINDS.items() for obj, values in examples(*ab)]
IDS = [f"{type(obj).__name__}-{kind}" for kind, obj, _ in INSTANCES]


def verdicts():
    norm = check_norm_product(C(3, F(1, 2)), C(F(-5, 6), 4))
    termwise = verify_lemma_termwise(4)
    built = [type(v)(*(getattr(v, n) for n in v.__match_args__)) for v in (norm, termwise)]
    return [norm, termwise, *built]


# ---------------------------------------------------------------------------
# repr, byte for byte
# ---------------------------------------------------------------------------

INT_Z = "ComplexScalar(re=1, im=-2)"
INT_W = "ComplexScalar(re=-2, im=1)"
INT_DIR = f"DirectionCandidate(zeta={INT_Z}, zeta_pow_k={INT_W})"
INT_STEP = (
    f"DescentStep(z={INT_Z}, f_value=1, order=2, alpha={INT_W}, direction={INT_DIR}, "
    "r_accepted=1, backtracks=3, m_bound=-2)"
)
INT_TRACE = (
    f"DescentTrace(start={INT_Z}, steps=({INT_STEP},), final_z={INT_W}, final_f=1, "
    "converged=True, phase='descent')"
)
FRAC_Z = "ComplexScalar(re=Fraction(1, 3), im=Fraction(-2, 5))"
FRAC_W = "ComplexScalar(re=Fraction(-2, 5), im=Fraction(1, 3))"
FRAC_DIR = f"DirectionCandidate(zeta={FRAC_Z}, zeta_pow_k={FRAC_W})"
FRAC_STEP = (
    f"DescentStep(z={FRAC_Z}, f_value=Fraction(1, 3), order=2, alpha={FRAC_W}, "
    f"direction={FRAC_DIR}, r_accepted=Fraction(1, 3), backtracks=3, m_bound=Fraction(-2, 5))"
)
FRAC_TRACE = (
    f"DescentTrace(start={FRAC_Z}, steps=({FRAC_STEP},), final_z={FRAC_W}, "
    "final_f=Fraction(1, 3), converged=True, phase='descent')"
)
FLOAT_Z = "ComplexScalar(re=0.5, im=-0.0)"
FLOAT_W = "ComplexScalar(re=-0.0, im=0.5)"
FLOAT_DIR = f"DirectionCandidate(zeta={FLOAT_Z}, zeta_pow_k={FLOAT_W})"
FLOAT_STEP = (
    f"DescentStep(z={FLOAT_Z}, f_value=0.5, order=2, alpha={FLOAT_W}, direction={FLOAT_DIR}, "
    "r_accepted=0.5, backtracks=3, m_bound=-0.0)"
)
FLOAT_TRACE = (
    f"DescentTrace(start={FLOAT_Z}, steps=({FLOAT_STEP},), final_z={FLOAT_W}, final_f=0.5, "
    "converged=True, phase='descent')"
)

REPRS = {
    "int": [
        INT_Z,
        "ShiftDecomposition(base_value=ComplexScalar(re=1, im=-2), order=2, "
        "quotient=Polynomial(coeffs=(ComplexScalar(re=1, im=0), ComplexScalar(re=1, im=0))))",
        "Polynomial(coeffs=(ComplexScalar(re=1, im=-2), ComplexScalar(re=-2, im=0), "
        "ComplexScalar(re=1, im=0)))",
        INT_DIR,
        "DirectVerdict(k=4, power=ComplexScalar(re=1, im=-2))",
        "SolverConfig(residual_tol=1)",
        INT_STEP,
        INT_TRACE,
        f"RootResult(roots=({INT_Z},), residual_one_norms=(1,), iterations=1, "
        f"traces=({INT_TRACE},))",
    ],
    "fraction": [
        FRAC_Z,
        f"ShiftDecomposition(base_value={FRAC_Z}, order=2, quotient=Polynomial(coeffs=("
        "ComplexScalar(re=Fraction(1, 3), im=0), ComplexScalar(re=1, im=0))))",
        f"Polynomial(coeffs=({FRAC_Z}, ComplexScalar(re=Fraction(-2, 5), im=0), "
        "ComplexScalar(re=Fraction(1, 3), im=0)))",
        FRAC_DIR,
        f"DirectVerdict(k=4, power={FRAC_Z})",
        "SolverConfig(residual_tol=Fraction(1, 3))",
        FRAC_STEP,
        FRAC_TRACE,
        f"RootResult(roots=({FRAC_Z},), residual_one_norms=(Fraction(1, 3),), iterations=1, "
        f"traces=({FRAC_TRACE},))",
    ],
    "float": [
        FLOAT_Z,
        f"ShiftDecomposition(base_value={FLOAT_Z}, order=2, quotient=Polynomial(coeffs=("
        "ComplexScalar(re=0.5, im=0), ComplexScalar(re=1, im=0))))",
        f"Polynomial(coeffs=({FLOAT_Z}, ComplexScalar(re=-0.0, im=0), "
        "ComplexScalar(re=0.5, im=0)))",
        FLOAT_DIR,
        f"DirectVerdict(k=4, power={FLOAT_Z})",
        "SolverConfig(residual_tol=0.5)",
        FLOAT_STEP,
        FLOAT_TRACE,
        f"RootResult(roots=({FLOAT_Z},), residual_one_norms=(0.5,), iterations=1, "
        f"traces=({FLOAT_TRACE},))",
    ],
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_repr_literals(kind):
    got = [repr(obj) for obj, _ in examples(*KINDS[kind])]
    assert got == REPRS[kind]


def test_default_reprs():
    assert repr(SolverConfig()) == "SolverConfig(residual_tol=1e-09)"
    want = "SolverConfig(residual_tol=Fraction(1, 1000000000000))"
    assert str(SolverConfig(F(1, 10**12))) == want


def test_polynomial_repr_and_equality_ignore_the_caches():
    p = Polynomial((C(F(1, 2), 0), C(3, -1), C(1, 0)))
    fresh = Polynomial(p.coeffs)
    want = repr(fresh)
    p.complex_coeffs(), p.coeff_norms(), p.gaussian_coeffs()
    assert repr(p) == want
    assert p == fresh and hash(p) == hash(fresh)
    f = Polynomial((C(0.5, 0.0), C(1.0, 0.0)))
    f.complex_coeffs(), f.coeff_norms()
    assert repr(f) == (
        "Polynomial(coeffs=(ComplexScalar(re=0.5, im=0.0), ComplexScalar(re=1.0, im=0.0)))"
    )


def test_descent_step_repr_leaves_out_the_rule():
    _, values = examples(1, -2)[6]
    for rule in ("unit", "quadrant", "escalated", "newton"):
        step = DescentStep(*values[:-1], rule)
        assert repr(step) == INT_STEP
        assert step.rule == rule


# ---------------------------------------------------------------------------
# equality and hashing: a compare of the field tuple
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, obj, values", INSTANCES, ids=IDS)
def test_eq_and_hash_are_those_of_the_field_tuple(kind, obj, values):
    twin = type(obj)(*values)
    assert twin is not obj
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin) == hash(values)
    assert obj != values and not obj == values
    assert obj.__eq__(values) is NotImplemented
    for other, _ in examples(*KINDS[kind]):
        if type(other) is not type(obj):
            assert obj != other and other != obj
            assert obj.__eq__(other) is NotImplemented


def test_eq_compares_every_compared_field():
    for obj, values in examples(1, -2):
        for j in range(len(values)):
            changed = list(values)
            changed[j] = (2, -3) if isinstance(values[j], tuple) else 7
            if type(obj) is Polynomial:
                changed[j] = (C(2, 0), C(1, 0))
            assert obj != type(obj)(*changed), (type(obj).__name__, j)
    # The rule is compared although it is left out of the repr.
    _, values = examples(1, -2)[6]
    assert DescentStep(*values[:-1], "unit") != DescentStep(*values[:-1], "newton")


def test_eq_is_a_tuple_compare():
    # A tuple compare takes identical elements as equal before trying ==,
    # so one NaN object equals itself and two NaN objects do not.
    nan = float("nan")
    assert C(nan, 0.0) == C(nan, 0.0)
    assert C(nan, 0.0) != C(float("nan"), 0.0)
    # Components compare by value across numeric types, as in a tuple.
    assert C(1, 0) == C(1.0, F(0)) and hash(C(1, 0)) == hash(C(1.0, F(0)))
    assert C(1, 0) != 1 and C(1, 0) != complex(1, 0)


# ---------------------------------------------------------------------------
# construction: keywords, defaults, validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", list(MATCH_ARGS), ids=[cls.__name__ for cls in MATCH_ARGS])
def test_signature_and_match_args(cls):
    assert cls.__match_args__ == MATCH_ARGS[cls]
    kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    want = [(name, kind, DEFAULTS.get((cls, name), empty)) for name in MATCH_ARGS[cls]]
    got = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == want


@pytest.mark.parametrize("kind, obj, values", INSTANCES, ids=IDS)
def test_keyword_construction(kind, obj, values):
    cls = type(obj)
    by_name = cls(**dict(zip(cls.__match_args__, values)))
    assert by_name == obj and repr(by_name) == repr(obj)
    assert tuple(getattr(obj, name) for name in cls.__match_args__) == values


@pytest.mark.parametrize("kind, obj, values", INSTANCES, ids=IDS)
def test_match_args_destructure(kind, obj, values):
    match obj:
        case C(re, im):
            got = (re, im)
        case Polynomial(coeffs):
            got = (coeffs,)
        case SolverConfig(tol):
            got = (tol,)
        case DirectVerdict(k, power) | DirectionCandidate(k, power):
            got = (k, power)
        case ShiftDecomposition(base, order, quotient):
            got = (base, order, quotient)
        case RootResult(roots, norms, iterations, traces):
            got = (roots, norms, iterations, traces)
        case DescentTrace(start, steps, final_z, final_f, converged, phase):
            got = (start, steps, final_z, final_f, converged, phase)
        case DescentStep(z, f, order, alpha, direction, r, backtracks, m, rule):
            got = (z, f, order, alpha, direction, r, backtracks, m, rule)
    assert got == values


def test_defaults():
    assert SolverConfig().residual_tol == 1e-9
    assert SolverConfig() == SolverConfig(1e-9) == SolverConfig(residual_tol=1e-9)
    z = C(1, 2)
    trace = DescentTrace(z, (), z, 0, True)
    assert trace.phase == "descent" and trace == DescentTrace(z, (), z, 0, True, "descent")
    assert DescentTrace(z, (), z, 0, False, phase="polish").phase == "polish"


def test_required_and_unknown_arguments_raise_type_error():
    z = C(1, 2)
    with pytest.raises(TypeError):
        C(1)
    with pytest.raises(TypeError):
        C(1, 2, 3)
    with pytest.raises(TypeError):
        DescentStep(z, 0, 1, z, DirectionCandidate(z, z), 1, 0, None)  # no rule
    with pytest.raises(TypeError):
        RootResult((), (), 0)
    with pytest.raises(TypeError):
        SolverConfig(1e-9, 5)
    # Polynomial's caches are not constructor arguments.
    for name in ("_complex", "_norms", "_gaussian"):
        with pytest.raises(TypeError):
            Polynomial((C(1, 0),), **{name: None})


@pytest.mark.parametrize("tol", [0, 0.0, -1e-9, math.inf, -math.inf, math.nan])
def test_solver_config_rejects_bad_tolerances(tol):
    with pytest.raises(ValueError, match="residual_tol must be finite and > 0"):
        SolverConfig(tol)
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=tol)


def test_polynomial_trims_and_rejects_zero():
    p = Polynomial([C(1, 0), C(2, 0), C(0, 0), C(0.0, -0.0)])
    assert p.coeffs == (C(1, 0), C(2, 0)) and type(p.coeffs) is tuple
    assert p == Polynomial((C(1, 0), C(2, 0))) and p.degree == 1
    assert Polynomial((C(0, 0), C(0, 0), C(0, 3))).degree == 2
    assert Polynomial(iter([C(5, 0)])).coeffs == (C(5, 0),)
    assert Polynomial((C(0, 0), C(F(1, 2), 0), C(0, 0))).coeffs == (C(0, 0), C(F(1, 2), 0))
    for zero in ((), (C(0, 0),), (C(0, 0), C(0.0, 0.0), C(F(0), 0))):
        with pytest.raises(ValueError, match="the zero polynomial is not representable"):
            Polynomial(zero)
    p = Polynomial((C(1, 0), C(1, 1)))
    assert p._complex is None and p._norms is None and p._gaussian is None


# ---------------------------------------------------------------------------
# pickle and copy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, obj, values", INSTANCES, ids=IDS)
def test_pickle_and_copy_round_trips(kind, obj, values):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is type(obj) and back == obj and repr(back) == repr(obj)
    for back in (copy.copy(obj), copy.deepcopy(obj)):
        assert type(back) is type(obj) and back == obj and repr(back) == repr(obj)


def test_pickled_polynomial_keeps_working():
    p = Polynomial((C(F(1, 2), 0), C(3, -1), C(1, 0)))
    p.complex_coeffs(), p.coeff_norms(), p.gaussian_coeffs()
    back = pickle.loads(pickle.dumps(p))
    assert back.complex_coeffs() == p.complex_coeffs()
    assert back.coeff_norms() == p.coeff_norms()
    assert back.gaussian_coeffs() == p.gaussian_coeffs()


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------

FROZEN = [obj for obj, _ in examples(1, -2)] + verdicts()


@pytest.mark.parametrize("obj", FROZEN, ids=[type(obj).__name__ for obj in FROZEN])
def test_every_name_is_frozen(obj):
    # Fields, a private slot, a property, a method and an unknown name all
    # raise FrozenInstanceError, on assignment and on deletion alike.
    names = (*type(obj).__match_args__, "_parts", "_complex", "is_exact", "holds", "other")
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    assert not hasattr(obj, "__dict__")


# ---------------------------------------------------------------------------
# lazy traces
# ---------------------------------------------------------------------------


def parts(trace):
    return object.__getattribute__(trace, "_parts")


def unread(trace):
    """A fresh trace with the parts of trace, none of its fields built."""
    return DescentTrace._from_parts(parts(trace))


@pytest.fixture(scope="module")
def float_traces():
    """Every trace of seeded float solves at degrees 1-20."""
    rng = SplitMix64(29)
    traces = []
    for degree in range(1, 21):
        roots = [C(random_box_float(rng, 2.0), random_box_float(rng, 2.0)) for _ in range(degree)]
        traces += find_all_roots(Polynomial.from_roots(roots)).traces
    return traces


@pytest.fixture(scope="module")
def exact_solves():
    """(polynomial, trace) for every trace of the exact solves of
    test_golden.py's set, each with the polynomial it descended on."""
    rng = SplitMix64(7)

    def small_rational():
        return F(int(rng.next_u64() % 7) - 3, 1 + int(rng.next_u64() % 3))

    solves = []
    descend = solver.descend_to_root

    def recorded(poly, z_start, config=solver.DEFAULT_CONFIG, phase="descent"):
        root, trace = descend(poly, z_start, config, phase)
        solves.append((poly, trace))
        return root, trace

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "descend_to_root", recorded)
        for degree in (1, 2, 3, 4, 1, 2, 3, 4):
            roots = [C(small_rational(), small_rational()) for _ in range(degree)]
            find_all_roots(Polynomial.from_roots(roots))
    return solves


def eager_record(raw, work):
    """The DescentStep an eager round gave for a step's parts (shift, z, f,
    order, alpha, direction, r, backtracks, rule): a Newton step (shift
    None) has direction (zeta, zeta), r 1, no backtracks and no M; a
    candidate step's order, alpha and M are read off the Taylor shift of
    work, the descent's polynomial, at z, in ComplexScalar arithmetic."""
    assert type(raw) is tuple and len(raw) == 9
    shift, z, f, order, alpha, direction, r, backtracks, rule = raw
    z = C(z.real, z.imag) if isinstance(z, complex) else z
    if shift is None:
        assert (order, r, backtracks, rule) == (1, 1.0, 0, "newton")
        zeta = C(direction.real, direction.imag)
        direction, m_bound = DirectionCandidate(zeta, zeta), None
        alpha = C(alpha.real, alpha.imag)
    else:
        decomposition = work.taylor_shift(z)
        assert decomposition.order == order
        alpha = decomposition.base_value.conj() * decomposition.quotient.coeffs[0]
        m_bound = certified_decrease_bound(decomposition, direction)
    return DescentStep(
        z=z,
        f_value=f,
        order=order,
        alpha=alpha,
        direction=direction,
        r_accepted=r,
        backtracks=backtracks,
        m_bound=m_bound,
        rule=rule,
    )


def test_newton_records_are_the_values_an_eager_record_is_given(float_traces, exact_solves):
    # Every step, exact or float, Newton or candidate, waits in the parts
    # as (shift, z, f, order, alpha, direction, r, backtracks, rule), and
    # builds the record an eager round gave, M taken from the Taylor shift
    # of the descent's polynomial at z; repr checks int and Fraction types.
    float_solves = []
    for trace in float_traces:
        # A float candidate step's shift holds the descent's coefficients.
        shifts = [raw[0] for raw in parts(trace)[1] if raw[0] is not None]
        work = Polynomial(tuple(C(c.real, c.imag) for c in shifts[0].coeffs)) if shifts else None
        float_solves.append((work, trace))
    counts = {}
    for work, trace in float_solves + exact_solves:
        for raw, step in zip(parts(trace)[1], trace.steps):
            eager = eager_record(raw, work)
            assert step == eager and repr(step) == repr(eager) and step.rule == raw[8]
            kind = ("exact" if work is not None and work.is_exact() else "float", raw[0] is None)
            counts[kind] = counts.get(kind, 0) + 1
    assert counts[("float", True)] > 1000 and counts[("float", False)] > 100
    assert counts[("exact", False)] > 50 and ("exact", True) not in counts


def test_lazy_traces_equal_eager_ones(float_traces):
    names = MATCH_ARGS[DescentTrace]
    for trace in float_traces:
        eager = DescentTrace(*(getattr(unread(trace), name) for name in names))
        assert unread(trace) == eager and eager == unread(trace) and trace == eager
        assert hash(unread(trace)) == hash(eager)
        assert repr(unread(trace)) == repr(eager)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(unread(trace), protocol))
            assert type(back) is DescentTrace and back == eager and repr(back) == repr(eager)
        for back in (copy.copy(unread(trace)), copy.deepcopy(unread(trace))):
            assert type(back) is DescentTrace and back == eager and repr(back) == repr(eager)
        match unread(trace):
            case DescentTrace(start, steps, final_z, final_f, converged, phase):
                assert (start, steps, final_z, final_f, converged, phase) == eager._values()
            case _:
                pytest.fail("a lazy trace does not match DescentTrace(...)")


def test_an_unread_trace_is_frozen(float_traces):
    for name in (*MATCH_ARGS[DescentTrace], "_parts", "other"):
        trace = unread(float_traces[0])
        with pytest.raises(FrozenInstanceError):
            setattr(trace, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(trace, name)
    assert not hasattr(unread(float_traces[0]), "__dict__")


def test_a_float_solve_builds_no_newton_record_until_its_trace_is_read():
    # Fresh from a solve, a trace has built no field and holds its steps as
    # 9-part tuples, a Newton step's shift None; and iterations was counted
    # without building them.  One read builds every field and every record.
    poly = Polynomial.from_roots([C(0.5, -1.25), C(-1.5, 0.75), C(1.0, 1.0)])
    result = find_all_roots(poly)
    raw = [s for t in result.traces for s in parts(t)[1]]
    assert result.iterations == len(raw)
    assert all(type(s) is tuple and len(s) == 9 for s in raw)
    assert sum(s[0] is None for s in raw) > 3
    for trace in result.traces:
        for name in MATCH_ARGS[DescentTrace]:
            with pytest.raises(AttributeError):
                object.__getattribute__(trace, name)
    trace = result.traces[0]
    assert trace.phase == "descent"
    steps = object.__getattribute__(trace, "steps")
    raw = parts(trace)[1]
    assert len(steps) == len(raw)
    assert all(type(s) is DescentStep for s in steps)
    rules = [s.rule for s in steps]
    assert rules.count("newton") == sum(s[0] is None for s in raw)
    assert len(rules) - rules.count("newton") == sum(s[0] is not None for s in raw) > 0


@pytest.fixture
def shift_count(monkeypatch):
    """The number of O(n^2) Taylor shifts the solver has built."""
    count = [0]
    build = solver.shifted

    def counted(coeffs, z):
        count[0] += 1
        return build(coeffs, z)

    monkeypatch.setattr(solver, "shifted", counted)
    return lambda: count[0]


def test_order_one_rounds_build_the_shift_only_when_their_record_is_read(shift_count):
    rng = SplitMix64(29)
    results = []
    for degree in range(1, 13):
        roots = [C(random_box_float(rng, 2.0), random_box_float(rng, 2.0)) for _ in range(degree)]
        results.append(find_all_roots(Polynomial.from_roots(roots)))
    assert shift_count() == 0
    steps = [s for result in results for t in result.traces for s in t.steps]
    candidates = [s for s in steps if s.rule != "newton"]
    assert len(candidates) > 50 and all(s.order == 1 and s.rule == "unit" for s in candidates)
    assert shift_count() == len(candidates)


def test_a_round_past_order_one_builds_its_shift_once(shift_count):
    # P'(0) = 0 on z^5 - 2, so the first round needs the shift for its order;
    # its record reuses that shift, and every later round is at order 1.
    poly = Polynomial.from_scalars([-2.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    _, trace = descend_to_root(poly, FLOAT_ORIGIN)
    assert shift_count() == 1
    candidates = [s for s in trace.steps if s.rule != "newton"]
    assert candidates[0] is trace.steps[0] and trace.steps[0].order == 5
    assert shift_count() == len(candidates)


def test_an_exact_solve_computes_no_bound_until_its_trace_is_read(monkeypatch):
    count = [0]
    bound = solver._decrease_bound

    def counted(*args):
        count[0] += 1
        return bound(*args)

    monkeypatch.setattr(solver, "_decrease_bound", counted)
    poly = Polynomial.from_roots([C(F(1, 2), -1), C(-2, F(1, 3)), C(1, 1)])
    result = find_all_roots(poly)
    assert count[0] == 0
    steps = [s for t in result.traces for s in t.steps]
    assert len(steps) == result.iterations > 0
    assert all(s.rule != "newton" and type(s.m_bound) in (int, F) for s in steps)
    assert count[0] == len(steps)


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module", ["fourops.cli", "fourops"])
def test_import_leaves_out_dataclasses_and_inspect(module):
    # Both modules cost several milliseconds at every ``fourops`` start, and
    # the package needs neither.
    src = str(Path(fourops.__file__).resolve().parents[1])
    code = (
        f"import sys\nimport {module}\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
