import copy
import math
import pickle
from fractions import Fraction

import pytest

from fourops import estermann, scalars
from fourops.estermann import (
    BinomialTable,
    DirectionCandidate,
    DirectVerdict,
    TermwiseVerdict,
    candidate_set,
    estermann_zeta,
    pick_descent_direction,
    steepest_candidate,
    verify_lemma_direct,
    verify_lemma_termwise,
)
from fourops.poly import NonFiniteObjectiveError
from fourops.sampling import SplitMix64, random_nonzero_exact_complex
from fourops.scalars import I, ONE, ComplexScalar, check_norm_product


def C(re, im=0):
    return ComplexScalar(re, im)


# ---------------------------------------------------------------------------
# binomial table
# ---------------------------------------------------------------------------


def test_binomial_table_matches_math_comb():
    table = BinomialTable(40)
    for m in range(41):
        for j in range(m + 1):
            assert table.value(m, j) == math.comb(m, j)


def test_binomial_table_row_properties():
    table = BinomialTable(30)
    for m in range(31):
        row = table.row(m)
        assert row == row[::-1]  # symmetry
        assert sum(row) == 2**m


def test_binomial_table_bounds():
    table = BinomialTable(10)
    with pytest.raises(ValueError):
        table.value(11, 0)
    with pytest.raises(ValueError):
        table.value(5, 6)
    with pytest.raises(ValueError):
        table.value(5, -1)
    with pytest.raises(ValueError):
        BinomialTable(-1)


# ---------------------------------------------------------------------------
# the quadrant direction
# ---------------------------------------------------------------------------


def test_zeta_exact_values_k2():
    cand = estermann_zeta(2)
    # (1 + i/2)^2 = 3/4 + i
    assert cand.zeta == C(Fraction(3, 4), Fraction(1))
    # (3/4 + i)^2 = 9/16 - 1 + 3/2 i
    assert cand.zeta_pow_k == C(Fraction(-7, 16), Fraction(3, 2))
    assert cand.zeta.is_exact() and cand.zeta_pow_k.is_exact()


def test_zeta_rejects_bad_k():
    for bad in (0, 1, 3, -2, 2.0):
        with pytest.raises(ValueError):
            estermann_zeta(bad)


def test_direct_verdict_holds_even_k():
    for k in range(2, 42, 2):
        verdict = verify_lemma_direct(k)
        assert verdict.holds, k
        assert verdict.power.re < 0 < verdict.power.im
    assert verify_lemma_direct(2).power == C(Fraction(-7, 16), Fraction(3, 2))


# ---------------------------------------------------------------------------
# termwise regrouping
# ---------------------------------------------------------------------------


def test_termwise_k2_head_equals_bound():
    verdict = verify_lemma_termwise(2)
    # head = 1 - C(4,2)/4 + C(4,4)/16 = 1 - 3/2 + 1/16
    assert verdict.head == Fraction(-7, 16)
    # bound = -(3/2)(5k-3)/(6k^2) at k=2, met with equality
    assert verdict.head_bound == Fraction(-7, 16)
    assert verdict.real_groups == ()
    # single imaginary group: C(4,1)/2 - C(4,3)/8 = 2 - 1/2
    assert verdict.imag_groups == (Fraction(3, 2),)
    assert verdict.real_sum == Fraction(-7, 16)
    assert verdict.imag_sum == Fraction(3, 2)
    assert verdict.matches_direct
    assert verdict.holds


def test_termwise_k4_frozen_values():
    verdict = verify_lemma_termwise(4)
    # head = 1 - C(8,2)/16 + C(8,4)/256 = 1 - 28/16 + 70/256
    assert verdict.head == Fraction(-61, 128)
    # one real group (j=3): -C(8,6)/4^6 + C(8,8)/4^8
    assert verdict.real_groups == (Fraction(-447, 65536),)
    # imaginary groups (j=1,3): 2 - 7/8 and 56/1024 - 8/16384
    assert verdict.imag_groups == (Fraction(9, 8), Fraction(111, 2048))
    assert verdict.real_sum == Fraction(-31679, 65536)
    assert verdict.imag_sum == Fraction(2415, 2048)
    assert verdict.direct == C(Fraction(-31679, 65536), Fraction(2415, 2048))
    assert verdict.holds


def test_termwise_holds_even_k_up_to_60():
    table = BinomialTable(120)
    for k in range(2, 62, 2):
        verdict = verify_lemma_termwise(k, table)
        assert verdict.holds, k
        assert verdict.real_sum == verdict.direct.re
        assert verdict.imag_sum == verdict.direct.im


# ---------------------------------------------------------------------------
# oracle: the Fraction implementations the integer forms replaced
# ---------------------------------------------------------------------------


def _reference_zeta(k):
    zeta = C(1, Fraction(1, k)).pow_int(2)
    return zeta, zeta.pow_int(k)


def _reference_termwise(k, table):
    def c_over_k(j, power):
        return Fraction(table.value(2 * k, j), k**power)

    head = 1 - c_over_k(2, 2) + c_over_k(4, 4)
    real_groups = tuple(
        -c_over_k(2 * j, 2 * j) + c_over_k(2 * j + 2, 2 * j + 2) for j in range(3, k, 2)
    )
    imag_groups = tuple(
        c_over_k(2 * j - 1, 2 * j - 1) - c_over_k(2 * j + 1, 2 * j + 1) for j in range(1, k, 2)
    )
    return {
        "head": head,
        "head_bound": -Fraction(3, 2) * Fraction(5 * k - 3, 6 * k * k),
        "real_groups": real_groups,
        "imag_groups": imag_groups,
        "real_sum": head + sum(real_groups, Fraction(0)),
        "imag_sum": sum(imag_groups, Fraction(0)),
    }


ORACLE_KS = list(range(2, 101, 2)) + [200]


@pytest.mark.parametrize("k", ORACLE_KS)
def test_lemma_matches_fraction_reference(k):
    table = BinomialTable(2 * k)
    zeta, zeta_pow_k = _reference_zeta(k)
    cand = estermann_zeta(k)
    assert (cand.zeta, cand.zeta_pow_k) == (zeta, zeta_pow_k)
    assert repr(cand) == repr(DirectionCandidate(zeta, zeta_pow_k))

    direct = verify_lemma_direct(k)
    assert direct == DirectVerdict(k, zeta_pow_k)
    assert repr(direct) == repr(DirectVerdict(k, zeta_pow_k))

    termwise = verify_lemma_termwise(k, table)
    want = TermwiseVerdict(k=k, direct=zeta_pow_k, **_reference_termwise(k, table))
    assert termwise == want
    assert repr(termwise) == repr(want)
    assert termwise.holds


@pytest.mark.parametrize("k", [2, 4, 10, 40])
def test_termwise_rejects_a_corrupted_binomial_row(k):
    for j in (1, 2, 3, 4, k, 2 * k - 1, 2 * k):
        table = BinomialTable(2 * k)
        table._rows[2 * k][j] += 1
        assert not verify_lemma_termwise(k, table).holds, (k, j)


class _NoFraction:
    """Stands in for Fraction where a test pins that none is built."""

    def __new__(cls, *args):
        raise AssertionError("a Fraction was built")


def _reference_termwise_verdict(k, table):
    return TermwiseVerdict(k=k, direct=_reference_zeta(k)[1], **_reference_termwise(k, table))


def test_termwise_holds_builds_no_fraction(monkeypatch):
    # holds is decided on integer numerators over k^(2k); the Fraction
    # fields are built when first read, and then match the reference.
    table = BinomialTable(400)
    monkeypatch.setattr(estermann, "Fraction", _NoFraction)
    monkeypatch.setattr(scalars, "Fraction", _NoFraction)
    verdicts = {k: verify_lemma_termwise(k, table) for k in (2, 4, 40, 200)}
    assert all(v.holds for v in verdicts.values())
    monkeypatch.undo()
    for k, got in verdicts.items():
        want = _reference_termwise_verdict(k, table)
        for name in want.__match_args__:
            assert getattr(got, name) == getattr(want, name), (k, name)
        assert got == want and repr(got) == repr(want)


TERMWISE_PREDICATES = ("head_ok", "real_groups_ok", "imag_groups_ok", "matches_direct", "holds")


def _integer_and_fraction_predicates(verdict):
    """The verdict's predicates (read first) and those of a verdict built
    by the constructor from its fields, which compares Fractions."""
    got = [getattr(verdict, p) for p in TERMWISE_PREDICATES]
    built = TermwiseVerdict(**{n: getattr(verdict, n) for n in verdict.__match_args__})
    return got, [getattr(built, p) for p in TERMWISE_PREDICATES]


def test_termwise_head_bound_edge_at_k2():
    # At k = 2 the head meets its bound with equality.  C(4, 4) enters the
    # head numerator with weight 1, so a bump of +1 (-1) puts the head one
    # unit over k^(2k) above (below) the bound.
    for bump, head_ok in ((0, True), (1, False), (-1, True)):
        table = BinomialTable(4)
        table._rows[4][4] += bump
        verdict = verify_lemma_termwise(2, table)
        got, built = _integer_and_fraction_predicates(verdict)
        assert verdict.head == verdict.head_bound + Fraction(bump, 16)
        assert got[0] == head_ok, bump
        assert got == built, bump


@pytest.mark.parametrize("k", [2, 4, 10, 40])
def test_integer_termwise_predicates_agree_with_the_fraction_fields(k):
    for j in (None, 1, 2, 3, 4, k, 2 * k - 1, 2 * k):
        table = BinomialTable(2 * k)
        if j is not None:
            table._rows[2 * k][j] += 1
        got, built = _integer_and_fraction_predicates(verify_lemma_termwise(k, table))
        assert got == built, (k, j)
        assert got[-1] == (j is None), (k, j)


def test_termwise_verdict_behaves_as_a_frozen_dataclass():
    table = BinomialTable(12)
    built = _reference_termwise_verdict(4, table)
    assert hash(verify_lemma_termwise(4, table)) == hash(built)
    assert verify_lemma_termwise(4, table) == built
    assert built == verify_lemma_termwise(4, table)
    assert verify_lemma_termwise(4, table) != verify_lemma_termwise(6, table)
    norm = check_norm_product(ONE, I)
    assert verify_lemma_termwise(4, table) != norm and norm != verify_lemma_termwise(4, table)
    assert verify_lemma_direct(4) != verify_lemma_termwise(4, table)
    lazy = verify_lemma_termwise(4, table)
    for verdict in (lazy, built):
        for name in (*built.__match_args__, "holds", "other"):
            with pytest.raises(AttributeError):
                setattr(verdict, name, None)
        with pytest.raises(AttributeError):
            del verdict.head
    for verdict in (verify_lemma_termwise(4, table), built):
        assert pickle.loads(pickle.dumps(verdict)) == verdict
        assert copy.copy(verdict) == verdict == copy.deepcopy(verdict)


def test_zeta_power_equals_the_k_fold_product():
    # Repeated squaring gives the integers of the literal k-fold product.
    for k in range(2, 201, 2):
        re, im = k * k - 1, 2 * k
        pow_re, pow_im = 1, 0
        for _ in range(k):
            pow_re, pow_im = pow_re * re - pow_im * im, pow_re * im + pow_im * re
        assert estermann._zeta_power(k) == (pow_re, pow_im), k


def test_direct_verdict_equals_the_eager_one():
    for k in (2, 4, 10, 40, 200):
        eager = DirectVerdict(k, estermann_zeta(k).zeta_pow_k)
        lazy = verify_lemma_direct(k)
        assert hash(verify_lemma_direct(k)) == hash(eager)
        assert verify_lemma_direct(k) == eager and eager == verify_lemma_direct(k)
        assert repr(verify_lemma_direct(k)) == repr(eager)
        assert lazy.holds and eager.holds
        for verdict in (verify_lemma_direct(k), eager):
            assert pickle.loads(pickle.dumps(verdict)) == eager
            assert copy.copy(verdict) == eager == copy.deepcopy(verdict)
            match verdict:
                case DirectVerdict(kk, power):
                    assert (kk, power) == (k, eager.power)
                case _:
                    pytest.fail("no match")
    assert verify_lemma_direct(4) != verify_lemma_direct(6)
    assert not DirectVerdict(2, C(Fraction(7, 16), Fraction(3, 2))).holds


def test_an_unread_direct_verdict_builds_no_field(monkeypatch):
    monkeypatch.setattr(estermann, "Fraction", _NoFraction)
    monkeypatch.setattr(scalars, "Fraction", _NoFraction)
    verdict = verify_lemma_direct(200)
    assert verdict.holds
    for name in verdict.__match_args__:
        with pytest.raises(AttributeError):
            object.__getattribute__(verdict, name)
    with pytest.raises(AttributeError):
        verdict.power = None
    monkeypatch.undo()
    assert verdict.power == estermann_zeta(200).zeta_pow_k


def test_direct_rejects_bad_k():
    for bad in (0, 1, 3, -2, 2.0):
        with pytest.raises(ValueError):
            verify_lemma_direct(bad)


def test_termwise_table_too_small():
    with pytest.raises(ValueError):
        verify_lemma_termwise(10, BinomialTable(19))


def test_termwise_rejects_odd_k():
    with pytest.raises(ValueError):
        verify_lemma_termwise(3)


# ---------------------------------------------------------------------------
# candidate directions
# ---------------------------------------------------------------------------


def test_candidate_set_odd_k():
    cands = candidate_set(1)
    assert [c.zeta for c in cands] == [C(1), C(-1), C(0, 1), C(0, -1)]
    for c in cands:
        assert c.zeta_pow_k == c.zeta
    # i^3 = -i, (-i)^3 = i
    cands3 = candidate_set(3)
    assert [c.zeta_pow_k for c in cands3] == [C(1), C(-1), C(0, -1), C(0, 1)]


def test_candidate_set_even_k():
    cands = candidate_set(2)
    assert len(cands) == 3
    assert cands[0].zeta == C(1)
    assert cands[1].zeta == C(Fraction(3, 4), Fraction(1))
    assert cands[2].zeta == cands[1].zeta.conj()
    assert cands[2].zeta_pow_k == cands[1].zeta_pow_k.conj()


def test_conjugate_power_identity():
    # conj(zeta)^k computed by repeated multiplication equals conj(zeta^k)
    for k in range(2, 22, 2):
        cand = estermann_zeta(k)
        assert cand.zeta.conj().pow_int(k) == cand.zeta_pow_k.conj()


def test_candidate_quadrant_invariant():
    for k in range(2, 42, 2):
        power = candidate_set(k)[1].zeta_pow_k
        assert power.re < 0 < power.im


def test_candidate_set_rejects_bad_k():
    for bad in (0, -3, 1.5):
        with pytest.raises(ValueError):
            candidate_set(bad)


# ---------------------------------------------------------------------------
# direction picking
# ---------------------------------------------------------------------------


def test_pick_examples():
    # alpha = 1, k = 1: walk along -1
    assert pick_descent_direction(C(1), 1).zeta == C(-1)
    # alpha = 1, k = 2: both quadrant candidates tie at Re = -7/16; the
    # first one in enumeration order wins
    assert pick_descent_direction(C(1), 2).zeta == C(Fraction(3, 4), Fraction(1))
    # alpha = i, k = 2: Re[i * zeta^k] = -Im[zeta^k] = -3/2 for the upper
    # candidate, +3/2 for its conjugate, 0 for 1
    assert pick_descent_direction(C(0, 1), 2).zeta == C(Fraction(3, 4), Fraction(1))
    # alpha = -i, k = 2: mirrored, the conjugate wins
    assert pick_descent_direction(C(0, -1), 2).zeta == C(Fraction(3, 4), Fraction(-1))
    # alpha = -1, k = 2: stepping along the real axis already descends
    assert pick_descent_direction(C(-1), 2).zeta == C(1)


def test_pick_rejects_zero_alpha():
    with pytest.raises(ValueError):
        pick_descent_direction(C(0), 2)


def _directed_real_part(alpha, cand):
    return alpha.re * cand.zeta_pow_k.re - alpha.im * cand.zeta_pow_k.im


def test_completeness_sign_cases_even_k():
    # Documented case split for even k, alpha = a + bi nonzero:
    #   a < 0          -> zeta = 1 gives a < 0
    #   a > 0, b >= 0  -> upper quadrant: a*x - b*y < 0 since x < 0 < y
    #   a > 0, b < 0   -> lower quadrant: a*x + b*y < 0
    #   a = 0, b != 0  -> whichever quadrant makes -b*y negative
    for k in (2, 4, 10):
        for alpha in (
            C(-3, 5),
            C(2, 7),
            C(2, -7),
            C(0, 4),
            C(0, -4),
            C(1, 0),
        ):
            pick = pick_descent_direction(alpha, k)
            assert _directed_real_part(alpha, pick) < 0, (k, alpha)


def test_completeness_random_all_k():
    rng = SplitMix64(31)
    for k in range(1, 17):
        for _ in range(300):
            alpha = random_nonzero_exact_complex(rng)
            pick = pick_descent_direction(alpha, k)
            assert _directed_real_part(alpha, pick) < 0


def test_pick_float_mode():
    pick = pick_descent_direction(C(1.0, 0.5), 2)
    assert isinstance(pick.zeta.re, float)
    assert _directed_real_part(C(1.0, 0.5), pick) < 0


@pytest.mark.parametrize(
    "alpha, k",
    [
        (complex(math.inf, -9.563391706754467e113), 1),  # overflowed
        (complex(math.inf, -9.563391706754467e113), 2),
        (complex(math.nan, 1.0), 3),
        (complex(5e-324, 0.0), 2),  # every quadrant product underflows to 0
    ],
)
def test_float_pick_outside_the_float_range_raises_non_finite(alpha, k):
    with pytest.raises(NonFiniteObjectiveError, match="no float descent direction"):
        steepest_candidate(alpha, k)

