import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fourops
from fourops import scalars, solver
from fourops.cli import TRACE_FIELDS, UsageError, _parse_term, main, parse_inline_coeffs
from fourops.sampling import SplitMix64
from fourops.scalars import ComplexScalar
from fourops.solver import DEFAULT_CONFIG, positive_nth_root

# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_plain_output(capsys):
    assert main(["solve", "--coeffs", "1,0,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "root 1: re=0.0 im=-1.0 residual=0.0"
    assert out[1] == "root 2: re=0.0 im=1.0 residual=0.0"
    assert out[2].startswith("iterations: ")


def test_solve_json_output(capsys):
    assert main(["solve", "--coeffs", "1,0,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["roots"] == [[0.0, -1.0], [0.0, 1.0]]
    assert payload["residual_one_norms"] == [0.0, 0.0]
    assert isinstance(payload["iterations"], int)


def test_solve_json_matches_plain_exactly(capsys):
    # The two output modes must be different encodings of identical floats.
    # A leading negative coefficient needs the --coeffs= form, or argparse
    # reads the value as an unknown flag.
    assert main(["solve", "--coeffs=-6,11,-6,1"]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(["solve", "--coeffs=-6,11,-6,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for line, (re, im) in zip(plain, payload["roots"]):
        fields = dict(part.split("=") for part in line.split(": ")[1].split(" "))
        assert float(fields["re"]) == re
        assert float(fields["im"]) == im
    assert plain[-1] == f"iterations: {payload['iterations']}"


def test_solve_is_byte_deterministic(capsys):
    assert main(["solve", "--coeffs", "0.5,-1.25,2,1"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", "--coeffs", "0.5,-1.25,2,1"]) == 0
    assert capsys.readouterr().out == first


def test_solve_cubic_values(capsys):
    assert main(["solve", "--coeffs=-6,11,-6,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    roots = []
    for line in out[:3]:
        fields = dict(part.split("=") for part in line.split(": ")[1].split(" "))
        roots.append(complex(float(fields["re"]), float(fields["im"])))
        assert float(fields["residual"]) <= 1e-8 * 24  # coefficient one-norm
    for got, want in zip(roots, (1, 2, 3)):
        assert abs(got - want) < 1e-6


def test_solve_from_json_file(capsys, tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(
        json.dumps(
            {
                "coeffs": [
                    ["-6/1", "0/1"],
                    ["11/1", "0/1"],
                    ["-6/1", "0/1"],
                    ["1/1", "0/1"],
                ]
            }
        )
    )
    assert main(["solve", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "root 3:" in out


def test_solve_rejects_bad_inputs(capsys, tmp_path):
    # constant polynomial
    assert main(["solve", "--coeffs", "5"]) == 2
    assert "degree must be >= 1" in capsys.readouterr().err
    # unparseable coefficient
    assert main(["solve", "--coeffs", "1,oops"]) == 2
    capsys.readouterr()
    # malformed JSON file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--input", str(bad)]) == 2
    capsys.readouterr()
    # missing file
    assert main(["solve", "--input", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    # argparse-level errors
    assert main([]) == 2
    capsys.readouterr()
    assert main(["solve", "--coeffs", "1,0,1", "--frobnicate"]) == 2
    capsys.readouterr()


def _hand_written_parse_term(term: str) -> ComplexScalar:
    """The CLI's coefficient parser before it used complex(), kept as the
    reference for the accepted terms and the parts they give."""
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


def _parsed(parse, term):
    """repr of the parts a parser gives, or None when it rejects the term."""
    try:
        z = parse(term)
    except UsageError:
        return None
    return repr((z.re, z.im))


def test_parse_term_matches_the_hand_written_parser():
    hand = [
        *("infi", "-0i", "1e+5i", "+i", "-i", "i", "1_000i", "1+i", "2-3.5e-2i", "nani"),
        *("1e+i", "1+-2i", "1j", "2J", "(1+2i)", "(1)", "1i+2", "0x1", "", " ", "1 + 2 i"),
    ]
    rng = random.Random(14)
    alphabet = "0123456789.eE+-i _nfatyjJ()"
    tokens = ["inf", "nan", "infinity", "e", "+", "-", "i", ".", "_", " ", *"0123456789"]
    terms = list(hand)
    for n in range(20_000):
        if n % 2:
            terms.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))))
        else:
            terms.append("".join(rng.choice(tokens) for _ in range(rng.randint(1, 6))))
    accepted = 0
    for term in terms:
        expected = _parsed(_hand_written_parse_term, term)
        assert _parsed(_parse_term, term) == expected, term
        accepted += expected is not None
    assert accepted > 2_000


def test_parse_term_ignores_every_kind_of_whitespace():
    # The hand-written parser dropped spaces anywhere but tabs and newlines
    # only at some places; now all whitespace is dropped alike.
    for term in ["1\t+2i", "\t-82.0i", "2\ti", "1\n2", "\ti", "1+\t2i"]:
        assert _parsed(_parse_term, term) == _parsed(_parse_term, "".join(term.split()))
        assert _parsed(_parse_term, term) is not None


@pytest.mark.parametrize("coeffs", ["nan,1", "inf,1", "1,-inf", "1,2+nani"])
def test_solve_rejects_non_finite_inline_coefficients(capsys, coeffs):
    assert main(["solve", f"--coeffs={coeffs}"]) == 2
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_solve_rejects_non_finite_json_coefficients(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"coeffs": [[{text}, 0.0], [1.0, 0.0]]}}')
    assert main(["solve", "--input", str(path)]) == 2
    assert "coefficient 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        # A JSON int past the float range.
        (b'{"coeffs": [[1' + b"0" * 400 + b", 0], [1, 0]]}", "int too large"),
        # A rational with denominator 0.
        (b'{"coeffs": [["1/0", 0], [1, 0]]}', "Fraction(1, 0)"),
        # A file that is not UTF-8.
        (b'{"coeffs": [["\xe9", 0], [1, 0]]}', "utf-8"),
        # Arrays nested past the JSON decoder's recursion limit.
        (b"[" * 100_000 + b"]" * 100_000, "recursion"),
    ],
    ids=["int-overflow", "zero-denominator", "not-utf8", "deep-nesting"],
)
@pytest.mark.parametrize("command", ["solve", "trace"])
def test_malformed_input_files_are_usage_errors(capsys, tmp_path, content, message, command):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    flags = ["--csv", str(tmp_path / "steps.csv")] if command == "trace" else []
    assert main([command, *flags, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(path) in err


@pytest.mark.parametrize("command", ["solve", "trace"])
def test_an_exponent_in_an_input_file_is_a_usage_error(capsys, tmp_path, monkeypatch, command):
    # Fraction would expand 10^99999999999 into an int, which takes
    # unbounded time and memory; with Fraction stubbed out, reaching it
    # fails the test instead.
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(scalars, "Fraction", no_fraction)
    path = tmp_path / "exponent.json"
    path.write_text('{"coeffs": [["1e99999999999", 0], [1, 0]]}')
    flags = ["--csv", str(tmp_path / "steps.csv")] if command == "trace" else []
    assert main([command, *flags, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad polynomial in ") and str(path) in err
    assert "exponent" in err


def test_solve_rejects_rational_beyond_float_range(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"coeffs": [[f"{10**400}/1", "0/1"], ["1/1", "0/1"]]}))
    assert main(["solve", "--input", str(path)]) == 2
    capsys.readouterr()


def test_solve_objective_overflow_exits_3_under_optimize():
    # The objective check must not be an assert: -O would strip it and the
    # solve would print a bogus root with exit 0.
    env = dict(os.environ, PYTHONPATH=str(Path(fourops.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "fourops.cli", "solve", "--coeffs=1e160+1e160i,1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 3
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.splitlines()[-1] == "iterations: 0"


def test_import_leaves_out_csv_and_json():
    # Every ``fourops`` process imports the cli; only ``trace`` writes CSV
    # and only ``--input`` and ``--json`` read or write JSON.
    env = dict(os.environ, PYTHONPATH=str(Path(fourops.__file__).resolve().parents[1]))
    code = "import sys\nimport fourops.cli\nprint(sorted({'csv', 'json'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_trace_objective_overflow_exits_3(capsys, tmp_path):
    path = tmp_path / "steps.csv"
    assert main(["trace", "--coeffs=1e160+1e160i,1", "--csv", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


# f(0) is finite, but the steering value alpha = conj(P(0)) * P'(0) at the
# start 0 overflows to (inf, -9.6e113).
ALPHA_OVERFLOW = "--coeffs=1e308,2.843928618668299-9.563391706754466e-195i"


def test_solve_steering_value_overflow_exits_3(capsys):
    assert main(["solve", ALPHA_OVERFLOW]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["iterations: 0"]
    assert captured.err.startswith("error: stopped after 0 of 1 roots: no float descent direction")


def test_trace_steering_value_overflow_exits_3(capsys, tmp_path):
    assert main(["trace", ALPHA_OVERFLOW, "--csv", str(tmp_path / "steps.csv")]) == 3
    assert capsys.readouterr().err.startswith("error: no float descent direction")


# The order at 0 is 1, but alpha = conj(P(0)) * P'(0) underflows to 0.
ALPHA_UNDERFLOW = "--coeffs=8.85902118327365e-86,1.2624436241066084e-286"


def test_solve_steering_value_underflow_exits_3(capsys):
    assert main(["solve", ALPHA_UNDERFLOW]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["iterations: 0"]
    assert "at every usable order" in captured.err


def test_trace_steering_value_underflow_exits_3(capsys, tmp_path):
    assert main(["trace", ALPHA_UNDERFLOW, "--csv", str(tmp_path / "steps.csv")]) == 3
    assert "at every usable order" in capsys.readouterr().err


def _fuzz_part(rng):
    """One coefficient part: 0, +-1e308, +-5e-324, a mantissa in +-10 times
    10^e for e in [-320, 308], or a plain mantissa in +-10."""
    kind = rng.next_u64() % 8
    if kind < 2:
        return "0"
    sign = "-" if rng.next_u64() % 2 else ""
    if kind == 2:
        return sign + ("1e308" if rng.next_u64() % 2 else "5e-324")
    mantissa = repr(10 * rng.unit_float())
    if kind < 5:
        return f"{sign}{mantissa}e{rng.next_u64() % 629 - 320}"
    return sign + mantissa


def _fuzz_coeffs(rng):
    """2 to 21 terms (degree 1-20 unless the top ones are 0), half complex."""
    terms = []
    for _ in range(2 + rng.next_u64() % 20):
        term = _fuzz_part(rng)
        if rng.next_u64() % 2:
            im = _fuzz_part(rng)
            term += ("" if im.startswith("-") else "+") + im + "i"
        terms.append(term)
    return ",".join(terms)


def test_seeded_fuzz_exits_cleanly_and_meets_the_residual_target(capsys, tmp_path):
    # solve --json and trace --csv alternate over seeded draws across the
    # float range.  Every exit is 0, 2 or 3, never a traceback.  A solve
    # that exits 0 holds each root to |P(z)| <= tol * ||P||_1, so the
    # one-norm residual to sqrt(2) times that; tol and ||P||_1 divide one
    # at a time, since their product can underflow to 0.
    rng = SplitMix64(27)
    csv_path = str(tmp_path / "steps.csv")
    exits = Counter()
    for draw in range(400):
        coeffs = _fuzz_coeffs(rng)
        flags = [f"--coeffs={coeffs}"]
        tol = DEFAULT_CONFIG.residual_tol
        if rng.next_u64() % 4 == 0:
            tol = 10.0 ** -(3 + rng.next_u64() % 12)
            flags.append(f"--tol={tol!r}")
        command = ["solve", "--json"] if draw % 2 == 0 else ["trace", "--csv", csv_path]
        code = main(command + flags)
        out = capsys.readouterr().out
        assert code in (0, 2, 3), flags
        exits[command[0], code] += 1
        if command[0] == "solve" and code == 0:
            poly = parse_inline_coeffs(coeffs)
            payload = json.loads(out)
            assert len(payload["roots"]) == poly.degree
            scale = poly.coeff_one_norm()
            for residual in payload["residual_one_norms"]:
                assert residual / scale / tol <= 1.42, flags
    # The draws reach every clean exit of both commands.
    assert all(exits[command, code] for command in ("solve", "trace") for code in (0, 2, 3))


def test_solve_nonconvergence_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(solver, "MAX_OUTER", 1)
    assert main(["solve", "--coeffs", "2,0,1"]) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "iterations:" in captured.out  # partial report still printed


# ---------------------------------------------------------------------------
# verify-lemma
# ---------------------------------------------------------------------------


def test_verify_lemma_output(capsys):
    assert main(["verify-lemma", "--max-k", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k=2 direct=OK termwise=OK re=-7/16 im=3/2"
    assert out[1] == "k=4 direct=OK termwise=OK re=-31679/65536 im=2415/2048"
    assert len(out) == 2


def test_verify_lemma_output_up_to_200_is_pinned(capsys):
    assert main(["verify-lemma", "--max-k", "200"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "627d8c1249f5b5ce78a3b6554d7847050703653acf2e45434f10ae7d0b5ef10e"


def test_verify_lemma_odd_max_k_rounds_down(capsys):
    assert main(["verify-lemma", "--max-k", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_verify_lemma_rejects_max_k_below_two(capsys):
    assert main(["verify-lemma", "--max-k", "1"]) == 2
    assert "--max-k must be >= 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-norms
# ---------------------------------------------------------------------------


def test_check_norms_output(capsys):
    assert main(["check-norms", "--samples", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pairs checked: 50 random + 1 forced zero (seed 7)"
    assert out[1] == "all product inequalities and conjugation identities hold"


def test_check_norms_catches_a_broken_conjugate(capsys, monkeypatch):
    # A conj that doubles the imaginary part changes the one-norm of every
    # value with a nonzero imaginary part: the integer identity check fails.
    monkeypatch.setattr(ComplexScalar, "conj", lambda self: ComplexScalar(self.re, -2 * self.im))
    assert main(["check-norms", "--samples", "50", "--seed", "7"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "pairs checked: 50 random + 1 forced zero (seed 7)",
        "FAIL: 50 pairs violated the norm inequalities",
    ]


def test_check_norms_deterministic(capsys):
    assert main(["check-norms", "--samples", "200", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["check-norms", "--samples", "200", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# nth-root
# ---------------------------------------------------------------------------


def test_nth_root_output(capsys):
    assert main(["nth-root", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == repr(positive_nth_root(2.0, 2))
    assert main(["nth-root", "4", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2.0"
    assert main(["nth-root", "81", "4"]) == 0
    assert capsys.readouterr().out.strip() == "3.0"


def test_nth_root_rejects_bad_input(capsys):
    assert main(["nth-root", "0", "2"]) == 2
    capsys.readouterr()
    assert main(["nth-root", "-3", "2"]) == 2
    capsys.readouterr()
    assert main(["nth-root", "2", "1"]) == 2
    capsys.readouterr()
    assert main(["nth-root", "inf", "2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_csv(capsys, tmp_path):
    path = tmp_path / "steps.csv"
    assert main(["trace", "--coeffs", "2,0,1", "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "final:" in out
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_FIELDS)
    assert (
        lines[0] == "step,re_z,im_z,f,k,re_alpha,im_alpha,re_zeta,im_zeta,r,backtracks,rule"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) > 0
    assert [row[0] for row in rows] == [str(j) for j in range(len(rows))]
    f_values = [float(row[3]) for row in rows]
    assert all(b < a for a, b in zip(f_values, f_values[1:]))
    for row in rows:
        assert int(row[4]) >= 1  # k column
        assert 0 < float(row[9]) <= 1.0  # accepted r
        assert int(row[10]) >= 0  # backtracks
    assert rows[0][11] == "quadrant"  # z^2 + 2 has order 2 at the start 0
    assert {row[11] for row in rows} <= {"unit", "quadrant", "escalated", "newton"}
    assert rows[-1][11] == "newton"


def test_trace_at_exact_sample_root_writes_header_only(capsys, tmp_path):
    # the float start 0 is a root of z^2 - z
    path = tmp_path / "empty.csv"
    assert main(["trace", "--coeffs=0,-1,1", "--csv", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines == [",".join(TRACE_FIELDS)]


def test_trace_partial_on_nonconvergence(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "MAX_OUTER", 1)
    path = tmp_path / "partial.csv"
    assert main(["trace", "--coeffs", "2,0,1", "--csv", str(path)]) == 3
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_FIELDS)
    assert len(lines) == 2  # exactly the one accepted step


def test_trace_requires_csv_flag(capsys):
    assert main(["trace", "--coeffs", "1,0,1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# solver flags
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags",
    [
        ["--tol", "inf"],
        ["--tol", "nan"],
        ["--tol", "0"],
        ["--tol=-1e-9"],
        ["--tol=-inf"],
        ["--tol", "1e-400"],  # underflows to 0
    ],
)
def test_solve_and_trace_reject_bad_solver_flags(capsys, tmp_path, flags):
    assert main(["solve", "--coeffs=1,2,3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    path = tmp_path / "steps.csv"
    assert main(["trace", "--coeffs=1,2,3", "--csv", str(path), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_nth_root_rejects_bad_tol(capsys, tol):
    assert main(["nth-root", "2", "2", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_shrink_limit_is_not_a_flag(capsys, tmp_path):
    # Neither limit is a flag: the round limit is fixed too.
    path = tmp_path / "steps.csv"
    for flag in ("--max-backtracks", "--max-outer"):
        assert main(["solve", "--coeffs=2,0,1", flag, "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err
        assert main(["trace", "--coeffs=2,0,1", "--csv", str(path), flag, "3"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not path.exists()


def test_trace_to_unwritable_path_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "steps.csv"
    assert main(["trace", "--coeffs=1,0,1", "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}")
    assert "Traceback" not in captured.err


def test_solve_holds_every_root_to_the_residual_target(capsys):
    # A degree-8 input where a root that was never checked against the
    # original P came back with residual 4.05e-6, 1.06e-8 times the
    # coefficient one-norm, under the default tol of 1e-9.
    coeffs = (
        "-15.595062048332544+7.61041454141532i,2.851920871162821+63.56518148806107i,"
        "74.2677324595413+43.65607784730145i,60.79253144632497+6.539067951913204i,"
        "55.40783987086965+2.2887724144568207i,25.190907143180645-13.270895184620716i,"
        "2.40868032643753+1.8685292392572244i,3.6143782682337586+3.408021138972025i,1"
    )
    scale = sum(abs(c.real) + abs(c.imag) for c in map(_parse_complex, coeffs.split(",")))
    code = main(["solve", f"--coeffs={coeffs}", "--json"])
    assert code in (0, 3)
    payload = json.loads(capsys.readouterr().out)
    if code == 0:
        assert len(payload["roots"]) == 8
    assert all(r <= 2 * 1e-9 * scale for r in payload["residual_one_norms"])


def _parse_complex(term):
    value = _parse_term(term)
    return complex(value.re, value.im)
