import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourops
from fourops.cli import TRACE_FIELDS, main
from fourops.solver import positive_nth_root

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
        [sys.executable, "-O", "-m", "fourops.cli", "solve", "--coeffs=1e300,1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 3
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.splitlines()[-1] == "iterations: 0"


def test_trace_objective_overflow_exits_3(capsys, tmp_path):
    path = tmp_path / "steps.csv"
    assert main(["trace", "--coeffs=1e300,1", "--csv", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_solve_nonconvergence_exit_code(capsys):
    assert main(["solve", "--coeffs", "2,0,1", "--max-outer", "1"]) == 3
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
        lines[0] == "step,re_z,im_z,f,k,re_alpha,im_alpha,re_zeta,im_zeta,r,backtracks"
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


def test_trace_at_exact_sample_root_writes_header_only(capsys, tmp_path):
    # the coarse start sample hits the roots of z^2 + 1 exactly
    path = tmp_path / "empty.csv"
    assert main(["trace", "--coeffs", "1,0,1", "--csv", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines == [",".join(TRACE_FIELDS)]


def test_trace_partial_on_nonconvergence(capsys, tmp_path):
    path = tmp_path / "partial.csv"
    assert (
        main(["trace", "--coeffs", "2,0,1", "--max-outer", "1", "--csv", str(path)])
        == 3
    )
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
        ["--max-outer", "0"],
        ["--max-outer", "-1"],
        ["--max-backtracks", "-1"],
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


def test_solve_accepts_zero_backtracks(capsys):
    # 0 is a valid shrink limit (one trial per order), not "use the default".
    assert main(["solve", "--coeffs=2,0,1", "--max-backtracks", "0"]) in (0, 3)
    assert "error: max_backtracks" not in capsys.readouterr().err


def test_trace_to_unwritable_path_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "steps.csv"
    assert main(["trace", "--coeffs=1,0,1", "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}")
    assert "Traceback" not in captured.err
