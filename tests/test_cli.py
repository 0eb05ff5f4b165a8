"""Command-line interface: output documents, exit codes, determinism."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import pytest

from zetalab import cli, epstein, specfun


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_epstein_identity_value():
    code, out, _ = run(["epstein", "--Q", "identity", "--r", "2", "--s", "2,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "epstein"
    assert abs(doc["value"][0] - 6.026812039691838) < 1e-10
    assert abs(doc["value"][1]) < 1e-12


def test_epstein_inline_gram():
    code, out, _ = run(["epstein", "--Q", "[[2,0],[0,0.5]]", "--s", "2,0"])
    assert code == 0
    doc = json.loads(out)
    direct = epstein.epstein_zeta(np.array([[2.0, 0.0], [0.0, 0.5]]), 2.0).value
    assert abs(doc["value"][0] - direct.real) < 1e-12


def test_eisenstein_matches_library():
    from zetalab.eisenstein import eisenstein_sl2
    code, out, _ = run(["eisenstein", "--z", "0,2", "--s", "2,0"])
    assert code == 0
    doc = json.loads(out)
    direct = eisenstein_sl2(2j, 2.0).value
    assert abs(complex(doc["value"][0], doc["value"][1]) - direct) < 1e-12


def test_kronecker_passes():
    code, out, _ = run(["kronecker", "--z", "0,1"])
    assert code == 0
    assert json.loads(out)["residual"] < 1e-6


def test_terras_identity():
    code, out, _ = run(["terras", "--Q", "identity", "--r", "3", "--ell", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rel_error"] < 1e-4


def test_terras_any_determinant():
    # det Q = 2: the Laurent comparison still runs and still passes
    code, out, _ = run(["terras", "--Q", "[[2,0,0],[0,1,0],[0,0,1]]", "--ell", "1"])
    assert code == 0
    assert json.loads(out)["rel_error"] < 1e-4


def test_heegner():
    code, out, _ = run(["heegner", "--s", "2,0", "--D", "-7"])
    assert code == 0
    assert json.loads(out)["rel_error"] < 1e-7


@pytest.mark.parametrize("s, D", [("0.5,0", "-7"), ("0.25,7.0673625708673", "-4")])
def test_heegner_where_zeta_2s_is_singular(s, D):
    # zeta(2s) has its pole at s = 1/2 and its first zero at the second s
    code, out, _ = run(["heegner", "--s", s, "--D", D])
    assert code == 0
    assert json.loads(out)["rel_error"] < 1e-9


def test_potential_csv():
    code, out, _ = run(["potential", "--t-min", "2", "--t-max", "10",
                        "--count", "5", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,q,q_over_y2"
    assert len(lines) == 6
    ratio = float(lines[-1].split(",")[2])
    assert abs(ratio - (1.0 - 3.0 / (math.pi * 10.0)) ** 2) < 1e-3


def test_ground_state_passes():
    code, out, _ = run(["ground-state"])
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-4


def test_exotic_roots_json_and_csv():
    code, out, _ = run(["exotic-roots", "--a", "10", "--t-max", "15"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["count"] - doc["predicted"]) <= 1
    assert all(r["residual"] < 1e-8 for r in doc["roots"])
    code, out_csv, _ = run(["exotic-roots", "--a", "10", "--t-max", "15",
                            "--format", "csv"])
    assert code == 0
    lines = out_csv.strip().splitlines()
    assert lines[0] == "t,residual,gap,comparator"
    assert len(lines) == doc["count"] + 1


@pytest.mark.parametrize("argv, header, key", [
    (["potential", "--t-min", "2", "--t-max", "10", "--count", "5"],
     "y,q,q_over_y2", "rows"),
    (["ground-state"], "x,y,residual", "rows"),
    (["exotic-roots", "--a", "10", "--t-max", "15"], "t,residual,gap,comparator", "roots"),
    (["spacing", "--a", "10", "--t-max", "15"], "t_mid,gap,comparator,pi_over_log_t", "rows"),
    (["repulsion", "--D", "-4", "--a", "10", "--t-min", "10", "--t-max", "14", "--T", "60"],
     "t_left,t_right,sign_changes,root", "intervals"),
])
def test_json_and_csv_agree(argv, header, key):
    code, out, _ = run(argv)
    assert code == 0
    records = json.loads(out)[key]
    assert records
    code, out_csv, _ = run(argv + ["--format", "csv"])
    assert code == 0
    lines = out_csv.strip().splitlines()
    assert lines[0] == header
    assert len(lines) - 1 == len(records)


def test_determinism():
    argv = ["exotic-roots", "--a", "10", "--t-max", "15", "--format", "csv"]
    _, first, _ = run(argv)
    _, second, _ = run(argv)
    assert first == second


def test_spacing():
    code, out, _ = run(["spacing", "--a", "10", "--t-max", "15"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) >= 2
    for row in rows:
        assert abs(row["gap"] - row["comparator"]) / row["comparator"] < 0.02


def test_greens_check():
    code, out, _ = run(["greens-check", "--z", "0,1", "--s", "1.25,0.6",
                        "--a", "2", "--T", "120", "--tol", "5e-3"])
    assert code == 0
    assert json.loads(out)["rel_error"] < 5e-3


def test_selftest_single_criterion():
    code, out, _ = run(["selftest", "--only", "kronecker-limit"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["criteria"][0]["name"] == "kronecker-limit"


def test_usage_errors():
    assert run(["epstein", "--Q", "identity", "--r", "2"])[0] == 2  # missing --s
    assert run(["no-such-command"])[0] == 2
    assert run(["eisenstein", "--z", "0,-1", "--s", "2,0"])[0] == 2
    assert run(["exotic-roots", "--a", "0.5"])[0] == 2  # a must exceed 1
    assert run(["heegner", "--s", "2,0", "--D", "-5"])[0] == 2
    # shared flags exist only where they mean something
    assert run(["epstein", "--Q", "identity", "--r", "2", "--s", "2,0",
                "--format", "csv"])[0] == 2
    assert run(["epstein", "--Q", "identity", "--r", "2", "--s", "2,0",
                "--seed", "3"])[0] == 2
    assert run(["selftest", "--only", "laplace-constant", "--format", "csv"])[0] == 2
    assert run(["potential", "--tol", "1e-3"])[0] == 2
    assert run(["kronecker", "--z", "0,1", "--seed", "3"])[0] == 2
    # a malformed or missing Gram matrix is misuse, not a tolerance failure
    assert run(["epstein", "--Q", "identity", "--s", "2"])[0] == 2  # no --r
    assert run(["epstein", "--Q", "[1,0,0,1]", "--s", "2"])[0] == 2  # flat, no --r
    assert run(["epstein", "--Q", "@/nonexistent.json", "--s", "2"])[0] == 2


@pytest.mark.parametrize("argv", [["exotic-roots"], ["spacing"], ["repulsion", "--D", "-4"]],
                         ids=lambda argv: argv[0])
def test_reversed_window_is_usage_error(argv):
    # t_min >= t_max is misuse, not an empty result or a non-convergence
    for t_min, t_max in (("20", "10"), ("12", "12")):
        code, out, err = run(argv + ["--a", "5", "--t-min", t_min, "--t-max", t_max])
        assert (code, out) == (2, "")
        assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["greens-check", "--z", "0,1", "--s", "1.5,0", "--a", "3"],
                                  ["repulsion", "--D", "-4", "--a", "10"]],
                         ids=lambda argv: argv[0])
def test_nonpositive_contour_height_is_usage_error(argv):
    for T in ("-5", "0", "-20"):
        code, out, err = run(argv + ["--T", T])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "T must be positive" in err


@pytest.mark.parametrize("argv", [
    ["epstein", "--Q", "identity", "--r", "2", "--s", "inf"],
    ["repulsion", "--D", "-4", "--a", "10", "--T", "inf"],
    ["epstein", "--Q", "identity", "--r", "2", "--s", "nan"],
    ["eisenstein", "--z", "0,1", "--s", "nan,0"],
    ["epstein", "--Q", "identity", "--r", "2", "--s", "2", "--tol", "nan"],
    ["epstein", "--Q", "identity", "--r", "2", "--s", "2", "--tol", "0"],
], ids=["s-inf", "T-inf", "s-nan", "s-nan-complex", "tol-nan", "tol-zero"])
def test_non_finite_number_is_usage_error(argv):
    # inf and nan reach no computation and print no NaN into the JSON
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert "is not a finite number" in err


def test_repulsion_window_above_contour_is_usage_error():
    argv = ["repulsion", "--D", "-4", "--a", "10", "--t-min", "10", "--t-max", "20"]
    for T in ("15", "20"):
        code, out, err = run(argv + ["--T", T])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "below the contour height" in err


def test_psi_raise_is_usage_error(monkeypatch):
    # where Re zeta(1+2it) <= 0 psi_xi raises, and the CLI says why
    monkeypatch.setattr(specfun, "riemann_zeta", lambda s: np.full(np.shape(s), -1.0 + 0.5j))
    code, out, err = run(["exotic-roots", "--a", "5", "--t-max", "10"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Re zeta(1+2it) <= 0" in err


def test_eta_cap_is_non_convergence(monkeypatch):
    # an eta reduction that runs out of steps raises, and the CLI exits 3
    monkeypatch.setattr(specfun, "_ETA_STEPS", 0)
    code, out, err = run(["kronecker", "--z", "0.3,1.2"])
    assert (code, out) == (3, "")
    assert err.startswith("non-convergence:")


def test_tolerance_exit_code():
    # an impossible tolerance turns a passing check into exit code 1
    code, _, _ = run(["kronecker", "--z", "0,1", "--tol", "1e-30"])
    assert code == 1
