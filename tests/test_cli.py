import ast
import json
import math
import random
import re
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperising import (check_activity_ranges, exact_partition,
                        hypergraph_to_doc, ising_ly_range, parse_hypergraph)
from hyperising import cli, leeyang, oracle, subgraphs, taylor
from hyperising.cli import main, parse_lambda
from hyperising.instances import random_connected_hypergraph, random_regular_graph

from conftest import with_uniform_beta

K2_DOC = {"n": 2, "edges": [{"v": [0, 1], "beta": 0.5}]}
PATH_DOC = {"n": 3, "edges": [{"v": [0, 1], "beta": 0.5},
                              {"v": [1, 2], "beta": 0.5}]}
EDGE3_DOC = {"n": 3, "edges": [{"v": [0, 1, 2], "beta": -1 / 3}]}
TESTS = Path(__file__).resolve().parent


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="input.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return _write


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_parse_lambda_formats():
    assert parse_lambda("0.5") == 0.5
    assert parse_lambda("0.25,-1.5") == complex(0.25, -1.5)
    assert parse_lambda("1e-3,2E2") == complex(0.001, 200.0)
    with pytest.raises(Exception):
        parse_lambda("a,b")


def test_approx_reports_value(capsys, write_doc):
    path = write_doc(K2_DOC)
    code, rep, _ = run_cli(capsys, ["approx", path, "--lambda", "0.3",
                                    "--epsilon", "0.01"])
    assert code == 0
    z = complex(*rep["result"]["z_estimate"])
    assert abs(z - 1.39) <= 0.01 * 1.39
    assert rep["guarantee"] is True
    assert rep["input_digest"].startswith("sha256:")
    assert rep["result"]["m"] >= 1


@pytest.mark.parametrize("lam", [0.9999999, 1 / 0.9999999])
def test_approx_near_circle_evaluates_polynomial(capsys, write_doc, lam):
    path = write_doc(K2_DOC)
    start = time.perf_counter()
    code, rep, _ = run_cli(capsys, ["approx", path, "--lambda", repr(lam),
                                    "--epsilon", "0.01"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    result = rep["result"]
    assert result["evaluation"] == "polynomial"
    assert result["inverted"] == (lam > 1)
    exact = exact_partition(parse_hypergraph(K2_DOC), lam)
    assert abs(complex(*result["z_estimate"]) - exact) <= 0.01 * abs(exact)


def test_approx_unit_circle_exit_two(capsys, write_doc):
    path = write_doc(K2_DOC)
    code, rep, err = run_cli(capsys, ["approx", path, "--lambda", "1,0",
                                      "--epsilon", "0.1"])
    assert code == 2
    assert rep is None  # no partial JSON
    assert "circle" in err.lower()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 2.94 GiB for an array with shape"
                 " (96229, 8192) and data type int32"),
     "Unable to allocate 2.94 GiB for an array with shape (96229, 8192) and"
     " data type int32"),
    (MemoryError(), "out of memory")])
def test_memory_error_exit_two(capsys, write_doc, monkeypatch, exc, line):
    # an allocation that no cap predicts is refused in one line, where
    # approx on a 30-vertex cubic host at m = 14 printed a traceback
    def handler(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "approx", handler)
    code, rep, err = run_cli(capsys, ["approx", write_doc(K2_DOC), "--lambda",
                                      "0.5", "--epsilon", "0.1"])
    assert (code, rep, err) == (2, None, f"refused: {line}\n")


def test_missing_file_exit_one(capsys):
    code, rep, err = run_cli(capsys, ["approx", "/nonexistent.json",
                                      "--lambda", "0.3", "--epsilon", "0.1"])
    assert code == 1 and rep is None


def test_schema_error_exit_one(capsys, write_doc):
    path = write_doc({"n": 2, "edges": [{"v": [0, 0], "beta": 1.0}]})
    code, rep, err = run_cli(capsys, ["zeros", path])
    assert code == 1 and rep is None
    # json reads NaN and Infinity; neither is an activity
    phi = {"--": [1, 0], "+-": [0.5, 0], "-+": [0.5, 0], "++": [1, 0]}
    for value in (math.nan, math.inf):
        docs = [{"n": 2, "edges": [{"v": [0, 1], "beta": value}]},
                {"n": 2, "edges": [{"v": [0, 1],
                                    "phi": {**phi, "+-": [0.5, value]}}]}]
        for doc in docs:
            path = write_doc(doc)
            for argv in (["approx", path, "--lambda", "0.3", "--epsilon", "0.1"],
                         ["zeros", path], ["check-range", path]):
                code, rep, err = run_cli(capsys, argv)
                assert code == 1 and rep is None
                assert err.startswith("error:") and "finite" in err


def test_bad_lambda_exit_one(capsys, write_doc):
    path = write_doc(K2_DOC)
    code, _, _ = run_cli(capsys, ["approx", path, "--lambda", "nope",
                                  "--epsilon", "0.1"])
    assert code == 1


def test_determinism_excluding_timings(capsys, write_doc):
    path = write_doc(PATH_DOC)
    argv = ["approx", path, "--lambda", "0.4,0.2", "--epsilon", "0.05"]
    _, rep1, _ = run_cli(capsys, argv)
    _, rep2, _ = run_cli(capsys, argv)
    rep1.pop("timings")
    rep2.pop("timings")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_exact_command(capsys, write_doc):
    path = write_doc(K2_DOC)
    code, rep, _ = run_cli(capsys, ["exact", path, "--lambda", "0.3",
                                    "--multivariate", "0.3;0.3"])
    assert code == 0
    assert complex(*rep["result"]["z"]) == pytest.approx(1.39)
    assert complex(*rep["result"]["z_multivariate"]) == pytest.approx(1.39)
    coeffs = [complex(*c) for c in rep["result"]["coefficients"]]
    assert coeffs == [1, 1, 1]


def test_exact_multivariate_needs_one_activity_per_vertex(capsys, write_doc):
    code, rep, err = run_cli(capsys, ["exact", write_doc(PATH_DOC),
                                      "--lambda", "0.5", "--multivariate",
                                      "0.3;0.2"])
    assert (code, rep, err) == (1, None,
                                "error: expected 3 vertex activities, got 2\n")


def test_zeros_command_three_edge(capsys, write_doc):
    path = write_doc(EDGE3_DOC)
    code, rep, _ = run_cli(capsys, ["zeros", path])
    assert code == 0
    assert rep["result"]["max_circle_deviation"] <= 1e-6
    assert rep["result"]["certified"] is True
    assert len(rep["result"]["roots"]) == 3


def test_check_range_command(capsys, write_doc):
    ok = write_doc({"n": 3, "edges": [{"v": [0, 1, 2], "beta": 0.4}]}, "a.json")
    code, rep, _ = run_cli(capsys, ["check-range", ok])
    assert code == 0 and rep["result"]["all_pass"] is True

    bad = write_doc({"n": 3, "edges": [{"v": [0, 1, 2], "beta": -0.4}]}, "b.json")
    code, rep, _ = run_cli(capsys, ["check-range", bad])
    assert code == 0 and rep["result"]["all_pass"] is False
    assert rep["result"]["edges"][0]["passes"] is False


def test_enumerate_command_counts(capsys, write_doc):
    path = write_doc(PATH_DOC)
    code, rep, _ = run_cli(capsys, ["enumerate", path, "--t", "2",
                                    "--emit-sets"])
    assert code == 0
    assert rep["result"]["counts"] == {"1": 3, "2": 2}
    assert rep["result"]["sets"]["2"] == [[0, 1], [1, 2]]
    assert rep["result"]["count_bounds"]["2"]["respected"] is True


def test_coeffs_command(capsys, write_doc):
    path = write_doc(K2_DOC)
    code, rep, _ = run_cli(capsys, ["coeffs", path, "--m", "2"])
    assert code == 0
    e = [complex(*x) for x in rep["result"]["elementary"]]
    assert e[0] == pytest.approx(-1.0)
    assert e[1] == pytest.approx(1.0)
    p = [complex(*x) for x in rep["result"]["power_sums"]]
    assert p == [pytest.approx(-1.0), pytest.approx(-1.0)]
    c = [complex(*x) for x in rep["result"]["coefficients"]]
    assert c == [1, pytest.approx(1.0), pytest.approx(1.0)]


def test_coeffs_command_past_host_size(capsys, write_doc):
    path = write_doc(K2_DOC)
    code, rep, _ = run_cli(capsys, ["coeffs", path, "--m", "4"])
    assert code == 0
    e = [complex(*x) for x in rep["result"]["elementary"]]
    assert len(e) == 4
    assert abs(e[2]) < 1e-12 and abs(e[3]) < 1e-12  # vanish past n
    p = [complex(*x) for x in rep["result"]["power_sums"]]
    # K2 at beta = 0.5 has reciprocal roots e^{+-2 pi i/3}: p_t = 2cos(2 pi t/3)
    assert p[2] == pytest.approx(2.0) and p[3] == pytest.approx(-1.0)


def test_tight_example_command(capsys):
    code, rep, _ = run_cli(capsys, ["tight-example", "--k", "3",
                                    "--beta", "-0.4"])
    assert code == 0
    res = rep["result"]
    assert res["sign_change"][0] > 0 > res["sign_change"][1]
    assert 0 < res["bracket_root"] < 1
    assert res["circle_deviation"] > 1e-4

    code, rep, err = run_cli(capsys, ["tight-example", "--k", "3",
                                      "--beta", "0.5"])
    assert code == 1 and rep is None


@pytest.mark.parametrize("k, beta, message", [
    (3, 0.5, "beta=0.5 lies inside the range for k=3; all zeros are on the"
             " unit circle"),
    (1, -0.4, "edge size must be >= 2"),
    (3, 1.0, "beta = 1 is excluded from the witness family"),
])
def test_tight_example_input_errors(capsys, k, beta, message):
    code, rep, err = run_cli(capsys, ["tight-example", "--k", str(k),
                                      "--beta", str(beta)])
    assert (code, rep, err) == (1, None, f"error: {message}\n")


def test_tight_example_refuses_a_witness_on_the_circle(capsys):
    # just past the k = 4 range every root stays within tolerance; the
    # deviation's digits come from LAPACK, so only the prefix is fixed
    code, rep, err = run_cli(capsys, ["tight-example", "--k", "4",
                                      "--beta", "0.5000000001"])
    assert code == 2 and rep is None
    assert err.startswith("refused: no root strayed beyond 10x circle"
                          " tolerance")


@pytest.mark.parametrize("k", [59, 60, 200, 1024])
def test_tight_example_below_range_at_high_degree(capsys, k):
    code, rep, _ = run_cli(capsys, ["tight-example", "--k", str(k),
                                    "--beta", "-0.5"])
    assert code == 0
    res = rep["result"]
    assert res["witness_root"] == [res["bracket_root"], 0.0]
    assert res["circle_deviation"] > 1e-5


@pytest.mark.parametrize("k, deviation", [(60, 18.1), (100, 30.8)])
def test_tight_example_far_below_max_coefficient(capsys, k, deviation):
    # the witness's roots have backward errors near rounding although
    # |P(r)| is 1e15 and more times max |c_i|, a scale that refused them
    code, rep, _ = run_cli(capsys, ["tight-example", "--k", str(k),
                                    "--beta", "0.5"])
    assert code == 0
    res = rep["result"]
    assert res["circle_deviation"] > 10 * rep["parameters"]["tol_circle"]
    assert res["circle_deviation"] == pytest.approx(deviation, abs=0.05)


def test_tight_example_refuses_an_overflowing_witness(capsys):
    # 2 beta (beta > 1) or 3 beta (beta < 0) passes the double range, so a
    # coefficient of the witness is infinite before any root is taken
    for beta in ("1e308", "-1e308"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep, err = run_cli(capsys, ["tight-example", "--k", "3",
                                              f"--beta={beta}"])
        assert code == 2 and rep is None
        assert err.startswith("refused:") and err.count("\n") == 1
        assert "overflows double precision" in err
    code, rep, _ = run_cli(capsys, ["tight-example", "--k", "3",
                                    "--beta", "1e200"])
    assert code == 0 and rep["result"]["edge_size_used"] == 2


@pytest.mark.parametrize("k", [40, 70])
def test_oversized_spin_table_refused_before_it_is_built(capsys, write_doc,
                                                        k):
    # enumeration reads no spin table; the coefficient tables refuse the
    # 2^k entries of a k-vertex edge instead of expanding them (2^70 is
    # past int64 too)
    path = write_doc({"n": k, "edges": [{"v": list(range(k)),
                                         "beta": 0.5}]})
    code, rep, _ = run_cli(capsys, ["enumerate", path, "--t", "1"])
    assert code == 0 and rep["result"]["counts"] == {"1": k}
    for argv in (["coeffs", path, "--m", "1"],
                 ["approx", path, "--lambda", "0.01", "--epsilon", "0.1"]):
        start = time.perf_counter()
        code, rep, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and rep is None
        assert err.startswith("refused:") and "spin tables" in err


def test_mcap_refusal_and_flag_override(capsys, write_doc, monkeypatch):
    doc = {"n": 8, "edges": [{"v": [i, i + 1], "beta": 0.5} for i in range(7)]}
    path = write_doc(doc)
    monkeypatch.setenv("HYPERISING_M_CAP", "1")
    code, rep, err = run_cli(capsys, ["approx", path, "--lambda", "0.5",
                                      "--epsilon", "0.1"])
    assert code == 2 and rep is None
    code, rep, _ = run_cli(capsys, ["approx", path, "--lambda", "0.5",
                                    "--epsilon", "0.1", "--m-cap", "24"])
    assert code == 0 and rep["result"]["m"] >= 1
    # the flag also wins over a malformed variable, which alone is an
    # input error
    monkeypatch.setenv("HYPERISING_M_CAP", "abc")
    code, rep, _ = run_cli(capsys, ["approx", path, "--lambda", "0.5",
                                    "--epsilon", "0.1", "--m-cap", "24"])
    assert code == 0 and rep["result"]["m"] >= 1
    code, rep, err = run_cli(capsys, ["approx", path, "--lambda", "0.5",
                                      "--epsilon", "0.1"])
    assert code == 1 and rep is None
    assert err.startswith("error:") and "HYPERISING_M_CAP" in err


@pytest.mark.parametrize("lam", ["inf", "0,inf", "nan"])
def test_approx_non_finite_lambda_exit_one(capsys, write_doc, lam):
    path = write_doc(K2_DOC)
    code, rep, err = run_cli(capsys, ["approx", path, "--lambda", lam,
                                      "--epsilon", "0.1"])
    assert code == 1 and rep is None
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ["--lambda", "nan"], ["--lambda", "inf"], ["--lambda", "0.5,-inf"],
    ["--lambda", "0.5", "--multivariate", "0.5;nan;0.5"],
])
def test_exact_non_finite_lambda_exit_one(capsys, write_doc, argv):
    path = write_doc(PATH_DOC)
    code, rep, err = run_cli(capsys, ["exact", path, *argv])
    assert code == 1 and rep is None
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("argv", [
    ["--lambda", "1e300"], ["--lambda", "0,-1e300"],
    ["--lambda", "0.5", "--multivariate", "1e300;1e300;1e300"],
])
def test_exact_overflow_refused(capsys, write_doc, argv):
    path = write_doc(PATH_DOC)
    code, rep, err = run_cli(capsys, ["exact", path, *argv])
    assert code == 2 and rep is None
    assert err.startswith("refused:") and "overflows" in err
    assert "Warning" not in err


def test_enumerate_bound_past_double_range_is_null(capsys, write_doc):
    # (4e)^(t-1) passes the double range from t = 298 on
    path = write_doc(PATH_DOC)
    code, rep, _ = run_cli(capsys, ["enumerate", path, "--t", "300"])
    assert code == 0
    bounds = rep["result"]["count_bounds"]
    assert math.isfinite(bounds["297"]["bound"])
    assert bounds["300"] == {"bound": None, "count": 0, "respected": True}


def test_enumerate_past_the_largest_component_is_cheap(capsys, write_doc):
    # sizes past the host's 5 vertices are empty; growth stops at the
    # first of them, so the cost no longer grows with t squared
    path = write_doc({"n": 5, "edges": [{"v": [i, i + 1], "beta": 0.5}
                                        for i in range(4)]})
    start = time.process_time()
    code, rep, _ = run_cli(capsys, ["enumerate", path, "--t", "3000"])
    assert time.process_time() - start < 1.0
    assert code == 0
    counts = rep["result"]["counts"]
    assert len(counts) == 3000
    assert counts == {str(s): max(0, 6 - s) for s in range(1, 3001)}
    for t in (1, 5, 6, 300):
        code, small, _ = run_cli(capsys, ["enumerate", path, "--t", str(t)])
        assert code == 0
        assert small["result"]["counts"] == {
            str(s): counts[str(s)] for s in range(1, t + 1)}
        assert small["result"]["count_bounds"] == {
            str(s): rep["result"]["count_bounds"][str(s)]
            for s in range(2, t + 1)}


def test_approx_overflow_refused(capsys, write_doc):
    path = write_doc(K2_DOC)
    code, rep, err = run_cli(capsys, ["approx", path, "--lambda", "1e200",
                                      "--epsilon", "0.1"])
    assert code == 2 and rep is None
    assert err.startswith("refused:") and "overflows" in err


# hosts whose power sums pass the double range: a path of alternating
# 1e150 activities (table values of opposite infinities), the path at
# 1e154 (finite values whose exact sums overflow) and a cubic host whose
# table values pass the range from order 3 on
OVERFLOW_DOCS = {
    "opposite": {"n": 4, "edges": [{"v": [0, 1], "beta": 1e150},
                                   {"v": [1, 2], "beta": -1e150},
                                   {"v": [2, 3], "beta": 1e150}]},
    "exact-sum": {"n": 4, "edges": [{"v": [i, i + 1], "beta": 1e154}
                                    for i in range(3)]},
    "cubic": hypergraph_to_doc(random_regular_graph(random.Random(0), 6, 3,
                                                    1e40)),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_DOCS))
@pytest.mark.parametrize("argv", [
    ["approx", "--lambda", "0.5", "--epsilon", "0.1"],
    ["approx", "--lambda", "0.5", "--epsilon", "0.01"],
    ["coeffs", "--m", "4"], ["coeffs", "--m", "6"]])
def test_overflowing_power_sums_refused(capsys, write_doc, name, argv):
    # one refusal, where these exited 1 on fsum's "-inf + inf", raised an
    # OverflowError from the rational sums, or printed null power sums
    doc = OVERFLOW_DOCS[name]
    code, rep, err = run_cli(capsys, [argv[0], write_doc(doc), *argv[1:]])
    assert code == 2 and rep is None
    order = 3 if name == "cubic" else 2
    assert err == (f"refused: the power sums to order {order} overflow"
                   f" double precision on {doc['n']} vertices\n")


def test_overflowing_hosts_keep_the_oracle_exit_codes(capsys, write_doc):
    # the oracle refuses the two paths itself, and the cubic host because
    # Horner's scheme overflows at its largest roots (backward error NaN),
    # without a numpy warning (a warning fails this test); a leading
    # coefficient strip once answered there with 3 of its 6 roots
    for name, want in (("opposite", 2), ("exact-sum", 2), ("cubic", 2)):
        path = write_doc(OVERFLOW_DOCS[name])
        code, _, err = run_cli(capsys, ["zeros", path])
        assert code == want
        assert err.count("\n") == (want == 2)


@pytest.mark.parametrize("beta, argv, order", [
    (1e60, ["coeffs", "--m", "4"], 4),
    (1e60, ["approx", "--lambda", "0.5", "--epsilon", "0.1"], 4),
    (1e30, ["coeffs", "--m", "8"], 8)])
def test_power_sums_past_the_tables_refused(capsys, write_doc, beta, argv,
                                            order):
    # a 4-vertex path whose half-depth sums are finite: at beta = 1e60 the
    # mirror's completion to order 4 overflows, at 1e30 the Newton
    # extension past n does, and the refusal names that order. These
    # exited 0 with null power sums, and approx with log Z = 276.5 where
    # Z = 5e179; exact still answers
    path = write_doc({"n": 4, "edges": [{"v": [i, i + 1], "beta": beta}
                                        for i in range(3)]})
    code, rep, err = run_cli(capsys, [argv[0], path, *argv[1:]])
    assert code == 2 and rep is None
    assert err == (f"refused: the power sums to order {order} overflow"
                   " double precision on 4 vertices\n")
    code, rep, _ = run_cli(capsys, ["exact", path, "--lambda", "0.5"])
    z = complex(*rep["result"]["z"])
    assert code == 0 and math.isfinite(abs(z))
    assert z == exact_partition(parse_hypergraph(
        json.loads(Path(path).read_text())), 0.5)


def test_overflowing_power_sums_refused_in_a_fresh_process(write_doc):
    # the module entry point, where a numpy warning would reach stderr
    import subprocess

    cli_argv = [sys.executable, "-m", "hyperising.cli"]
    proc = subprocess.run(cli_argv + ["coeffs", write_doc(
        OVERFLOW_DOCS["exact-sum"]), "--m", "4"], capture_output=True,
        text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("refused:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    doc = hypergraph_to_doc(random_regular_graph(random.Random(0), 6, 3, 0.3))
    proc = subprocess.run(cli_argv + ["approx", write_doc(doc), "--lambda",
                                      "0.5", "--epsilon", "0.1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert strict_json(proc.stdout)["command"] == "approx"


def test_coeffs_order_above_cap_exit_two(capsys, write_doc):
    path = write_doc(K2_DOC)
    code, rep, err = run_cli(capsys, ["coeffs", path, "--m", "25"])
    assert code == 2 and rep is None
    assert "25" in err
    code, rep, _ = run_cli(capsys, ["coeffs", path, "--m", "25",
                                    "--m-cap", "25"])
    assert code == 0 and len(rep["result"]["power_sums"]) == 25


def test_coeffs_huge_order_refused_at_once(capsys, write_doc):
    path = write_doc(K2_DOC)
    start = time.perf_counter()
    code, rep, _ = run_cli(capsys, ["coeffs", path, "--m", "2000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and rep is None


def test_sweep_command_threads_deterministic(capsys, write_doc):
    path = write_doc(EDGE3_DOC)
    argv = ["sweep", path, "--beta-from", "-0.5", "--beta-to", "0.9",
            "--steps", "8"]
    code, rep1, _ = run_cli(capsys, argv)
    assert code == 0
    code, rep4, _ = run_cli(capsys, argv + ["--threads", "4"])
    assert code == 0
    rows1 = rep1["result"]["rows"]
    rows4 = rep4["result"]["rows"]
    assert [r["beta"] for r in rows1] == [r["beta"] for r in rows4]
    assert [r["max_circle_deviation"] for r in rows1] == \
        [r["max_circle_deviation"] for r in rows4]
    for row in rows1:
        if row["in_range"]:
            assert row["on_circle"]


def test_sweep_random_regular_with_seed(capsys):
    argv = ["sweep", "--random-regular", "8,3", "--beta-from", "0.1",
            "--beta-to", "0.9", "--steps", "3", "--seed", "5"]
    code, rep1, _ = run_cli(capsys, argv)
    code2, rep2, _ = run_cli(capsys, argv)
    assert code == code2 == 0
    assert rep1["result"] == rep2["result"]


def test_sweep_past_the_range_answers_every_row(capsys):
    # at beta = 2.75 and 5 max |c_i| is 2.1e5 and 5.1e7, and a residual
    # scaled by it refused the grid (1.048e-06 relative); each root's
    # backward error stays near rounding
    argv = ["sweep", "--random-regular", "8,3", "--beta-from", "0.5",
            "--beta-to", "5", "--steps", "3"]
    code, rep, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    rows = rep["result"]["rows"]
    assert [row["beta"] for row in rows] == [0.5, 2.75, 5.0]
    assert [row["in_range"] for row in rows] == [True, False, False]


def test_sweep_high_beta_row_on_circle(capsys):
    # at beta = 0.9 the zeros of this 18-vertex 3-regular host crowd near
    # lambda = -1; coefficients that are not exactly palindromic put the
    # computed roots up to 1.2e-6 off the circle
    argv = ["sweep", "--random-regular", "18,3", "--seed", "534029409",
            "--beta-from", "0.9", "--beta-to", "0.9", "--steps", "1"]
    code, rep, _ = run_cli(capsys, argv)
    assert code == 0
    (row,) = rep["result"]["rows"]
    assert row["in_range"] is True
    assert row["on_circle"] is True
    assert row["max_circle_deviation"] < 1e-7


def test_sweep_over_oracle_cap_refused_at_once(capsys):
    # the cap is checked before the host is generated
    for shape, states in (("26,3", "2^26"), ("400000,3", "2^400000")):
        start = time.perf_counter()
        code, rep, err = run_cli(capsys, ["sweep", "--random-regular", shape,
                                          "--beta-from", "0.1",
                                          "--beta-to", "0.9"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and rep is None
        assert states in err


def test_sweep_past_int64_counts_refused_at_once(capsys):
    # C(68, 34) > 2^63: the histogram's counts would overflow at any cap,
    # so the host is refused before it is generated
    start = time.perf_counter()
    code, rep, err = run_cli(capsys, ["sweep", "--random-regular", "68,3",
                                      "--oracle-cap", "100",
                                      "--beta-from", "0.1", "--beta-to", "0.9"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and rep is None
    assert err.startswith("refused:") and "int64" in err


def test_sweep_grid_past_its_cap_refused_at_once(capsys):
    # 10^12 steps asked numpy for a 7.28 TiB grid, and its memory error
    # escaped as a traceback; the cap bounds the root work, steps x
    # (n + 1)^2 cells, and is checked before the grid exists
    argv = ["sweep", "--random-regular", "8,3", "--beta-from", "0",
            "--beta-to", "0.5", "--steps"]
    start = time.perf_counter()
    code, rep, err = run_cli(capsys, argv + [str(10 ** 12)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and rep is None
    assert err == ("refused: a grid of 1000000000000 x 9^2 root cells is"
                   f" above the cap {cli.SWEEP_GRID_CELLS}\n")
    most = cli.SWEEP_GRID_CELLS // 9 ** 2
    start = time.perf_counter()
    code, rep, err = run_cli(capsys, argv + [str(most + 1)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and err == (f"refused: a grid of {most + 1} x 9^2 root"
                                 f" cells is above the cap"
                                 f" {cli.SWEEP_GRID_CELLS}\n")
    # the benchmark's grid, 21 steps on 18 vertices, is far below it
    code, rep, _ = run_cli(capsys, ["sweep", "--random-regular", "18,3",
                                    "--beta-from", "-0.5", "--beta-to", "0.8",
                                    "--steps", "21"])
    assert code == 0 and len(rep["result"]["rows"]) == 21


def test_sweep_cubic_host_at_the_default_cap_answers_at_once(capsys):
    # the transfer matrix's frontier stays narrow here; one pass over all
    # 2^24 label sets took 3 s
    argv = ["sweep", "--random-regular", "24,3", "--seed", "1",
            "--beta-from", "0", "--beta-to", "0.8", "--steps", "5"]
    start = time.perf_counter()
    code, rep, _ = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert all(row["on_circle"] for row in rep["result"]["rows"])


def test_sweep_verbose_logs_the_histogram_route():
    import subprocess

    argv = [sys.executable, "-m", "hyperising.cli", "sweep",
            "--random-regular", "18,3", "--seed", "7", "--beta-from", "0",
            "--beta-to", "0.5", "--steps", "3"]
    quiet = subprocess.run(argv, capture_output=True, text=True)
    loud = subprocess.run(argv + ["--verbose"], capture_output=True, text=True)
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    lines = [line for line in loud.stderr.splitlines() if "histogram" in line]
    assert len(lines) == 1
    assert re.fullmatch(r"INFO hyperising\.oracle: cut histogram: transfer"
                        r" matrix, frontier width \d+, \d+ cells", lines[0])
    # the report is unchanged
    reports = [json.loads(p.stdout) for p in (quiet, loud)]
    for rep in reports:
        rep.pop("timings")
    assert reports[0] == reports[1]


def test_sweep_verbose_logs_one_root_stage_line(capsys):
    # the whole grid goes through one root stage: one line with its rows,
    # degrees, eigenvalue calls and worst residual; a quiet run writes
    # nothing on stderr, and the report does not change
    argv = ["sweep", "--random-regular", "18,3", "--seed", "7",
            "--beta-from", "0", "--beta-to", "0.5", "--steps", "3"]
    code, quiet, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    code, loud, err = run_cli(capsys, argv + ["--verbose"])
    assert code == 0
    lines = [line for line in err.splitlines() if "roots:" in line]
    assert len(lines) == 1
    assert re.fullmatch(r"INFO hyperising\.oracle: roots: 3 rows, degrees 18,"
                        r" 1 eigenvalue calls, worst relative residual"
                        r" \d\.\d{3}e-\d+", lines[0])
    assert len(err.splitlines()) == 3
    for rep in (quiet, loud):
        rep.pop("timings")
    assert json.dumps(quiet, indent=2) == json.dumps(loud, indent=2)


@pytest.mark.parametrize("beta_from, steps, beta", [
    ("1e40", "1", "1e+40"), ("1", "3", "5e+39")])
def test_sweep_refuses_overflowing_coefficients(capsys, beta_from, steps,
                                                beta):
    # the first beta whose coefficients pass the double range is named
    # before any root is sought, and no numpy warning is raised
    argv = ["sweep", "--random-regular", "8,3", "--beta-from", beta_from,
            "--beta-to", "1e40", "--steps", steps]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, err = run_cli(capsys, argv)
    assert code == 2 and rep is None
    assert err == (f"refused: the coefficients at beta={beta} overflow double"
                   " precision on 8 vertices\n")


def test_verbose_is_set_per_call_in_one_process(capsys, write_doc):
    # a verbose call after a quiet one logs, and a quiet one after a
    # verbose one does not; `exact` makes one oracle pass
    argv = ["exact", write_doc(PATH_DOC), "--lambda", "0.3"]
    for verbose in (False, True, False, True):
        code, rep, err = run_cli(capsys, argv + ["--verbose"] * verbose)
        assert code == 0 and rep["command"] == "exact"
        if not verbose:
            assert err == ""
            continue
        oracle_line, done = err.splitlines()
        assert re.fullmatch(r"INFO hyperising\.oracle: exact coefficients:"
                            r" transfer matrix, frontier width \d+, \d+"
                            r" cells, \d+ splits", oracle_line)
        assert re.fullmatch(r"INFO hyperising: exact finished in [\d.]+s",
                            done)


def test_enumerate_verbose_logs_the_family_once(capsys, write_doc):
    # one line from enumeration, with the set count, the largest size and
    # its key words; the report does not change
    argv = ["enumerate", write_doc(PATH_DOC), "--t", "3", "--emit-sets"]
    code, quiet, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    code, loud, err = run_cli(capsys, argv + ["--verbose"])
    assert code == 0
    lines = err.splitlines()
    assert [line for line in lines if "hyperising.subgraphs" in line] == [
        "INFO hyperising.subgraphs: connected sets: 6 up to size 3, key"
        " words at size 3: 1 (31 vertices of 2 bits a word)"]
    assert len(lines) == 2
    assert re.fullmatch(r"INFO hyperising: enumerate finished in [\d.]+s",
                        lines[1])
    for rep in (quiet, loud):
        rep.pop("timings")
    assert json.dumps(quiet, indent=2) == json.dumps(loud, indent=2)


PATH6_DOC = {"n": 6, "edges": [{"v": [v, v + 1], "beta": 0.5}
                              for v in range(5)]}


@pytest.mark.parametrize("doc, command, line", [
    (PATH6_DOC, ["coeffs", "--m", "6"], "to order 3 over sizes 1..3: 6/5/4"
     " sets in 2/3/3 pre-classes and 2/2/2 classes"),
    (PATH6_DOC, ["approx", "--lambda", "0.9", "--epsilon", "0.01"],
     "to order 3 over sizes 1..3: 6/5/4 sets in 2/3/3 pre-classes and"
     " 2/2/2 classes"),
    (EDGE3_DOC, ["coeffs", "--m", "3"], "to order 1 over sizes 1..1: 3 sets,"
     " each its own class"),
])
def test_verbose_logs_each_table_build_once(capsys, write_doc, doc, command,
                                            line):
    # one line per table build: the sets, pre-classes and classes of each
    # size, or that every set is its own class; the report does not change
    argv = [command[0], write_doc(doc), *command[1:]]
    code, quiet, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    code, loud, err = run_cli(capsys, argv + ["--verbose"])
    assert code == 0
    lines = err.splitlines()
    assert [x for x in lines if "hyperising.coefficients" in x] == [
        "INFO hyperising.coefficients: coefficient tables " + line]
    assert len(lines) == 3
    assert re.fullmatch(rf"INFO hyperising: {command[0]} finished in [\d.]+s",
                        lines[2])
    for rep in (quiet, loud):
        rep.pop("timings")
    assert json.dumps(quiet, indent=2) == json.dumps(loud, indent=2)


def test_sweep_past_the_default_cap_answers_at_once(capsys):
    # 2^50 label sets; the transfer matrix's frontier stays at width 10
    argv = ["sweep", "--random-regular", "50,3", "--oracle-cap", "50",
            "--beta-from", "0", "--beta-to", "0.5", "--steps", "3"]
    start = time.perf_counter()
    code, rep, _ = run_cli(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert all(row["on_circle"] for row in rep["result"]["rows"])


def test_zeros_on_circle_for_clustered_ising_zeros(capsys, write_doc):
    # the host of test_sweep_high_beta_row_on_circle, read from a file:
    # `zeros` uses the oracle coefficients, whose rounding is not symmetric
    g = random_regular_graph(random.Random(534029409), 18, 3, 0.9)
    path = write_doc({"n": g.n, "edges": [{"v": list(e.vertices), "beta": 0.9}
                                          for e in g.edges]})
    code, rep, _ = run_cli(capsys, ["zeros", path])
    assert code == 0
    assert rep["result"]["in_range"] is True
    assert rep["result"]["on_circle"] is True
    assert rep["result"]["max_circle_deviation"] < 1e-7
    coeffs = rep["result"]["coefficients"]
    assert coeffs == coeffs[::-1]


def test_version_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cross_process_determinism(write_doc):
    import subprocess
    import sys

    path = write_doc(PATH_DOC)
    argv = [sys.executable, "-m", "hyperising.cli", "approx", path,
            "--lambda", "0.7,0.1", "--epsilon", "0.02"]
    outs = []
    for _ in range(2):
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        rep.pop("timings")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def _test_extra() -> set[str]:
    """The packages the `test` extra of pyproject.toml names."""
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())
    return {re.match(r"[\w.-]+", req)[0].lower()
            for req in doc["project"]["optional-dependencies"]["test"]}


def test_test_extra_is_what_the_tests_import():
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    # the tests' own modules and the benchmark's, which a test loads
    local = {path.stem for path in (*TESTS.glob("*.py"),
                                    *TESTS.parent.glob("bench/*.py"))}
    third_party = ({name.split(".")[0] for name in imported}
                   - set(sys.stdlib_module_names) - local
                   - {"hyperising", "numpy"})
    assert third_party == _test_extra()


def test_import_loads_no_test_dependency():
    import subprocess

    code = ("import sys, hyperising.cli; "
            "print(sorted(set(sys.argv[1:]) & "
            "{name.split('.')[0] for name in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code, *_test_extra()],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# what a fresh `import hyperising.cli` may add to the modules numpy has
# loaded: the package's own and these standard-library modules. The
# benchmark's setup time includes this import.
CLI_IMPORT_STDLIB = {
    "__future__", "_blake2", "_hashlib", "_json", "_string", "argparse",
    "cmath", "copy", "dataclasses", "gettext", "hashlib", "json",
    "json.decoder", "json.encoder", "json.scanner", "logging", "string",
    "traceback"}


def test_cli_import_loads_only_pinned_modules():
    import subprocess

    code = ("import sys, numpy; before = set(sys.modules);"
            " import hyperising.cli;"
            " print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "hyperising.cli" in added
    foreign = {name for name in added if name.split(".")[0] != "hyperising"}
    assert foreign <= CLI_IMPORT_STDLIB, sorted(foreign - CLI_IMPORT_STDLIB)


@pytest.mark.parametrize("argv", [
    ["tight-example", "--k", "3", "--beta", "nan"],
    ["tight-example", "--k", "3", "--beta=-inf"],
    ["sweep", "--random-regular", "8,3", "--beta-from", "nan",
     "--beta-to", "0.5"],
    ["sweep", "--random-regular", "8,3", "--beta-from", "0.1",
     "--beta-to", "inf"],
])
def test_non_finite_beta_flags_exit_one(capsys, argv):
    code, rep, err = run_cli(capsys, argv)
    assert code == 1 and rep is None
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("k", [1025, 1100])
def test_edge_sizes_past_double_range(capsys, write_doc, k):
    # 2^(k-1) overflows a double here; the range ends underflow toward 0
    for beta, passes in ((0.0, True), (0.5, False)):
        path = write_doc({"n": k, "edges": [{"v": list(range(k)),
                                             "beta": beta}]})
        code, rep, _ = run_cli(capsys, ["check-range", path])
        assert code == 0
        assert rep["result"]["all_pass"] is passes
    code, rep, err = run_cli(capsys, ["tight-example", "--k", str(k),
                                      "--beta", "0.5"])
    assert code == 2 and rep is None
    assert err.startswith("refused:") and err.count("\n") == 1


# the shared flags each command reads; each of the others is an input
# error there, and its variable is ignored
COMMAND_FLAGS = {
    "approx": ("--m-cap", "--memory-cap"),
    "exact": ("--oracle-cap",),
    "zeros": ("--oracle-cap", "--tol-circle", "--tol-residual"),
    "check-range": (),
    "enumerate": ("--memory-cap",),
    "coeffs": ("--m-cap", "--memory-cap"),
    "tight-example": ("--tol-circle", "--tol-residual"),
    "sweep": ("--oracle-cap", "--tol-circle", "--tol-residual", "--seed",
              "--threads"),
}
# a value each command runs with; twice it is a second one
FLAG_VALUES = {"--threads": 3, "--m-cap": 7, "--memory-cap": 1000,
               "--oracle-cap": 10, "--tol-circle": 1e-3,
               "--tol-residual": 1e-4, "--seed": 4}


def command_argv(command, path):
    return {
        "approx": ["approx", path, "--lambda", "0.3", "--epsilon", "0.1"],
        "exact": ["exact", path, "--lambda", "0.3"],
        "zeros": ["zeros", path],
        "check-range": ["check-range", path],
        "enumerate": ["enumerate", path, "--t", "2"],
        "coeffs": ["coeffs", path, "--m", "2"],
        "tight-example": ["tight-example", "--k", "3", "--beta", "-0.4"],
        "sweep": ["sweep", path, "--beta-from", "0.1", "--beta-to", "0.5",
                  "--steps", "2"],
    }[command]


def env_name(flag):
    return "HYPERISING_" + flag[2:].replace("-", "_").upper()


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_takes_only_the_flags_it_reads(capsys, write_doc, monkeypatch,
                                               command):
    argv = command_argv(command, write_doc(K2_DOC))
    own = COMMAND_FLAGS[command]
    foreign = [flag for flag in FLAG_VALUES if flag not in own]
    assert sum(map(len, COMMAND_FLAGS.values())) == 16
    for flag in foreign:
        code, rep, err = run_cli(capsys, argv + [flag, str(FLAG_VALUES[flag])])
        assert code == 1 and rep is None
        assert err.startswith("error:") and flag in err
    for flag in foreign:
        monkeypatch.setenv(env_name(flag), "abc")
    code, rep, _ = run_cli(capsys, argv + ["--verbose"])
    assert code == 0 and rep["command"] == command

    for flag in own:
        monkeypatch.setenv(env_name(flag), "abc")
        code, rep, err = run_cli(capsys, argv)
        assert code == 1 and rep is None and env_name(flag) in err
        monkeypatch.delenv(env_name(flag))

    # each own flag and its variable reach the handler; the flag wins
    seen = []

    def handler(args):
        seen.append(vars(args))
        return {"timings": {}}

    monkeypatch.setitem(cli._HANDLERS, command, handler)
    for flag in own:
        dest = flag[2:].replace("-", "_")
        value = FLAG_VALUES[flag]
        monkeypatch.setenv(env_name(flag), str(value))
        assert run_cli(capsys, argv)[0] == 0
        assert seen[-1][dest] == value
        assert run_cli(capsys, argv + [flag, str(2 * value)])[0] == 0
        assert seen[-1][dest] == 2 * value


RANGE_ENDS = [end for k in (2, 3, 4)
              for end in (ising_ly_range(k).lo, ising_ly_range(k).hi)]
betas = st.one_of(st.floats(-1.2, 1.2), st.sampled_from(RANGE_ENDS))


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.one_of(st.tuples(st.just("hypergraph"), st.integers(2, 9)),
                       st.tuples(st.just("regular"),
                                 st.sampled_from([4, 6, 8, 10]))),
       beta_from=betas, beta_to=betas, steps=st.integers(1, 5))
def test_sweep_in_range_matches_range_check(capsys, tmp_path, seed, shape,
                                            beta_from, beta_to, steps):
    kind, n = shape
    # no residual check: near beta = -1 the roots of a 9-vertex host can
    # miss 1e-8, and the rows are read for their range verdicts only
    grid = [f"--beta-from={beta_from!r}", f"--beta-to={beta_to!r}",
            "--steps", str(steps), "--tol-residual", "1e300"]
    if kind == "regular":
        g = random_regular_graph(random.Random(seed), n, 3, 0.5)
        argv = ["sweep", "--random-regular", f"{n},3", "--seed", str(seed)]
    else:
        g = random_connected_hypergraph(random.Random(seed), n, 4, 4,
                                        activity="mixed")
        path = tmp_path / "host.json"
        path.write_text(json.dumps(hypergraph_to_doc(g)))
        argv = ["sweep", str(path)]
    code, rep, _ = run_cli(capsys, argv + grid)
    assert code == 0
    for row in rep["result"]["rows"]:
        want = check_activity_ranges(with_uniform_beta(g, row["beta"]))
        assert row["in_range"] is want.all_pass


@pytest.mark.parametrize("command", ["zeros", "tight-example", "sweep"])
@pytest.mark.parametrize("flag", ["--tol-circle", "--tol-residual"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_tolerance_not_finite_or_negative_exit_one(capsys, write_doc,
                                                   monkeypatch, command, flag,
                                                   value):
    # a NaN tolerance switched its check off (zeros certified with any
    # residual), and NaN or a negative one read every row off the circle
    argv = command_argv(command, write_doc(K2_DOC))
    code, rep, err = run_cli(capsys, argv + [flag, value])
    assert code == 1 and rep is None
    assert err.startswith("error:") and flag in err
    monkeypatch.setenv(env_name(flag), value)
    code, rep, err = run_cli(capsys, argv)
    assert code == 1 and rep is None and env_name(flag) in err
    assert run_cli(capsys, argv + [flag, str(FLAG_VALUES[flag])])[0] == 0


def test_parser_built_once_reads_variables_per_call(capsys, write_doc,
                                                    monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []

    def handler(args):
        seen.append(args.m_cap)
        return {"timings": {}}

    monkeypatch.setitem(cli._HANDLERS, "approx", handler)
    argv = command_argv("approx", write_doc(K2_DOC))
    for cap in ("3", "5"):
        monkeypatch.setenv("HYPERISING_M_CAP", cap)
        assert run_cli(capsys, argv)[0] == 0
    assert seen == [3, 5]


CAP_FLAGS = [(command, flag)
             for command, flags in sorted(COMMAND_FLAGS.items())
             for flag in flags if flag.endswith("-cap")]
R10_DOC = hypergraph_to_doc(random_regular_graph(random.Random(3), 10, 3, 0.3))


@pytest.mark.parametrize("command,flag", CAP_FLAGS)
def test_negative_cap_exit_one(capsys, write_doc, monkeypatch, command, flag):
    # a negative cap was refused as if the request were too large (exit 2,
    # "above the cap -1"); it is a bad flag value
    argv = command_argv(command, write_doc(K2_DOC))
    code, rep, err = run_cli(capsys, argv + [flag, "-1"])
    assert code == 1 and rep is None
    assert err.startswith("error:") and flag in err
    monkeypatch.setenv(env_name(flag), "-1")
    code, rep, err = run_cli(capsys, argv)
    assert code == 1 and rep is None and env_name(flag) in err
    assert run_cli(capsys, argv + [flag, str(FLAG_VALUES[flag])])[0] == 0


@pytest.mark.parametrize("argv,doc,cap", [
    (["enumerate", "--t", "1"], R10_DOC, 9),
    (["coeffs", "--m", "1"], R10_DOC, 3),
    # the 2-vertex host's half-depth tables stop at size 1
    (["approx", "--lambda", "0.5", "--epsilon", "0.1"], K2_DOC, 1),
])
def test_memory_cap_counts_singletons(capsys, write_doc, argv, doc, cap):
    # the cap was first checked at size 2, so requests that store only
    # the n singletons ran past it
    call = [argv[0], write_doc(doc), *argv[1:], "--memory-cap"]
    code, rep, err = run_cli(capsys, call + [str(cap)])
    assert code == 2 and rep is None
    assert err.startswith("refused:") and "at size 1" in err
    code, rep, _ = run_cli(capsys, call + [str(doc["n"])])
    assert code == 0 and rep["parameters"]["memory_cap"] == doc["n"]


def test_cli_defaults_are_the_library_constants(capsys, write_doc,
                                                monkeypatch):
    # each default has one home, in the module that applies it
    homes = {"--m-cap": taylor.DEFAULT_ORDER_CAP,
             "--memory-cap": subgraphs.DEFAULT_SET_CAP,
             "--oracle-cap": oracle.DEFAULT_VERTEX_CAP,
             "--tol-circle": leeyang.DEFAULT_CIRCLE_TOL,
             "--tol-residual": oracle.DEFAULT_RESIDUAL_TOL}
    for flag, value in homes.items():
        assert cli._GLOBAL_FLAGS[flag][1] is value, flag
    assert leeyang.DEFAULT_RESIDUAL_TOL is oracle.DEFAULT_RESIDUAL_TOL
    seen = {}

    def handler(args):
        seen.update(vars(args))
        return {"timings": {}}

    for command, flags in COMMAND_FLAGS.items():
        for flag in flags:
            monkeypatch.delenv(env_name(flag), raising=False)
        monkeypatch.setitem(cli._HANDLERS, command, handler)
        argv = command_argv(command, write_doc(K2_DOC))
        assert run_cli(capsys, argv)[0] == 0
        for flag in flags:
            if flag in homes:
                assert seen[flag[2:].replace("-", "_")] == homes[flag], flag


def strict_json(text: str):
    """Parse text as JSON, refusing NaN and infinities."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_reports_are_strict_json(capsys, write_doc, command):
    code = main(command_argv(command, write_doc(K2_DOC)))
    assert code == 0
    assert strict_json(capsys.readouterr().out)["command"] == command


def test_approx_on_a_zero_writes_null_log(capsys, write_doc):
    # Z = (1 + 2 lam)(1 + lam / 2) vanishes at lam = -1/2, so log Z has
    # real part -inf
    path = write_doc({"n": 2, "edges": [{"v": [0, 1], "beta": 1.25}]})
    code = main(["approx", path, "--lambda", "-0.5", "--epsilon", "0.1"])
    assert code == 0
    result = strict_json(capsys.readouterr().out)["result"]
    assert result["log_z_estimate"] == [None, 0.0]
    assert result["z_estimate"] == [0.0, 0.0]


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "{path}", "--t", "0"], "--t must be >= 1"),
    (["coeffs", "{path}", "--m", "0"], "--m must be >= 1"),
    (["sweep", "{path}", "--random-regular", "8,3", "--beta-from", "0",
      "--beta-to", "0.5"], "provide an input file or --random-regular"),
    (["sweep", "--beta-from", "0", "--beta-to", "0.5"],
     "provide an input file or --random-regular"),
    (["sweep", "{path}", "--beta-from", "0", "--beta-to", "0.5",
      "--steps", "0"], "--steps must be >= 1"),
    (["sweep", "--random-regular", "8", "--beta-from", "0",
      "--beta-to", "0.5"], "--random-regular expects N,DEGREE"),
])
def test_bad_command_values_exit_one(capsys, write_doc, argv, message):
    path = write_doc(K2_DOC)
    code, rep, err = run_cli(capsys, [a.format(path=path) for a in argv])
    assert code == 1 and rep is None
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_input_that_is_not_json_exit_one(capsys, tmp_path):
    path = tmp_path / "host.json"
    path.write_text("{not json")
    code, rep, err = run_cli(capsys, ["zeros", str(path)])
    assert code == 1 and rep is None
    assert err.startswith(f"error: input {str(path)!r} is not valid JSON")


def test_empty_host_power_sums_and_estimate(capsys, write_doc):
    # no label sets: every power sum and elementary function is 0, Z = 1
    path = write_doc({"n": 0, "edges": []})
    code, rep, _ = run_cli(capsys, ["coeffs", path, "--m", "3"])
    assert code == 0
    result = rep["result"]
    assert result["power_sums"] == result["elementary"] == [[0, 0]] * 3
    assert result["coefficients"] == [[1, 0]] + [[0, 0]] * 3
    for lam in ("0.5", "-2,1"):
        code, rep, _ = run_cli(capsys, ["approx", path, f"--lambda={lam}",
                                        "--epsilon", "0.1"])
        assert code == 0
        assert rep["result"]["z_estimate"] == [1, 0]
        assert rep["result"]["evaluation"] == "polynomial"
