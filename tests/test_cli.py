import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from extgevrey import assocfn, cli, conjugate, lambertw, sequences
from extgevrey.sequences import SequenceParams


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_grid_parsing():
    g = cli.parse_grid("1:100:8")
    assert g[0] == pytest.approx(1.0)
    assert g[-1] == pytest.approx(100.0)
    assert g.size == 17
    lin = cli.parse_grid("0:10:11", linear=True)
    assert np.array_equal(lin, np.linspace(0, 10, 11))
    zero = cli.parse_grid("0:700:8")
    assert zero[0] == 0.0 and zero[-1] == pytest.approx(700.0)


@pytest.mark.parametrize("spec", ["1:2", "a:b:c", "5:1:8", "1:100:2", "-5:-1:8"])
def test_grid_parse_errors(spec):
    with pytest.raises(cli.UsageError):
        cli.parse_grid(spec)


@pytest.mark.parametrize("spec, linear", [("1:1e300:1e13", False), ("0:1:1e15", True),
                                          ("0:1:inf", True), ("1:10:nan", False),
                                          ("1:inf:8", False)])
def test_grid_past_the_point_cap_is_refused_at_once(spec, linear):
    # about 1e15 points: the spec is refused before anything is allocated
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(cli.UsageError):
            cli.parse_grid(spec, linear=linear)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2 ** 20


def test_grid_point_cap_bounds_the_count_asked_for(monkeypatch):
    # a log grid asks for points per decade times decades, plus its endpoint
    monkeypatch.setattr(cli, "GRID_MAX_POINTS", 1000)
    assert cli.parse_grid("0:1:1000", linear=True).size == 1000
    assert cli.parse_grid("1:1e10:100").size == 1001
    with pytest.raises(cli.UsageError):
        cli.parse_grid("0:1:1001", linear=True)
    with pytest.raises(cli.UsageError):
        cli.parse_grid("1:1e10:101")


def test_huge_grid_exits_2(capsys):
    code, _, err = run_cli(["assocfn", "--grid", "1:1e300:1e13"], capsys)
    assert code == 2 and "more than" in err


def test_counting_past_its_table_cap_exits_3(capsys):
    # sigma = 1.05: the sup's maximiser stays near p = 1e7, below 2**53, but
    # the counting sum would need quotients past its 2**22 table cap
    code, _, err = run_cli(["assocfn", "--tau", "1", "--sigma", "1.05", "--h", "1",
                            "--grid", "1:1e18:4"], capsys)
    assert code == 3 and "counting sum" in err and "sigma=1.05" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, column", [("sequence", "log M_p"), ("quotients", "log m_p")])
def test_tables_past_the_float_range_exit_3(command, column, capsys):
    # tau 35^200 ln 35 passes the largest float: no inf or nan rows
    code, out, err = run_cli([command, "--sigma", "200", "--pmax", "40"], capsys)
    assert code == 3 and out == ""
    assert err == (f"numerical failure: {column} of the extended_gevrey sequence leaves the floats "
                   f"at p = 35: tau=1.0, sigma=200.0\n")


def test_lambertw_csv(capsys):
    code, out, _ = run_cli(["lambertw", "--grid", "1:1e4:4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].strip() == "x,w,residual"
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)
    assert float(first[1]) == pytest.approx(0.5671432904097838)


def test_phi_includes_anchor_row(capsys):
    code, out, _ = run_cli(["phi", "--sigma", "2", "--grid", "0:100:32",
                            "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    by_t = {r["t"]: r["phi_sigma"] for r in rows}
    assert 0.0 in by_t and by_t[0.0] == 0.0
    e = 2.718281828459045
    assert by_t[e] == pytest.approx(e * e, rel=1e-14)


def test_phi_rows_are_sorted_and_distinct(capsys):
    # the grid holds both anchors 0 and e already; each must appear once
    code, out, _ = run_cli(["phi", "--grid", "0:2.718281828459045:5", "--linear",
                            "--format", "json"], capsys)
    assert code == 0
    t = [r["t"] for r in json.loads(out)]
    assert t == np.linspace(0.0, math.e, 5).tolist()


@pytest.mark.parametrize("fmt, want", [("csv", "t,phi_sigma\r\n"), ("json", "[]\n")])
def test_phi_without_a_point_t_ge_0_is_a_header_only_table(fmt, want, capsys):
    code, out, _ = run_cli(["phi", "--grid=-5:-1:8", "--linear", "--format", fmt], capsys)
    assert (code, out) == (0, want)


@pytest.mark.parametrize("argv, message", [
    (["sequence", "--tau", "inf"], "tau must be finite, got inf"),
    (["quotients", "--sigma", "inf"], "sigma must be finite, got inf"),
    (["sequence", "--kind", "gevrey", "--t", "inf"], "gevrey index must be finite, got inf"),
    (["verify", "--tau", "inf"], "tau must be finite, got inf"),
    (["assocfn", "--sigma", "inf"], "sigma must be finite, got inf"),
    (["phi", "--sigma", "inf"], "sigma must be finite, got inf"),
    (["conjugate", "--sigma", "inf"], "finite sigma > 1, got sigma=inf")])
def test_infinite_parameters_exit_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "") and message in err


def test_assocfn_includes_both_methods(capsys):
    code, out, _ = run_cli(["assocfn", "--grid", "1:1e6:4"], capsys)
    assert code == 0
    header = out.splitlines()[0].strip().split(",")
    assert header == ["k", "T_sup", "T_counting", "argmax_p"]
    for line in out.strip().splitlines()[1:]:
        _, a, b, _ = line.split(",")
        assert float(a) == pytest.approx(float(b), rel=1e-9, abs=1e-9)


def test_assocfn_h_not_one_drops_counting(capsys):
    code, out, _ = run_cli(["assocfn", "--h", "2", "--grid", "1:1e4:4"], capsys)
    assert code == 0
    assert out.splitlines()[0].strip().split(",") == ["k", "T_sup", "argmax_p"]


def test_sequence_and_quotients(capsys):
    code, out, _ = run_cli(["sequence", "--pmax", "10", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"p": 1, "log_M": 0.0}
    code, out, _ = run_cli(["quotients", "--pmax", "10", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["p"] == 1


def test_conjugate_table_output(capsys):
    code, out, _ = run_cli(["conjugate", "--grid", "0:50:4", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    stars = [r["phi_star"] for r in rows]
    assert stars == sorted(stars)


def test_verify_subset_json(capsys):
    code, out, _ = run_cli(["verify", "--only", "w3,counting-floor"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert set(doc["claims"]) == {"w3", "counting-floor"}


def test_verify_is_deterministic(capsys):
    args = ["verify", "--only", "w3,lemma-quotient-bounds,sup-vs-counting"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


_VERIFY_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify_default.json"


def _close(a, b, rtol, atol):
    """Same JSON structure; numbers within atol + rtol * the larger magnitude."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rtol, atol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rtol, atol) for x, y in zip(a, b))
    return False


def test_default_verify_matches_the_recorded_report(capsys):
    ref = json.loads(_VERIFY_REFERENCE.read_text())
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert _close(doc, ref["report"], ref["tolerance"]["rtol"], ref["tolerance"]["atol"])


def test_verify_m2_classical_optin_fails(capsys):
    code, out, err = run_cli(["verify", "--only", "m2-classical"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["claims"]["m2-classical"]["holds"] is False


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(["verify", "--only", "nonsense"], capsys)
    assert code == 2
    assert "unknown claims" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["lambertw", "--grid", "5:1:8"], capsys)
    assert code == 2


def test_assocfn_maximiser_past_2_53_exits_3(capsys):
    code, _, err = run_cli(["assocfn", "--tau", "1", "--sigma", "1.01", "--h", "1",
                            "--grid", "1:2.6881171418161356e43:4"], capsys)
    assert code == 3
    assert "2**53" in err


def test_output_file_respects_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EXTGEVREY_OUTDIR", str(tmp_path))
    code, out, _ = run_cli(["lambertw", "--grid", "1:10:4",
                            "--output", "w.csv"], capsys)
    assert code == 0
    assert out == ""
    text = (tmp_path / "w.csv").read_text()
    assert text.startswith("x,w,residual")


# -- table output: the column-wise emit against the per-cell serializer it replaced --

def _emit_per_cell(rows, header, fmt):
    """The per-cell `emit`, `_cell` and `_jsonable` the CLI used to have, returning
    the text instead of writing it. An oracle only."""
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        text = "\r\n".join(lines) + "\r\n"
    elif fmt == "json":
        text = json.dumps([dict(zip(header, [_jsonable(v) for v in row])) for row in rows],
                          sort_keys=True, indent=2) + "\n"
    else:
        widths = [max(len(h), 24) for h in header]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            lines.append("  ".join(_cell(v).ljust(w) for v, w in zip(row, widths)))
        text = "\n".join(lines) + "\n"
    return text


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return cli.FMT % float(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


_FORMATS = ["csv", "json", "text"]
_EDGE_FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1.5, 1.0 / 3.0])
_TABLES = {
    "float64": ([_EDGE_FLOATS, _EDGE_FLOATS[::-1].copy()], ["a", "a_long_header_past_24_chars"]),
    "int64": ([np.array([0, 2 ** 62, -7, 1], dtype=np.int64), np.array([0.5, np.nan, 2.0, -0.0])],
              ["p", "value"]),
    "python floats": ([[0.0, 1e-300, 2.5, float("nan")], [float("inf"), -0.0, 1e308, 3.0]],
                      ["x", "w"]),
    "python ints": ([[0, 2 ** 70, -(2 ** 64)], [1, 2, 3]], ["big", "small"]),
    "bool and str": ([np.array([True, False, True]), ["u", "v w", ""]], ["ok", "name"]),
    "empty": ([np.array([]), np.array([], dtype=np.int64), []], ["k", "T", "p"]),
}


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("table", list(_TABLES))
def test_emit_matches_the_per_cell_serializer(table, fmt, capsys):
    columns, header = _TABLES[table]
    cli.emit(columns, header, fmt, None)
    assert capsys.readouterr().out == _emit_per_cell(list(zip(*columns)), header, fmt)


def _assocfn_columns(grid, h):
    params = SequenceParams(1.0, 2.0)
    k = cli.parse_grid(grid)
    k = k[k > 0]
    T, argmax = assocfn.assoc_fn_sup_grid(params, h, k)
    if h == 1.0:
        return [k, T, assocfn.assoc_fn_counting_grid(params, k)[0], argmax], \
            ["k", "T_sup", "T_counting", "argmax_p"]
    return [k, T, argmax], ["k", "T_sup", "argmax_p"]


def _lambertw_columns():
    evs = [lambertw.evaluate_w(float(x)) for x in cli.parse_grid("0:1e3:4")]
    return [[e.x for e in evs], [e.w for e in evs], [e.residual for e in evs]], ["x", "w", "residual"]


def _phi_columns():
    t = np.unique(np.append(cli.parse_grid("0:10:8"), math.e))
    return [t, conjugate.phi_sigma(2.0, t)], ["t", "phi_sigma"]


def _conjugate_columns():
    y = cli.parse_grid("0:50:4")
    phi_star, t_star = conjugate.phi_sigma_conjugate(2.0, y)
    return [y, t_star, phi_star], ["y", "t_star", "phi_star"]


def _sequence_columns(quotients, seq=sequences.extended_gevrey(SequenceParams(1.0, 2.0))):
    p = sequences.default_p_grid(300)
    if quotients:
        return [p, seq.log_m(p)], ["p", "log_m"]
    return [p, seq.log_M(p)], ["p", "log_M"]


_COMMANDS = {
    "lambertw": (["lambertw", "--grid", "0:1e3:4"], _lambertw_columns),
    "sequence": (["sequence", "--pmax", "300"], lambda: _sequence_columns(False)),
    "quotients": (["quotients", "--pmax", "300"], lambda: _sequence_columns(True)),
    "sequence gevrey": (["sequence", "--pmax", "300", "--kind", "gevrey", "--t", "2"],
                        lambda: _sequence_columns(False, sequences.gevrey(2.0))),
    "quotients gevrey": (["quotients", "--pmax", "300", "--kind", "gevrey", "--t", "2"],
                         lambda: _sequence_columns(True, sequences.gevrey(2.0))),
    "assocfn": (["assocfn", "--grid", "1:1e8:8"], lambda: _assocfn_columns("1:1e8:8", 1.0)),
    "assocfn h=2": (["assocfn", "--h", "2", "--grid", "1:1e8:8"],
                    lambda: _assocfn_columns("1:1e8:8", 2.0)),
    "phi": (["phi", "--grid", "0:10:8"], _phi_columns),
    "conjugate": (["conjugate", "--grid", "0:50:4"], _conjugate_columns),
}


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_table_commands_match_the_per_cell_serializer(command, fmt, capsys):
    argv, columns = _COMMANDS[command]
    code, out, _ = run_cli(argv + ["--format", fmt], capsys)
    cols, header = columns()
    assert code == 0
    assert out == _emit_per_cell(list(zip(*cols)), header, fmt)


# -- verify past a claim that raises --------------------------------------------

def test_verify_records_a_claim_that_raises_and_runs_the_rest(capsys):
    # at tau = 0.2, h = 1e6 T_h(k) peaks past p = 2**53 for every k of the sandwich grid
    code, out, err = run_cli(["verify", "--tau", "0.2", "--h", "1e6"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert set(doc["claims"]) == set(cli.CLAIMS) and len(cli.CLAIMS) == 21
    errored = {n for n, c in doc["claims"].items() if "error" in c}
    assert errored == {"sandwich", "t-phi-equivalence"}
    for name in errored:
        claim = doc["claims"][name]
        assert claim["holds"] is False and "details" not in claim and "2**53" in claim["error"]
        assert name in doc["failed_claims"]
    assert doc["passed"] is False and "numerical failure in sandwich" in err


def test_verify_text_marks_a_claim_that_raises(capsys):
    code, out, _ = run_cli(["verify", "--tau", "0.2", "--h", "1e6", "--format", "text",
                            "--only", "w3,sandwich"], capsys)
    assert code == 3
    assert out.splitlines() == ["PASS  w3", "ERROR  sandwich", "failed: sandwich"]


@pytest.mark.parametrize("argv", [["--h", "0"], ["--h", "inf"], ["--sigma", "1"], ["--tau", "-1"]])
def test_verify_checks_its_parameters_before_any_claim(argv, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(cli.CLAIMS, "w3", lambda a: ran.append(a) or (True, {}))
    code, out, err = run_cli(["verify", "--only", "w3"] + argv, capsys)
    assert code == 2 and out == "" and ran == []
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [(["--Q", "1"], "--Q must be an integer >= 2, got 1"),
                                           (["--Q", "-4"], "--Q must be an integer >= 2, got -4"),
                                           (["--s", "0.5"], "--s must be finite and > 1, got 0.5"),
                                           (["--s", "1"], "--s must be finite and > 1, got 1.0"),
                                           (["--s", "nan"], "--s must be finite and > 1, got nan"),
                                           (["--s", "inf"], "--s must be finite and > 1, got inf")])
def test_verify_checks_q_and_s_before_any_claim(argv, message, capsys, monkeypatch):
    ran = []
    for name in cli.CLAIMS:
        monkeypatch.setitem(cli.CLAIMS, name, lambda a: ran.append(a) or (True, {}))
    code, out, err = run_cli(["verify"] + argv, capsys)
    assert code == 2 and out == "" and ran == []
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv, only", [(["--Q", "1"], "w3,corollary"),
                                        (["--s", "0.5"], "w3,liminf"),
                                        (["--s", "nan", "--Q", "0"], "w3")])
def test_verify_skips_the_q_and_s_checks_of_claims_it_does_not_run(argv, only, capsys, monkeypatch):
    ran = []
    for name in cli.CLAIMS:
        monkeypatch.setitem(cli.CLAIMS, name, lambda a, name=name: ran.append(name) or (True, {}))
    code, out, _ = run_cli(["verify", "--only", only] + argv, capsys)
    assert code == 0 and ran == only.split(",")
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [["verify", "--pmax", "1000000000000"],
                                  ["verify", "--pmax", "10000000000"],
                                  ["verify", "--pmax", "5"],
                                  ["verify", "--only", "m1", "--pmax", "2"],
                                  ["sequence", "--pmax", "0"],
                                  ["quotients", "--pmax", "-3"],
                                  ["sequence", "--pmax", str(sequences.P_MAX_CAP + 1)]])
def test_pmax_out_of_range_exits_2_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "--pmax must lie in" in err
    assert peak < 2 ** 20


def test_verify_pmax_at_least_3_without_liminf(capsys):
    code, out, _ = run_cli(["verify", "--only", "m1", "--pmax", "3"], capsys)
    assert code == 0 and json.loads(out)["claims"]["m1"]["holds"] is True


def test_numerical_error_names_h_without_log_round_trip_digits(capsys):
    # exp(ln 1e6) = 999999.9999999995: the message shows 12 significant digits
    _, out, _ = run_cli(["verify", "--tau", "0.2", "--h", "1e6", "--only", "sandwich"], capsys)
    error = json.loads(out)["claims"]["sandwich"]["error"]
    assert "h=1000000," in error and "999999.99" not in error


def test_default_commands_leave_numpy_ma_unimported():
    """np.unique imports numpy.ma (about 16 ms) on its first call; the default
    verify pass and the sequence, quotients and phi tables dedupe sorted data
    without it."""
    code = ("import os, sys\n"
            "from extgevrey import cli\n"
            "for argv in (['verify'], ['sequence', '--pmax', '300'],"
            " ['quotients', '--pmax', '300'], ['phi']):\n"
            "    assert cli.main(argv + ['--output', os.devnull]) == 0, argv\n"
            "print('numpy.ma' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_default_verify_leaves_dataclasses_unimported():
    """Every record is a named tuple: the import and a default verify pass load
    no `dataclasses` (whose class generation costs about 1.5 ms a record)."""
    code = ("import os, sys\n"
            "from extgevrey import cli\n"
            "assert cli.main(['verify', '--output', os.devnull]) == 0\n"
            "print('dataclasses' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"



def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_the_shared_parser_carries_no_state_between_calls(capsys):
    """An in-process sequence of calls writes what fresh processes write."""
    argvs = [["verify", "--bogus"], ["verify", "--only", "m1", "--tau", "2"], ["verify"]]
    for argv in argvs:
        code, out, err = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "extgevrey.cli", *argv],
                               capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv

# -- verify off the default point: a full report, a documented exit code -------

# sigma = 200 and 800: 64^sigma and 3^sigma leave the floats
_LATTICE = [(0.05, 1.2, 1.0), (0.05, 6.0, 1e-6), (0.2, 1.01, 1e-6),
            (0.2, 1.05, 1e6), (1.0, 1.05, 1.0), (50.0, 1.05, 1e6),
            (1.0, 200.0, 1.0), (1.0, 800.0, 1.0)]


# where log M_p leaves the floats (35^200 does), the claims on the sequence report that error
_SEQUENCE_CLAIMS = {"lemma-quotient-bounds", "m1", "m2prime", "m2tilde", "m3prime", "m4",
                    "m4prime", "m5", "m0", "liminf"}


@pytest.mark.parametrize("tau, sigma, h", _LATTICE)
def test_verify_on_the_parameter_lattice_ends_in_a_full_report(tau, sigma, h):
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "extgevrey.cli", "verify",
            "--tau", repr(tau), "--sigma", repr(sigma), "--h", repr(h)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert res.returncode in (0, 1, 3)
    assert "Traceback" not in res.stderr
    doc = json.loads(res.stdout)
    assert set(doc["claims"]) == set(cli.CLAIMS)
    assert doc["parameters"]["tau"] == tau and doc["parameters"]["h"] == h
    assert doc["passed"] == (res.returncode == 0)
    if sigma == 200.0:
        for name in _SEQUENCE_CLAIMS:
            claim = doc["claims"][name]
            assert claim["holds"] is False and "leaves the floats at p = 3" in claim["error"], name


# -- the default report, pinned ----------------------------------------------------

_GOLDEN = Path(__file__).parent / "data" / "verify_default.json"


def _assert_matches_golden(got, want, path="$"):
    """Same keys, bools and strings; numbers within rtol 1e-12 and atol 1e-9, since
    another numpy may round the last ulp differently."""
    assert type(got) is type(want) or {type(got), type(want)} <= {int, float}, path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9), path
    else:
        assert got == want, path


def test_default_verify_report_matches_the_golden_file(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    _assert_matches_golden(json.loads(out), json.loads(_GOLDEN.read_text()))


@pytest.mark.parametrize("edit", ["H", "holds", "note"])
def test_the_golden_comparison_sees_a_changed_value(edit):
    want = json.loads(_GOLDEN.read_text())
    got = json.loads(_GOLDEN.read_text())
    claim = got["claims"]["ocena-norme"]["details"]
    if edit == "H":
        claim["fitted_constants"]["H1"] *= 1 + 1e-8
    elif edit == "holds":
        claim["holds"] = 1
    else:
        claim["notes"] += " "
    with pytest.raises(AssertionError):
        _assert_matches_golden(got, want)
