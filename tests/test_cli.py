import functools
import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from extgevrey import assocfn, cli, conjugate, equivalence, lambertw, sequences
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


def test_linear_grid_needs_two_points():
    with pytest.raises(cli.UsageError, match="^linear grids need at least 2 points$"):
        cli.parse_grid("0:1:1", linear=True)


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


def test_two_processes_write_byte_identical_verify_json():
    outs = []
    for _ in range(2):
        res = subprocess.run([sys.executable, "-m", "extgevrey.cli", "verify",
                              "--only", "w3,lemma-quotient-bounds,counting-floor,ocena-norme"],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])["passed"] is True


def test_verify_writes_numpy_scalars_as_plain_json(capsys, monkeypatch):
    payload = {"flag": np.bool_(False), "n": np.int64(3), "x": np.float64(0.5)}
    monkeypatch.setitem(cli.CLAIMS, "w3", lambda a: (np.bool_(True), payload))
    code, out, _ = run_cli(["verify", "--only", "w3"], capsys)
    assert code == 0
    details = json.loads(out)["claims"]["w3"]["details"]
    assert details == {"flag": False, "n": 3, "x": 0.5}
    assert [type(v) for v in details.values()] == [bool, int, float]


def test_verify_counting_floor_names_the_first_point_that_differs(capsys, monkeypatch):
    direct = assocfn.counting_fn_direct

    def off_by_one(params, C, lam):
        counts = direct(params, C, lam)
        counts[1, 5] += 1
        return counts

    monkeypatch.setattr(assocfn, "counting_fn_direct", off_by_one)
    code, out, _ = run_cli(["verify", "--only", "counting-floor"], capsys)
    assert code == 1
    assert json.loads(out)["claims"]["counting-floor"] == {
        "holds": False, "details": {"C": math.e, "lambda": float(np.logspace(0, 8, 120)[5])}}


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


def test_output_file_takes_a_relative_path_from_the_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["lambertw", "--grid", "1:10:4", "--output", "w.csv"], capsys)
    assert code == 0
    assert out == ""
    assert (tmp_path / "w.csv").read_text().startswith("x,w,residual")


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


# each once ended in a traceback or a report holding a NaN; now the claim named errs, naming the parameter
@pytest.mark.parametrize("argv, claim, names", [
    (["--tau", "7.5", "--sigma", "2", "--h", "1e-300"], "t-phi-equivalence", "h=1e-300"),  # T_h = 0 on the k grid
    (["--tau", "1e6", "--sigma", "1.01", "--h", "2", "--s", "1.0000001"], "corollary", "s=1.0000001"),  # phi_s(ln t) = inf
    (["--tau", "2", "--sigma", "1e4", "--h", "50"], "m2tilde", "sigma=10000.0"),    # 2^(sigma-1) = inf
    (["--tau", "1e-300", "--sigma", "2", "--h", "300", "--pmax", "300", "--Q", "100"],
     "integral-closed-form", "tau=1e-300"),     # expm1 of the closed form = inf
    (["--tau", "1e308", "--sigma", "2"], "m4", "2 tau leaves the positive floats (inf): tau=1e+308"),
    (["--tau", "5e-324", "--sigma", "2"], "matrix-equivalence",
     "0.5 tau leaves the positive floats (0.0): tau=5e-324"),
    (["--tau", "2", "--sigma", "1e20"], "m5", "sigma + 1 rounds to sigma: sigma=1e+20"),
    (["--tau", "1e-10", "--sigma", "1.001", "--h", "1e-300"], "sandwich",
     "E underflows to 0 at every k > 1 of the grid: tau=1e-10, sigma=1.001, h=1e-300"),
    (["--tau", "1e-308", "--sigma", "2", "--h", "1e-300", "--pmax", "300"], "sandwich",
     "ln x = inf of the root p* leaves the floats, c = inf: tau=1e-308"),     # ln h / tau = -inf
    (["--tau", "2", "--sigma", "1e300"], "m5", "sigma=1e+300"),
    # E is 0 or subnormal at every k of the grid, so T/E overflows
    (["--tau", "4.933855643509777e-67", "--sigma", "1.2030439960144812", "--h", "0.010379461766728923"],
     "sandwich", "below the normal floats or T/E leaves them: tau=4.933855643509777e-67"),
    (["--tau", "3.247556628059514e-258", "--sigma", "1.801406858831939", "--h", "0.004679252925040047",
      "--pmax", "300"], "sandwich", "sigma=1.801406858831939, h=0.004679252925040047"),
    (["--tau", "5.383299083022838e-175", "--sigma", "1.5494689205900976", "--h", "0.0016736971937174603",
      "--pmax", "1000"], "sandwich", "tau=5.383299083022838e-175, sigma=1.5494689205900976"),
])
def test_verify_past_the_floats_writes_a_full_strict_json_report(argv, claim, names, capsys):
    code, out, err = run_cli(["verify"] + argv, capsys)
    assert code in (1, 3) and "Traceback" not in err
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert set(doc["claims"]) == set(cli.CLAIMS)
    assert names in doc["claims"][claim]["error"]


def test_verify_writes_a_nan_in_a_report_as_an_error_not_as_json(capsys, monkeypatch):
    monkeypatch.setitem(cli.CLAIMS, "w3", lambda a: (True, {"value": np.float64(math.nan)}))
    monkeypatch.setitem(cli.CLAIMS, "w-identities", lambda a: (True, {"band": (1.0, math.inf)}))
    code, out, err = run_cli(["verify", "--only", "w3,w-identities,counting-floor"], capsys)
    assert code == 3
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert doc["claims"]["w3"] == {"holds": False, "error": "the report's value = nan is not a finite number"}
    assert doc["claims"]["w-identities"] == {"holds": False,
                                             "error": "the report's band = inf is not a finite number"}
    assert doc["claims"]["counting-floor"]["holds"] is True
    assert doc["failed_claims"] == ["w3", "w-identities"] and "numerical failure in w3" in err


def test_verify_report_is_what_verify_writes(capsys, monkeypatch):
    payload = {"flag": np.bool_(True), "pair": (np.int64(2), 0.5), "nested": {"x": np.float32(0.25)}}
    monkeypatch.setitem(cli.CLAIMS, "w3", lambda a: (np.bool_(True), payload))
    only = "w3,counting-floor,m1"
    report, code = cli.verify_report(tau=2.0, pmax=300, only=only)
    assert (code, report["passed"]) == (0, True) and list(report["claims"]) == only.split(",")
    assert report["claims"]["w3"]["details"] == {"flag": True, "pair": [2, 0.5], "nested": {"x": 0.25}}
    out_code, out, _ = run_cli(["verify", "--tau", "2", "--pmax", "300", "--only", only], capsys)
    assert out_code == code and json.loads(out) == report

    def leaves(v):
        if isinstance(v, dict):
            return [x for y in v.values() for x in leaves(y)]
        return [x for y in v for x in leaves(y)] if isinstance(v, list) else [v]
    assert {type(v) for v in leaves(report)} <= {bool, int, float, str, type(None)}


def test_the_verify_grids_are_built_once_read_only_and_equal_a_fresh_build():
    t = np.logspace(2, 14, 768)
    top = t >= math.sqrt(t.min() * t.max())
    exp_u = np.exp(np.linspace(math.log(1e2), math.log(1e14), 1200))
    fresh = {
        "k": (equivalence.default_k_grid(), np.logspace(math.log10(math.e), 12.0, 740)),
        "corollary t": (equivalence._COROLLARY_T, np.logspace(3, 12, 600)),
        "axiom t": (conjugate._AXIOM_T, t),
        "axiom top": (conjugate._AXIOM_TOP, top),
        "axiom e^u": (conjugate._AXIOM_EXP_U, exp_u),
        "axiom points": (conjugate._AXIOM_POINTS, np.concatenate((t, 2.0 * t[top], exp_u))),
        "w3": (cli._W3_X, np.logspace(math.log10(math.e), 15, 200)),
        "w identities": (cli._IDENTITY_X, np.logspace(0.5, 10, 100)),
        "floor C": (cli._FLOOR_C, np.array([[1.0], [math.e], [math.e ** 2]])),
        "floor lambda": (cli._FLOOR_LAMBDA, np.logspace(0, 8, 120)),
        "sup vs counting": (cli._SUP_COUNTING_K, np.logspace(0, 10, 500)),
        "integral": (cli._INTEGRAL_K, np.logspace(0.5, 8, 25)),
    }
    for args in ((10_000,), (1000,), (300,), (100,), (10_000, 30)):
        fresh[f"p {args}"] = (sequences.default_p_grid(*args), sequences.default_p_grid.__wrapped__(*args))
    for t_max in (4000.0, 8000.0, 4000.0 * 2 ** 20):
        fresh[f"window {t_max:g}"] = (equivalence._slope_window(t_max),
                                      np.logspace(0.0, math.log10(t_max), 1200))
    for name, (got, want) in fresh.items():
        assert not got.flags.writeable, name
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0
    # the caches hand out one array per argument
    assert sequences.default_p_grid(1000) is sequences.default_p_grid(1000)
    assert equivalence._slope_window(4000.0) is equivalence._slope_window(4000.0)


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
                                           (["--s", "0.5"], "--s must exceed 1, got 0.5"),
                                           (["--s", "1"], "--s must exceed 1, got 1.0"),
                                           (["--s", "nan"], "--s must exceed 1, got nan"),
                                           (["--s", "inf"], "--s must be finite, got inf"),
                                           (["--Q", "1000000"], "--Q * --pmax must be at most 1000000000, "
                                            "the largest sequence index, got --Q=1000000, --pmax=10000")])
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
                                  ["verify", "--only", "m2-classical", "--pmax", "3"],
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


def test_verify_where_the_slope_band_has_no_lower_slope_exits_3(capsys):
    # at tau = 300, sigma = 1.01 phi_sigma passes the floats on the slope window, where
    # T(e^t)/phi_sigma(t) reads 0: the two claims on the band report it, the rest still run
    code, out, _ = run_cli(["verify", "--tau", "300", "--sigma", "1.01"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert set(doc["claims"]) == set(cli.CLAIMS)
    for name, tau in (("ocena-norme", 300.0), ("matrix-equivalence", 150.0)):
        assert doc["claims"][name]["error"] == (f"min T(e^t)/phi_sigma(t) on the slope window t <= 8000 is "
                                                f"0.0, so there is no H1 = 1/b: tau={tau}, sigma=1.01")


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

# sigma = 200 and 800, off the lattice of test_lattice.py (which runs its 75 points in
# process, and CI as subprocesses): 64^sigma and 3^sigma leave the floats
_OFF_LATTICE = [(1.0, 200.0, 1.0), (1.0, 800.0, 1.0)]


# where log M_p leaves the floats (35^200 does), the claims on the sequence report that error
_SEQUENCE_CLAIMS = {"lemma-quotient-bounds", "m1", "m2prime", "m2tilde", "m3prime", "m4",
                    "m4prime", "m5", "m0", "liminf"}


@pytest.mark.parametrize("tau, sigma, h", _OFF_LATTICE)
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
_BENCH_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify_default.json"


def _assert_matches_golden(got, want, rtol, atol, path="$"):
    """Same keys, bools and strings; numbers within rtol or atol."""
    assert type(got) is type(want) or {type(got), type(want)} <= {int, float}, path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_matches_golden(got[key], want[key], rtol, atol, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, rtol, atol, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=rtol, abs=atol), path
    else:
        assert got == want, path


@functools.cache
def _default_report():
    """One in-process default verify report, shared by the two golden-file tests."""
    report, code = cli.verify_report()
    assert code == 0
    return report


def test_default_verify_report_matches_the_golden_file():
    # this suite's pinned report to rtol 1e-12, since another numpy may round the last ulp differently
    _assert_matches_golden(_default_report(), json.loads(_GOLDEN.read_text()), 1e-12, 1e-9)


def test_default_verify_matches_the_recorded_report():
    # the benchmark's report to its own tolerance: strings exactly, the reservoir H of its grids among them
    bench = json.loads(_BENCH_GOLDEN.read_text())
    assert _default_report()["passed"] is True
    _assert_matches_golden(_default_report(), bench["report"], bench["tolerance"]["rtol"], bench["tolerance"]["atol"])


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
        _assert_matches_golden(got, want, 1e-12, 1e-9)
