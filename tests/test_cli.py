import json
import time
import tracemalloc

import numpy as np
import pytest

from extgevrey import cli


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


@pytest.mark.parametrize("spec", ["1:2", "a:b:c", "5:1:8", "1:100:2"])
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
