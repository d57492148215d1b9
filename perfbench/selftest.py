"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps to the format the runner relies on.
2. A tiny run of every workload, traced and untraced, prints every
   declared metric with its unit, the documented per-workload names and
   failed_frac, and ends with a correct result line.
3. Deliberately corrupted outputs (a flipped verdict, a perturbed T, a
   wrong W, a wrong conjugate value or count) are counted as failed ops.
4. Run where the library source is missing, the runner exits non-zero
   without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def check_spec(spec):
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [d["name"] for k in ("workloads", "end_to_end", "per_layer") for d in spec[k]]
    expect(len(names) == len(set(names)) and all(name_re.match(n) for n in names),
           "BENCHMARK.json names are well formed and unique")
    expect(all(unit_re.match(d["unit"]) and d["better"] in ("higher", "lower")
               for k in ("end_to_end", "per_layer") for d in spec[k]),
           "BENCHMARK.json units and directions are well formed")
    expect(all(0 < d["bound"] <= 0.25 for d in spec["end_to_end"]),
           "end-to-end bounds lie in (0, 0.25]")
    setup = [d for d in spec["end_to_end"] if d["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(d["bound"] for d in spec["end_to_end"]),
           "setup_s is declared in seconds, lower is better, with the largest bound")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
           "every workload has a one-line why")


# names each workload must print besides the declared metrics
DOCUMENTED = {
    "verify": ["verify_s", "cli_verify_s"],
    "grid": ["grid_batch_s"],
    "scalar": ["scalar_calls_per_s", "scalar_p50_us", "scalar_p99_us"],
}


def tiny_runs(spec):
    for wl in ("verify", "grid", "scalar"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = f"{wl} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and bool(lines), f"{tag}: exits 0 with output")
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-3000:])
                continue
            result = json.loads(lines[-1])
            declared = spec["per_layer" if trace else "end_to_end"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result line has exactly the four keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: correct, nothing failed")
            metrics = result["metrics"]
            expect(set(metrics) == {d["name"] for d in declared}
                   and all(metrics[d["name"]]["unit"] == d["unit"]
                           and math.isfinite(metrics[d["name"]]["value"]) for d in declared),
                   f"{tag}: every declared metric, with its unit and a finite value")
            text = "\n".join(lines[:-1])
            shown = all(re.search(rf"^\s+{re.escape(d['name'])}\s+\S+ {re.escape(d['unit'])}\b",
                                  text, re.M) for d in declared)
            expect(shown, f"{tag}: every declared metric printed by name with its unit")
            names = ["failed_frac"] + ([] if trace else DOCUMENTED[wl])
            expect(all(re.search(rf"^\s+{n}\s+\S+ \S+", text, re.M) for n in names),
                   f"{tag}: prints {', '.join(names)}")
            if trace and wl == "verify":
                top = sorted((m for m in metrics if m.startswith("cli.claim.")),
                             key=lambda m: -metrics[m]["value"])[:2]
                expect(set(top) == {"cli.claim.matrix-equivalence.s", "cli.claim.ocena-norme.s"},
                       f"{tag}: matrix-equivalence and ocena-norme are the two largest claims")
            if trace and wl == "grid":
                selfs = [m for m in metrics if m.endswith(".self_s")]
                top = max(selfs, key=lambda m: metrics[m]["value"])
                expect(top == "kernels.assoc_sup_grid.self_s",
                       f"{tag}: the sup kernel has the largest self time (got {top})")


def corrupted(make, patch, rounds=1):
    """Failed ops of `rounds` rounds of workload `make()` (or of the
    workload `make` itself) with `patch` applied to the last round; `patch`
    returns a function that undoes it."""
    wl = make() if callable(make) else make
    loop = run.Loop(wl)
    undo = None
    try:
        for i in range(rounds):
            if i == rounds - 1:
                undo = patch()
            loop.round()
    finally:
        if undo:
            undo()
    return loop.failed, loop.attempted


def setattr_undo(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    return lambda: setattr(obj, name, old)


def setitem_undo(d, key, value):
    old = d[key]
    d[key] = value
    return lambda: d.__setitem__(key, old)


def corruption_checks():
    run.prepare_process()
    import extgevrey as E
    from extgevrey import cli
    import workloads as W

    out = os.path.join(run.OUTDIR, "selftest")
    os.makedirs(out, exist_ok=True)
    verify = lambda: W.Verify(7, True, out)
    grid = lambda: W.Grid(7, True, out)
    scalar = lambda: W.Scalar(7, True, out)

    for name, make in (("verify", verify), ("grid", grid), ("scalar", scalar)):
        failed, attempted = corrupted(make, lambda: None)
        expect(failed == 0 and attempted > 0, f"{name}: an unpatched round has no failed op")

    def flip_verdict():
        orig = cli.CLAIMS["w3"]
        return setitem_undo(cli.CLAIMS, "w3", lambda a: (False, orig(a)[1]))

    def perturb_detail():
        orig = cli.CLAIMS["sandwich"]

        def claim(a):
            holds, details = orig(a)
            return holds, dict(details, A1=details["A1"] * (1 + 1e-5))
        return setitem_undo(cli.CLAIMS, "sandwich", claim)

    failed, _ = corrupted(verify, flip_verdict)
    expect(failed == 1, "verify: a flipped verdict is a failed op")
    failed, _ = corrupted(verify, perturb_detail)
    expect(failed == 1, "verify: a detail perturbed by 1e-5 relative is a failed op")
    failed, _ = corrupted(verify, perturb_detail, rounds=2)
    expect(failed == 1, "verify: a second pass that differs from the first is a failed op")

    def perturb_T():
        orig = E.assoc_fn_sup_grid

        def sup(params, h, k):
            T, argmax = orig(params, h, k)
            return T * (1 + 1e-6), argmax
        return setattr_undo(E, "assoc_fn_sup_grid", sup)

    def perturb_W():
        orig = E.lambert_w0_grid
        return setattr_undo(E, "lambert_w0_grid", lambda x: orig(x) * (1 + 1e-8))

    def perturb_T_wide_head():
        orig = E.assoc_fn_sup_grid

        def sup(params, h, k):
            T, argmax = orig(params, h, k)
            return (T * (1 + 1e-6) if h != 1.0 else T), argmax
        return setattr_undo(E, "assoc_fn_sup_grid", sup)

    def wrong_maximiser_wide_head():
        orig = E.assoc_fn_sup_grid

        def sup(params, h, k):
            T, argmax = orig(params, h, k)
            if h == 1.0:
                return T, argmax
            # T consistent with the argmax returned, which is not the maximiser
            p = argmax + 1
            return W.sup_objective(params, h, k, p)[0], p
        return setattr_undo(E, "assoc_fn_sup_grid", sup)

    failed, attempted = corrupted(grid, perturb_T)
    expect(failed == attempted == 1, "grid: a T perturbed by 1e-6 relative is a failed op")
    failed, attempted = corrupted(grid, perturb_T_wide_head)
    expect(failed == attempted == 1,
           "grid: a T perturbed by 1e-6 relative at h != 1 only is a failed op")
    failed, attempted = corrupted(grid, wrong_maximiser_wide_head)
    expect(failed == attempted == 1,
           "grid: a wrong maximiser at h != 1, with T matching it, is a failed op")
    failed, attempted = corrupted(grid, perturb_W)
    expect(failed == attempted == 1, "grid: a W perturbed by 1e-8 relative is a failed op")

    def wrong_conjugate():
        orig = E.young_conjugate

        def conj(phi, y, **kw):
            v, t = orig(phi, y, **kw)
            return v + 1e-3, t
        return setattr_undo(E, "young_conjugate", conj)

    def shifted_maximiser():
        orig = E.young_conjugate
        from extgevrey.conjugate import phi_sigma

        def conj(phi, y, **kw):
            _, t = orig(phi, y, **kw)
            t *= 1.01       # v stays consistent with the t returned
            return max(y * t - phi_sigma(2.0, t), 0.0), t
        return setattr_undo(E, "young_conjugate", conj)

    def wrong_count():
        orig = E.counting_fn_floor
        return setattr_undo(E, "counting_fn_floor", lambda *a: orig(*a) + 1)

    def wrong_sup_argmax():
        orig = E.assoc_fn_sup

        def sup(params, h, k):
            r = orig(params, h, k)
            p = r.argmax_p + 1
            return type(r)(float(W.sup_objective(params, h, k, p)[0]), p, r.method)
        return setattr_undo(E, "assoc_fn_sup", sup)

    def raising_W():
        def w0(x):
            raise E.NumericalError("injected")
        return setattr_undo(E, "lambert_w0", w0)

    wl = scalar()

    def calls_of(kind, pred=lambda args: True):
        k = wl.kinds.index(kind)
        return sum(len(u) for u, ki in zip(wl.units, wl.unit_kind)
                   if ki == k and pred(u[0][1]))

    # at y <= 2 the maximiser is near 0 and a 1% shift moves the objective
    # by less than the tolerance
    for what, patch, n in (
            ("a wrong conjugate value", wrong_conjugate, calls_of("young_conjugate")),
            ("a shifted conjugate maximiser, value consistent with it", shifted_maximiser,
             calls_of("young_conjugate", lambda a: a[1] > 2.0)),
            ("a wrong count", wrong_count, calls_of("floor_direct_pair")),
            ("a wrong assoc_fn_sup maximiser, value consistent with it", wrong_sup_argmax,
             calls_of("assoc_fn_sup") + calls_of("sup_counting_pair")),
            ("a raising W", raising_W, calls_of("lambert_w0"))):
        failed, attempted = corrupted(wl, patch)
        expect(n > 0 and failed == n and attempted > n, f"scalar: {what} fails exactly its calls")


def bare_directory():
    bare = os.path.join(run.OUTDIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the library source: non-zero exit and no result line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    bare_directory()
    corruption_checks()
    tiny_runs(spec)
    print(f"selftest: {len(FAILURES)} failed" if FAILURES else "selftest: all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
