"""Benchmark of the extgevrey library and CLI, run from a source checkout.

    python3 perfbench/run.py --workload verify|grid|scalar --seed N \
        --seconds S --trace 0|1

Workloads are defined in workloads.py and metrics are declared in
BENCHMARK.json at the checkout root. With --trace 0 the run measures the
end-to-end metrics with tracing off; with --trace 1 it measures the same
loop untraced and then traced, and reports per-layer figures per round.

End-to-end times are scaled to one machine speed: a fixed pure-Python
reference loop runs between the rounds of the workload, and times are
multiplied by REF_MS over the reference time measured next to them. On a
shared host the speed of a CPU changes by up to 1.8x, from one second to
the next and for minutes at a time; the scaling takes most of that out.
Raw times are in the diagnostics. Per-layer times are raw.

The library is imported from ./src as shipped: no EXTGEVREY_* variable is
passed on, so the default (numpy, unless numba is installed) path runs,
and every process is held to one BLAS/OpenMP thread.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it give the same figures
under the names the workloads document, the environment and the
machine-speed reference. The full result, and the spans of a traced run,
are also written to .perfbench_out/ in the checkout.
"""

import argparse
import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")


def prepare_process():
    """One BLAS/OpenMP thread here and in every child (set before numpy is
    imported), no library knob, and the checkout's library first on the path.

    The process, and so every child, is held to one CPU. On a shared host
    each CPU changes speed on its own, so the reference loop measures the
    speed of the CPU the timed work runs on only if both run on the same.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("EXTGEVREY_")]:
        del os.environ[var]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, timeout=170):
    """Run a child Python to completion; returns (wall s, returncode, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def time_fresh_import():
    """Wall time from spawning a fresh interpreter until `import extgevrey`
    has finished inside it (the child's exit is not counted)."""
    code = "import extgevrey, sys; sys.stdout.write('ok\\n'); sys.stdout.flush(); sys.stdin.read()"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - t0
            proc.stdin.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    if line.strip() != "ok" or proc.returncode != 0:
        raise RuntimeError("fresh `import extgevrey` failed")
    return elapsed


# the reference loop: fixed pure-Python float and integer work on a small
# working set, so that it does not depend on what the caches hold
REF_FLOATS = [1.0 + i / 4_000 for i in range(4_000)]
# the time of one reference pass, in ms, at the machine speed all reported
# times are scaled to (about its fast-state time on a 2-vCPU x86-64 VM)
REF_MS = 2.0
# passes per reference reading; their median is the reading
REF_PASSES = 11


def _ref_pass():
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        for x in REF_FLOATS:
            acc += math.log(x) * x
    for i in range(12_000):
        acc += (i * i) % 7
    return (time.perf_counter() - t0) * 1e3


def ref_loop():
    """The machine-speed reference, in ms: the median of REF_PASSES passes
    of fixed work, so that a cold cache or an interrupt does not count."""
    return statistics.median(_ref_pass() for _ in range(REF_PASSES))


class Loop:
    """Closed-loop runner: rounds of `wl.units` until the time is up.

    The reference loop runs before the first round and after every round;
    the times of a round's calls are scaled by REF_MS over the mean of the
    reference times on either side of it, so that a machine that is slower
    for a while (a busy neighbour on a shared host) slows the reference
    with the calls. Raw times are kept for the diagnostics.

    Per round it keeps the scaled time of the calls and of each call kind.
    A child process is scaled in the same way by the reference times
    measured just before and after it (`timed_child`). Call latencies go into a uniform reservoir sample of at most RESERVOIR
    entries, so the memory the runner holds (part of peak RSS) does not
    grow with the number of calls a fast machine completes.
    """

    RESERVOIR = 1 << 16

    def __init__(self, wl):
        self.wl = wl
        self.rng = random.Random(wl.seed)
        self.reset_timing()
        self.attempted = 0
        self.failed = 0
        self._reported = False

    def reset_timing(self):
        self.lat_ns = array("q")
        self.calls = 0
        self.round_s = []           # scaled
        self.round_raw_s = []
        self.kind_s = []            # scaled, per round and call kind
        self.ref_ms = []

    def _sample(self, ns):
        self.calls += 1
        if len(self.lat_ns) < self.RESERVOIR:
            self.lat_ns.append(ns)
        else:
            j = self.rng.randrange(self.calls)
            if j < self.RESERVOIR:
                self.lat_ns[j] = ns

    def round(self):
        """One round, each unit checked after its calls; returns (raw ns
        per unit, raw ns per call)."""
        wl = self.wl
        unit_ns, call_ns = [], array("q")
        for unit in wl.units:
            results = []
            ns = 0
            try:
                for fn, args in unit:
                    fn = wl.resolve(fn)
                    t0 = time.perf_counter_ns()
                    r = fn(*args)
                    dt = time.perf_counter_ns() - t0
                    ns += dt
                    call_ns.append(dt)
                    results.append(r)
                ok = wl.check_unit(unit, results)
            except Exception:
                # a raising call is a failed op; report the first traceback
                if not self._reported:
                    traceback.print_exc()
                    self._reported = True
                ok = False
            unit_ns.append(ns)
            self.attempted += len(unit)
            self.failed += 0 if ok else len(unit)
        return unit_ns, call_ns

    def _account(self, unit_ns, call_ns, ref_before, ref_after):
        scale = 2.0 * REF_MS / (ref_before + ref_after) / 1e9
        raw = sum(unit_ns)
        self.round_raw_s.append(raw / 1e9)
        self.round_s.append(raw * scale)
        kind_s = [0.0] * len(self.wl.kinds)
        for k, ns in zip(self.wl.unit_kind, unit_ns):
            kind_s[k] += ns * scale
        self.kind_s.append(kind_s)
        for ns in call_ns:
            self._sample(round(ns * scale * 1e9))

    def run(self, seconds, tracer=None):
        """Rounds until `seconds` have passed (at least one); returns the
        number of rounds run."""
        t_end = time.perf_counter() + seconds
        ref = ref_loop()
        self.ref_ms.append(ref)
        n = 0
        while True:
            if tracer is None:
                unit_ns, call_ns = self.round()
            else:
                unit_ns, call_ns = tracer.run_op(n, self.round)
            n += 1
            gc.collect()
            after = ref_loop()
            self.ref_ms.append(after)
            self._account(unit_ns, call_ns, ref, after)
            ref = after
            if time.perf_counter() >= t_end:
                return n

    def ops_per_s(self):
        """Calls per second of a round at its slowest call kind: the calls
        of a round over (number of kinds x the largest median per-round
        time of one kind). With one kind it is 1 / the median round time;
        with kinds of equal time share, a kind that gets k times slower
        lowers it about k-fold."""
        per_kind = [statistics.median(col) for col in zip(*self.kind_s)]
        return (self.calls / len(self.round_s)) / (len(per_kind) * max(per_kind))

    def timed_child(self, argv=None):
        """Run a child (time_fresh_import without `argv`, else run_child)
        between two reference loops; returns (scaled wall s, raw wall s,
        returncode, stderr)."""
        before = ref_loop()
        if argv is None:
            wall, rc, err = time_fresh_import(), 0, ""
        else:
            wall, rc, err = run_child(argv)
        after = ref_loop()
        self.ref_ms += [before, after]
        return wall * 2.0 * REF_MS / (before + after), wall, rc, err


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an already sorted sequence."""
    i = min(len(sorted_vals) - 1, max(0, int(round(q * (len(sorted_vals) - 1)))))
    return sorted_vals[i]


def environment(args):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    import extgevrey._kernels as K
    digest = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(SRC)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "pinned_cpu": min(os.sched_getaffinity(0)), "machine": platform.machine(),
            "numba_installed": importlib.util.find_spec("numba") is not None,
            "numba_enabled": bool(getattr(K, "NUMBA_ENABLED", False)),
            "commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}


def end_to_end(wl, args, setup_reps, cli_reps):
    """setup_s, the untraced loop, then cli_s; returns (metrics,
    diagnostics, loop, CLI runs, failed CLI runs). Every time is scaled to
    the REF_MS machine speed (see Loop)."""
    loop = Loop(wl)
    setups = [loop.timed_child() for _ in range(setup_reps)]

    loop.round()                      # untimed warm-up; its checks count
    warm_attempted = loop.attempted
    loop.run(args.seconds)

    clis, cli_failed = [], 0
    for _ in range(cli_reps):
        if os.path.exists(wl.cli_out):
            os.remove(wl.cli_out)
        cli = loop.timed_child(["-m", "extgevrey.cli"] + wl.cli_argv())
        clis.append(cli)
        _, _, rc, err = cli
        try:
            ok = rc == 0 and wl.check_cli()
        except (OSError, ValueError, KeyError):
            ok = False
        if not ok:
            cli_failed += 1
            sys.stderr.write(f"CLI run failed (rc={rc}): {err[-2000:]}\n")

    metrics = {
        "setup_s": statistics.median(c[0] for c in setups),
        "cli_s": statistics.median(c[0] for c in clis),
        "op_p50_ms": statistics.median(loop.round_s) * 1e3,
        "ops_per_s": loop.ops_per_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lat = sorted(loop.lat_ns)
    p99_ns = percentile(lat, 0.99)
    kind_total = [sum(col) for col in zip(*loop.kind_s)]
    diag = {"rounds": len(loop.round_s), "calls_timed": loop.calls, "calls_sampled": len(lat),
            "warm_attempted": warm_attempted,
            "call_p50_us": statistics.median(lat) / 1e3, "call_p99_us": p99_ns / 1e3,
            "calls_beyond_p99": round(sum(1 for v in lat if v > p99_ns) * loop.calls / len(lat)),
            "calls_per_s": loop.calls / sum(loop.round_s),
            "kind_share": {k: t / sum(kind_total) for k, t in zip(wl.kinds, kind_total)},
            "kind_p50_ms": {k: statistics.median(col) * 1e3
                            for k, col in zip(wl.kinds, zip(*loop.kind_s))},
            "setup_s_all": [c[0] for c in setups], "setup_raw_s_all": [c[1] for c in setups],
            "cli_s_all": [c[0] for c in clis], "cli_raw_s_all": [c[1] for c in clis],
            "round_s_all": loop.round_s, "round_raw_s_all": loop.round_raw_s,
            "op_raw_p50_ms": statistics.median(loop.round_raw_s) * 1e3}
    return metrics, diag, loop, len(clis), cli_failed


# per-layer metric -> (span name, figure); cli.claim.* and import.* are
# added below
def _per_layer_sources():
    s = {}
    for fn in ("check_matrix_equivalence", "check_ocena_norme",
               "check_T_phi_equivalence", "check_corollary"):
        s[f"equivalence.{fn}.self_s"] = (f"equivalence.{fn}", "self_s")
    s.update({
        "conjugate.young_conjugate.calls": ("conjugate.young_conjugate", "calls"),
        "conjugate.young_conjugate.self_s": ("conjugate.young_conjugate", "self_s"),
        "conjugate.young_conjugate.phi_evals": ("conjugate.young_conjugate", "work"),
        "conjugate.young_conjugate.errors": ("conjugate.young_conjugate", "errors"),
        "conjugate.conjugate_table.points": ("conjugate.conjugate_table", "work"),
        "conjugate.conjugate_table.self_s": ("conjugate.conjugate_table", "self_s"),
        "conjugate.phi_sigma.scalar_calls": ("conjugate.phi_sigma", "scalar_calls"),
        "conjugate.phi_sigma.array_points": ("conjugate.phi_sigma", "work"),
        "conjugate.phi_sigma.self_s": ("conjugate.phi_sigma", "self_s"),
        "conjugate.integral_closed_form_check.self_s": ("conjugate.integral_closed_form_check", "self_s"),
        "conjugate.check_weight_axioms.self_s": ("conjugate.check_weight_axioms", "self_s"),
        "lambertw.lambert_w0.calls": ("lambertw.lambert_w0", "calls"),
        "lambertw.lambert_w0.self_s": ("lambertw.lambert_w0", "self_s"),
        "lambertw.lambert_w0_grid.points": ("lambertw.lambert_w0_grid", "work"),
        "lambertw.lambert_w0_grid.self_s": ("lambertw.lambert_w0_grid", "self_s"),
        "lambertw.evaluate_w.iterations_max": ("lambertw.evaluate_w", "work_max"),
        "assocfn.assoc_fn_sup_grid.points": ("assocfn.assoc_fn_sup_grid", "work"),
        "assocfn.assoc_fn_sup_grid.self_s": ("assocfn.assoc_fn_sup_grid", "self_s"),
        "assocfn.assoc_fn_counting_grid.points": ("assocfn.assoc_fn_counting_grid", "work"),
        "assocfn.assoc_fn_counting_grid.self_s": ("assocfn.assoc_fn_counting_grid", "self_s"),
        "sequences.check_condition.self_s": ("sequences.check_condition", "self_s"),
        "sequences.log_M.calls": ("sequences.log_M", "calls"),
        "sequences.log_M.self_s": ("sequences.log_M", "self_s"),
        "kernels.assoc_sup_grid.calls": ("kernels.assoc_sup_grid", "calls"),
        "kernels.assoc_sup_grid.points": ("kernels.assoc_sup_grid", "work"),
        "kernels.assoc_sup_grid.self_s": ("kernels.assoc_sup_grid", "self_s"),
        "kernels.w0_grid.points": ("kernels.w0_grid", "work"),
        "kernels.w0_grid.self_s": ("kernels.w0_grid", "self_s"),
        "kernels.counting_sum_grid.points": ("kernels.counting_sum_grid", "work"),
        "kernels.counting_sum_grid.self_s": ("kernels.counting_sum_grid", "self_s"),
    })
    for fn in ("assoc_fn_sup", "assoc_fn_counting", "counting_fn_floor", "counting_fn_direct"):
        s[f"assocfn.{fn}.calls"] = (f"assocfn.{fn}", "calls")
        s[f"assocfn.{fn}.self_s"] = (f"assocfn.{fn}", "self_s")
    return s


def traced(wl, args, reps, tracer_mod):
    """Import profile, then the loop untraced and traced for half the
    time each; returns (per-layer metrics, diagnostics, loop, tracer)."""
    profiles = []
    for _ in range(reps):
        _, rc, err = run_child(["-X", "importtime", "-c", "import extgevrey"])
        if rc != 0:
            raise RuntimeError("`python -X importtime -c 'import extgevrey'` failed")
        profiles.append(tracer_mod.parse_importtime(err))

    loop = Loop(wl)
    loop.round()                      # untimed warm-up; its checks count
    n_plain = loop.run(args.seconds / 2.0)
    plain_s = statistics.mean(loop.round_s)

    tracer = tracer_mod.Tracer().install()
    ref_plain = loop.ref_ms
    loop.reset_timing()
    try:
        n_traced = loop.run(args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    traced_s = statistics.mean(loop.round_s)
    loop.ref_ms = ref_plain + loop.ref_ms

    layers = tracer.per_layer(n_traced)
    m = {"import.scipy_s": statistics.median(p[0] for p in profiles),
         "import.extgevrey_self_s": statistics.median(p[1] for p in profiles)}
    from extgevrey import cli
    for claim in cli.CLAIMS:
        m[f"cli.claim.{claim}.s"] = layers.get(f"cli.claim.{claim}", {}).get("total_s", 0.0)
    for metric, (span, fig) in _per_layer_sources().items():
        m[metric] = layers.get(span, {}).get(fig, 0.0)
    ev = layers.get("lambertw.evaluate_w")
    m["lambertw.evaluate_w.iterations_mean"] = ev["work"] / ev["calls"] if ev and ev["calls"] else 0.0
    for fig, total in tracer.kernel_cells.items():
        m[f"kernels.assoc_sup_grid.{fig}"] = total / n_traced
    m["trace.overhead_frac"] = traced_s / plain_s - 1.0
    diag = {"rounds_untraced": n_plain, "rounds_traced": n_traced,
            "round_s_untraced": plain_s, "round_s_traced": traced_s,
            "spans": len(tracer.start),
            "lambert_w0_calls_per_claim": {
                k: v / n_traced for k, v in tracer.under("cli.claim.", "lambertw.lambert_w0").items()},
            "young_conjugate_calls_per_claim": {
                k: v / n_traced for k, v in tracer.under("cli.claim.", "conjugate.young_conjugate").items()}}
    return m, diag, loop, tracer


# the names the workloads document: (name, unit, diag or metric key, factor)
ALIASES = {
    "verify": [("verify_s", "s", "op_p50_ms", 1e-3), ("cli_verify_s", "s", "cli_s", 1.0)],
    "grid": [("grid_batch_s", "s", "op_p50_ms", 1e-3), ("cli_assocfn_s", "s", "cli_s", 1.0)],
    "scalar": [("scalar_calls_per_s", "1/s", "calls_per_s", 1.0),
               ("scalar_p50_us", "us", "call_p50_us", 1.0),
               ("scalar_p99_us", "us", "call_p99_us", 1.0),
               ("cli_conjugate_s", "s", "cli_s", 1.0)],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one repetition (for the self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "extgevrey", "__init__.py")):
        sys.stderr.write(f"perfbench: no library source at {SRC}; run from an extgevrey checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    prepare_process()
    os.makedirs(OUTDIR, exist_ok=True)

    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, OUTDIR)
    env = environment(args)

    if args.trace:
        metrics, diag, loop, tracer = traced(wl, args, 1 if args.tiny else 3, tracer_mod)
        declared = spec["per_layer"]
        cli_attempted = cli_failed = 0
        tracer.save(os.path.join(OUTDIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics, diag, loop, cli_attempted, cli_failed = end_to_end(
            wl, args, 1 if args.tiny else 7, 1 if args.tiny else 5)
        declared = spec["end_to_end"]

    names = [d["name"] for d in declared]
    if set(names) != set(metrics):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(metrics))}")
    attempted = loop.attempted + cli_attempted
    failed = loop.failed + cli_failed
    ref = sorted(loop.ref_ms)
    diag.update({"ref_loop_ms_median": statistics.median(ref), "ref_loop_ms_min": ref[0],
                 "ref_loop_ms_max": ref[-1], "ref_loop_n": len(ref)})

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("env " + json.dumps(env, sort_keys=True))
    for d in declared:
        print(f"  {d['name']:<48} {metrics[d['name']]:>16.6g} {d['unit']}")
    if not args.trace:
        for alias, unit, src, factor in ALIASES[args.workload]:
            value = metrics[src] if src in metrics else diag[src]
            note = (f"{diag['calls_beyond_p99']} of {diag['calls_timed']} calls beyond it"
                    if alias == "scalar_p99_us" else f"= {src}")
            print(f"  {alias:<48} {value * factor:>16.6g} {unit}   ({note})")
    print(f"  {'failed_frac':<48} {failed / attempted:>16.6g} ratio   "
          f"({failed} of {attempted} ops)")
    print("diag " + json.dumps(diag, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                          for d in declared}}
    with open(os.path.join(OUTDIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, env=env, diag=diag), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
