"""A seeded sweep of `extgevrey` argvs across each option's documented domain, in process.

Every argv must end in a documented exit code (0, 1, 2 or 3) with no exception, a
RuntimeWarning included (pyproject.toml makes those errors). A `verify` that exits 0, 1
or 3 writes strict JSON (RFC 8259) holding every claim; a table holds no NaN, and an
infinity only in the `phi` table, where phi_sigma passes the floats.

Run this module as a script for a longer sweep over more seeds:

    PYTHONPATH=src python tests/test_argv_sweep.py FIRST_SEED LAST_SEED
"""

import contextlib
import io
import json
import math
import random
import sys
import warnings

import pytest

from extgevrey import cli

SEEDS = (2026, 2027)
VERIFY_ARGVS, TABLE_ARGVS = 16, 24       # per seed
_BANDS = ((5e-324, 1e-300), (1e-300, 1e-20), (1e-20, 1e-2), (1e-2, 1e2), (1e2, 1e20), (1e20, 1.7e308))


def _log_uniform(rng, lo, hi):
    return min(max(math.exp(rng.uniform(math.log(lo), math.log(hi))), lo), hi)


def _positive(rng):
    """tau or h: log-uniform in a band drawn from bands that cover [5e-324, 1.7e308]."""
    return _log_uniform(rng, *rng.choice(_BANDS))


def _sigma(rng):
    band = rng.randrange(3)
    if band == 0:
        return 1.0 + _log_uniform(rng, 2.0 ** -40, 1e-2)
    return 1.0 + _log_uniform(rng, 1e-2, 10.0) if band == 1 else _log_uniform(rng, 10.0, 1e4)


def _h(rng):
    return 1.0 if rng.random() < 0.25 else _positive(rng)


def _opt(name, value):
    return f"--{name}={value!r}"


def verify_argv(rng):
    argv = ["verify", _opt("tau", _positive(rng)), _opt("sigma", _sigma(rng)), _opt("h", _h(rng)),
            _opt("pmax", rng.choice((300, 1000, 10_000)))]
    if rng.random() < 0.3:
        argv.append(_opt("s", 1.0 + _log_uniform(rng, 1e-8, 1e3)))
    if rng.random() < 0.3:
        argv.append(_opt("Q", int(_log_uniform(rng, 2.0, 1e6))))
    return argv


def _grid(rng):
    """`--grid=lo:hi:n`, so that a negative lo parses, log-spaced or with --linear."""
    if rng.random() < 0.3:
        lo = rng.uniform(-10.0, 100.0)
        return [f"--grid={lo!r}:{lo + _log_uniform(rng, 1e-3, 1e4)!r}:{rng.randint(2, 200)}", "--linear"]
    lo = rng.choice((-rng.uniform(0.0, 10.0), 0.0, _log_uniform(rng, 1e-10, 1e3)))
    hi = max(lo, 1e-10) * _log_uniform(rng, 1.5, 1e12)
    return [f"--grid={lo!r}:{hi!r}:{rng.randint(4, 16)}"]


def table_argv(rng):
    command = rng.choice(("lambertw", "sequence", "quotients", "assocfn", "phi", "conjugate"))
    argv = [command, "--format", rng.choice(("csv", "json", "text"))]
    if command in ("sequence", "quotients"):
        argv.append(_opt("pmax", rng.choice((300, 1000, 10_000))))
        if rng.random() < 0.3:
            return argv + ["--kind", "gevrey", _opt("t", _log_uniform(rng, 1e-3, 1e3))]
        return argv + [_opt("tau", _positive(rng)), _opt("sigma", _sigma(rng))]
    argv += _grid(rng)
    if command == "assocfn":
        argv += [_opt("tau", _positive(rng)), _opt("h", _h(rng))]
    if command != "lambertw":
        argv.append(_opt("sigma", _sigma(rng)))
    return argv


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def check(argv):
    """Run one argv in process: AssertionError, naming it, where it breaks the contract."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), f"exit code {code}"
        if argv[0] == "verify" and code != 2:
            doc = json.loads(out.getvalue(), parse_constant=_refuse)
            assert set(doc["claims"]) == set(cli.CLAIMS) and doc["passed"] == (code == 0)
        elif argv[0] != "verify":
            text = out.getvalue().lower()
            assert "nan" not in text and (argv[0] == "phi" or "inf" not in text), "nan or inf in the table"
    except Exception as exc:        # a RuntimeWarning too
        raise AssertionError(f"{' '.join(argv)}: {exc!r}") from exc


def argvs(seed):
    rng = random.Random(seed)
    return [verify_argv(rng) for _ in range(VERIFY_ARGVS)] + [table_argv(rng) for _ in range(TABLE_ARGVS)]


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_argvs_end_in_a_documented_exit_code(seed):
    for argv in argvs(seed):
        check(argv)


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)
    first, last = int(sys.argv[1]), int(sys.argv[2])
    bad = 0
    for seed in range(first, last + 1):
        for argv in argvs(seed):
            try:
                check(argv)
            except AssertionError as exc:
                bad += 1
                print(f"seed {seed}: {exc}"[:400])
    print(f"{bad} failing argvs over seeds {first}-{last}")
