"""The 75-point verify lattice, checked against its committed summary.

`tests/data/lattice.json` holds, for every (tau, sigma, h) of the lattice, the exit
code of `extgevrey verify` and each claim's status: PASS, FAIL, or ERROR followed by
its message with every number replaced by `#`. Values stay out, so an ulp-level change
does not touch the file; a new error, a moved verdict or a changed exit code does.

Run this module as a script to rewrite the file from the code as it is:

    PYTHONPATH=src python tests/test_lattice.py

The same points run as subprocesses under a 2 GB address space and a 20 s timeout in CI.
"""

import json
import re
import warnings
from pathlib import Path

from extgevrey import cli

LATTICE = Path(__file__).parent / "data" / "lattice.json"
TAUS = (0.05, 0.2, 1.0, 5.0, 50.0)
SIGMAS = (1.01, 1.05, 1.2, 2.0, 6.0)
HS = (1e-6, 1.0, 1e6)
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _point(tau, sigma, h):
    """Exit code and claim statuses of one `verify` report, in process."""
    report, code = cli.verify_report(tau, sigma, h)
    claims = {}
    for name, rep in report["claims"].items():
        if "error" in rep:
            claims[name] = "ERROR " + _NUMBER.sub("#", rep["error"])
        else:
            claims[name] = "PASS" if rep["holds"] else "FAIL"
    return {"tau": tau, "sigma": sigma, "h": h, "exit": code, "claims": dict(sorted(claims.items()))}


def build():
    """Every lattice point, RuntimeWarnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return [_point(tau, sigma, h) for tau in TAUS for sigma in SIGMAS for h in HS]


def test_the_lattice_matches_its_committed_summary():
    want = json.loads(LATTICE.read_text())
    got = build()
    moved = [f"tau={g['tau']!r} sigma={g['sigma']!r} h={g['h']!r}: {w} -> {g}"
             for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not moved, "\n".join(moved)


if __name__ == "__main__":
    LATTICE.write_text(json.dumps(build(), indent=1) + "\n")
