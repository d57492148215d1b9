"""The 75-point verify lattice, checked against its committed summary.

`tests/data/lattice.json` holds, for every (tau, sigma, h) of the lattice, the exit
code of `extgevrey verify` and each claim's status: PASS, FAIL, or ERROR followed by
its message with every number replaced by `#`. Values stay out, so an ulp-level change
does not touch the file; a new error, a moved verdict or a changed exit code does.

The points run in one child interpreter under the limits a `verify` must keep: a 2 GB
address space, set before numpy loads, and 20 s a point, whose SIGALRM ends the child.
It runs them in reverse file order, so that state carried from one point to the next
would move a status away from the file, and names each point on stderr as it starts.
Run this module as a script to rewrite the file from that same child run:

    PYTHONPATH=src python tests/test_lattice.py
"""

import json
import subprocess
import sys
from pathlib import Path

LATTICE = Path(__file__).parent / "data" / "lattice.json"
TAUS = (0.05, 0.2, 1.0, 5.0, 50.0)
SIGMAS = (1.01, 1.05, 1.2, 2.0, 6.0)
HS = (1e-6, 1.0, 1e6)

# argv[1]: the points as JSON; stdout: their summaries as JSON, in argv[1]'s order
_CHILD = r'''import resource; resource.setrlimit(resource.RLIMIT_AS, (2_048_000_000,) * 2)
import json, re, signal, sys, warnings
from extgevrey import cli
warnings.simplefilter("error", RuntimeWarning)
number = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

def point(tau, sigma, h):
    print(f"verify --tau {tau!r} --sigma {sigma!r} --h {h!r}", file=sys.stderr, flush=True)
    signal.alarm(20)
    report, code = cli.verify_report(tau, sigma, h)
    claims = {name: "ERROR " + number.sub("#", rep["error"]) if "error" in rep
              else "PASS" if rep["holds"] else "FAIL" for name, rep in report["claims"].items()}
    return {"tau": tau, "sigma": sigma, "h": h, "exit": code, "claims": dict(sorted(claims.items()))}

print(json.dumps([point(*p) for p in reversed(json.loads(sys.argv[1]))][::-1]))
'''


def run():
    """Every lattice point's summary, from one child run that must exit 0."""
    points = [(tau, sigma, h) for tau in TAUS for sigma in SIGMAS for h in HS]
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(points)],
                           capture_output=True, text=True)
    code, err = child.returncode, child.stderr
    assert code == 0, f"exit {code} at {err[err.rfind('verify --tau'):]}"
    return json.loads(child.stdout)


def test_the_lattice_matches_its_committed_summary():
    want = json.loads(LATTICE.read_text())
    got = run()
    moved = [f"tau={g['tau']!r} sigma={g['sigma']!r} h={g['h']!r}: {w} -> {g}"
             for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not moved, "\n".join(moved)


if __name__ == "__main__":
    LATTICE.write_text(json.dumps(run(), indent=1) + "\n")
