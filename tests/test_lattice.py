"""The 75-point verify lattice, checked against its committed summary.

`tests/data/lattice.json` holds, for every (tau, sigma, h) of the lattice, the exit
code of `extgevrey verify` and each claim's status: PASS, FAIL, or ERROR followed by
its message with every number replaced by `#`. Values stay out, so an ulp-level change
does not touch the file; a new error, a moved verdict or a changed exit code does.

The points run in one child interpreter under the limits a `verify` must keep: a 2 GB
address space, set before numpy loads, and 20 s a point, whose SIGALRM ends the child.
It runs them in reverse file order, so that state carried from one point to the next
would move a status away from the file, and names each point on stderr as it starts.
Run this module as a script to rewrite the file: it runs the points in file order and in
reverse, and writes the file only where both runs agree; else it lists the points that
moved and exits 1, so that a rewrite cannot take in carried state.

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

# argv[1]: the points as JSON; stdout: their summaries as JSON, run and printed in argv[1]'s order
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

print(json.dumps([point(*p) for p in json.loads(sys.argv[1])]))
'''


def run(reverse=True):
    """Every lattice point's summary in file order, from one child run that must exit 0 and
    that takes the points in reverse file order, or in file order."""
    points = [(tau, sigma, h) for tau in TAUS for sigma in SIGMAS for h in HS]
    step = -1 if reverse else 1
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(points[::step])],
                           capture_output=True, text=True)
    code, err = child.returncode, child.stderr
    assert code == 0, f"exit {code} at {err[err.rfind('verify --tau'):]}"
    return json.loads(child.stdout)[::step]


def moved(want, got):
    """A line for each point whose summary differs between two runs."""
    return [f"tau={g['tau']!r} sigma={g['sigma']!r} h={g['h']!r}: {w} -> {g}"
            for w, g in zip(want, got) if w != g]


def test_the_lattice_matches_its_committed_summary():
    want = json.loads(LATTICE.read_text())
    got = run()
    assert len(got) == len(want) and not moved(want, got), "\n".join(moved(want, got))


if __name__ == "__main__":
    forward, backward = run(reverse=False), run()
    if lines := moved(forward, backward):
        sys.exit("points whose summary moves with the order they run in (file order -> reverse):\n"
                 + "\n".join(lines))
    LATTICE.write_text(json.dumps(backward, indent=1) + "\n")
