"""A seeded sweep of both counting routes where lambda sits on the boundary of the count.

For drawn tau, sigma, C and an integer p up to 2**53, lambda is fl(exp(g(p))),
g(p) = p^(sigma-1) (ln C + tau ln p), and each of its two float neighbours: there
g(p) <= ln lambda is decided within a few ulps, where a float test alone can err.
`counting_fn_floor` and `counting_fn_direct`, scalar and array (one point, and the three
lambda broadcast against two rows of C), must equal `_reference.count` (50 digits, a tie
counted) at every such lambda, and raise NumericalError where the count passes 2**53.
C is 1 in a third of the draws, with tau = g/(p^(sigma-1) ln p) for a drawn g; elsewhere
tau is drawn, half the time in [5e-324, 1e-250], where ln C/tau passes 1e250 (or the floats),
and ln C = g/p^(sigma-1) - tau ln p. Fixed cases hold both routes where ln C/tau is near 1e300
or past the floats and the count is small.

Run this module as a script for a longer sweep over more seeds; it exits 1 if a point fails:

    PYTHONPATH=src python tests/test_counting_sweep.py FIRST_SEED LAST_SEED
"""

import math
import random
import sys
import warnings

import numpy as np
import pytest

from extgevrey import NumericalError, SequenceParams, counting_fn_direct, counting_fn_floor

import _reference

SEEDS = (4041,)
DRAWS = 12      # per seed, three lambda each


def draw(rng):
    """(tau, sigma, C, [lambda-, lambda, lambda+]) with lambda = fl(exp(g(p)))."""
    while True:
        p = int(2.0 ** rng.uniform(0.0, 53.0))
        sigma, lp = 1.0 + 10.0 ** rng.uniform(-2.0, 1.3), math.log(p)
        g = 10.0 ** rng.uniform(-3.0, 2.8)      # the g(p) aimed at
        try:
            pe = p ** (sigma - 1.0)
            if rng.random() < 1.0 / 3.0:
                C, tau = 1.0, g / (pe * lp) if p > 1 else 1.0
            else:
                tau = 10.0 ** (rng.uniform(-323.3, -250.0) if rng.random() < 0.5 else rng.uniform(-3.0, 2.0))
                C = math.exp(g / pe - tau * lp)
            g = pe * (math.log(C) + tau * lp) if tau > 0.0 and C > 0.0 else -1.0
        except (OverflowError, ValueError):
            continue
        if 0.0 <= g <= 709.0:
            lam = math.exp(g)
            return tau, sigma, C, [max(math.nextafter(lam, 0.0), 1.0), lam, math.nextafter(lam, math.inf)]


def _counts(fn, P, C, lams):
    """fn's counts at each lambda as [scalar, one-point array] pairs, and over the three lambda
    against two rows of C; None for a call that raises NumericalError."""
    def call(f):
        try:
            return f()
        except NumericalError:
            return None
    single = [[call(lambda: fn(P, C, l)), call(lambda: fn(P, np.array([C]), np.array([l])).tolist()[0])]
              for l in lams]
    return single, call(lambda: fn(P, np.full((2, 1), C), np.array(lams)).tolist())


def check(tau, sigma, C, lams):
    want = [_reference.count(tau, sigma, C, l, below=2 ** 53) for l in lams]
    P = SequenceParams(tau, sigma)
    for fn in (counting_fn_floor, counting_fn_direct):
        single, grid = _counts(fn, P, C, lams)
        at = f"{fn.__name__} at tau={tau!r}, sigma={sigma!r}, C={C!r}"
        assert single == [[n, n] for n in want], f"{at}, lambda={lams}: {single}, want {want}"
        assert grid == (None if None in want else [want, want]), f"{at}, lambda={lams}: {grid}, want {want}"


def points(seed):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("seed", SEEDS)
def test_both_counting_routes_equal_the_reference_on_the_boundary(seed):
    for d in points(seed):
        check(*d)


@pytest.mark.parametrize("tau, sigma, lam, count", [
    pytest.param(1e-300, 100.0, 2.955, 1, id="tau1e-300-sigma100"),
    pytest.param(1e-303, 1.2, 3.0, 1, id="tau1e-303-lambda3"),
    pytest.param(1e-303, 1.2, 10.0, 64, id="tau1e-303-lambda10"),
    pytest.param(1e-303, 1.2, 100.0, 2071, id="tau1e-303-lambda100"),
    *(pytest.param(tau, sigma, 10.0, n, id=f"tau{tau!r}-sigma{sigma!r}") for tau in (1e-300, 1e-310, 5e-324)
      for sigma, n in ((1.2, 64), (2.0, 2), (6.0, 1)))])
def test_both_routes_count_past_the_w_form(tau, sigma, lam, count):
    # C = e: ln C/tau is near 1e300 or inf, where W(x)/(sigma-1) - ln C/tau would be a difference
    # of two such terms; the closed form's Newton form takes ln ln lambda - ln ln C, with no tau
    assert _reference.count(tau, sigma, math.e, lam) == count
    check(tau, sigma, math.e, [lam])


def test_the_reference_counts_a_tie():
    # at tau = 1, sigma = 2, C = 1, g(p) = p ln p = ln lambda exactly at lambda = p^p; 60 digits
    # leave the two sides a rounding apart, either way
    assert [_reference.count(1.0, 2.0, 1.0, lam) for lam in (3125.0, 1e10)] == [5, 10]


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)
    first, last = int(sys.argv[1]), int(sys.argv[2])
    bad = 0
    for seed in range(first, last + 1):
        for d in points(seed):
            try:
                check(*d)
            except AssertionError as exc:
                bad += 1
                print(f"seed {seed}: {exc}"[:600])
    print(f"{bad} failing points over seeds {first}-{last}")
    sys.exit(1 if bad else 0)
