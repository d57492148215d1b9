"""Principal branch of the Lambert W function on [0, inf) and checks of
its standard properties (defining identity, log-log bracket, asymptotics).
"""

import math
from typing import NamedTuple

import numpy as np

from ._kernels import w0_grid, w0_scalar
from .errors import DomainError

__all__ = [
    "OMEGA",
    "WEvaluation",
    "lambert_w0",
    "lambert_w0_grid",
    "evaluate_w",
    "check_w3_bounds",
    "check_w_identities",
]

#: omega constant, W(1); solves w e^w = 1
OMEGA = 0.5671432904097838


def _validate(x):
    if not math.isfinite(x):
        raise DomainError(f"lambert_w0 requires finite x, got {x!r}")
    if x < 0:
        raise DomainError(f"lambert_w0 is only defined for x >= 0, got {x}")


def lambert_w0(x):
    """W(x) for a single nonnegative real x."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        _validate(x)
    return w0_scalar(x)[0]


def lambert_w0_grid(x):
    """Elementwise W over an array of nonnegative reals."""
    x = np.asarray(x, dtype=np.float64)
    if not (ok := np.isfinite(x) & (x >= 0.0)).all():
        raise DomainError(f"lambert_w0_grid requires finite x >= 0, got {x[~ok].flat[0]}")
    return w0_grid(x)


def w_residual(x, w):
    """|w e^w - x| / max(x, 1), computed in log space for large w."""
    if x == 0.0:
        return abs(w)
    if w > 500.0:
        # w e^w overflows; compare logarithms instead
        return abs(math.expm1(w + math.log(w) - math.log(x))) * x / max(x, 1.0)
    return abs(w * math.exp(w) - x) / max(x, 1.0)


class WEvaluation(NamedTuple):
    """One W evaluation with its convergence diagnostics."""

    x: float
    w: float
    residual: float
    iterations: int


def evaluate_w(x):
    """Like :func:`lambert_w0` but reports residual and iteration count."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        _validate(x)
    w, iters = w0_scalar(x)
    return WEvaluation(x, w, w_residual(x, w), iters)


class BracketReport(NamedTuple):
    x: np.ndarray
    w: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ok: np.ndarray
    passed: bool


def check_w3_bounds(x_grid):
    """Verify ln x - ln ln x <= W(x) <= ln x - (1/2) ln ln x on x >= e."""
    x = np.asarray(x_grid, dtype=np.float64)
    if np.any(x < math.e):
        raise DomainError("the two-sided log-log bracket needs x >= e")
    w = lambert_w0_grid(x)
    lx = np.log(x)
    llx = np.log(lx)
    lower = lx - llx
    upper = lx - 0.5 * llx
    # equality at x = e; allow float-roundoff slack there
    slack = 1e-12 * np.maximum(1.0, lx)
    ok = (lower <= w + slack) & (w <= upper + slack)
    return BracketReport(x, w, lower, upper, ok, bool(np.all(ok)))


class IdentityReport(NamedTuple):
    x: np.ndarray
    identity_err: np.ndarray
    ratio: np.ndarray
    eps_band: np.ndarray
    ok: np.ndarray
    passed: bool


def check_w_identities(x_grid):
    """Check W(x ln x) = ln x and the W(10 x) ~ W(x) asymptotic band.

    The band half-width 3 ln 10 / ln x follows from the log-log bracket
    for x large enough that both brackets apply.
    """
    x = np.asarray(x_grid, dtype=np.float64)
    if np.any(x <= 1.0):
        raise DomainError("identity checks need x > 1")
    lx = np.log(x)
    # one W call: each entry of the grid W depends on its own x only
    w_xlx, w_10x, w_x = lambert_w0_grid(np.stack((x * lx, 10.0 * x, x)))
    identity_err = np.abs(w_xlx - lx)
    id_ok = identity_err <= 1e-12 * np.maximum(lx, 1.0)

    ratio = w_10x / w_x
    eps = 3.0 * math.log(10.0) / lx
    ratio_ok = (ratio >= 1.0 - eps) & (ratio <= 1.0 + eps)

    ok = id_ok & ratio_ok
    return IdentityReport(x, identity_err, ratio, eps, ok, bool(np.all(ok)))
