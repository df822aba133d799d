"""Small numeric helpers for the benchmark, stdlib only."""

from __future__ import annotations

import math

PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Weyl:
    """Per-key golden-ratio sequences in [0, 1) with seeded offsets.

    Any prefix of a Weyl sequence covers [0, 1) almost evenly, so a run that
    stops after any number of ops has drawn nearly the same spread of sizes.
    """

    def __init__(self, rng) -> None:
        self._rng = rng
        self._state: dict[object, list[float]] = {}

    def next(self, key) -> float:
        state = self._state.setdefault(key, [self._rng.random(), 0])
        u = (state[0] + state[1] * PHI) % 1.0
        state[1] += 1
        return u


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def cycled(rng, cycle, count: int) -> list:
    """``count`` items from shuffled copies of ``cycle``, back to back.

    Every prefix holds each item at its share of the cycle, to within one
    cycle.
    """
    out: list = []
    while len(out) < count:
        block = list(cycle)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _log_sum_exp(logs: list[float]) -> float:
    if not logs:
        return 0.0
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail Pr(X > x) of the chi-square law with integer ``df`` >= 1.

    Uses the finite series of the regularized upper incomplete gamma
    function at half-integer shape, summed in log space.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    if df % 2 == 0:
        logs = [-h + k * log_h - math.lgamma(k + 1.0) for k in range(df // 2)]
        return min(1.0, _log_sum_exp(logs))
    logs = [
        -h + (k - 0.5) * log_h - math.lgamma(k + 0.5) for k in range(1, (df + 1) // 2)
    ]
    return min(1.0, math.erfc(math.sqrt(h)) + _log_sum_exp(logs))


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile (0 <= q <= 100) of sorted values."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac
