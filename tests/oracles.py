"""Independent reference implementations used as test oracles.

Nothing here goes through the package's recursion or inversion code paths:
Poisson masses come from scipy, Hermite masses from a direct two-stream
convolution sum, and Sibuya masses from exact rational arithmetic. The
direct O(n^2) compound recursion and the loop form of the mode scan are the
references for their faster forms in the package.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import stats

from dstable.params import DSParams
from dstable.pmf import ModeReport, PmfTable


def poisson_pmf(lam: float, n: int) -> float:
    return float(stats.poisson.pmf(n, lam))


def hermite_pmf(a1: float, a2: float, n: int) -> float:
    """Poi(a1) on unit jumps convolved with Poi(a2) on double jumps."""
    terms = []
    for k in range(n // 2 + 1):
        j = n - 2 * k
        if a1 == 0.0 and j > 0:
            continue
        if a2 == 0.0 and k > 0:
            continue
        log_term = -a1 - a2
        if j > 0:
            log_term += j * math.log(a1) - math.lgamma(j + 1)
        if k > 0:
            log_term += k * math.log(a2) - math.lgamma(k + 1)
        terms.append(math.exp(log_term))
    return math.fsum(terms)


def sibuya_pmf_exact(alpha: Fraction, n: int) -> Fraction:
    """Sibuya mass (-1)^{n+1} C(alpha, n) by exact binomial-series arithmetic."""
    value = alpha
    for j in range(1, n):
        value *= j - alpha
    return value / math.factorial(n)


def bsib_pmf_exact(alpha: Fraction, rho: Fraction, n: int) -> Fraction:
    """Broad-Sibuya mass with rational alpha, rho, exactly."""
    if n == 1:
        return rho + (1 - rho) * alpha
    return (1 - rho) * sibuya_pmf_exact(alpha, n)


def chi2_pvalue(stat: float, dof: int) -> float:
    return float(stats.chi2.sf(stat, dof))


def split_weights(p: DSParams, size: int, dtype=np.float64) -> np.ndarray:
    """Jump rates w_0..w_{size-1} of DS(*p) over the rate split, in dtype.

    w_1 = delta - alpha gamma (the unit jumps) and w_k = R alpha S(k-1) for
    k >= 2, with R the core rate (alpha - 1) gamma, or gamma at alpha = 1,
    and S(k) = prod_{j=2..k} (1 - alpha/j) the Sibuya core's survival.
    """
    alpha, gamma, delta = (dtype(v) for v in (p.alpha, p.gamma, p.delta))
    core = gamma if p.alpha == 1.0 else (alpha - 1) * gamma
    weights = np.zeros(size, dtype=dtype)
    if size > 1:
        weights[1] = delta - alpha * gamma
    if size > 2:
        factors = np.concatenate(([dtype(1)], 1 - alpha / np.arange(2, size - 1, dtype=dtype)))
        weights[2:] = core * alpha * np.cumprod(factors)
    return weights


def direct_ds_pmf(p: DSParams, n_max: int, tail_bound: float) -> np.ndarray:
    """DS masses by the direct compound recursion, one full dot product per entry.

    The rates are the split's (see ``split_weights``). The same stopping
    rule, rescaling and dust clearing as ``ds_pmf``.
    """
    if p.gamma == 0.0 and p.delta == 0.0:
        return np.array([1.0])
    lam = p.delta if p.alpha == 1.0 else p.delta - p.gamma  # f(0) = e^-lam
    target = 1.0 - tail_bound

    if lam < 700.0:
        scaled0, exp2 = math.exp(-lam), 0
    else:
        t = -lam / math.log(2.0)
        exp2 = math.floor(t)
        scaled0 = 2.0 ** (t - exp2)

    cap = min(n_max, 1024) + 1
    weights = split_weights(p, cap)
    scaled = np.zeros(cap)
    scaled[0] = scaled0
    cum = [math.ldexp(scaled0, exp2)]

    n = 0
    while n < n_max and cum[-1] < target:
        n += 1
        if n >= cap:
            cap = min(n_max, 2 * (cap - 1)) + 1
            weights = split_weights(p, cap)
            grown = np.zeros(cap)
            grown[:n] = scaled[:n]
            scaled = grown
        value = float(np.dot(weights[n:0:-1], scaled[:n])) / n
        if value > 2.0**512:
            scaled[:n] *= 2.0**-512
            value *= 2.0**-512
            exp2 += 512
        scaled[n] = value
        cum.append(cum[-1] + math.ldexp(value, exp2))

    masses = np.ldexp(scaled[: n + 1], exp2)
    masses[(masses < 0.0) & (masses > -1e-15)] = 0.0
    return masses


def loop_mode_scan(table: PmfTable, plateau_tol: float = 1e-12) -> ModeReport:
    """Plateau intervals of local maxima, by a Python loop over the masses."""
    m = table.masses
    size = m.size

    def same(a: float, b: float) -> bool:
        return abs(a - b) <= plateau_tol * max(a, b)

    runs: list[tuple[int, int]] = []
    start = 0
    for i in range(1, size):
        if not same(float(m[i - 1]), float(m[i])):
            runs.append((start, i - 1))
            start = i
    runs.append((start, size - 1))

    modes: list[tuple[int, int]] = []
    for idx, (lo, hi) in enumerate(runs):
        if m[lo] <= 0.0:
            continue
        left_ok = idx == 0 or m[runs[idx - 1][1]] < m[lo]
        right_ok = idx == len(runs) - 1 or m[runs[idx + 1][0]] < m[hi]
        if left_ok and right_ok:
            modes.append((lo, hi))

    return ModeReport(
        modes=tuple(modes),
        unimodal=len(modes) == 1,
        scanned_to=size - 1,
        tail_mass_at_scan=table.tail_mass,
    )


def longdouble_ds_pmf(p: DSParams, n_max: int) -> np.ndarray:
    """DS masses f(0..n_max) by the direct compound recursion in long double.

    The split rates (see ``split_weights``) come from the law's double
    parameters but are computed, like every sum, in long double; there is no
    stopping rule. Only more precise than ``direct_ds_pmf`` where long double
    is wider than double.
    """
    ld = np.longdouble
    weights = split_weights(p, n_max + 1, ld)
    masses = np.zeros(n_max + 1, dtype=ld)
    lam = ld(p.delta) if p.alpha == 1.0 else ld(p.delta) - ld(p.gamma)
    masses[0] = np.exp(-lam)
    for n in range(1, n_max + 1):
        masses[n] = np.dot(weights[n:0:-1], masses[:n]) / n
    return masses
