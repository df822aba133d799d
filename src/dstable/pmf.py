"""Exact probability masses for the broad-Sibuya and discrete stable laws.

Two independent routes to the DS PMF: the compound-Poisson mass recursion
(:func:`ds_pmf`) and coefficient extraction of the PGF on a circle
(:func:`ds_pmf_inversion`). Their agreement is the package's core numerical
check. Also provides the bSib masses w alpha S(n-1)/n from the Sibuya core's
survival S (a table up to 2^16, its closed form past it; the sampler draws
from the same), CDF/quantile lookups on computed tables, exact moments, the
expanded-representation jump rates, and mode analysis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    IndexBeyondTable,
    InternalConsistencyError,
    QuadratureInsufficiency,
    QuantileBeyondTable,
    TailBoundUnreachable,
)
from .genfun import pgf
from .params import BSibParams, CompoundRep, DSParams, ds_to_compound

__all__ = [
    "PmfTable",
    "MomentReport",
    "ModeReport",
    "bsib_pmf",
    "bsib_pmf_array",
    "ds_pmf",
    "ds_pmf_inversion",
    "cdf",
    "quantile",
    "moments",
    "levy_weights",
    "mode_scan",
]

DEFAULT_TAIL_BOUND = 1e-12
DEFAULT_N_MAX = 10**6

# Masses more negative than this are bugs, not roundoff, in the recursion.
_NEGATIVE_DUST = 1e-15
# The inversion oracle promises 1e-10 agreement; treat smaller negatives as dust.
_INVERSION_DUST = 1e-10

_RENORM_LIMIT = 2.0**512
_RENORM_FACTOR = 2.0**-512
# np.ldexp takes an int32 exponent. Scaled entries stay below 2^513, so from
# this exponent down every mass rounds to 0 anyway.
_LDEXP_MIN_EXP = -2200

# ds_pmf computes entries in leaves of this length, each by a direct dot
# product over its own leaf; pushes from finished blocks supply the rest.
_LEAF = 64
# Pushes from blocks at least this long use the FFT, shorter ones np.convolve.
_FFT_MIN = 512

# Sibuya-core survival tables stop here; past it S(n) takes the closed form
_TABLE_CAP = 1 << 16


@dataclass(frozen=True)
class PmfTable:
    """Truncated PMF with tracked tail mass.

    ``masses[n]`` is Pr(X = n) for n = 0..len-1; ``cdf_values[n]`` is
    Pr(X <= n), the masses added left to right (both arrays are read-only).
    ``tail_mass`` is the honest remainder 1 - sum(masses).
    ``tail_bound_met`` records whether the requested bound was actually
    reached before truncation.
    """

    masses: np.ndarray
    params_tag: str
    tail_bound: float = DEFAULT_TAIL_BOUND
    tail_mass: float = field(init=False)
    tail_bound_met: bool = field(init=False)
    cdf_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=np.float64)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a nonempty 1-D array")
        if np.any(masses < 0.0):
            worst = float(masses.min())
            raise InternalConsistencyError(f"negative mass {worst} in table")
        masses.setflags(write=False)
        cum = np.cumsum(masses)
        cum.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "cdf_values", cum)
        tail = max(0.0, 1.0 - float(cum[-1]))
        object.__setattr__(self, "tail_mass", tail)
        object.__setattr__(self, "tail_bound_met", tail <= self.tail_bound)

    def __len__(self) -> int:
        return int(self.masses.size)


@dataclass(frozen=True)
class MomentReport:
    """Mean and variance, with math.inf marking a divergent moment."""

    mean: float
    variance: float


@dataclass(frozen=True)
class ModeReport:
    """Plateau intervals of local maxima found in a truncated PMF."""

    modes: tuple[tuple[int, int], ...]
    unimodal: bool
    scanned_to: int
    tail_mass_at_scan: float


def _core_weight(alpha: float, rho: float) -> float:
    """w of BSib(alpha, rho): 1 with probability 1 - w, else a Sibuya core jump."""
    return rho if alpha == 1.0 else (1.0 - rho) * (1.0 - alpha)


def _neg_survival(alpha: float, size: int) -> np.ndarray:
    """-S(1..size) of the Sibuya core at alpha, negated to ascend (size >= 1)."""
    # 1 - alpha/k in place: at the cap, temporaries would set the peak memory
    factors = np.arange(1.0, size + 1.0)
    np.subtract(1.0, np.divide(alpha, factors, out=factors), out=factors)
    factors[0] = -1.0  # S(1) = 1, negated
    return np.cumprod(factors, out=factors)


def _log_survival(alpha: float, n: int) -> float:
    """log S(n) = lgamma(n+1-a) - lgamma(n+1) - lgamma(2-a), or -inf at a = 2 (n >= 2).

    From the table cap on, where the log-gamma difference cancels, its
    Tricomi-Erdelyi series to n^-2 (off by O(n^-3)); n may pass the float range.
    """
    const = -math.lgamma(2.0 - alpha) if alpha < 2.0 else -math.inf
    if n < _TABLE_CAP:
        return const + math.lgamma(n + 1.0 - alpha) - math.lgamma(n + 1.0)
    log_n = math.log(n)
    x = math.exp(-log_n)  # 1/n
    return const - alpha * log_n + alpha * (alpha - 1.0) * x * (0.5 - (0.5 - alpha) / 6.0 * x)


def bsib_pmf(b: BSibParams, n: int) -> float:
    """Pr(X = n) of the broad-Sibuya law (support from 1); O(1) memory past the table cap."""
    n = int(n)
    if n < 1:
        raise DomainError(f"broad-Sibuya support excludes {n}; need n >= 1")
    if n <= _TABLE_CAP:
        return float(bsib_pmf_array(b, n)[n])
    w = _core_weight(b.alpha, b.rho)
    return w * b.alpha * math.exp(_log_survival(b.alpha, n - 1)) / n


def bsib_pmf_array(b: BSibParams, n_max: int) -> np.ndarray:
    """Masses p_0..p_{n_max} (p_0 = 0): p_1 = 1 - w, p_n = w alpha S(n-1)/n."""
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    w = _core_weight(b.alpha, b.rho)
    p = np.zeros(n_max + 1)
    if n_max >= 1:
        p[1] = max(1.0 - w, 0.0)  # at the boundary rho, where p_1 = 0, w can round past 1
    if n_max >= 2:
        s = _neg_survival(b.alpha, n_max - 1)  # a product of nonnegative terms: no cancellation
        np.divide(np.multiply(s, -w * b.alpha, out=s), np.arange(2.0, n_max + 1.0), out=p[2:])
    return p


def _params_tag(p: DSParams) -> str:
    return f"DS(alpha={p.alpha:g}, gamma={p.gamma:g}, delta={p.delta:g})"


def _push(
    scaled: np.ndarray,
    weights: np.ndarray,
    support: int,
    e: int,
    h: int,
    spectra: dict[int, np.ndarray],
) -> None:
    """Add the block f(e-h .. e-1)'s share of f(e .. e+h-1) to the pending sums.

    With h the lowest set bit of e, every pair of entries i < n in different
    leaves falls in exactly one such push. Rates past ``support`` are zero, so
    a finite-support law pushes a short block into few entries.
    """
    top = min(e + h, scaled.size, e + support - 1)
    lo = max(e - h, e - support + 1)
    if e - lo >= _FFT_MIN:
        # cyclic convolution of length 2h: outputs h..2h-1 take no wrapped terms
        size = 2 * h
        spectrum = spectra.get(h)
        if spectrum is None:
            spectrum = spectra[h] = np.fft.rfft(weights[:size], size)
        block = np.fft.rfft(scaled[e - h : e], size)
        scaled[e:top] += np.fft.irfft(block * spectrum, size)[h : h + top - e]
    else:
        scaled[e:top] += np.convolve(weights[1 : top - lo], scaled[lo:e], "valid")


def ds_pmf(
    p: DSParams,
    n_max: int = DEFAULT_N_MAX,
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> PmfTable:
    """DS masses f(0..N) by the compound-Poisson recursion.

    Runs f(n) = (lam/n) * sum_k k p_k f(n-k) in the linear domain; every term
    is nonnegative so there is no cancellation. The sum is an online
    convolution, evaluated by relaxed multiplication in O(n log^2 n): direct
    dot products within leaves of _LEAF entries, block pushes between them
    (see _push). A shared power-of-two exponent
    keeps the recursion alive when f(0) = e^{-lam} underflows (lam over ~700).
    Stops at cumulative mass 1 - tail_bound or at n_max, whichever comes
    first; if n_max wins, a TailBoundUnreachable warning is issued and the
    table is returned with its honest tail mass.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    tail_bound = float(tail_bound)
    if not tail_bound >= 0.0:
        raise DomainError(f"tail_bound must be >= 0, got {tail_bound}")
    tag = _params_tag(p)
    if p.gamma == 0.0 and p.delta == 0.0:
        return PmfTable(np.array([1.0]), tag, tail_bound)

    c = ds_to_compound(p)
    lam = c.lam
    target = 1.0 - tail_bound

    if lam < 700.0:
        scaled0, exp2 = math.exp(-lam), 0
    else:
        t = -lam / math.log(2.0)
        exp2 = math.floor(t)
        scaled0 = 2.0 ** (t - exp2)

    # scaled[n] holds f(n) once computed; before that, the pending share of
    # its sum that earlier blocks pushed forward
    cap = min(n_max, 1024) + 1
    jump = bsib_pmf_array(c.summand, cap - 1)
    weights = lam * np.arange(cap, dtype=np.float64) * jump
    scaled = np.zeros(cap)
    scaled[0] = scaled0
    cum = math.ldexp(scaled0, exp2)
    support = 0  # length of the rates without trailing zeros; 0 until a push needs it
    spectra: dict[int, np.ndarray] = {}
    ldexp = math.ldexp

    n = leaf = 0
    while n < n_max and cum < target:
        n += 1
        j = n - leaf
        if j == _LEAF:
            leaf, j = n, 0
            h = n & -n
            if cap <= n_max and n + h > cap:
                cap = min(n_max, 2 * (cap - 1)) + 1
                jump = bsib_pmf_array(c.summand, cap - 1)
                weights = lam * np.arange(cap, dtype=np.float64) * jump
                scaled = np.concatenate((scaled, np.zeros(cap - scaled.size)))
                support = 0
            if not support:
                support = np.trim_zeros(weights, "b").size
                # a leaf's second entry adds its pending sum (the older terms)
                # first and w1 f(n-1) last, in the order of the direct dot
                # product, so Hermite masses keep its digits
                second = np.array((1.0, weights[1]))
            _push(scaled, weights, support, n, h, spectra)
        if j == 1 and leaf:
            value = float(second.dot((scaled[n], scaled[leaf]))) / n
        else:
            value = float(weights[j:0:-1].dot(scaled[leaf:n]) + scaled[n]) / n
        if value > _RENORM_LIMIT:
            scaled *= _RENORM_FACTOR
            value *= _RENORM_FACTOR
            exp2 += 512
        scaled[n] = value
        cum += ldexp(value, exp2)

    masses = np.ldexp(scaled[: n + 1], max(exp2, _LDEXP_MIN_EXP))
    small_negative = (masses < 0.0) & (masses > -_NEGATIVE_DUST)
    masses[small_negative] = 0.0
    table = PmfTable(masses, tag, tail_bound)
    if not table.tail_bound_met:
        warnings.warn(
            TailBoundUnreachable(
                f"{tag}: tail mass {table.tail_mass:.3e} > bound {tail_bound:.3e} "
                f"at n_max = {n_max}"
            ),
            stacklevel=2,
        )
    return table


def ds_pmf_inversion(
    p: DSParams,
    n_max: int,
    quad_points: int,
    radius: float | None = None,
) -> PmfTable:
    """Independent PMF oracle: Cauchy coefficient extraction of the PGF.

    f(n) = r^{-n}/M * sum_j G(r e^{2 pi i j/M}) e^{-2 pi i j n/M}, the
    trapezoid rule on a circle of radius r. r < 1 suppresses the aliasing of
    the folded tail (heavy tails make r = 1 hopeless: the alias error is the
    tail mass beyond M) at the cost of amplifying roundoff by r^{-n}; the
    default balances the two at ~1e-13 + 1e-13 * r^{-n_max}.
    """
    n_max = int(n_max)
    quad_points = int(quad_points)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if quad_points <= 2 * n_max:
        raise DomainError(
            f"quad_points must exceed 2*n_max, got {quad_points} <= {2 * n_max}"
        )
    if radius is None:
        radius = 1e-13 ** (1.0 / (quad_points + n_max))
    radius = float(radius)
    if not 0.0 < radius <= 1.0:
        raise DomainError(f"radius must lie in (0, 1], got {radius}")

    angles = 2.0 * math.pi * np.arange(quad_points) / quad_points
    points = radius * np.exp(1j * angles)
    values = np.array([pgf(p, complex(z)) for z in points], dtype=np.complex128)
    coef = np.fft.fft(values)[: n_max + 1] / quad_points
    amplify = radius ** -np.arange(n_max + 1, dtype=np.float64)
    coef *= amplify

    resid = float(np.max(np.abs(coef.imag)))
    if resid > 1e-8:
        raise QuadratureInsufficiency(
            f"imaginary residue {resid:.3e} exceeds 1e-8; "
            f"increase quad_points or radius accuracy"
        )
    masses = coef.real.copy()
    small_negative = (masses < 0.0) & (masses > -_INVERSION_DUST)
    masses[small_negative] = 0.0
    if np.any(masses < 0.0):
        raise InternalConsistencyError(
            f"inversion produced mass {float(masses.min())}, beyond roundoff dust"
        )
    return PmfTable(masses, _params_tag(p) + " [inversion]", math.inf)


def cdf(table: PmfTable, n: int) -> float:
    """Pr(X <= n) from a computed table; n past the table raises."""
    n = int(n)
    if n < 0:
        return 0.0
    if n >= len(table):
        raise IndexBeyondTable(
            f"index {n} beyond table of length {len(table)}; extend the table"
        )
    return float(table.cdf_values[n])


def quantile(table: PmfTable, q: float) -> int:
    """Smallest n with cdf(n) >= q, for q inside the covered mass."""
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"quantile level must lie in [0, 1), got {q}")
    if q >= 1.0 - table.tail_mass:
        raise QuantileBeyondTable(
            f"q = {q} falls in the uncomputed tail (covered mass "
            f"{1.0 - table.tail_mass}); extend the table"
        )
    return int(np.searchsorted(table.cdf_values, q, side="left"))


def moments(p: DSParams) -> MomentReport:
    """Exact mean and variance; divergent moments are reported as math.inf."""
    if p.gamma == 0.0:
        return MomentReport(mean=p.delta, variance=p.delta)
    mean = p.delta if p.alpha > 1.0 else math.inf
    variance = p.delta + 2.0 * p.gamma if p.alpha == 2.0 else math.inf
    return MomentReport(mean=mean, variance=variance)


def levy_weights(c: CompoundRep, n_max: int) -> np.ndarray:
    """Jump rates of the expanded representation: w[i] = lam * p_{i+1}.

    Size-n jumps arrive as an independent Poisson stream with rate
    lam * p_n; the rates sum to lam as n_max grows.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    return c.lam * bsib_pmf_array(c.summand, n_max)[1:]


def mode_scan(table: PmfTable, plateau_tol: float = 1e-12) -> ModeReport:
    """Locate local maxima of a truncated PMF as plateau intervals.

    Adjacent masses within plateau_tol (relative) merge into one plateau;
    exactly-zero masses never join a plateau or form a mode. The unimodal
    flag means exactly one plateau of local maxima was found over the
    scanned range.
    """
    m = table.masses
    size = m.size
    left, right = m[:-1], m[1:]
    # run i spans starts[i]..ends[i]; adjacent masses within plateau_tol share a run
    same = np.abs(left - right) <= plateau_tol * np.maximum(left, right)
    breaks = np.flatnonzero(~same) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks - 1, [size - 1]))
    peak = m[starts] > 0.0
    peak[1:] &= m[breaks - 1] < m[breaks]
    peak[:-1] &= m[breaks] < m[breaks - 1]
    modes = tuple(zip(starts[peak].tolist(), ends[peak].tolist()))
    return ModeReport(
        modes=modes,
        unimodal=len(modes) == 1,
        scanned_to=size - 1,
        tail_mass_at_scan=table.tail_mass,
    )
