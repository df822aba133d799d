"""Exact probability masses for the broad-Sibuya and discrete stable laws.

Two independent routes to the DS PMF: the compound-Poisson mass recursion
(:func:`ds_pmf`) and coefficient extraction of the PGF on a circle
(:func:`ds_pmf_inversion`). Their agreement is the package's core numerical
check. The recursion runs in leaves of 64 masses; laws of unbounded
support solve spans of 512 entries by one product per leaf with a
nonnegative leaf inverse, and add each span's running sum once, at every
rate: where f(0) underflows, a leaf past 2^512 rescales the shared exponent
between a span's leaves. The recursion's jump rates come
from the split that the sampler draws from (:func:`_split_rates`): unit
jumps at the Poisson rate delta - alpha gamma, and k alpha S(k-1) at the
core rate for k >= 2, with no rho in between. Also provides the
bSib masses w alpha S(n-1)/n from the Sibuya core's survival S (a table up
to 2^16, its closed form past it; the sampler draws from the same),
CDF/quantile lookups on computed tables, exact moments, the
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
from .genfun import _pgf_from_one
from .params import (
    BSibParams,
    CompoundRep,
    DSParams,
    _compound_rate,
    _require_count,
)

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
# np.ldexp takes an int32 exponent. Scaled entries stay below 2^1024, so from
# this exponent down every mass rounds to 0 anyway.
_LDEXP_MIN_EXP = -2200
# e^-800 lies far below half the least subnormal (e^-745.1): a mass under it rounds to 0
_LOG_NO_MASS = -800.0

# ds_pmf computes entries in leaves of this length; pushes from finished
# blocks supply the terms from before the leaf, the leaf itself the rest.
_LEAF = 64
# Laws of unbounded support solve leaves with a leaf inverse (see
# _leaf_inverses), built this many leaves at a time, from leaf 0 on, into
# one array per table (~0.5 MB; see _batch).
_BATCH = 16
# Spans of this many entries, aligned to its multiples, are solved at once
# and their running sum added once (see _solve_span), at every rate. On the
# tables mix, 512 measured ~7% faster than 256 and ~15% faster than 64 or
# 128, and 1024 no faster. At most 1024, so that a span never outgrows the
# scaled array.
_SPAN = 512
# |j - i| over a leaf's entries, to index the rates' Toeplitz matrix
_LAGS = np.abs(np.subtract.outer(np.arange(_LEAF), np.arange(_LEAF)))
# Pushes from blocks at least this long use the FFT, shorter ones a direct product.
_FFT_MIN = 512
# An FFT push adds the rates of lags below this by a direct product. The
# far-tail error to n = 4000 (DS(1.5, 1, 21), against long double) was 7.5e-11
# with every lag in the FFT, 1.8e-14 with 128 split off and 3.7e-14 with 64.
_NEAR_LAGS = 128

# Sibuya-core survival tables stop here; past it S(n) takes the closed form
_TABLE_CAP = 1 << 16
# log S(n) takes its series from here on, where the log-gamma difference
# has lost more to cancellation (~2e-12) than the series' truncation
_SERIES_FROM = 1 << 10


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
        if not (masses >= 0.0).all():  # nan fails too
            bad = float(masses[~(masses >= 0.0)][0])
            kind = "negative" if math.isfinite(bad) else "non-finite"
            raise InternalConsistencyError(f"{kind} mass {bad} in table")
        masses.setflags(write=False)
        cum = np.cumsum(masses)
        if not math.isfinite(cum[-1]):  # the masses are >= 0, so one is inf
            raise InternalConsistencyError("non-finite mass inf in table")
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


def _split_rates(alpha: float, gamma: float, delta: float) -> tuple[float, float]:
    """(Poisson rate, core compound rate) of DS(alpha, gamma, delta).

    With x = 1 - z the PGF is exp(-(delta - alpha gamma) x) times the core
    law's exp(-alpha gamma x + gamma x^alpha). The core rate (alpha - 1) gamma,
    or gamma at alpha = 1, has no delta in it and stays within |gamma|. The
    Poisson rate is >= 0 as computed: DSParams checked delta >= alpha gamma.
    Past the float range it raises a DomainError.
    """
    rate = delta - alpha * gamma
    if math.isinf(rate):
        raise DomainError(
            f"the Poisson rate delta - alpha gamma = {delta:.6g} - {alpha:g} "
            f"({gamma:.6g}) passes the float range (~1.8e308)"
        )
    return rate, gamma if alpha == 1.0 else (alpha - 1.0) * gamma


def _neg_survival(alpha: float, size: int, start: int = 1, before: float = -1.0) -> np.ndarray:
    """-S(start..size) of the Sibuya core at alpha, negated to ascend (size >= start).

    A start past 1 continues the product from before = -S(start - 1), with
    the products of a start at 1 in their order: the values keep its digits.
    """
    # 1 - alpha/k in place: at the cap, temporaries would set the peak memory
    factors = np.arange(float(start), size + 1.0)
    np.subtract(1.0, np.divide(alpha, factors, out=factors), out=factors)
    factors[0] = -1.0 if start == 1 else before * factors[0]  # S(1) = 1, negated
    return np.cumprod(factors, out=factors)


def _log_survival(alpha: float, n: int) -> float:
    """log S(n) = lgamma(n+1-a) - lgamma(n+1) - lgamma(2-a), or -inf at a = 2 (n >= 2).

    From n = 2^10 on, where the log-gamma difference cancels, its
    Tricomi-Erdelyi series to n^-3, whose terms are (B_{k+1}(1-a) - B_{k+1}(1))
    (-1)^{k+1} / (k (k+1) n^k): off by O(n^-4), 2.3e-13 at n = 2^10. Both
    routes stay within 2e-12 of the exact value; n may pass the float range.
    """
    const = -math.lgamma(2.0 - alpha) if alpha < 2.0 else -math.inf
    if n < _SERIES_FROM:
        return const + math.lgamma(n + 1.0 - alpha) - math.lgamma(n + 1.0)
    log_n = math.log(n)
    x = math.exp(-log_n)  # 1/n
    b = alpha * (alpha - 1.0)
    return const - alpha * log_n + b * x * (0.5 + x * ((alpha - 0.5) / 6.0 + x * b / 12.0))


def bsib_pmf(b: BSibParams, n: int) -> float:
    """Pr(X = n) of the broad-Sibuya law (support from 1); O(1) memory past the table cap."""
    n = _require_count(n, "broad-Sibuya support excludes {}; need n >= 1", 1)
    if n <= _TABLE_CAP:
        return float(bsib_pmf_array(b, n)[n])
    w = _core_weight(b.alpha, b.rho)
    return w * b.alpha * math.exp(_log_survival(b.alpha, n - 1)) / n


def bsib_pmf_array(b: BSibParams, n_max: int) -> np.ndarray:
    """Masses p_0..p_{n_max} (p_0 = 0): p_1 = 1 - w, p_n = w alpha S(n-1)/n."""
    n_max = _require_count(n_max, "n_max must be >= 0, got {}")
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


class _Rates:
    """One table's jump rates w_k, for k below a power of two, grown as it grows.

    w_0 = 0, w_1 = rate (the unit jumps) and w_k = core_rate alpha S(k-1)
    for k >= 2, k times the rate of the core's k-jumps. A push into entries below cap
    with an FFT of size 2h reads the rates up to 2h - 1, and grow(cap) keeps
    all below the least power of two >= cap there: a spectrum padded with
    zeros would give entries digits that depend on n_max. grow continues the
    core survival's product from its last value (see _neg_survival), so the
    rates have the same digits whatever sizes they grew through.
    """

    __slots__ = ("alpha", "core_rate", "weights", "survival")

    def __init__(self, alpha: float, rate: float, core_rate: float, cap: int):
        self.alpha, self.core_rate = alpha, core_rate
        self.weights = np.array((0.0, rate))
        self.survival = -1.0  # -S(k - 2) of the next rate k, once k passes 2
        self.grow(cap)

    def grow(self, cap: int) -> np.ndarray:
        lo, size = self.weights.size, 1 << (cap - 1).bit_length()
        if size > lo:
            rates = _neg_survival(self.alpha, size - 2, lo - 1, self.survival)
            self.survival = float(rates[-1])
            np.multiply(rates, -self.core_rate * self.alpha, out=rates)
            self.weights = np.concatenate((self.weights, rates))
        return self.weights


class _FftWork:
    """One table's FFT pushes: the rates' spectra by block length, and buffers.

    spectra[h] is the spectrum of the rates below 2h with the lags below
    _NEAR_LAGS cut out. Every push writes its transforms into the two
    buffers, or into their prefix views for a block shorter than the
    longest so far, so that a table allocates them once per length it
    reaches rather than once per push.
    """

    __slots__ = ("spectra", "real", "spectrum")

    def __init__(self) -> None:
        self.spectra: dict[int, np.ndarray] = {}
        self.real = np.empty(0)
        self.spectrum = np.empty(0, dtype=complex)

    def buffers(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """A real buffer of 2h entries and a complex one of h + 1."""
        if self.real.size < 2 * h:
            self.real = np.empty(2 * h)
            self.spectrum = np.empty(h + 1, dtype=complex)
        return self.real[: 2 * h], self.spectrum[: h + 1]


def _push(
    scaled: np.ndarray,
    weights: np.ndarray,
    support: int,
    e: int,
    h: int,
    work: _FftWork | None,
) -> None:
    """Add the block f(e-h .. e-1)'s share of f(e .. e+h-1) to the pending sums.

    With h the lowest set bit of e, every pair of entries i < n in different
    leaves falls in exactly one such push. Rates from ``support`` on are zero,
    so a finite-support law pushes a short block into few entries. The direct
    products are np.convolve's own call, np.correlate on the reversed block.
    work: the FFT state, for a block of at least _FFT_MIN entries.
    """
    top = min(e + h, scaled.size, e + support - 1)
    lo = max(e - h, e - support + 1)
    if e - lo >= _FFT_MIN:
        # cyclic convolution of length 2h: outputs h..2h-1 take no wrapped
        # terms. Its roundoff scales with the largest rate it carries, so the
        # lags below _NEAR_LAGS, which hold w_1 (the unit jumps), are cut from
        # its spectrum and added by a direct product over the block's last entries.
        size = 2 * h
        spectrum = work.spectra.get(h)
        if spectrum is None:
            far = weights[:size].copy()
            far[:_NEAR_LAGS] = 0.0
            spectrum = work.spectra[h] = np.fft.rfft(far, size)
        real, product = work.buffers(h)
        np.fft.rfft(scaled[e - h : e], size, out=product)
        np.multiply(product, spectrum, out=product)
        sums = np.fft.irfft(product, size, out=real)[h : h + top - e]
        k = _NEAR_LAGS - 1
        near = np.correlate(weights[1:_NEAR_LAGS], scaled[e - k : e][::-1], "full")[k - 1 :]
        sums[:k] += near[: sums.size]
        scaled[e:top] += sums
    else:
        scaled[e:top] += np.correlate(weights[1 : top - lo], scaled[lo:e][::-1], "valid")


def _batch(index: int, last: int) -> tuple[int, int]:
    """First leaf index and leaf count of the inverse batch holding a leaf index.

    Batches hold _BATCH leaves each from leaf 0 on, [0, 16), [16, 32), ..,
    and end at leaf index last, the table's last: an inverse's digits do not
    depend on its batch.
    """
    first = index - index % _BATCH
    return first, min(_BATCH, last + 1 - first)


def _leaf_inverses(
    toeplitz: np.ndarray, first: int, count: int, rows: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(diag(L .. L+63) - W)^-1 for the leaves L = 64 first .. 64 (first + count - 1).

    W[j, i] = w_{j-i} (j > i) holds the rates, so the leaf at L solves
    (diag(L+j) - W) f = pending sums. At L = 0 the diagonal reads
    (1, 1, 2, .., 63): f(0) is given, so row 0 is the identity and the
    pending sums hold f(0) and zeros. Block doubling builds each inverse:
    [[A, 0], [-C, B]]^-1 = [[A^-1, 0], [B^-1 C A^-1, B^-1]], from the 1x1
    blocks 1/(L+j) up. C holds rates and every new block is a product of
    nonnegative blocks, so the inverse is nonnegative and has no cancellation.
    Overflow leaves inf or nan entries, which _solve_span does not take.

    toeplitz: the rates gathered as w_{|j-i|} (weights[_LAGS]); the blocks C
    read only its strictly lower part. rows: the entries the table can take
    from 64 first on. Below 64, only the top-left block that holds them is
    built, and later steps would not change its digits; the rows past it are
    not the inverse's. out: an array to build into, whose upper triangles
    are 0 (a build writes every lower entry it reads); returned, else a new
    one of count inverses.
    """
    if out is None:
        out = np.zeros((count, _LEAF, _LEAF))
    inverses = out[:count]
    diagonals = inverses.reshape(count, _LEAF * _LEAF)[:, :: _LEAF + 1]
    entries = np.arange(first * _LEAF, (first + count) * _LEAF, 1.0)
    entries[0] = max(entries[0], 1.0)  # leaf 0's row 0
    diagonals[...] = 1.0 / entries.reshape(count, _LEAF)
    s0, s1, s2 = inverses.strides
    size = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while size < min(rows, _LEAF):
            # the diagonal blocks of side 2 size, each an (A, B) pair to join
            pairs = np.ndarray(
                (count, _LEAF // (2 * size), 2 * size, 2 * size),
                inverses.dtype, inverses, 0, (s0, 2 * size * (s1 + s2), s1, s2),
            )
            low = toeplitz[size : 2 * size, :size] @ pairs[..., :size, :size]
            np.matmul(pairs[..., size:, size:], low, out=pairs[..., size:, :size])
            size *= 2
    return out


class _Inverses:
    """One table's leaf inverses, built a batch at a time (see _batch).

    Construction gathers the rates' Toeplitz matrix and makes the one array
    that every batch of the table is built into. Growing the rates keeps
    the 64 that the matrix reads.
    """

    __slots__ = ("n_max", "first", "count", "toeplitz", "batch")

    def __init__(self, weights: np.ndarray, n_max: int):
        self.n_max = n_max
        self.first = self.count = 0
        self.toeplitz = weights[_LAGS]
        self.batch = np.zeros((min(_BATCH, n_max // _LEAF + 1), _LEAF, _LEAF))

    def leaf(self, index: int) -> np.ndarray:
        if not self.first <= index < self.first + self.count:
            first, count = self.first, self.count = _batch(index, self.n_max // _LEAF)
            rows = self.n_max + 1 - first * _LEAF
            self.batch = _leaf_inverses(self.toeplitz, first, count, rows, self.batch)
        return self.batch[index - self.first]


def _solve_span(
    scaled: np.ndarray,
    weights: np.ndarray,
    work: _FftWork,
    inverses: _Inverses,
    start: int,
    end: int,
    cum: float,
    target: float,
    exp2: int,
    support: int,
) -> tuple[int, float, int]:
    """Solve the entries start .. end-1 leaf by leaf, as inverse @ pending sums.

    The pushes between the span's leaves (h below the span) write only inside
    it. One running sum of the masses, seeded with cum and added in the
    loop's order, gives the stop index; it is added at the span's end. While
    exp2 is nonzero the solve also makes a one-leaf span's checks after each
    leaf, so that every mass keeps its digits: a leaf whose values pass 2^512
    or are not finite adds the sum up to it, at its exponent, and then
    rescales the buffer unless the stop comes first. The solve takes the
    entries up to the stop, short of the first value that is not finite.
    While exp2 is nonzero, that value's leaf keeps its finite prefix and the
    rest its pending sums, and no push has passed it. A leaf's first value is
    its first pending sum over L, finite while the pushed blocks stay below
    2^512, so a leaf after the span's first gives at least one entry, and
    the loop resumes inside it without redoing its push. While exp2 is 0 the
    sum finds such a value at the span's end, and the solve takes no more
    than the span's first leaf: the pushes inside the span fed its later
    leaves, and the loop, which computes the entries not taken, does not redo
    them. Those entries get back the pending sums saved at the call, so that
    no non-finite value reaches a later push. Entry j's value reads only
    pending sums 0..j, so it does not depend on where the table ends. Returns
    the last entry taken, and cum and exp2 after it.
    """
    first = start - start % _LEAF  # start is 1 in leaf 0, whose entry 0 is given
    mark = start  # the running sum holds the entries before mark
    saved = scaled[first:end].copy()
    for leaf in range(first, end, _LEAF):
        if leaf > first:
            _push(scaled, weights, support, leaf, leaf & -leaf, work)
        pending = scaled[leaf : leaf + _LEAF]
        if pending.size < _LEAF:  # the last leaf, cut by n_max
            pending = np.concatenate((pending, np.zeros(_LEAF - pending.size)))
        lo, edge = max(leaf, start), min(leaf + _LEAF, end)
        values = inverses.leaf(leaf // _LEAF).dot(pending)[lo - leaf : edge - leaf]
        checked = exp2 and not values.max() <= _RENORM_LIMIT  # nan fails too
        if checked:
            finite = np.isfinite(values)
            if not finite.all():
                values = values[: int(finite.argmin())]
        top = lo + values.size
        scaled[lo:top] = values
        if top < end and not checked:
            continue
        # running[i] is the sum to entry mark - 1 + i; running[0] = cum
        running = np.ldexp(scaled[mark - 1 : top], max(exp2, _LDEXP_MIN_EXP))
        running[0] = cum
        np.cumsum(running, out=running)
        last = running.size - 1
        if not math.isfinite(running[-1]):  # exp2 is 0: a nan or inf carries to every later sum
            last = min(int(np.isfinite(running).argmin()) - 1, first + _LEAF - start)
            scaled[start + last : end] = saved[start + last - first :]
        if running[last] >= target:  # running[0] = cum is below it
            last = int(np.argmax(running >= target))
        cum = float(running[last])
        if exp2 and last and scaled[mark : mark + last].max() > _RENORM_LIMIT:
            scaled *= _RENORM_FACTOR
            exp2 += 512
        if top < edge or top == end or last < running.size - 1 or cum >= target:
            break
        mark = top
    return mark - 1 + last, cum, exp2


def ds_pmf(
    p: DSParams,
    n_max: int = DEFAULT_N_MAX,
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> PmfTable:
    """DS masses f(0..N) by the compound-Poisson recursion.

    Runs f(n) = (1/n) * sum_k w_k f(n-k) in the linear domain; every term
    is nonnegative so there is no cancellation. The rates w_k = lam k p_k
    are the split's (see _split_rates): w_1 = delta - alpha gamma and
    w_k = R alpha S(k-1) from k = 2 on, R the core rate and S the Sibuya
    core's survival, with no rho in between, so laws past delta/|gamma| ~
    1e16 have masses too.
    The sum is an online convolution, evaluated by relaxed multiplication in O(n log^2 n): block
    pushes carry the terms between leaves of _LEAF entries (see _push).
    Within a leaf at L the masses solve (diag(L+j) - W) f = pending sums, W
    the rates' lower Toeplitz matrix. Laws of unbounded support solve that
    as one product with the leaf's inverse, which is nonnegative: block
    doubling builds it from products of nonnegative blocks, with no
    subtraction (see _leaf_inverses). The running sum, stop index and
    finite check run once per span of _SPAN entries (see _solve_span), at
    every rate. From lam = 700 on, a shared power-of-two exponent keeps the
    recursion alive though f(0) = e^{-lam} underflows; a leaf past 2^512
    raises it between a span's leaves. Hermite and Poisson laws, and
    any entry the inverse would overflow, take the loop, one dot product
    per entry. A rate so large that every mass up to
    n_max rounds to 0 gives zeros without the recursion. Stops at
    cumulative mass 1 - tail_bound or at n_max, whichever comes first; if
    n_max wins, a TailBoundUnreachable warning is issued and the table is
    returned with its honest tail mass. A mass's digits depend on the law
    and its index only, not on n_max or tail_bound.
    """
    table = _ds_pmf(p, n_max, tail_bound)
    if not table.tail_bound_met:
        warnings.warn(
            TailBoundUnreachable(
                f"{table.params_tag}: tail mass {table.tail_mass:.3e} > bound "
                f"{table.tail_bound:.3e} at n_max = {int(n_max)}"
            ),
            stacklevel=2,
        )
    return table


def _ds_pmf(p: DSParams, n_max: int, tail_bound: float) -> PmfTable:
    """ds_pmf's table, without its warning: tail_bound_met tells the same.

    For callers whose tables miss the bound by design (truncated windows,
    heavy tails): they skip formatting a warning, and swapping the process-wide
    warning filters, which is not thread-safe.

    The rates are the split (rate, core_rate) of _split_rates, and f(0) =
    e^-lam for the compound rate lam, as ds_to_compound forms it.
    """
    n_max = _require_count(n_max, "n_max must be >= 0, got {}")
    tail_bound = float(tail_bound)
    if not tail_bound >= 0.0:
        raise DomainError(f"tail_bound must be >= 0, got {tail_bound}")
    tag = _params_tag(p)
    if p.gamma == 0.0 and p.delta == 0.0:
        return PmfTable(np.array([1.0]), tag, tail_bound)

    lam = _compound_rate(p)  # f(0) = e^-lam, as CompoundRep.lam
    rate, core_rate = _split_rates(p.alpha, p.gamma, p.delta)
    target = 1.0 - tail_bound
    # Pr(X <= n) <= Pr(at most n jumps) <= e^-lam (e lam / n)^n for n < lam
    if n_max < lam and n_max * (1.0 + math.log(lam / max(n_max, 1))) - lam < _LOG_NO_MASS:
        masses = np.zeros(n_max + 1 if target > 0.0 else 1)
    else:
        rates = _Rates(p.alpha, rate, core_rate, _LEAF)  # a leaf inverse reads 64 rates
        masses = _recursion(lam, rates, n_max, target, p.alpha < 2.0 and p.gamma != 0.0)
    return PmfTable(masses, tag, tail_bound)


def _recursion(lam: float, rates: _Rates, n_max: int, target: float, blocks: bool) -> np.ndarray:
    """ds_pmf's masses, up to n_max or the first running sum >= target.

    lam: the compound rate, f(0) = e^-lam. rates: the jump rates, grown here
    as the table grows. blocks: solve leaves with their inverses (the law's
    support is unbounded).
    """
    if lam < 700.0:
        scaled0, exp2 = math.exp(-lam), 0
    else:
        t = -lam / math.log(2.0)
        exp2 = math.floor(t)
        scaled0 = 2.0 ** (t - exp2)

    # scaled[n] holds f(n) once computed; before that, the pending share of
    # its sum that earlier blocks pushed forward
    cap = min(n_max, 1024) + 1
    weights = rates.grow(cap)
    scaled = np.zeros(cap)
    scaled[0] = scaled0
    cum = math.ldexp(scaled0, exp2)
    # the rates are 0 from w_support on: Hermite and Poisson laws jump by at
    # most 2, and the other laws' support passes every entry
    support = n_max + 2 if blocks else 3
    # a leaf's second entry adds its pending sum (the older terms) first and
    # w1 f(n-1) last, in the order of the direct dot product: finite-support
    # laws keep the direct dot product's digits
    second = np.array((1.0, weights[1]))
    ldexp = math.ldexp
    # finite support solves no span and pushes no block long enough for the FFT
    work = _FftWork() if blocks else None
    inverses = _Inverses(weights, n_max) if blocks else None

    n = leaf = 0
    # blocks: spans are solved by their leaf inverses (see _solve_span) from
    # entry 1 and each leaf edge the loop reaches, to the next multiple of
    # _SPAN. The spans take no value an overflowing inverse gave, so the
    # warnings of its inf and nan are off, set once for the table.
    with np.errstate(over="ignore", invalid="ignore"):
        while n < n_max and cum < target:
            n += 1
            j = n - leaf
            if j == _LEAF:
                leaf, j = n, 0
                h = n & -n
                if cap <= n_max and n + h > cap:
                    cap = min(n_max, 2 * (cap - 1)) + 1
                    weights = rates.grow(cap)
                    scaled = np.concatenate((scaled, np.zeros(cap - scaled.size)))
                _push(scaled, weights, support, n, h, work)
            if blocks and (j == 0 or n == 1):
                end = min(n - n % _SPAN + _SPAN, n_max + 1)
                last, cum, exp2 = _solve_span(
                    scaled, weights, work, inverses, n, end, cum, target, exp2, support
                )
                if last >= n:
                    n, leaf = last, last - last % _LEAF
                    continue
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
    masses[(masses < 0.0) & (masses > -_NEGATIVE_DUST)] = 0.0
    return masses


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
    n_max = _require_count(n_max, "n_max must be >= 0, got {}")
    quad_points = _require_count(
        quad_points, f"quad_points must exceed 2*n_max, got {{}} <= {2 * n_max}", 2 * n_max + 1
    )
    if radius is None:
        radius = 1e-13 ** (1.0 / (quad_points + n_max))
    radius = float(radius)
    if not 0.0 < radius <= 1.0:
        raise DomainError(f"radius must lie in (0, 1], got {radius}")

    angles = 2.0 * math.pi * np.arange(quad_points) / quad_points
    w = 1.0 - radius * np.exp(1j * angles)
    # G(1) = 1 exactly; elsewhere G(1 - w) on all points at once
    values = np.ones(quad_points, dtype=np.complex128)
    inside = w != 0.0
    values[inside] = _pgf_from_one(p, w[inside])
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
    n = _require_count(n, "cdf index must be an integer, got {}", -math.inf)
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
    n_max = _require_count(n_max, "n_max must be >= 1, got {}", 1)
    return c.lam * bsib_pmf_array(c.summand, n_max)[1:]


def mode_scan(table: PmfTable, plateau_tol: float = 1e-12) -> ModeReport:
    """Locate local maxima of a truncated PMF as plateau intervals.

    Adjacent masses within plateau_tol (relative) merge into one plateau;
    exactly-zero masses never join a plateau or form a mode. The unimodal
    flag means exactly one plateau of local maxima was found over the
    scanned range. A plateau_tol that is not >= 0 raises a DomainError.
    """
    plateau_tol = float(plateau_tol)
    if not plateau_tol >= 0.0:  # nan fails too
        raise DomainError(f"plateau_tol must be >= 0, got {plateau_tol}")
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
