"""Seedable variate generation for the Poisson, broad-Sibuya and DS laws.

With x = 1 - z the DS PGF is exp(-(delta - alpha gamma) x) times
exp(-alpha gamma x + gamma x^alpha), so DS(alpha, gamma, delta) is
Poisson(delta - alpha gamma) plus an independent draw from its core law
DS(alpha, gamma, alpha gamma): a Poisson count, at rate |1 - alpha| |gamma|
(gamma at alpha = 1) whatever delta is, of jumps from the Sibuya core at
alpha, the broad-Sibuya law at its boundary rho. Every BSib(alpha, rho) is 1
with probability 1 - w and a core jump otherwise, for w = (1 - rho)(1 - alpha),
or rho at alpha = 1, so one table per alpha serves them all. At alpha = 2
every core jump is 2: a Hermite draw is two Poisson draws.

A core jump at t = 1 - u is the smallest n with S(n) < t for the survival
S(n) = prod_{k=2..n} (1 - alpha/k), from a lazily doubled table; past the
capped table it inverts S's closed form by bisection around its asymptotic
inverse, on the top 64 bits of answers past 2^4096. An array of jumps finds
most of its tail answers in numpy instead, by the asymptotic inverse and a
Newton step checked against the bisection's comparisons, with the same
integers. The rate split, w, S's table and its closed form come from pmf,
whose masses read the same.
Poisson and binomial draws are numpy's (transformed rejection / BTPE), except
that Poisson rates from 2^33 and binomial counts past 1e17 take the normal
limit, in integer arithmetic.

``sample_ds(p, rng, size=n)`` draws n variates at once: one Poisson array,
one array of jump counts, one uniform array looked up in the same table, and
per-variate totals as differences of a cumulative sum. Arrays with a
variate past 2^62 - 1 hold exact Python ints in an object array. The n
scalar variates of ``_draws`` (``dstable sample``) of a law without table
lookups, Poisson or Hermite, take one numpy call with the stream of n
scalar calls.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .genfun import stability_mu, translate_params
from .params import BSibParams, DSParams, _require_count, classify
from .pmf import (
    _SERIES_FROM,
    _TABLE_CAP,
    PmfTable,
    _core_weight,
    _ds_pmf,
    _neg_survival,
    _split_rates,
)

if TYPE_CHECKING:
    from numpy.random import Generator, SeedSequence

__all__ = [
    "RngStream",
    "ExperimentResult",
    "sample_poisson",
    "sample_bsib",
    "sample_ds",
    "thin",
    "translate",
    "stability_experiment",
    "pool_counts",
    "tv_against_table",
]

_MASK64 = (1 << 64) - 1

_TABLE_INIT = 64
# tables kept per cache, least recently used first out: Sibuya cores' survival
# tables (one per alpha), and stability_experiment's reference tables (one per
# law and length, at most 10_001 masses and their sums: 5 MB in all)
_TABLE_CACHE_SIZE = 32
# uniforms drawn per pass of the batch sampler; bounds its memory at large lam
_JUMP_BATCH = 1 << 20
# the most core jumps one variate may take: a larger count raises a DomainError
# before any jump is drawn. At the budget one variate's jumps fill one pass of
# the batch sampler (~18 MB, 0.05 s), and so does a scalar draw.
_JUMP_BUDGET = _JUMP_BATCH
# a scalar draw with more jumps than this draws them as one array: a jump by
# _CoreTable.draw costs ~1 us with its uniform, one draw_array call ~7-8 us
# up to a few dozen jumps
_SCALAR_JUMPS_MAX = 8
# _draws takes a law without table lookups whose two rates are both nonzero
# in one numpy call from this many variates on (see _jump_free_draws)
_PAIRED_DRAWS_MIN = 12
# the longest core jump, in bits, that the closed-form tail builds (2 MB)
_TAIL_BITS_MAX = 1 << 24
# draw_array finds most tail jumps in numpy (see _CoreTable._tail_quantiles).
# log S(n) = c - a log n + O(1/n) and log t, as numpy and math evaluate them,
# lie within ~13 ulps of |c| + a log n + |log t| of their exact values (logs
# within 4 ulps); each side of a jump must clear log t by _TAIL_MARGIN times
# that sum, 64 ulps of it. The steps a/n of log S pass below twice that margin
# before n = 2^41, so no answer of 2^45 or more, where the scalar bisection
# stops at a relative width instead of 1, passes the check.
_TAIL_MARGIN = 2.0**-46
_TAIL_FAST_LOG = 32.0  # log n clipped here, past log(2^45), for a finite exp

# goodness-of-fit bins stop where fewer than this many samples are expected
_MIN_EXPECTED = 5.0
# stability_experiment's reference table: its longest length and its
# coverage; every law starts short and grows by _REFERENCE_GROWTH.
# n_max 63 gives 64 entries, one ds_pmf leaf: 64 would build a second leaf
# inverse for one entry.
_REFERENCE_N_MAX = 10_000
_REFERENCE_TAIL = 1e-6
_REFERENCE_START = 63
_REFERENCE_GROWTH = 4
# relative slack on the stopping comparisons, far above the masses' rounding
_UNIMODAL_MARGIN = 1e-6

# int64 arrays hold values up to here, so that a sum of two cannot wrap
_INT64_SAFE_MAX = (1 << 62) - 1
# numpy's binomial passes a 33-bin chi-square (1e6 draws) up to 1e18 trials,
# but beside its own 1e9-trial stream its variance reads 2-5e-4 high at 1e18
# and 4-6% at 4e18. Up to 1e17 it does not move.
_BINOMIAL_EXACT_MAX = 10**17
# numpy's Poisson accepts in log space, with an absolute error near
# rate log(rate) 2^-53: from ~1e13 on it fails a chi-square at 1e6 draws, from
# ~1e16 on its variance reads ~1.5 rate, and past ~9.2e18 it refuses. From
# here on the normal limit, O(rate^-1/2), is the smaller error.
_POISSON_EXACT_MAX = float(1 << 33)
# _round_normal takes the exact integer square root of a variance up to this
# many bits, and above it the root of its leading bits; a tail jump past 2^4096
# is bisected on its leading bits too
_ROOT_EXACT_BITS = 4096


class RngStream:
    """Deterministic random stream: same seed, same build, same sequence.

    Wraps a PCG64 generator behind a SeedSequence so that :meth:`split`
    yields statistically independent child streams. Instances are
    single-owner: do not share one stream across threads.
    """

    def __init__(self, seed: int, _ss: SeedSequence | None = None):
        self.seed = _require_count(seed, "seed must be an integer, got {}", -math.inf) & _MASK64
        # numpy loads numpy.random at its first attribute access, here at the
        # first stream and not at import (+6 MB RSS, ~9 ms): a request that
        # draws nothing never pays it. A from-import here would cost ~0.5 us
        # a stream; the attribute costs ~0.06 us.
        random = np.random
        self._ss = random.SeedSequence(self.seed) if _ss is None else _ss
        self._gen = random.Generator(random.PCG64(self._ss))

    @property
    def spawn_key(self) -> tuple[int, ...]:
        return tuple(self._ss.spawn_key)

    def split(self, n_children: int = 2) -> list["RngStream"]:
        """Derive independent child streams; parent remains usable."""
        n_children = _require_count(n_children, "split needs a count of children >= 0, got {}")
        return [RngStream(self.seed, _ss=child) for child in self._ss.spawn(n_children)]

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return float(self._gen.random())

    def poisson(self, rate: float) -> int:
        return int(self._gen.poisson(rate))

    def binomial(self, n: int, prob: float) -> int:
        return int(self._gen.binomial(n, prob))

    def normal(self) -> float:
        return float(self._gen.standard_normal())

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


def _round_normal(mean_num: int, var_num: int, den: int, z: float) -> int:
    """round((mean_num + sqrt(var_num) z) / den), clipped at 0, in integers.

    The normal limit of a count with mean m = mean_num/den and variance
    v = var_num/den^2, for the standard normal z: it stands in for numpy's
    Poisson and binomial draws where those lose accuracy or refuse the
    input, with an error of O(v^-1/2) in total variation. Integer arithmetic
    keeps it exact past the float range. Past _ROOT_EXACT_BITS the square
    root comes from the top 128 or more bits of var_num, within a relative
    2^-63 of the exact one: the exact root costs time superlinear in the bits
    (0.08 s at 5e5 bits, 0.33 s at 1e6).
    """
    zn, zd = z.as_integer_ratio()
    shift = 0
    if var_num.bit_length() > _ROOT_EXACT_BITS:
        shift = (var_num.bit_length() - 128) >> 1
    scaled = mean_num * zd + (math.isqrt(var_num >> 2 * shift) << shift) * zn
    return max((2 * scaled + den * zd) // (2 * den * zd), 0)


def _poisson_limit(rate: float, z: float) -> int:
    # N(rate, rate) rounded: mean num/den and variance num*den/den^2
    num, den = rate.as_integer_ratio()
    return _round_normal(num, num * den, den, z)


def sample_poisson(rate: float, rng: RngStream) -> int:
    """One Poisson(rate) variate; rate = 0 returns 0 and draws nothing.

    Rates from 2^33 on take the normal limit N(rate, rate), rounded and
    clipped at 0, whose error is O(rate^-1/2) in total variation.
    """
    rate = float(rate)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise DomainError(f"Poisson rate must be finite and >= 0, got {rate}")
    return _poisson_draw(rate, rng._gen)()


def _poisson_draw(rate: float, gen: Generator):
    """A function of no arguments that draws one Poisson(rate) variate from gen.

    For a rate already known to be finite and >= 0, as sample_poisson draws it.
    """
    if rate == 0.0:
        return lambda: 0
    if rate < _POISSON_EXACT_MAX:
        return functools.partial(gen.poisson, rate)  # a Python int
    normal = gen.standard_normal
    return lambda: _poisson_limit(rate, normal())


def _poisson_array(rate: float, size: int, rng: RngStream) -> np.ndarray:
    """size Poisson(rate) variates, each as :func:`sample_poisson` draws it."""
    if rate < _POISSON_EXACT_MAX:
        return rng._gen.poisson(rate, size)  # rate 0 draws nothing
    normals = rng._gen.standard_normal(size).tolist()
    return np.array([_poisson_limit(rate, z) for z in normals], dtype=object)


class _CoreTable:
    """-S(1..N) of the Sibuya core at one alpha, negated to ascend; grown lazily.

    A scalar jump bisects a memoryview of the table (no copy): numpy's
    searchsorted costs ~1 us of call overhead for one value, bisect_right on
    the view ~0.4 us, and both give the same index.
    """

    __slots__ = ("alpha", "neg_survival", "_view", "_last")

    def __init__(self, alpha: float):
        self.alpha = alpha
        self._set(_neg_survival(alpha, _TABLE_INIT))

    def _set(self, neg_survival: np.ndarray) -> None:
        self.neg_survival = neg_survival
        self._view = memoryview(neg_survival)
        self._last = float(neg_survival[-1])

    def _grow_to(self, neg_t: float) -> None:
        while self._last <= neg_t and self.neg_survival.size < _TABLE_CAP:
            self._set(_neg_survival(self.alpha, min(2 * self.neg_survival.size, _TABLE_CAP)))

    def draw(self, t: float) -> int:
        """The smallest n with S(n) < t, for t = 1 - u in (0, 1]."""
        if self._last <= -t:
            self._grow_to(-t)
            if self._last <= -t:
                return self._tail_quantile(t)
        return bisect.bisect_right(self._view, -t) + 1

    def draw_array(self, u: np.ndarray) -> np.ndarray:
        """Jumps for an array of uniforms, each as :meth:`draw` gives it at 1 - u.

        u is overwritten. int64, unless the closed-form tail gives values large
        enough that a sum of the jumps could pass 2^62 - 1; then object ints.
        """
        neg_t = np.subtract(u, 1.0, out=u)  # -t, exact on numpy's 2^-53 grid
        top = float(neg_t.max()) if neg_t.size else -1.0  # -1: no t, nothing to grow
        self._grow_to(top)
        jumps = np.searchsorted(self.neg_survival, neg_t, side="right")
        jumps += 1
        if top >= self._last:  # some t lies past the table
            beyond = np.flatnonzero(neg_t >= self._last)
            tail = self._tail_quantiles(np.negative(neg_t[beyond]))
            if sum(tail) > _INT64_SAFE_MAX - _TABLE_CAP * neg_t.size:
                jumps = jumps.astype(object)
            jumps[beyond] = tail
        return jumps

    def _tail_quantiles(self, t: np.ndarray) -> list[int]:
        """[self._tail_quantile(x) for x in t], most of them found in numpy.

        The asymptotic inverse and one Newton step on log S's series give a
        candidate n, kept where log S(n - 1) > log t >= log S(n) holds with
        both sides clear of log t by a margin (see _TAIL_MARGIN). The series
        is strictly decreasing from 2^10 on (tail answers pass the cap, 2^16),
        and its values in numpy and in _log_survival lie within a few ulps of
        its exact value, so every comparison of the scalar bisection then
        falls the same way, and it ends at n (its bracket holds n: n / n0 =
        1 + O(1/n)). Other answers, among them all those of 2^41 or more, are
        the scalar ones.
        """
        alpha = self.alpha
        if alpha == 1.0:
            return np.ceil(1.0 / t).astype(np.int64).tolist()  # t >= 2^-53
        log_t = np.log(t)
        const, b = -math.lgamma(2.0 - alpha), alpha * (alpha - 1.0)
        c1, c2 = (alpha - 0.5) / 6.0, b / 12.0

        def log_survival(n: np.ndarray) -> np.ndarray:
            x = 1.0 / n
            return const - alpha * np.log(n) + b * x * (0.5 + x * (c1 + x * c2))

        # log n0 solves const - a log n = log t; Newton's step adds the series' rest
        y = (const - log_t) / alpha
        x = np.exp(-y)
        y += b * x * (0.5 + x * (c1 + x * c2)) / (alpha + 0.5 * b * x)
        y = np.minimum(y, _TAIL_FAST_LOG)
        n = np.ceil(np.exp(y))
        margin = _TAIL_MARGIN * (abs(const) + alpha * y - log_t)
        fast = log_survival(n) <= log_t - margin
        fast &= log_survival(n - 1.0) > log_t + margin
        tail = n.astype(np.int64).tolist()
        for i in np.flatnonzero(~fast).tolist():
            tail[i] = self._tail_quantile(float(t[i]))
        return tail

    def _tail_quantile(self, t: float) -> int:
        # smallest n with S(n) <= t, from the closed-form survival:
        # S(n) = 1/n at alpha = 1, else Gamma(n+1-a)/(Gamma(2-a) n!)
        alpha = self.alpha
        if alpha == 1.0:
            return math.ceil(1.0 / t)
        log_t = math.log(t)
        const = -math.lgamma(2.0 - alpha)
        # the answer lies in [n0/2, 2 n0 + 2] (Gautschi's inequality) for the asymptotic
        # inverse n0 = (Gamma(2-a) t)^(-1/a), at least 1, built exactly from mantissa and exponent
        log2_n0 = max((const - log_t) / (alpha * math.log(2.0)), 0.0)
        if log2_n0 > _TAIL_BITS_MAX:
            raise DomainError(f"a Sibuya jump at alpha = {alpha} passes 2^{_TAIL_BITS_MAX}")
        e = math.floor(log2_n0)
        m = int(2.0 ** (log2_n0 - e) * 2.0**52)  # n0 = (m << e) >> 52
        if e >= _ROOT_EXACT_BITS:
            return _huge_tail_quantile(alpha, m, e, log_t)
        n0 = (m << e) >> 52
        # bisect on S(lo) > t >= S(hi) to the relative width double precision resolves;
        # each step compares _log_survival(alpha, mid), inlined with its constants
        # hoisted, in the same floating-point operations
        b, c1 = alpha * (alpha - 1.0), (alpha - 0.5) / 6.0
        lgamma, log, exp = math.lgamma, math.log, math.exp
        lo, hi = n0 >> 1, 2 * n0 + 2
        while hi - lo > max(1, hi >> 45):
            mid = (lo + hi) // 2
            if mid < _SERIES_FROM:
                log_s = const + lgamma(mid + 1.0 - alpha) - lgamma(mid + 1.0)
            else:
                log_n = log(mid)
                x = exp(-log_n)  # 1/n
                log_s = const - alpha * log_n + b * x * (0.5 + x * (c1 + x * b / 12.0))
            if log_s > log_t:
                lo = mid
            else:
                hi = mid
        return hi


def _huge_tail_quantile(alpha: float, m: int, e: int, log_t: float) -> int:
    """The tail bisection of _CoreTable._tail_quantile for n0 = m 2^(e-52) past 2^4096.

    Bisecting the full-width integers costs time linear in their bits at each
    step (~30 ms a jump at alpha = 1e-6, whose answers have ~4.8e6 bits), but
    only the top ~46 bits of the bracket move. So the bracket is kept as
    64-bit mantissas at the fixed shift e - 63, to the same relative width
    2^-45, and shifted once. Each step compares the very log S(mid << shift)
    of the full-width loop: math.log of an int past the float range is
    log(x) + log(2) e' for its frexp (x, e'), and 1/n underflows in the
    series, so log S = -lgamma(2 - a) - a log n. The answer lies within the
    loops' common stop width, relative 2^-45, of the full-width loop's.
    """
    shift = e - 63
    const, log2 = -math.lgamma(2.0 - alpha), math.log(2.0)
    lo, hi = m << 10, (m << 12) + 1  # n0 / 2 and 2 n0 + 2, rounded outward
    while hi - lo > max(1, hi >> 45):
        mid = (lo + hi) // 2
        x, bits = math.frexp(mid)  # mid has <= 66 bits: float(mid) rounds as frexp of mid << shift
        if const - alpha * (math.log(x) + log2 * (bits + shift)) > log_t:
            lo = mid
        else:
            hi = mid
    return hi << shift


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _core_table(alpha: float) -> _CoreTable:
    return _CoreTable(alpha)


def sample_bsib(b: BSibParams, rng: RngStream) -> int:
    """One broad-Sibuya variate by inverse CDF: 1 if t = 1 - u > w, else a core jump at t/w."""
    t = 1.0 - rng.random()
    w = _core_weight(b.alpha, b.rho)
    if t > w:
        return 1
    return _core_table(b.alpha).draw(t / w)


def sample_ds(p: DSParams, rng: RngStream, size: int | None = None) -> int | np.ndarray:
    """DS variates: Poisson(delta - alpha gamma) plus the core law's jumps each.

    The stream is consumed in that order (see the module notes): the Poisson
    part, the jump counts, then the jumps; a rate of 0 draws nothing.

    Without size, one variate as an int. With size=n, an array of n: int64,
    or an object array of exact ints when a variate passes 2^62 - 1.
    size=1 consumes the stream exactly as one call without size does, but
    n > 1 does not match n such calls: the array form draws all n Poisson
    parts and all n jump counts before any jump.

    A variate whose jump count passes 2^20 raises a DomainError before any
    jump is drawn, so the cost of a variate is bounded whatever gamma is.
    """
    if size is not None:
        return _sample_ds_array(p, rng, size)
    return _draws(p, rng, 1)[0]


def _draws(p: DSParams, rng: RngStream, n: int) -> list[int]:
    """n scalar DS variates, as n calls of sample_ds(p, rng) draw them.

    The rates, the core table and the generator's methods are looked up once
    for all n. A variate past the jump budget raises before its jumps.
    """
    rate, core_rate = _split_rates(p.alpha, p.gamma, p.delta)
    gen = rng._gen
    if (
        n > 1
        and (p.alpha == 2.0 or core_rate == 0.0)
        and (n >= _PAIRED_DRAWS_MIN or rate == 0.0 or core_rate == 0.0)
        and max(rate, core_rate) < _POISSON_EXACT_MAX
    ):
        return _jump_free_draws(rate, core_rate, gen, n)
    part, jump_count = _poisson_draw(rate, gen), _poisson_draw(core_rate, gen)
    values = []
    if p.alpha == 2.0 or core_rate == 0.0:  # every core jump is 2, or there are none
        for _ in range(n):
            total = part()
            values.append(total + 2 * jump_count())
        return values
    table = _core_table(p.alpha)
    draw, random = table.draw, gen.random
    for _ in range(n):
        total = part()
        count = jump_count()
        if count > _SCALAR_JUMPS_MAX:
            if count > _JUMP_BUDGET:
                raise _jump_budget_error(core_rate)
            # the same uniforms in the same order: draw_array forms u - 1 = -t exactly
            total += int(table.draw_array(random(count)).sum())
        else:
            for _ in range(count):
                total += draw(1.0 - random())
        values.append(total)
    return values


def _jump_free_draws(rate: float, core_rate: float, gen: Generator, n: int) -> list[int]:
    """n variates Poisson(rate) + 2 Poisson(core_rate), each pair drawn in that order.

    For a law without table lookups: a Poisson law (core rate 0) or a Hermite
    one (every core jump is 2), both rates below 2^33. numpy draws nothing at
    rate 0, so one call over the interleaved rates uses gen as the scalar loop
    does. A call at one rate costs ~1.5 us, one over an array of rates ~13 us:
    with both rates nonzero the loop is cheaper below _PAIRED_DRAWS_MIN
    variates.
    """
    if rate == 0.0:
        return (2 * gen.poisson(core_rate, n)).tolist()
    if core_rate == 0.0:
        return gen.poisson(rate, n).tolist()
    pairs = gen.poisson((rate, core_rate), (n, 2))
    return (pairs[:, 0] + 2 * pairs[:, 1]).tolist()


def _sample_ds_array(p: DSParams, rng: RngStream, size: int) -> np.ndarray:
    size = _require_count(size, "size must be >= 0, got {}")
    rate, core_rate = _split_rates(p.alpha, p.gamma, p.delta)
    total = _poisson_array(rate, size, rng)
    counts = _poisson_array(core_rate, size, rng)
    if p.alpha == 2.0:  # every core jump is 2
        total = total + 2 * counts
    elif counts.size:
        most = counts.max()
        if most > _JUMP_BUDGET:
            raise _jump_budget_error(core_rate)
        if most:
            total = total + _jump_sums(counts, _core_table(p.alpha), rng._gen)
    # each part stays below 2^62 in int64, so their sum cannot wrap
    if total.size and total.max() > _INT64_SAFE_MAX:
        return total.astype(object)
    return total.astype(np.int64, copy=False)


def _jump_budget_error(core_rate: float) -> DomainError:
    return DomainError(
        f"a variate needs more than {_JUMP_BUDGET} core jumps, the budget per "
        f"variate (Poisson count at the core jump rate {core_rate:.6g})"
    )


def _jump_sums(counts: np.ndarray, table: _CoreTable, gen: Generator) -> np.ndarray:
    """Per-variate sums of counts[i] jumps each, drawn in passes of whole variates.

    Jumps that fit one pass of _JUMP_BATCH uniforms (read at call time) are
    drawn in one, with no pass planning.
    """
    size = counts.size
    bounds = np.zeros(size + 1, dtype=np.int64)  # variate i owns jumps bounds[i]:bounds[i+1]
    np.cumsum(counts, out=bounds[1:])
    parts = []
    lo = 0
    while lo < size:
        if bounds[size] - bounds[lo] <= _JUMP_BATCH:
            hi = size  # the rest fit one pass
        else:
            # the whole variates whose jumps fit one pass, and at least one
            fit = int(np.searchsorted(bounds, bounds[lo] + _JUMP_BATCH, side="right")) - 1
            hi = max(lo + 1, fit)
        jumps = table.draw_array(gen.random(int(bounds[hi] - bounds[lo])))
        sums = np.zeros(jumps.size + 1, dtype=jumps.dtype)
        np.cumsum(jumps, out=sums[1:])
        part = np.diff(sums[bounds[lo : hi + 1] - bounds[lo]])
        if not parts and hi == size:
            return part
        parts.append(part)
        lo = hi
    return np.concatenate(parts)


def thin(x: int | np.ndarray, a: float, rng: RngStream) -> int | np.ndarray:
    """Binomial thinning a o x: keep each of x unit counts with probability a.

    x is one count, or an array of counts: int64, or object holding ints.
    A float or unsigned array with a count past int64 is thinned through
    exact ints, each truncated by int() as a scalar count is.
    Counts up to 1e17 are thinned exactly by numpy's binomial. Larger
    counts take the normal limit N(xa, xa(1-a)), rounded and clipped to
    [0, x], whose error is O((xa(1-a))^-1/2) in total variation; it is
    computed in integer arithmetic, so counts past the float range thin too.
    """
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"thinning fraction must lie in [0, 1], got {a}")
    if isinstance(x, np.ndarray):
        return _thin_array(x, a, rng)
    x = _require_count(x, "cannot thin a negative count, got {}")
    if a == 0.0 or x == 0:
        return 0
    if a == 1.0:
        return x
    if x <= _BINOMIAL_EXACT_MAX:
        return rng.binomial(x, a)
    # N(x a, x a (1-a)) rounded: mean x num/den and variance x num (den-num)/den^2
    num, den = a.as_integer_ratio()
    return min(_round_normal(x * num, x * num * (den - num), den, rng.normal()), x)


def _thin_array(x: np.ndarray, a: float, rng: RngStream) -> np.ndarray:
    if x.dtype != object:
        if x.dtype.kind == "f" and not np.isfinite(x).all():
            raise DomainError(f"cannot thin a non-finite count, got {x[~np.isfinite(x)][0]}")
        if x.dtype.kind in "fu" and x.size and int(abs(x).max()) > np.iinfo(np.int64).max:
            x = np.array([int(v) for v in x.tolist()], dtype=object)
        else:
            x = x.astype(np.int64, copy=False)
    if not x.size:
        return x.copy()
    if x.min() < 0:
        raise DomainError(f"cannot thin a negative count, got {x.min()}")
    if a == 1.0:
        return x.copy()  # every count kept, nothing drawn, as the scalar thin
    if x.dtype != object and x.max() <= _BINOMIAL_EXACT_MAX:
        return rng._gen.binomial(x, a)  # every count exact: one call, no masks
    exact = x <= _BINOMIAL_EXACT_MAX
    out = x.copy()
    out[exact] = rng._gen.binomial(x[exact].astype(np.int64), a)
    if a == 0.0:
        out[~exact] = 0
    elif not exact.all():
        # thin's normal limit per count, with the normals drawn in one call
        large = [int(v) for v in x[~exact]]
        num, den = a.as_integer_ratio()
        normals = rng._gen.standard_normal(len(large)).tolist()
        out[~exact] = [
            min(_round_normal(v * num, v * num * (den - num), den, z), v)
            for v, z in zip(large, normals)
        ]
    return out


def translate(x: int, m: float, rng: RngStream) -> int:
    """Poisson translation x (+) m: add an independent Poisson(m) count."""
    m = float(m)
    if not (math.isfinite(m) and m >= 0.0):
        raise DomainError(
            f"sampling can only realize nonnegative translations, got {m}"
        )
    x = _require_count(x, "translate needs a count >= 0, got {}")
    return x + sample_poisson(m, rng)


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of the Monte-Carlo stability check."""

    n_samples: int
    mu: float
    tv_distance: float
    chi_square_stat: float
    bins_used: int
    # pooled bins with positive expectation, minus 1: the Pearson statistic's
    # degrees of freedom (bins_used counts the bins before pooling)
    chi_square_dof: int


def pool_counts(
    observed: np.ndarray, expected: np.ndarray, min_expected: float = _MIN_EXPECTED
) -> tuple[np.ndarray, np.ndarray]:
    """Merge consecutive bins until every pooled bin expects >= min_expected."""
    obs_pooled: list[float] = []
    exp_pooled: list[float] = []
    acc_obs = acc_exp = 0.0
    # over Python floats: iterating the arrays would box each value as a numpy scalar
    observed = np.asarray(observed, dtype=np.float64).tolist()
    expected = np.asarray(expected, dtype=np.float64).tolist()
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= min_expected:
            obs_pooled.append(acc_obs)
            exp_pooled.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0.0:
        if exp_pooled:
            obs_pooled[-1] += acc_obs
            exp_pooled[-1] += acc_exp
        else:
            obs_pooled.append(acc_obs)
            exp_pooled.append(acc_exp)
    return np.asarray(obs_pooled), np.asarray(exp_pooled)


def _support_cut(table: PmfTable, n_samples: int) -> int:
    # individual bins up to: 1-1e-6 coverage, but never past the point where
    # expected counts drop below ~5 (fine bins in a heavy tail inflate TV)
    coverage = 1.0 - _REFERENCE_TAIL
    coverage_cut = int(np.searchsorted(table.cdf_values, coverage, side="left"))
    coverage_cut = min(coverage_cut, len(table) - 1)
    heavy = np.nonzero(n_samples * table.masses >= _MIN_EXPECTED)[0]
    if heavy.size == 0 or heavy[0] > coverage_cut:
        # every sample and the whole expectation would pool into the tail bin
        raise DomainError(
            f"no mass of the {len(table)}-entry table expects "
            f">= {_MIN_EXPECTED:g} of {n_samples} samples: the comparison would be vacuous"
        )
    return min(coverage_cut, int(heavy[-1]))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _reference_rung(target: DSParams, n_max: int) -> PmfTable:
    # the core, not ds_pmf: short and heavy-tailed tables miss 1e-6 by design
    return _ds_pmf(target, n_max, _REFERENCE_TAIL)


def _reference_table(target: DSParams, n_samples: int) -> PmfTable:
    """The PMF table of target that stability_experiment bins, cut short.

    n_max climbs 63, 252, 1008, 4032, 10_000 and stops at the coverage bound
    or at the first rung past which no mass can expect 5 samples of n_samples,
    so the table gives the same _support_cut, binned masses and tail bin as
    the full one. That holds once n_samples times the tail mass is below 5:
    no later mass exceeds the tail mass. It also holds for a discretely
    self-decomposable law (its Levy rates k lam p_k never increase), which is
    unimodal (Steutel & van Harn, 1979), once one of its masses lies below
    both an earlier mass and 5 expected samples. Both rules stay: on a heavy
    tail such as DS(0.5, -1, 0)'s the tail rule alone runs to 10_001 entries.

    Each rung comes from a per-process cache of _TABLE_CACHE_SIZE tables
    keyed by (target, n_max), at most 10_001 read-only masses each, so a law
    seen before costs one lookup per rung.
    """
    self_decomposable = classify(target).self_decomposable
    below = (1.0 - _UNIMODAL_MARGIN) * _MIN_EXPECTED
    n_max = _REFERENCE_START
    while True:
        table = _reference_rung(target, n_max)
        if table.tail_bound_met or n_max == _REFERENCE_N_MAX:
            return table
        if n_samples * table.tail_mass < below:
            return table
        if self_decomposable:
            m = table.masses
            past_mode = m < (1.0 - _UNIMODAL_MARGIN) * np.maximum.accumulate(m)
            if np.any(past_mode & (n_samples * m < below)):
                return table
        n_max = min(_REFERENCE_GROWTH * n_max, _REFERENCE_N_MAX)


def tv_against_table(
    values: np.ndarray, table: PmfTable, n_samples: int
) -> tuple[float, float, int, int]:
    """Total variation and Pearson statistic of samples against a PMF table.

    Bins are the individual support points 0..N plus one pooled tail bin,
    with N chosen by :func:`_support_cut`; the chi-square statistic uses a
    further pooling to expected counts >= 5. Returns (tv, chi2, bins_used,
    dof): bins_used counts the bins before that pooling, dof is the number
    of pooled bins with positive expectation minus 1.
    values may be int64 or an object array of exact ints of any size, n_samples
    of them, each >= 0; else a DomainError. So does a table none of whose
    individual bins expects 5 samples: all samples and all expectation would
    share the tail bin, and TV would read 0.
    """
    values = np.asarray(values)
    if values.size != n_samples:
        raise DomainError(
            f"{values.size} values for n_samples = {n_samples}: the bins need one value per sample"
        )
    cut = _support_cut(table, n_samples)
    # clip before the cast: draws past int64 land in the tail bin too
    clipped = np.minimum(values, cut + 1)
    if clipped.min() < 0:
        raise DomainError(f"values must be counts >= 0, got {clipped.min()}")
    counts = np.bincount(clipped.astype(np.int64, copy=False), minlength=cut + 2).astype(np.float64)
    target = np.empty(cut + 2)
    target[: cut + 1] = table.masses[: cut + 1]
    target[cut + 1] = 1.0 - float(table.cdf_values[cut])
    empirical = counts / n_samples
    tv = 0.5 * float(np.sum(np.abs(empirical - target)))
    obs, exp = pool_counts(counts, n_samples * target)
    positive = exp > 0.0
    chi2 = float(np.sum((obs[positive] - exp[positive]) ** 2 / exp[positive]))
    return tv, chi2, cut + 2, int(positive.sum()) - 1


def stability_experiment(
    p: DSParams,
    rho: float,
    n_samples: int,
    rng: RngStream,
    mu_override: float | None = None,
) -> ExperimentResult:
    """Monte-Carlo check of the defining stability identity.

    Draws X1, X2 from p, forms thin(X1, rho) + thin(X2, (1-rho^a)^{1/a}), and
    measures the total variation distance of the empirical law against the
    PMF of p translated by the closed-form shift (or by mu_override, to
    demonstrate detection of a wrong shift).

    The reference PMF is computed to coverage 1 - 1e-6 or 10_001 entries,
    but stops at the first of 64, 253, 1009 or 4033 entries where no later
    mass can expect 5 samples: the tail mass expects fewer, or, for a
    discretely self-decomposable (hence unimodal; Steutel & van Harn, 1979)
    shifted law, a mass past the mode does. Later masses cannot change the
    bins, so the result is the one the full table gives. Each length of a
    law's table is kept in a per-process cache of _TABLE_CACHE_SIZE tables,
    so repeated laws skip the PMF recursion.
    """
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    n_samples = _require_count(n_samples, "need at least 1000 samples, got {}", 1000)

    mu = stability_mu(p, rho) if mu_override is None else float(mu_override)
    table = _reference_table(translate_params(p, mu), n_samples)

    frac2 = (1.0 - rho**p.alpha) ** (1.0 / p.alpha)
    y1 = thin(sample_ds(p, rng, size=n_samples), rho, rng)
    y2 = thin(sample_ds(p, rng, size=n_samples), frac2, rng)
    tv, chi2, bins_used, dof = tv_against_table(y1 + y2, table, n_samples)
    return ExperimentResult(
        n_samples=n_samples,
        mu=mu,
        tv_distance=tv,
        chi_square_stat=chi2,
        bins_used=bins_used,
        chi_square_dof=dof,
    )
