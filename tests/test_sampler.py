"""Variate generation: determinism, distributional fidelity, operators."""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dstable import (
    BSibParams,
    DSParams,
    RngStream,
    classify,
    ds_pmf,
    ds_to_compound,
    moments,
    sample_bsib,
    sample_ds,
    sample_poisson,
    sampler,
    stability_experiment,
    stability_mu,
    thin,
    thin_params,
    translate,
    translate_params,
)
from dstable.errors import DomainError, TailBoundUnreachable
from dstable.pmf import _TABLE_CAP, _log_survival, _split_rates, bsib_pmf_array
from dstable.sampler import (
    _JUMP_BATCH,
    _JUMP_BUDGET,
    _PAIRED_DRAWS_MIN,
    _POISSON_EXACT_MAX,
    _ROOT_EXACT_BITS,
    _SCALAR_JUMPS_MAX,
    _TABLE_CACHE_SIZE,
    _TABLE_INIT,
    _CoreTable,
    _core_table,
    _draws,
    _reference_rung,
    _reference_table,
    _support_cut,
    pool_counts,
    tv_against_table,
)

import oracles
from conftest import PARAM_GRID


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(123)
        b = RngStream(123)
        assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = RngStream(1)
        b = RngStream(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_split_is_deterministic_and_disjoint(self):
        kids1 = RngStream(9).split(3)
        kids2 = RngStream(9).split(3)
        seqs1 = [[k.random() for _ in range(20)] for k in kids1]
        seqs2 = [[k.random() for _ in range(20)] for k in kids2]
        assert seqs1 == seqs2
        assert seqs1[0] != seqs1[1] != seqs1[2]

    def test_split_truncates_a_float_count(self):
        # a count goes through int(), as every count of the library does
        kids = RngStream(9).split(2.5)
        assert [k.spawn_key for k in kids] == [k.spawn_key for k in RngStream(9).split(2)]

    def test_negative_seed_masked(self):
        assert RngStream(-1).seed == (1 << 64) - 1

    def test_split_independent_of_parent_consumption(self):
        # children are keyed by the spawn counter, not the generator state
        fresh = RngStream(55)
        warmed = RngStream(55)
        for _ in range(100):
            warmed.random()
        kids_fresh = fresh.split(2)
        kids_warmed = warmed.split(2)
        for a, b in zip(kids_fresh, kids_warmed):
            assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


class TestSamplePoisson:
    def test_zero_rate(self):
        rng = RngStream(0)
        assert all(sample_poisson(0.0, rng) == 0 for _ in range(10))

    @pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
    def test_bad_rate(self, rate):
        with pytest.raises(DomainError):
            sample_poisson(rate, RngStream(0))

    def test_mean_clt(self):
        rng = RngStream(31415)
        n = 10**6
        total = sum(sample_poisson(4.0, rng) for _ in range(n))
        assert abs(total / n - 4.0) < 4.0 * math.sqrt(4.0 / n)  # ~0.008

    def test_large_rate_is_fast(self):
        # transformed rejection: a thousand draws at rate 1000 finish instantly
        rng = RngStream(5)
        draws = [sample_poisson(1000.0, rng) for _ in range(1000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 1000.0) < 5.0


class TestSampleBsib:
    def test_point_mass_at_one(self):
        rng = RngStream(2)
        assert all(sample_bsib(BSibParams(1.0, 0.0), rng) == 1 for _ in range(200))

    def test_alpha_two_endpoint_always_two(self):
        rng = RngStream(3)
        assert all(sample_bsib(BSibParams(2.0, 2.0), rng) == 2 for _ in range(200))

    def test_outputs_positive(self):
        rng = RngStream(4)
        for alpha, rho in [(0.5, 0.0), (0.3, -0.2), (1.0, 1.0), (1.5, 1.2)]:
            b = BSibParams(alpha, rho)
            assert all(sample_bsib(b, rng) >= 1 for _ in range(500))

    def test_sibuya_fraction_of_ones(self):
        rng = RngStream(77)
        b = BSibParams(0.5, 0.0)
        n = 10**5
        ones = sum(sample_bsib(b, rng) == 1 for _ in range(n))
        assert abs(ones / n - 0.5) < 0.01

    def test_heavy_tail_beyond_table_cap(self):
        # u near 1 exercises the analytic tail; frequencies must still match
        b = BSibParams(0.5, 0.0)
        rng = RngStream(8)
        draws = np.array([sample_bsib(b, rng) for _ in range(2 * 10**5)])
        frac_big = float(np.mean(draws > 10**6))
        # P(X > 1e6) = Gamma(1e6 + 0.5) / (Gamma(0.5) Gamma(1e6 + 1)) ~ 5.64e-4
        expected = math.exp(
            math.lgamma(10**6 + 0.5) - math.lgamma(0.5) - math.lgamma(10**6 + 1)
        )
        assert abs(frac_big - expected) < 4.0 * math.sqrt(expected / len(draws)) + 1e-5

    def test_chi_square_fit(self):
        cases = [(0.5, 0.0), (0.5, -0.6), (1.0, 0.5), (1.5, 1.2), (2.0, 1.5)]
        for i, (alpha, rho) in enumerate(cases):
            b = BSibParams(alpha, rho)
            rng = RngStream(1000 + i)
            n = 10**5
            draws = np.array([sample_bsib(b, rng) for _ in range(n)], dtype=np.int64)
            kmax = 200
            expected = n * bsib_pmf_array(b, kmax)[1:]
            tail_expected = n - expected.sum()
            observed = np.bincount(np.minimum(draws, kmax + 1), minlength=kmax + 2)[1:]
            obs, exp = pool_counts(
                np.append(observed[:kmax], observed[kmax]).astype(float),
                np.append(expected, tail_expected),
            )
            stat = float(np.sum((obs - exp) ** 2 / exp))
            pvalue = oracles.chi2_pvalue(stat, len(obs) - 1)
            assert pvalue > 0.001, f"bSib({alpha}, {rho}): chi2={stat}, p={pvalue}"


class TestSampleDS:
    def test_poisson_reduction(self):
        rng = RngStream(6)
        draws = [sample_ds(DSParams(1.0, 0.0, 3.0), rng) for _ in range(20000)]
        assert abs(sum(draws) / len(draws) - 3.0) < 0.05

    def test_degenerate_returns_zero(self):
        rng = RngStream(6)
        assert sample_ds(DSParams(1.0, 0.0, 0.0), rng) == 0

    def test_hermite_even_support(self):
        rng = RngStream(7)
        p = DSParams(2.0, 1.0, 2.0)
        draws = [sample_ds(p, rng) for _ in range(10**5)]
        assert all(v % 2 == 0 for v in draws)

    def test_mean_matches_moments(self):
        rng = RngStream(8)
        p = DSParams(2.0, 1.0, 3.0)
        n = 10**5
        mean = sum(sample_ds(p, rng) for _ in range(n)) / n
        # variance is 5, so 0.05 is ~7 standard errors
        assert abs(mean - moments(p).mean) < 0.05

    def test_outputs_nonnegative(self, grid_params):
        rng = RngStream(9)
        assert all(sample_ds(grid_params, rng) >= 0 for _ in range(300))

    def test_poisson_rate_past_the_float_range_is_named(self):
        # delta - alpha gamma = 1.7e308 + 0.85e308 has no double
        p = DSParams(0.5, -1.7e308, 1.7e308)
        draws = [
            lambda rng: sample_ds(p, rng),
            lambda rng: sample_ds(p, rng, size=3),
            lambda rng: _draws(p, rng, 3),
        ]
        for draw in draws:
            with pytest.raises(DomainError, match="delta - alpha gamma"):
                draw(RngStream(10))


def _reference_tail_quantile(alpha: float, rho: float, target: float) -> int:
    """Smallest n with S(n) <= target, solved in 400-digit arithmetic."""
    with mpmath.workdps(400):
        a, target = mpmath.mpf(alpha), mpmath.mpf(target)
        const = mpmath.log(abs(1 - mpmath.mpf(rho))) - mpmath.log(abs(mpmath.gamma(1 - a)))

        def excess(y):  # log S(e^y) - log target, decreasing in y
            n = mpmath.exp(y)
            return const + mpmath.loggamma(n + 1 - a) - mpmath.loggamma(n + 1) - mpmath.log(target)

        lo = hi = (const - mpmath.log(target)) / a  # -a log n ~ log S
        while excess(lo) < 0:
            lo -= 1
        while excess(hi) > 0:
            hi += 1
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
        return int(mpmath.ceil(mpmath.exp(hi)))


def _core_weight(alpha: float, rho: float) -> float:
    """w of BSib(alpha, rho) = 1 with probability 1 - w, else a Sibuya core jump."""
    return rho if alpha == 1.0 else (1.0 - rho) * (1.0 - alpha)


class TestBsibTail:
    """Broad-Sibuya quantiles, found as the core's at t/w."""

    @pytest.mark.parametrize(
        "alpha, rho", [(0.05, 0.0), (0.3, -0.2), (0.5, 0.0), (1.3, 2.0), (1.5, 1.2)]
    )
    @pytest.mark.parametrize("k", [20, 30, 40, 53])
    def test_tail_quantile_against_mpmath(self, alpha, rho, k):
        # 1 - u = 2^-k exactly; the answers run from ~1e3 to ~1e318
        table = _CoreTable(alpha)
        got = table._tail_quantile(2.0**-k / _core_weight(alpha, rho))
        want = _reference_tail_quantile(alpha, rho, 2.0**-k)
        assert want > table.neg_survival.size
        assert abs(got - want) <= 1 + want // 10**12, (got, want)

    @pytest.mark.parametrize(
        "alpha, rho, target",
        [(0.05, 0.0, 0.9), (0.3, -0.2, 0.5), (0.5, 0.0, 0.25), (1.3, 2.0, 2.0**-6),
         (1.5, 1.2, 2.0**-10)],
    )
    def test_in_table_quantile_against_mpmath(self, alpha, rho, target):
        # the answer lies inside the fresh 64-entry table
        table = _CoreTable(alpha)
        want = _reference_tail_quantile(alpha, rho, target)
        assert want <= table.neg_survival.size
        assert table._tail_quantile(target / _core_weight(alpha, rho)) == want

    @pytest.mark.parametrize("target, want", [(0.5, 1), (0.4, 2), (0.25, 2), (0.15, 4), (2.0**-20, 2**19)])
    def test_alpha_one_quantile(self, target, want):
        # S(n) = rho / n exactly; rho = 0.5 is w, and the core's S(n) = 1/n
        assert _CoreTable(1.0)._tail_quantile(target / 0.5) == want

    def test_table_cache_is_bounded(self):
        # one table per alpha, whatever rho is
        _core_table.cache_clear()
        rng = RngStream(21)
        for i in range(1000):
            sample_bsib(BSibParams(0.5, -0.999 + 0.001 * i), rng)
        assert _core_table.cache_info().misses == 1
        for i in range(2 * _TABLE_CACHE_SIZE):
            _core_table(0.01 * (i + 1))
        assert _core_table.cache_info().currsize == _TABLE_CACHE_SIZE

    @pytest.mark.parametrize(
        "alpha, rhos",
        [
            (0.05, [-0.05 / (1.0 - 0.05), 0.0, 0.9]),
            (0.3, [-0.3 / (1.0 - 0.3), -0.2, 0.5]),
            (0.5, [-1.0, 0.0, 0.99]),
            (1.0, [0.0, 0.5, 1.0]),
            (1.3, [1.01, 2.0, 1.3 / (1.3 - 1.0)]),
            (1.5, [1.2, 2.5, 3.0]),
            (1.999, [1.001, 1.5, 1.999 / (1.999 - 1.0)]),
            (2.0, [1.0000001, 1.5, 2.0]),
        ],
    )
    def test_mixture_of_one_and_the_core(self, alpha, rhos):
        # BSib(alpha, rho) = 1 w.p. 1 - w, else a core jump: p_1 = 1 - w and
        # p_n = w (S(n-1) - S(n)) for the core survival S, S(1) = 1
        survival = -_CoreTable(alpha).neg_survival
        for rho in rhos:
            w = _core_weight(alpha, rho)
            want = bsib_pmf_array(BSibParams(alpha, rho), survival.size)[1:]
            got = np.append(1.0 - w, w * -np.diff(survival))
            assert np.max(np.abs(got - want)) <= 2.0**-52, rho

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.3, 1.5])
    def test_bisection_equals_the_log_survival_loop(self, alpha):
        # the inlined series against the loop that called _log_survival at
        # each step (_full_width_tail_quantile, equal to it below 2^4096):
        # 2000 tail uniforms, whose answers pass the table, and 200 on (0, 1],
        # some of whose brackets reach below the series' start
        table = _CoreTable(alpha)
        s_cap = math.exp(_log_survival(alpha, _TABLE_CAP))
        rng = np.random.default_rng(54)
        ts = (s_cap * (1.0 - rng.random(2000))).tolist() + (1.0 - rng.random(200)).tolist()
        for t in ts:
            assert table._tail_quantile(t) == _full_width_tail_quantile(alpha, t), t

    def test_tiny_alpha_quantile_refused_before_it_is_built(self):
        # 2^-53 at alpha = 1e-9 would need an integer of ~5e10 bits
        with pytest.raises(DomainError, match="alpha"):
            _CoreTable(1e-9)._tail_quantile(2.0**-53)

    @pytest.mark.parametrize("alpha, scale, count", [(0.005, 2.0**-25, 100), (1e-6, 0.5, 3)])
    def test_huge_answers_within_the_full_width_stop(self, alpha, scale, count):
        # answers of ~5e3 and ~1e6 bits, past 2^4096: bisected on their top bits
        table = _CoreTable(alpha)
        for t in (scale * (1.0 - np.random.default_rng(52).random(count))).tolist():
            want = _full_width_tail_quantile(alpha, t)
            assert want.bit_length() > _ROOT_EXACT_BITS
            assert abs(table._tail_quantile(t) - want) <= want >> 45

    def test_huge_log_survival_is_the_full_width_one(self):
        # the top-bit bisection's log S(m << shift), as _log_survival gives it
        rng = np.random.default_rng(53)
        for alpha in (1e-6, 0.003, 0.5):
            for _ in range(50):
                m = int(rng.integers(1 << 62)) << 3 | int(rng.integers(8))
                shift = int(rng.integers(_ROOT_EXACT_BITS, 5 * 10**6))
                x, bits = math.frexp(m)
                log_n = math.log(x) + math.log(2.0) * (bits + shift)
                got = -math.lgamma(2.0 - alpha) - alpha * log_n
                assert got == _log_survival(alpha, m << shift)

    def test_huge_answers_fast(self):
        # ~5e6 bits at t = 2^-5: ~30 ms a jump on full-width integers
        table = _CoreTable(1e-6)
        best = min(_elapsed(table._tail_quantile, 2.0**-5) for _ in range(5))
        assert best < 1e-3
        start = time.perf_counter()
        values = sample_ds(DSParams(1e-6, -1.0, 0.0), RngStream(1), size=20)
        assert time.perf_counter() - start < 0.1
        assert values.dtype == object and max(values) > 2**_ROOT_EXACT_BITS


def _elapsed(f, *args) -> float:
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


def _full_width_tail_quantile(alpha: float, t: float) -> int:
    """_CoreTable._tail_quantile's bisection on full-width integers, at any size."""
    log_t = math.log(t)
    log2_n0 = max((-math.lgamma(2.0 - alpha) - log_t) / (alpha * math.log(2.0)), 0.0)
    e = math.floor(log2_n0)
    n0 = (int(2.0 ** (log2_n0 - e) * 2.0**52) << e) >> 52
    lo, hi = n0 >> 1, 2 * n0 + 2
    while hi - lo > max(1, hi >> 45):
        mid = (lo + hi) // 2
        if _log_survival(alpha, mid) > log_t:
            lo = mid
        else:
            hi = mid
    return hi


# the first 20 scalar draws of Poisson(delta - alpha gamma) plus the core law,
# checked against a replay of the same draws straight on numpy's Generator
PINNED_SCALAR_DRAWS = [
    ((0.5, -1.0, 0.0), 2024, [1, 2, 0, 0, 1, 0, 2, 0, 3, 1, 0, 25, 0, 2, 3, 3, 1, 0, 0, 0]),
    ((1.3, 1.0, 2.0), 2025, [16, 0, 2, 0, 2, 0, 0, 3, 0, 4, 4, 0, 1, 0, 5, 4, 0, 0, 1, 2]),
    ((2.0, 1.0, 3.0), 2026, [2, 5, 9, 2, 2, 3, 2, 0, 7, 3, 2, 1, 4, 5, 4, 5, 2, 9, 1, 2]),
]


class TestSampleDSArray:
    @pytest.mark.parametrize("raw, seed, draws", PINNED_SCALAR_DRAWS)
    def test_scalar_stream_pinned(self, raw, seed, draws):
        rng = RngStream(seed)
        assert [sample_ds(DSParams(*raw), rng) for _ in range(20)] == draws

    def test_size_one_matches_scalar_stream(self, grid_params):
        scalar, batch = RngStream(22), RngStream(22)
        for _ in range(500):
            one = sample_ds(grid_params, batch, size=1)
            assert one.shape == (1,)
            assert int(one[0]) == sample_ds(grid_params, scalar)
        assert scalar.random() == batch.random()

    def test_shapes_and_degenerate(self):
        rng = RngStream(23)
        assert sample_ds(DSParams(1.3, 1.0, 2.0), rng, size=0).shape == (0,)
        assert not sample_ds(DSParams(1.0, 0.0, 0.0), rng, size=50).any()
        with pytest.raises(DomainError):
            sample_ds(DSParams(1.3, 1.0, 2.0), rng, size=-1)

    def test_passes_over_jumps_join_seamlessly(self, monkeypatch):
        # lam = 20: most variates span several passes of 7 uniforms, some fit 2+ in one
        p = DSParams(1.5, 1.0, 21.0)
        whole = sample_ds(p, RngStream(28), size=300)
        monkeypatch.setattr("dstable.sampler._JUMP_BATCH", 7)
        assert np.array_equal(sample_ds(p, RngStream(28), size=300), whole)

    def test_chi_square_fidelity(self):
        n = 10**5
        for i, (alpha, gamma, delta) in enumerate(PARAM_GRID):
            p = DSParams(alpha, gamma, delta)
            values = sample_ds(p, RngStream(7000 + i), size=n)
            assert values.shape == (n,)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TailBoundUnreachable)
                table = ds_pmf(p, n_max=2000, tail_bound=1e-9)
            # heavy-tail draws past int64 (exact ints) all land in the tail bin
            clipped = np.minimum(values, len(table)).astype(np.int64)
            _, chi2, _, dof = tv_against_table(clipped, table, n)
            pvalue = oracles.chi2_pvalue(chi2, dof)
            assert pvalue > 0.001, f"{p}: chi2 = {chi2:.1f}, p = {pvalue:.5f}"

    def test_small_alpha_exact_ints(self):
        rng = RngStream(24)
        values = sample_ds(DSParams(0.05, -1.0, 0.0), rng, size=2000)
        assert values.dtype == object
        assert all(isinstance(v, int) and v >= 0 for v in values)
        assert max(values) > 2**63
        thinned = thin(values, 0.3, rng)
        assert all(0 <= t <= v for t, v in zip(thinned, values))

    def test_stability_experiment_small_alpha(self):
        result = stability_experiment(DSParams(0.05, -1.0, 0.0), 0.3, 1000, RngStream(25))
        assert result.mu == 0.0
        assert oracles.chi2_pvalue(result.chi_square_stat, result.chi_square_dof) > 0.001


class TestDrawLoop:
    """_draws(p, rng, n), the loop behind `dstable sample`, against n scalar calls."""

    @pytest.mark.parametrize(
        "raw",
        [*PARAM_GRID, (1.5, 1.0, 21.0), (1.5, 20.0, 40.0), (1.0, 0.0, 1e19), (2.0, 1e17, 1e18)],
        ids=str,
    )
    def test_equals_scalar_calls(self, raw):
        # (1.5, 20, 40) has core rate 10, so most counts pass _SCALAR_JUMPS_MAX
        # and take draw_array; Poisson(1e19) and the Hermite law take the normal limit
        p = DSParams(*raw)
        loop, scalar = RngStream(46), RngStream(46)
        got = _draws(p, loop, 300)
        assert got == [sample_ds(p, scalar) for _ in range(300)]
        assert all(type(v) is int for v in got)
        assert loop.random() == scalar.random()  # the same draws, no more

    def test_draw_array_branch_taken(self, monkeypatch):
        calls = []
        draw_array = _CoreTable.draw_array

        def spy(table, u):
            calls.append(u.size)
            return draw_array(table, u)

        monkeypatch.setattr(_CoreTable, "draw_array", spy)
        _draws(DSParams(1.5, 20.0, 40.0), RngStream(46), 50)
        assert calls and min(calls) > _SCALAR_JUMPS_MAX

    def test_jump_budget(self):
        with pytest.raises(DomainError, match="core jumps"):
            _draws(TestJumpBudget.HUGE, RngStream(47), 3)

    def test_zero_draws(self):
        rng = RngStream(48)
        assert _draws(DSParams(1.3, 1.0, 2.0), rng, 0) == []
        assert rng.random() == RngStream(48).random()

    @pytest.mark.parametrize(
        "raw",
        [(1.0, 0.0, 3.0), (1.0, 0.0, 0.0), (2.0, 1.0, 2.0), (2.0, 1.0, 3.0), (2.0, 1.0, 1e10)],
        ids=str,
    )
    @pytest.mark.parametrize("n", [1, 2, _PAIRED_DRAWS_MIN - 1, _PAIRED_DRAWS_MIN, 100])
    def test_jump_free_laws_equal_the_loop(self, raw, n):
        # Poisson(3) and the point mass at 0 (core rate 0), Hermite laws at
        # Poisson rate 0 and at both rates, and a Poisson rate past 2^33: a
        # replay of part then count per variate on numpy's Generator
        p = DSParams(*raw)
        rate, core_rate = _split_rates(p.alpha, p.gamma, p.delta)
        rng, ref, scalar = RngStream(49), RngStream(49), RngStream(49)
        got = _draws(p, rng, n)
        assert all(type(v) is int for v in got)
        assert got == [sample_ds(p, scalar) for _ in range(n)]
        after = rng.random()  # the same draws, no more
        assert after == scalar.random()
        if rate < _POISSON_EXACT_MAX:
            gen = ref._gen
            draw = [lambda r=r: int(gen.poisson(r)) if r else 0 for r in (rate, core_rate)]
            assert got == [draw[0]() + 2 * draw[1]() for _ in range(n)]
            assert after == ref.random()

    def test_jump_free_laws_take_one_call(self, monkeypatch):
        calls = []
        jump_free_draws = sampler._jump_free_draws

        def spy(rate, core_rate, gen, n):
            calls.append(n)
            return jump_free_draws(rate, core_rate, gen, n)

        monkeypatch.setattr(sampler, "_jump_free_draws", spy)
        for raw in [(1.0, 0.0, 3.0), (2.0, 1.0, 2.0)]:  # one nonzero rate
            _draws(DSParams(*raw), RngStream(50), 1)
            _draws(DSParams(*raw), RngStream(50), 2)
        _draws(DSParams(2.0, 1.0, 3.0), RngStream(50), _PAIRED_DRAWS_MIN - 1)
        _draws(DSParams(2.0, 1.0, 3.0), RngStream(50), _PAIRED_DRAWS_MIN)
        _draws(DSParams(2.0, 1.0, 1e10), RngStream(50), 100)  # normal limit: the loop
        assert calls == [2, 2, _PAIRED_DRAWS_MIN]


class TestCoreTableDraw:
    """_CoreTable.draw against searchsorted on the capped table, and the tail past it."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.3, 1.5, 1.999])
    def test_equals_searchsorted(self, alpha):
        full = _CoreTable(alpha)
        full._grow_to(-0.0)
        ref = full.neg_survival
        assert ref.size == _TABLE_CAP
        rng = np.random.default_rng(51)
        # 2e4 values of t: uniforms inside the capped table, every 61st table
        # entry exactly, and 300 past the cap; largest first, so a fresh table
        # grows through every size from 64 to the cap
        s_cap = -ref[-1]
        inside = s_cap + (1.0 - s_cap) * (1.0 - rng.random(2 * 10**4 - 300 - ref.size // 61))
        entries = -ref[::61]
        past = s_cap * (1.0 - rng.random(300))
        ts = np.sort(np.concatenate((inside, entries, past)))[::-1].tolist()
        table = _CoreTable(alpha)
        sizes = set()
        got = []
        for t in ts:
            got.append(table.draw(t))
            sizes.add(table.neg_survival.size)
        assert sizes == {_TABLE_INIT << k for k in range(11)}
        within = [t for t in ts if -t < ref[-1]]
        want = (np.searchsorted(ref, -np.array(within), side="right") + 1).tolist()
        want += [full._tail_quantile(t) for t in ts[len(within) :]]
        assert got == want
        assert len(ts) - len(within) >= 300

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 1.0, 1.3, 1.7, 1.999])
    def test_array_tail_equals_scalar(self, alpha):
        table = _CoreTable(alpha)
        table._grow_to(-0.0)
        s_cap = -table._last
        rng = np.random.default_rng(54)
        # 5000 uniforms over the tail (0, S(cap)], and t on and beside S(n)
        # for 300 n from the cap to 2^45, where the candidate is least clear
        on = np.exp(
            [_log_survival(alpha, int(k)) for k in np.exp(rng.uniform(11.1, 31.2, 300))]
        )
        ts = np.concatenate(
            (s_cap * (1.0 - rng.random(5000)), on, np.nextafter(on, 0.0), np.nextafter(on, 1.0))
        )
        ts = ts[ts <= s_cap]
        assert ts.size > 5000
        assert table._tail_quantiles(ts) == [table._tail_quantile(t) for t in ts.tolist()]

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_array_tail_mostly_in_numpy(self, alpha, monkeypatch):
        table = _CoreTable(alpha)
        table._grow_to(-0.0)
        calls = []
        monkeypatch.setattr(_CoreTable, "_tail_quantile", lambda self, t: calls.append(t) or 0)
        table._tail_quantiles(-table._last * (1.0 - np.random.default_rng(56).random(5000)))
        assert len(calls) <= 10

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_draw_array_equals_draw(self, alpha):
        # ~800 of the uniforms at alpha 0.3 and ~90 at 0.5 fall past the cap
        u = np.random.default_rng(55).random(2 * 10**4)
        table = _CoreTable(alpha)
        want = [table.draw(1.0 - x) for x in u.tolist()]
        assert table.draw_array(u).tolist() == want
        assert max(want) > _TABLE_CAP

    def test_array_tail_refusals_kept(self):
        # the scalar tail refuses answers past 2^(2^24); so does draw_array
        u = 1.0 - np.array([2.0**-20, 2.0**-53, 2.0**-30])
        with pytest.raises(DomainError, match="alpha = 1e-09"):
            _CoreTable(1e-9).draw_array(u)


# the first 20 draws of sample_bsib, recorded before the DS sampler split off
# its Poisson part: the split must leave the bSib stream as it was
PINNED_BSIB_DRAWS = [
    ((0.5, 0.0), 3101, [3, 1, 1, 1, 1, 116, 1, 47, 76, 8, 1, 5, 1, 1, 1, 2, 1, 3, 77, 1]),
    ((1.0, 0.5), 3102, [3, 3, 2, 1, 1, 2, 1, 2, 2, 1, 2, 2, 1, 1, 1, 1, 2, 1, 5, 1]),
    ((1.3, 2.0), 3103, [1, 1, 1, 1, 1, 4, 1, 1, 2, 1, 1, 2, 2, 2, 3, 1, 1, 1, 1, 1]),
]

# laws whose Poisson part delta - alpha gamma carries most (or all) of delta
SPLIT_LAWS = [
    (1.5, 1.0, 21.0),
    (1.5, 1.0, 1000.0),
    (1.0 + 1e-9, 1.0, 2.0),
    (2.0, 1.0, 3.0),
    (1.0, 1.0, 2.0),
]


def _exact_mean_var(values) -> tuple[float, float]:
    xs = [int(v) for v in values]
    n, total = len(xs), sum(xs)
    squares = sum(x * x for x in xs)
    return total / n, (n * squares - total * total) / (n * (n - 1))


class TestPoissonPlusCore:
    """DS(alpha, gamma, delta) drawn as Poisson(delta - alpha gamma) plus its core law."""

    @pytest.mark.parametrize("raw", PARAM_GRID + SPLIT_LAWS, ids=str)
    def test_rates_match_core_compound_form(self, raw):
        alpha, gamma, delta = raw
        rate, core_rate = _split_rates(alpha, gamma, delta)
        assert rate == delta - alpha * gamma >= 0.0
        if gamma == 0.0:  # the core is the point mass at zero
            assert core_rate == 0.0
            return
        c = ds_to_compound(DSParams(alpha, gamma, alpha * gamma))
        assert core_rate == pytest.approx(c.lam, rel=1e-14)
        # its jump law is the Sibuya core itself: never a mixed-in 1
        assert _core_weight(alpha, c.summand.rho) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("raw", SPLIT_LAWS, ids=str)
    def test_chi_square_against_pmf(self, raw):
        # every table entry a bin, plus the tail; degrees of freedom from the
        # pooled bins, since DS(1.5, 1, 1000) pools hundreds of empty left bins
        n = 10**5
        p = DSParams(*raw)
        values = sample_ds(p, RngStream(7101 + SPLIT_LAWS.index(raw)), size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailBoundUnreachable)
            table = ds_pmf(p, n_max=4000, tail_bound=1e-9)
        top = len(table)
        counts = np.bincount(np.minimum(values, top).astype(np.int64), minlength=top + 1)
        obs, exp = pool_counts(counts, n * np.append(table.masses, table.tail_mass))
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        pvalue = oracles.chi2_pvalue(chi2, len(obs) - 1)
        assert pvalue > 0.001, f"{p}: chi2 = {chi2:.1f}, p = {pvalue:.5f}"

    @pytest.mark.parametrize(
        "raw, seed", [((2.0, 1e6, 3e6), 7111), ((2.0, 1e17, 1e18), 7112), ((1.0, 0.0, 1e19), 7113)],
        ids=str,
    )
    def test_mean_and_variance_at_huge_rates(self, raw, seed):
        # mean delta, variance delta + 2 gamma (Hermite) or delta (Poisson)
        n = 20000
        p = DSParams(*raw)
        mean, var = _exact_mean_var(sample_ds(p, RngStream(seed), size=n))
        want = p.delta + 2.0 * p.gamma
        assert abs(mean - p.delta) < 6.0 * math.sqrt(want / n)
        assert abs(var - want) < 6.0 * want * math.sqrt(2.0 / n)

    def test_normal_limit_poisson_beyond_numpy(self):
        rate = 1e19
        assert rate > _POISSON_EXACT_MAX
        rng = RngStream(7114)
        draws = [sample_poisson(rate, rng) for _ in range(2000)]
        assert all(isinstance(v, int) and v >= 0 for v in draws)
        mean, var = _exact_mean_var(draws)
        assert abs(mean - rate) < 6.0 * math.sqrt(rate / 2000)
        assert abs(var - rate) < 6.0 * rate * math.sqrt(2.0 / 2000)

    @pytest.mark.parametrize(
        "raw", [(1.0, 0.0, 1e19), (2.0, 1e19, 1e20), (1.5, 1.0, 1e16), (0.5, -1.0, 1e300)], ids=str
    )
    def test_size_one_matches_scalar_at_huge_rates(self, raw):
        p = DSParams(*raw)
        scalar, batch = RngStream(7115), RngStream(7115)
        for _ in range(20):
            assert sample_ds(p, batch, size=1)[0] == sample_ds(p, scalar)
        assert scalar.random() == batch.random()

    def test_variates_past_int64_are_exact_ints(self):
        values = sample_ds(DSParams(1.0, 0.0, 1e19), RngStream(7116), size=50)
        assert values.dtype == object
        assert all(isinstance(v, int) for v in values)
        thinned = thin(values, 0.5, RngStream(7117))
        assert all(0 <= t <= v for t, v in zip(thinned, values))

    def test_zero_gamma_draws_only_the_poisson_part(self):
        # gamma = 0 has core rate 0, so no branch for it: the stream holds
        # the Poisson(delta) draws and nothing else
        rng, ref = RngStream(7118), RngStream(7118)
        got = sample_ds(DSParams(1.0, 0.0, 3.0), rng, size=100)
        assert np.array_equal(got, ref._gen.poisson(3.0, 100))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("raw, seed, draws", PINNED_BSIB_DRAWS)
    def test_bsib_stream_pinned(self, raw, seed, draws):
        rng = RngStream(seed)
        assert [sample_bsib(BSibParams(*raw), rng) for _ in range(20)] == draws


class TestThin:
    def test_identity_and_zero(self):
        rng = RngStream(10)
        assert thin(10, 1.0, rng) == 10
        assert thin(12345, 0.0, rng) == 0
        assert thin(0, 0.5, rng) == 0

    def test_domain(self):
        rng = RngStream(10)
        with pytest.raises(DomainError):
            thin(10, 1.5, rng)
        with pytest.raises(DomainError):
            thin(10, -0.1, rng)
        with pytest.raises(DomainError):
            thin(-1, 0.5, rng)

    def test_binomial_mean(self):
        rng = RngStream(11)
        n = 10**5
        total = sum(thin(100, 0.3, rng) for _ in range(n))
        assert abs(total / n - 30.0) < 0.2

    def test_variance_within_int64(self):
        # numpy's binomial reads its variance 4-6% high at 4e18 trials
        x = 4 * 10**18
        n = 10**5
        mean, var = _exact_mean_var(thin(np.full(n, x), 0.5, RngStream(29)))
        want = x // 4
        assert abs(mean - x // 2) < 6.0 * math.sqrt(want / n)
        assert abs(var - want) < 6.0 * want * math.sqrt(2.0 / n)

    def test_huge_count_normal_limit(self):
        rng = RngStream(12)
        x = 10**19  # beyond exact binomial range
        draw = thin(x, 0.25, rng)
        assert 0 <= draw <= x
        assert abs(draw - 0.25 * x) < 10.0 * math.sqrt(x * 0.25 * 0.75)

    def test_count_beyond_float_range(self):
        rng = RngStream(12)
        x = 10**400
        draw = thin(x, 0.25, rng)
        assert abs(draw - x // 4) < 10 * math.isqrt(x * 3 // 16)

    @pytest.mark.parametrize(
        "x", [10**400, 2**3900, 2**4000, 2**10_000 + 7, 3**30_000], ids=lambda x: x.bit_length()
    )
    def test_normal_limit_against_exact_root(self, x):
        # the variance numerator x num (den - num) has ~106 bits more than x:
        # exact up to _ROOT_EXACT_BITS, then within a relative 2^-63 of the exact root
        a = 0.3
        num, den = a.as_integer_ratio()
        z = RngStream(49).normal()
        zn, zd = z.as_integer_ratio()
        var_num = x * num * (den - num)
        root = math.isqrt(var_num)
        want = min(max((2 * (x * num * zd + root * zn) + den * zd) // (2 * den * zd), 0), x)
        got = thin(x, a, RngStream(49))
        if var_num.bit_length() <= _ROOT_EXACT_BITS:
            assert got == want
        else:
            assert got != x // 2  # the draw moved off the mean
            assert abs(got - want) <= (root // den * math.ceil(abs(z)) >> 62) + 1

    def test_huge_counts_fast(self):
        # the exact roots of 200 variances of ~5e5 bits take ~17 s (~0.08 s each)
        x = np.array([(1 << 500_000) + 7919 * k for k in range(200)], dtype=object)
        start = time.perf_counter()
        out = thin(x, 0.3, RngStream(50))
        assert time.perf_counter() - start < 1.0
        assert all(0 <= t <= v for t, v in zip(out, x))

    def test_array_forms(self):
        rng = RngStream(26)
        x = np.array([0, 5, 100, 7])
        assert np.array_equal(thin(x, 1.0, rng), x)
        assert not thin(x, 0.0, rng).any()
        kept = thin(np.full(10**5, 100), 0.3, rng)
        assert kept.dtype == np.int64 and abs(kept.mean() - 30.0) < 0.2
        with pytest.raises(DomainError):
            thin(np.array([3, -1]), 0.5, rng)

    def test_object_array_mixes_exact_and_normal_limit(self):
        rng = RngStream(27)
        x = np.array([10, 2**62 - 1, 2**62, 10**30], dtype=object)
        out = thin(x, 0.5, rng)
        assert out.dtype == object
        assert all(0 <= t <= v for t, v in zip(out, x))
        assert abs(out[3] - 5 * 10**29) < 10 * math.isqrt(10**30 // 4)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 1.0])
    def test_array_equals_per_count_replay(self, a):
        # counts past 1e17 take the normal limit; their normals come in one
        # call, in the order the per-count thin would draw them
        exact = [0, 7, 10**17, 3 * 10**9]
        large = [10**17 + 1, 4 * 10**18, 2**62, 2**63 - 1]
        for x in (np.array(exact, dtype=np.int64),  # one binomial call, no masks
                  np.array(exact + large, dtype=np.int64),
                  np.array(exact + large + [10**30, 3**100], dtype=object)):
            got = thin(x, a, RngStream(31))
            ref = RngStream(31)
            want = x.copy()
            if a == 1.0:  # the scalar thin keeps every count and draws nothing
                want[:] = [thin(int(v), a, ref) for v in x.tolist()]
            else:
                small = x <= 10**17
                want[small] = ref._gen.binomial(x[small].astype(np.int64), a)
                want[~small] = [thin(int(v), a, ref) for v in x[~small]]
            assert got.dtype == x.dtype
            assert got.tolist() == want.tolist()
            rng = RngStream(31)
            thin(x, a, rng)
            assert rng.random() == ref.random()  # the same draws, no more

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 1.0])
    def test_float_and_unsigned_arrays_past_int64(self, a):
        # counts past int64 are thinned as exact ints, truncated as int() does,
        # in the order of the per-count replay above
        for x in (np.array([0.0, 7.9, 1e17, 9.3e18, 1e30, 2.5]),
                  np.array([0, 7, 2**63 + 5, 2**64 - 1], dtype=np.uint64)):
            got = thin(x, a, RngStream(31))
            ref = RngStream(31)
            counts = np.array([int(v) for v in x.tolist()], dtype=object)
            small = counts <= 10**17
            want = counts.copy()
            want[small] = ref._gen.binomial(counts[small].astype(np.int64), a)
            want[~small] = [thin(int(v), a, ref) for v in counts[~small]]
            assert got.dtype == object
            assert got.tolist() == want.tolist()

    def test_thinning_preserves_family(self):
        # histogram of a o X against the thinned parameter law
        p = DSParams(2.0, 1.0, 3.0)
        a = 0.7
        rng = RngStream(13)
        n = 10**5
        values = np.array(
            [thin(sample_ds(p, rng), a, rng) for _ in range(n)], dtype=np.int64
        )
        table = ds_pmf(thin_params(p, a), n_max=400, tail_bound=1e-10)
        tv = tv_against_table(values, table, n)[0]
        assert tv < 0.02


class TestTranslate:
    def test_zero_shift(self):
        assert translate(5, 0.0, RngStream(14)) == 5

    def test_negative_shift_rejected(self):
        with pytest.raises(DomainError):
            translate(5, -1.0, RngStream(14))

    def test_poisson_translation_from_zero(self):
        rng = RngStream(15)
        n = 20000
        draws = [translate(0, 2.0, rng) for _ in range(n)]
        assert abs(sum(draws) / n - 2.0) < 0.05

    def test_mean_shift(self):
        rng = RngStream(16)
        n = 10**5
        total = sum(translate(3, 1.6, rng) for _ in range(n))
        assert abs(total / n - 4.6) < 0.03


class TestStabilityExperiment:
    def test_fast_sanity_hermite(self):
        result = stability_experiment(DSParams(2.0, 1.0, 4.0), 0.6, 20000, RngStream(17))
        assert result.mu == pytest.approx(1.6)
        assert 0.0 <= result.tv_distance <= 1.0
        assert result.tv_distance < 0.04
        assert result.bins_used >= 3

    def test_wrong_mu_detected(self):
        result = stability_experiment(
            DSParams(2.0, 1.0, 4.0), 0.6, 20000, RngStream(18), mu_override=0.0
        )
        assert result.tv_distance > 0.1

    def test_strict_case_small(self):
        result = stability_experiment(
            DSParams(0.5, -1.0, 0.0), 0.3, 20000, RngStream(19)
        )
        assert result.mu == 0.0
        assert result.tv_distance < 0.04

    def test_preconditions(self):
        p = DSParams(2.0, 1.0, 4.0)
        with pytest.raises(DomainError):
            stability_experiment(p, 1.5, 10**4, RngStream(0))
        with pytest.raises(DomainError):
            stability_experiment(p, 0.5, 100, RngStream(0))

    @pytest.mark.parametrize(
        "raw", [(1.0, 0.0, 2e4), (1.0, 0.0, 1e5), (1.5, 1.0, 1e12)], ids=str
    )
    def test_vacuous_comparison_refused(self, raw):
        # the reference table ends before the mass: samples and expectation share the tail bin
        with pytest.raises(DomainError, match="vacuous"):
            stability_experiment(DSParams(*raw), 0.5, 1000, RngStream(21))

    def test_deterministic(self):
        r1 = stability_experiment(DSParams(2.0, 1.0, 4.0), 0.6, 2000, RngStream(20))
        r2 = stability_experiment(DSParams(2.0, 1.0, 4.0), 0.6, 2000, RngStream(20))
        assert r1 == r2


def _full_table(target):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailBoundUnreachable)
        return ds_pmf(target, 10_000, 1e-6)


REFERENCE_GRID = PARAM_GRID + [(1.5, 1.0, 21.0), (1.5, 1.0, 1000.0)]


class TestReferenceTable:
    """The table stability_experiment bins stops early without changing a bin."""

    @pytest.mark.parametrize("raw", REFERENCE_GRID, ids=str)
    def test_same_bins_as_full_table(self, raw):
        p = DSParams(*raw)
        for rho in (0.3, 0.7):
            target = translate_params(p, stability_mu(p, rho))
            full = _full_table(target)
            for n_samples in (1000, 2500, 10**5):
                table = _reference_table(target, n_samples)
                cut = _support_cut(full, n_samples)
                assert _support_cut(table, n_samples) == cut, (rho, n_samples)
                assert len(table) > cut
                assert np.array_equal(table.masses[: cut + 1], full.masses[: cut + 1])

    @pytest.mark.parametrize("raw", REFERENCE_GRID, ids=str)
    def test_same_experiment_result(self, raw, monkeypatch):
        p = DSParams(*raw)
        got = [stability_experiment(p, rho, 1000, RngStream(30)) for rho in (0.3, 0.7)]
        monkeypatch.setattr(
            "dstable.sampler._reference_table", lambda target, n: _full_table(target)
        )
        want = [stability_experiment(p, rho, 1000, RngStream(30)) for rho in (0.3, 0.7)]
        assert got == want

    @pytest.mark.parametrize("raw", REFERENCE_GRID, ids=str)
    def test_cached_tables_give_the_same_result(self, raw):
        p = DSParams(*raw)
        for rho in (0.3, 0.7):
            for n_samples in (1000, 2500, 10**5):
                _reference_rung.cache_clear()
                cold = stability_experiment(p, rho, n_samples, RngStream(32))
                misses = _reference_rung.cache_info().misses
                warm = stability_experiment(p, rho, n_samples, RngStream(32))
                assert _reference_rung.cache_info().misses == misses  # every rung a hit
                assert warm == cold, (rho, n_samples)

    def test_table_cache_is_bounded(self):
        _reference_rung.cache_clear()
        for i in range(100):
            _reference_table(DSParams(1.5, 1.0, 1.6 + 0.01 * i), 10**5)
        assert _reference_rung.cache_info().currsize == _TABLE_CACHE_SIZE

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        st.floats(1.0, 2.0, exclude_min=True),
        st.floats(0.05, 50.0),
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.integers(1000, 10**5),
    )
    def test_short_table_of_law_not_self_decomposable(self, alpha, gamma, u, rho, n_samples):
        # delta from alpha gamma up to the boundary alpha^2 gamma: the tail
        # rule, not unimodality, has to stop the table
        p = DSParams(alpha, gamma, alpha * gamma * (1.0 + u * (alpha - 1.0)))
        assume(not classify(p).self_decomposable)
        target = translate_params(p, stability_mu(p, rho))
        table, full = _reference_table(target, n_samples), _full_table(target)
        cut = _support_cut(full, n_samples)
        assert _support_cut(table, n_samples) == cut
        assert np.array_equal(table.masses[: cut + 1], full.masses[: cut + 1])
        assert table.cdf_values[cut] == full.cdf_values[cut]  # the tail bin
        got = stability_experiment(p, rho, n_samples, RngStream(33))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dstable.sampler._reference_table", lambda target, n: _full_table(target))
            assert got == stability_experiment(p, rho, n_samples, RngStream(33))

    @pytest.mark.parametrize(
        "raw, rho",
        # the full tables have 10_001 entries, 4305 at DS(1.5, 1, 1.6)
        [((0.5, -1.0, 0.0), 0.5), ((1.5, 1.0, 1.6), 0.3), ((1.5, 1.0, 1.6), 0.7),
         ((1.2, 1.0, 1.3), 0.3), ((1.2, 1.0, 1.3), 0.7)],
        ids=str,
    )
    def test_cost_bounded_by_samples(self, raw, rho):
        p = DSParams(*raw)
        target = translate_params(p, stability_mu(p, rho))
        assert len(_reference_table(target, 2500)) <= 256


class TestJumpBudget:
    # core rate (alpha - 1) gamma = 5e6, past the 2^20 budget
    HUGE = DSParams(1.5, 1e7, 1.5e7)

    def test_one_variate_fits_one_pass(self):
        assert _JUMP_BUDGET <= _JUMP_BATCH

    @pytest.mark.parametrize("size", [None, 1, 5])
    def test_refused_before_any_jump(self, size):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="core jumps"):
            sample_ds(self.HUGE, RngStream(41), size=size)
        assert time.perf_counter() - start < 0.5

    def test_under_budget_draws(self):
        # core rate 1e6, counts within ~50 standard deviations of it
        values = sample_ds(DSParams(1.5, 2e6, 3e6), RngStream(42), size=2)
        assert values.dtype == np.int64
        assert np.all(values > 2 * 10**6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
    def test_scalar_jumps_match_per_jump_replay(self, alpha):
        # core rate 4: jump counts fall on both sides of _SCALAR_JUMPS_MAX,
        # and past it the jumps come from one array of the same uniforms
        gamma = 4.0 if alpha == 1.0 else 4.0 / (alpha - 1.0)
        p = DSParams(alpha, gamma, max(alpha * gamma, 0.0) + 1.0)
        rate, core_rate = _split_rates(p.alpha, p.gamma, p.delta)
        rng, ref = RngStream(44), RngStream(44)
        table = _CoreTable(alpha)
        counts = []
        for _ in range(200):
            want = ref.poisson(rate)
            counts.append(ref.poisson(core_rate))
            want += sum(table.draw(1.0 - ref.random()) for _ in range(counts[-1]))
            assert sample_ds(p, rng) == want
        assert min(counts) <= _SCALAR_JUMPS_MAX < max(counts)
        assert rng.random() == ref.random()

    def test_scalar_variate_near_budget_is_fast(self):
        # core rate 8e5: one array pass, not 8e5 calls of ~4 us
        start = time.perf_counter()
        value = sample_ds(DSParams(1.5, 1.6e6, 2.4e6), RngStream(45))
        assert time.perf_counter() - start < 1.0
        assert value > 2 * 10**6

    def test_hermite_takes_no_jumps(self):
        # every core jump is 2, so the count is never looped over
        values = sample_ds(DSParams(2.0, 1e7, 2e7), RngStream(43), size=3)
        assert np.all(values % 2 == 0)


class TestTvAgainstTable:
    def test_object_array_past_int64(self):
        table = ds_pmf(DSParams(1.0, 0.0, 3.0), n_max=100, tail_bound=1e-12)
        exact = np.array([0, 1, 2, 3, 10**30] * 400, dtype=object)
        clipped = np.array([0, 1, 2, 3, len(table)] * 400, dtype=np.int64)
        expected = tv_against_table(clipped, table, 2000)
        assert tv_against_table(exact, table, 2000) == expected


    def test_negative_value_refused(self):
        # it would be counted in bin 0
        table = ds_pmf(DSParams(1.0, 0.0, 3.0), n_max=100, tail_bound=1e-12)
        values = np.array([0, 1, 2, 3] * 250, dtype=np.int64)
        values[7] = -1
        for bad in (values, np.append(values[1:], -(10**30)).astype(object)):
            with pytest.raises(DomainError, match="counts >= 0"):
                tv_against_table(bad, table, 1000)

    @pytest.mark.parametrize("size", [999, 1001])
    def test_size_other_than_n_samples_refused(self, size):
        # TV and chi-square would weigh the counts by the wrong total
        table = ds_pmf(DSParams(1.0, 0.0, 3.0), n_max=100, tail_bound=1e-12)
        with pytest.raises(DomainError, match="n_samples = 1000"):
            tv_against_table(np.ones(size, dtype=np.int64), table, 1000)

    def test_vacuous_table_refused(self):
        # Poisson(2e4) has no mass to speak of below 101
        with pytest.warns(TailBoundUnreachable):
            table = ds_pmf(DSParams(1.0, 0.0, 2e4), n_max=100, tail_bound=1e-12)
        with pytest.raises(DomainError, match="vacuous"):
            tv_against_table(np.zeros(1000, dtype=np.int64), table, 1000)


    def test_dof_counts_the_pooled_bins(self):
        # Hermite DS(2, 1, 2) has no odd masses: pooling merges each into the
        # next bin, so the statistic has fewer degrees of freedom than bins
        p, n = DSParams(2.0, 1.0, 2.0), 10**5
        table = ds_pmf(p, n_max=100, tail_bound=1e-12)
        _, _, bins, dof = tv_against_table(sample_ds(p, RngStream(5012), size=n), table, n)
        target = np.append(table.masses[: bins - 1], 1.0 - float(table.cdf_values[bins - 2]))
        pooled = pool_counts(np.zeros(bins), n * target)[1]
        assert dof == pooled.size - 1 < bins - 1


class TestPoolCounts:
    def test_merges_small_bins(self):
        observed = np.array([1.0, 2.0, 3.0, 50.0, 1.0])
        expected = np.array([1.0, 2.0, 3.0, 48.0, 2.0])
        obs, exp = pool_counts(observed, expected, min_expected=5.0)
        assert exp.min() >= 5.0
        assert obs.sum() == observed.sum()
        assert exp.sum() == expected.sum()

    def test_trailing_remainder_folds_back(self):
        obs, exp = pool_counts(np.array([10.0, 1.0]), np.array([10.0, 1.0]))
        assert len(obs) == 1
        assert obs[0] == 11.0
