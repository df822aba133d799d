"""PMF evaluation: closed forms, the compound recursion, and the inversion oracle."""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dstable import (
    BSibParams,
    CompoundRep,
    DSParams,
    PmfTable,
    bsib_pmf,
    cdf,
    classify,
    convolve_params,
    ds_pmf,
    ds_pmf_inversion,
    ds_to_compound,
    levy_weights,
    mode_scan,
    moments,
    pgf,
    quantile,
    rfunc,
)
from dstable import pmf as pmf_module
from dstable.errors import (
    DomainError,
    IndexBeyondTable,
    InternalConsistencyError,
    QuadratureInsufficiency,
    QuantileBeyondTable,
    TailBoundUnreachable,
)
from dstable.genfun import _pgf_from_one
from dstable.pmf import _LAGS, _LEAF, _TABLE_CAP, _log_survival, bsib_pmf_array

import oracles
from conftest import PARAM_GRID


def split_rates(raw, cap):
    """The jump rates of DS(*raw) below cap, from the split that _ds_pmf takes."""
    return pmf_module._Rates(raw[0], *pmf_module._split_rates(*raw), cap)


def make_table(p, n_max=400, tail_bound=1e-12):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailBoundUnreachable)
        return ds_pmf(p, n_max=n_max, tail_bound=tail_bound)


# Hermite laws DS(2, gamma, delta), delta - 2 gamma from 0 to 10 gamma
HERMITE_LAWS = [
    (2.0, gamma, (2.0 + s) * gamma)
    for gamma in (0.1, 0.3, 1.0, 3.0, 10.0)
    for s in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0)
] + [(2.0, 0.5, 4.0), (2.0, 5.0, 100.0)]


class TestBsibPmf:
    def test_sibuya_head(self):
        b = BSibParams(0.5, 0.0)
        assert bsib_pmf(b, 1) == pytest.approx(0.5)
        assert bsib_pmf(b, 2) == pytest.approx(0.125)

    def test_alpha_one_head(self):
        b = BSibParams(1.0, 0.5)
        assert bsib_pmf(b, 1) == pytest.approx(0.5)
        assert bsib_pmf(b, 2) == pytest.approx(0.25)
        assert bsib_pmf(b, 3) == pytest.approx(1.0 / 12.0)

    def test_alpha_two_support(self):
        b = BSibParams(2.0, 1.5)
        assert bsib_pmf(b, 1) == pytest.approx(0.5)
        assert bsib_pmf(b, 2) == pytest.approx(0.5)
        assert all(bsib_pmf(b, n) == 0.0 for n in range(3, 20))

    def test_point_mass_at_one(self):
        assert bsib_pmf(BSibParams(1.0, 0.0), 1) == 1.0
        assert bsib_pmf(BSibParams(1.0, 0.0), 5) == 0.0

    def test_support_excludes_zero(self):
        with pytest.raises(DomainError):
            bsib_pmf(BSibParams(0.5, 0.0), 0)

    @pytest.mark.parametrize("alpha_frac", [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])
    def test_against_exact_series(self, alpha_frac):
        b = BSibParams(float(alpha_frac), 0.0)
        for n in list(range(1, 30)) + [60, 120, 200]:
            exact = float(oracles.sibuya_pmf_exact(alpha_frac, n))
            assert bsib_pmf(b, n) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize(
        "alpha_frac,rho_frac",
        [
            (Fraction(1, 2), Fraction(-3, 5)),
            (Fraction(3, 10), Fraction(1, 2)),
            (Fraction(3, 2), Fraction(6, 5)),
            (Fraction(2, 1), Fraction(3, 2)),
        ],
    )
    def test_broad_case_against_exact_series(self, alpha_frac, rho_frac):
        b = BSibParams(float(alpha_frac), float(rho_frac))
        for n in range(1, 40):
            exact = float(oracles.bsib_pmf_exact(alpha_frac, rho_frac, n))
            assert bsib_pmf(b, n) == pytest.approx(exact, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("alpha,rho", [(0.5, 0.0), (0.3, -0.2), (1.5, 1.2)])
    def test_ratio_recurrence(self, alpha, rho):
        b = BSibParams(alpha, rho)
        for n in range(2, 40):
            ratio = bsib_pmf(b, n + 1) / bsib_pmf(b, n)
            assert ratio == pytest.approx((n - alpha) / (n + 1.0), rel=1e-13)

    def test_alpha_one_ratio(self):
        b = BSibParams(1.0, 0.5)
        for n in range(2, 20):
            ratio = bsib_pmf(b, n + 1) / bsib_pmf(b, n)
            assert ratio == pytest.approx((n - 1.0) / (n + 1.0), rel=1e-13)

    def test_normalization(self):
        for alpha, rho in [(0.5, 0.0), (0.5, -1.0), (1.0, 1.0), (1.5, 1.2), (2.0, 2.0)]:
            b = BSibParams(alpha, rho)
            total = math.fsum(bsib_pmf(b, n) for n in range(1, 4000))
            # heavy tails converge slowly; allow the analytic remainder
            assert total <= 1.0 + 1e-12
            assert total == pytest.approx(1.0, abs=0.06)

    @pytest.mark.parametrize("alpha,rho", [(0.5, 0.0), (1.5, 1.2)])
    def test_power_law_tail(self, alpha, rho):
        b = BSibParams(alpha, rho)
        lo = (1e3 ** (alpha + 1.0)) * bsib_pmf(b, 1000)
        hi = (1e4 ** (alpha + 1.0)) * bsib_pmf(b, 10000)
        assert abs(hi - lo) / lo < 0.01


class TestSibuyaCore:
    """Masses w alpha S(n-1)/n from the core survival S: its table, then its closed form."""

    PAIRS = [(0.05, 0.0), (0.3, -0.2), (0.5, 0.0), (1.0, 0.5), (1.3, 2.0), (1.5, 1.2),
             (1.999, 1.5)]

    @pytest.mark.parametrize("alpha, rho", PAIRS)
    def test_deep_mass_against_mpmath(self, alpha, rho):
        # either side of the 2^16 table cap, and far past it
        a, r = mpmath.mpf(alpha), mpmath.mpf(rho)
        for n in [10**3, 2**16, 2**16 + 1, 10**5, 10**6, 10**7, 10**9]:
            with mpmath.workdps(40):
                w = r if alpha == 1.0 else (1 - r) * (1 - a)
                log_core = mpmath.loggamma(n - a) - mpmath.loggamma(2 - a) - mpmath.loggamma(n + 1)
                want = float(w * a * mpmath.exp(log_core))
            got = bsib_pmf(BSibParams(alpha, rho), n)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), n

    def test_deep_mass_takes_constant_memory(self):
        tracemalloc.start()
        try:
            bsib_pmf(BSibParams(0.5, 0.0), 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_deep_mass_at_alpha_two_is_zero(self):
        assert bsib_pmf(BSibParams(2.0, 1.5), 10**9) == 0.0

    @pytest.mark.parametrize("rho", [1.0000001, 1.25, 1.5, 1.9999999, 2.0])
    def test_hermite_rates_exact(self, rho):
        want = [0.0, 2.0 - rho, rho - 1.0] + [0.0] * 8
        assert bsib_pmf_array(BSibParams(2.0, rho), 10).tolist() == want

    def test_first_mass_at_boundary_rho_not_negative(self):
        # the core law's rho sits on its boundary, where p_1 = 1 - w = 0 and w may round past 1
        for alpha in np.linspace(0.001, 1.999, 2000):
            if alpha == 1.0:
                continue
            p = DSParams(alpha, -1.0, 0.0) if alpha < 1.0 else DSParams(alpha, 1.0, alpha)
            b = ds_to_compound(p).summand
            assert bsib_pmf(b, 1) >= 0.0, alpha
            assert levy_weights(ds_to_compound(p), 1)[0] >= 0.0, alpha

    def test_point_mass_rates_exact(self):
        assert bsib_pmf_array(BSibParams(1.0, 0.0), 10).tolist() == [0.0, 1.0] + [0.0] * 9

    @pytest.mark.parametrize("alpha", [1e-4, 0.05, 0.5, 1.0, 1.5, 1.999])
    def test_log_survival_against_mpmath(self, alpha):
        a = mpmath.mpf(alpha)
        for n in [2, 3, 10, 100, 10**3, 10**4, 2**16 - 1, 2**16, 2**16 + 1, 10**5, 10**6,
                  10**7, 10**9, 10**12, 10**18, 10**50, 10**100, 10**300]:
            with mpmath.workdps(len(str(n)) + 40):
                exact = mpmath.loggamma(n + 1 - a) - mpmath.loggamma(n + 1) - mpmath.loggamma(2 - a)
                want = float(exact)
            got = _log_survival(alpha, n)
            if n >= _TABLE_CAP:
                # the series: 1e-14, plus the spacing of doubles near log S itself
                assert abs(got - want) <= 1e-14 + 2.0 * math.ulp(want), n
            else:
                # the log-gamma difference cancels: 1e-15 of the terms it subtracts
                assert abs(got - want) <= 1e-14 + 1e-15 * math.lgamma(n + 1.0), n

    @pytest.mark.parametrize("alpha", [1e-4, 0.05, 0.3, 0.7, 1.0, 1.3, 1.7, 1.999])
    def test_log_survival_within_5e_12_either_side_of_the_series(self, alpha):
        # the log-gamma difference loses ~1e-15 of lgamma(n) to cancellation,
        # up to 5.7e-12 at n = 4095 (alpha 1.3); the series takes over before
        a = mpmath.mpf(alpha)
        for n in [2, 100, 1023, 1024, 4095, 4096, 16384, 65535, 65536, 10**6]:
            with mpmath.workdps(40):
                exact = mpmath.loggamma(n + 1 - a) - mpmath.loggamma(n + 1) - mpmath.loggamma(2 - a)
                want = float(exact)
            assert abs(_log_survival(alpha, n) - want) <= 5e-12, n


class TestDsPmfRecursion:
    @pytest.mark.parametrize("delta", [0.5, 2.0, 10.0])
    def test_poisson_reduction(self, delta):
        table = make_table(DSParams(1.0, 0.0, delta), n_max=80)
        for n, mass in enumerate(table.masses):
            assert mass == pytest.approx(oracles.poisson_pmf(delta, n), rel=1e-12)

    def test_hermite_even_support(self):
        table = make_table(DSParams(2.0, 1.0, 2.0), n_max=60)
        assert table.masses[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        for n, mass in enumerate(table.masses):
            if n % 2 == 1:
                assert mass == 0.0
            else:
                assert mass == pytest.approx(
                    math.exp(-1.0) / math.factorial(n // 2), rel=1e-12
                )

    @pytest.mark.parametrize("gamma,delta", [(1.0, 2.0), (1.0, 3.0), (0.5, 4.0)])
    def test_hermite_general(self, gamma, delta):
        table = make_table(DSParams(2.0, gamma, delta), n_max=120)
        a1, a2 = delta - 2.0 * gamma, gamma
        for n, mass in enumerate(table.masses):
            expected = oracles.hermite_pmf(a1, a2, n)
            assert mass == pytest.approx(expected, rel=1e-12, abs=1e-280)

    @pytest.mark.parametrize("raw", [(1.5, 1e-17, 1.0), (0.5, -1e-17, 1.0), (2.0, 1e-17, 1.0)])
    def test_past_double_resolution_near_poisson(self, raw):
        # delta/|gamma| = 1e17: delta - gamma rounds to delta, so no rho resolves
        # the jump law, but the split rates do. The head is Poisson(1)'s; past
        # n ~ 8 the core's n^(-1-alpha) tail rightly takes over
        masses = make_table(DSParams(*raw), n_max=6).masses
        want = stats.poisson.pmf(np.arange(7), 1.0)
        assert masses.size == 7
        assert np.max(np.abs(masses / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("raw", HERMITE_LAWS)
    def test_hermite_within_5e_15_of_50_digits(self, raw):
        # Poisson(a1) unit jumps plus Poisson(a2) double jumps, a1 = delta - 2 gamma
        # and a2 = gamma, by f(n) = (a1 f(n-1) + 2 a2 f(n-2))/n (Kemp & Kemp, 1965).
        # a1 is the double rate, so that the check reads the recursion's error,
        # not the rounding of its input (up to ~4e-15 more on these laws)
        _, gamma, delta = raw
        got = make_table(DSParams(*raw), n_max=400, tail_bound=0.0).masses
        with mpmath.workdps(50):
            a1, a2 = mpmath.mpf(delta - 2.0 * gamma), mpmath.mpf(gamma)
            want = [mpmath.exp(-a1 - a2), a1 * mpmath.exp(-a1 - a2)]
            for n in range(2, got.size):
                want.append((a1 * want[n - 1] + 2 * a2 * want[n - 2]) / n)
            want = np.array([float(v) for v in want[: got.size]])
        big = want > 1e-300
        assert np.max(np.abs(got[big] / want[big] - 1.0)) <= 5e-15

    def test_strict_sibuya_mass_at_zero(self):
        table = make_table(DSParams(0.5, -1.0, 0.0), n_max=50)
        assert table.masses[0] == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_head_matches_pgf_and_rfunc(self, grid_params):
        table = make_table(grid_params, n_max=50)
        g0 = pgf(grid_params, 0.0)
        assert table.masses[0] == pytest.approx(g0, rel=1e-12)
        assert table.masses[1] == pytest.approx(g0 * rfunc(grid_params, 0.0), rel=1e-12, abs=1e-300)

    def test_normalization_invariant(self, grid_params):
        table = make_table(grid_params, n_max=2000, tail_bound=1e-9)
        total = math.fsum(table.masses.tolist()) + table.tail_mass
        assert abs(total - 1.0) < 1e-12

    def test_degenerate_point_mass(self):
        table = ds_pmf(DSParams(1.0, 0.0, 0.0), n_max=10)
        assert table.masses.tolist() == [1.0]
        assert table.tail_mass == 0.0

    def test_tail_bound_warning(self):
        with pytest.warns(TailBoundUnreachable):
            table = ds_pmf(DSParams(0.5, -1.0, 0.0), n_max=100, tail_bound=1e-9)
        assert not table.tail_bound_met
        assert table.tail_mass > 1e-9

    def test_stops_when_bound_met(self):
        table = ds_pmf(DSParams(2.0, 1.0, 2.0), n_max=10**6, tail_bound=1e-10)
        assert table.tail_bound_met
        assert table.tail_mass <= 1e-10
        assert len(table) < 100

    def test_large_rate_uses_scaled_recursion(self):
        # f(0) = e^-800 underflows; the shared exponent keeps later masses exact
        table = make_table(DSParams(1.0, 0.0, 800.0), n_max=1400, tail_bound=1e-10)
        for n in range(700, 900, 10):
            assert table.masses[n] == pytest.approx(
                oracles.poisson_pmf(800.0, n), rel=1e-9
            )

    def test_rate_past_int32_exponent(self):
        # lam ~ 2e12 puts f(0)'s shared exponent past the int32 np.ldexp takes
        with pytest.warns(TailBoundUnreachable):
            table = ds_pmf(DSParams(1.5, 1.0, 1e12), n_max=10)
        assert not table.masses.any()
        assert table.tail_mass == 1.0

    def test_convolution_closure(self):
        pairs = [
            (DSParams(2.0, 1.0, 2.0), DSParams(2.0, 0.5, 3.0)),
            (DSParams(1.3, 1.0, 2.0), DSParams(1.3, 0.5, 1.0)),
            (DSParams(0.7, -1.0, 0.0), DSParams(0.7, -2.0, 2.0)),
        ]
        for p1, p2 in pairs:
            t1 = make_table(p1, n_max=400)
            t2 = make_table(p2, n_max=400)
            combined = make_table(convolve_params(p1, p2), n_max=400)
            conv = np.convolve(
                np.pad(t1.masses, (0, max(0, 201 - len(t1)))),
                np.pad(t2.masses, (0, max(0, 201 - len(t2)))),
            )[:201]
            k = min(len(combined), 201)
            assert np.max(np.abs(conv[:k] - combined.masses[:k])) < 1e-10

    def test_truncated_mean(self):
        table = ds_pmf(DSParams(2.0, 1.0, 3.0), n_max=10**5, tail_bound=1e-10)
        n = np.arange(len(table))
        assert abs(float(n @ table.masses) - 3.0) < 1e-6

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            ds_pmf(DSParams(2.0, 1.0, 3.0), n_max=-1)
        with pytest.raises(DomainError):
            ds_pmf(DSParams(2.0, 1.0, 3.0), tail_bound=-0.5)

    def test_zero_nmax_single_entry(self):
        table = make_table(DSParams(2.0, 1.0, 3.0), n_max=0)
        assert len(table) == 1
        assert table.masses[0] == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert table.tail_mass == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)


# Hermite and Poisson laws whose tables span many leaves; the last two
# take the power-of-two rescaling path
FINITE_SUPPORT = [
    (2.0, 1.0, 2.0), (2.0, 1.0, 3.0), (2.0, 0.5, 4.0), (2.0, 10.0, 30.0), (2.0, 5.0, 100.0),
    (1.0, 0.0, 2.0), (1.0, 0.0, 5.0), (1.0, 0.0, 100.0), (2.0, 1.0, 1000.0), (1.0, 0.0, 800.0),
]
# heavy tails: alpha near 0, below and above 1, and compound rates of 1000 and 2000
HEAVY_TAILS = [(0.05, -1.0, 0.0), (0.5, -1.0, 0.0), (1.3, 1.0, 2.0), (1.5, 1.0, 3.0),
               (1.5, 1.0, 2001.0)]


class TestRelaxedRecursion:
    """ds_pmf against the direct O(n^2) recursion it replaces."""

    @pytest.mark.parametrize("raw", FINITE_SUPPORT)
    @pytest.mark.parametrize("tail_bound", [0.0, 1e-12])
    def test_finite_support_bit_identical(self, raw, tail_bound):
        p = DSParams(*raw)
        table = make_table(p, n_max=3000, tail_bound=tail_bound)
        direct = oracles.direct_ds_pmf(p, 3000, tail_bound)
        assert table.masses.tolist() == direct.tolist()

    @pytest.mark.parametrize("raw", PARAM_GRID + [(1.5, 1.0, 1000.0)])
    def test_stop_index_matches_direct(self, raw):
        p = DSParams(*raw)
        for tail_bound in (1e-12, 1e-9, 1e-6):
            table = make_table(p, n_max=3000, tail_bound=tail_bound)
            assert len(table) == oracles.direct_ds_pmf(p, 3000, tail_bound).size

    @pytest.mark.parametrize("raw", HEAVY_TAILS)
    def test_heavy_tail_accuracy(self, raw):
        p = DSParams(*raw)
        got = make_table(p, n_max=20000).masses
        want = oracles.direct_ds_pmf(p, 20000, 1e-12)
        assert got.size == want.size
        diff = np.abs(got - want)
        assert diff.max() <= 1e-15
        big = want > 1e-300
        assert np.max(diff[big] / want[big]) <= 1e-7

    @pytest.mark.parametrize("raw", [(1.5, 1.0, 1000.0), (1.5, 1.0, 2001.0)])
    def test_left_flank_relative_accuracy(self, raw):
        # lam = 999 and 2000: the masses climb from e^-lam, and each pushed
        # block is smaller than the entries it feeds
        p = DSParams(*raw)
        got = make_table(p, n_max=4000).masses
        want = oracles.direct_ds_pmf(p, 4000, 1e-12)
        mode = int(np.argmax(want))
        flank = slice(0, mode + 1)
        big = want[flank] > 1e-300
        assert big.sum() > 100
        rel = np.abs(got[flank] - want[flank])[big] / want[flank][big]
        assert rel.max() <= 1e-13


class TestBlockLeaves:
    """Leaves of unbounded-support laws solved at once by a nonnegative leaf inverse."""

    @pytest.mark.parametrize("raw", PARAM_GRID + HEAVY_TAILS)
    def test_masses_independent_of_n_max(self, raw):
        p = DSParams(*raw)
        for n in (63, 64, 127, 128, 129, 191, 1000):
            for tail_bound in (0.0, 1e-12):
                short = make_table(p, n_max=n, tail_bound=tail_bound).masses
                full = make_table(p, n_max=4 * n, tail_bound=tail_bound).masses
                assert short.size == min(n + 1, full.size), n
                assert short.tolist() == full[: short.size].tolist(), n

    @pytest.mark.parametrize("raw", PARAM_GRID + HEAVY_TAILS)
    def test_stop_index_on_leaf_edges(self, raw):
        p = DSParams(*raw)
        for n_max in (127, 128, 129, 191, 192, 193, 1023, 1024, 1025):
            for tail_bound in (0.0, 1e-12, 1e-6):
                got = make_table(p, n_max=n_max, tail_bound=tail_bound)
                assert len(got) == oracles.direct_ds_pmf(p, n_max, tail_bound).size

    @pytest.mark.parametrize("raw", HEAVY_TAILS + [(0.3, -1.0, 1.0), (1.0, 1.0, 2.0)])
    def test_stop_index_mid_leaf(self, raw):
        # a bound between the running sums at stop - 1 and stop ends the table there
        p = DSParams(*raw)
        cum = np.cumsum(oracles.direct_ds_pmf(p, 2000, 0.0))
        for stop in (130, 159, 250, 700, 1500):
            if cum[stop] - cum[stop - 1] < 1e-13:
                continue
            tail_bound = 1.0 - 0.5 * (cum[stop - 1] + cum[stop])
            got = make_table(p, n_max=2000, tail_bound=tail_bound)
            assert len(got) == oracles.direct_ds_pmf(p, 2000, tail_bound).size == stop + 1

    def test_rescale_after_a_leaf_solve(self, monkeypatch):
        # lam = 2000: the masses climb from e^-2000 past several 2^512 steps
        rescaled = []
        solve = pmf_module._solve_span

        def spy(*args):
            last, cum, exp2 = solve(*args)
            rescaled.append(exp2 != args[8])
            return last, cum, exp2

        monkeypatch.setattr(pmf_module, "_solve_span", spy)
        p = DSParams(1.5, 1.0, 2001.0)
        got = make_table(p, n_max=4000).masses
        assert sum(rescaled) >= 2
        # the left flank to 1e-13 relative, as TestRelaxedRecursion asks of the loop
        want = oracles.direct_ds_pmf(p, 4000, 1e-12)
        flank = slice(0, int(np.argmax(want)) + 1)
        big = want[flank] > 1e-300
        assert big.sum() > 100
        assert np.max(np.abs(got[flank] - want[flank])[big] / want[flank][big]) <= 1e-13

    def test_overflowing_block_takes_the_loop(self, monkeypatch):
        # lam = 1e5: near n = 200 the masses grow by ~2^9 an entry, so a leaf
        # solve passes 2^1024 and the loop takes that leaf from there
        cut = []
        solve = pmf_module._solve_span

        def record(*args):
            result = solve(*args)
            cut.append(result[0] < args[5] - 1)  # short of the span's end
            return result

        monkeypatch.setattr(pmf_module, "_solve_span", record)
        p = DSParams(1.5, 1.0, 1e5 + 1.0)
        n_max = 10**5 + 1500
        got = make_table(p, n_max=n_max).masses
        assert any(cut)
        assert got.size == n_max + 1 and np.all(np.isfinite(got))
        # DS(1.5, 1, delta) is Poisson(delta - 1.5) plus the core law DS(1.5, 1, 1.5)
        core = make_table(DSParams(1.5, 1.0, 1.5), n_max=n_max).masses
        mode = int(np.argmax(got))
        for n in range(mode - 600, mode + 601, 300):
            poisson = stats.poisson.pmf(np.arange(n, -1, -1), p.delta - 1.5)
            want = math.fsum((poisson * core[: n + 1]).tolist())
            assert got[n] == pytest.approx(want, rel=1e-9), n

    def test_finite_support_keeps_the_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pmf_module, "_solve_span", lambda *args: calls.append(args))
        for raw in FINITE_SUPPORT:
            make_table(DSParams(*raw), n_max=2000, tail_bound=0.0)
        assert not calls

    def test_leaf_inverse_is_nonnegative_and_exact(self):
        c = ds_to_compound(DSParams(0.5, -1.0, 0.0))
        weights = c.lam * np.arange(65.0) * bsib_pmf_array(c.summand, 64)
        inverses = pmf_module._leaf_inverses(weights[_LAGS], 2, 2, 10**4)
        lags = np.subtract.outer(np.arange(_LEAF), np.arange(_LEAF))
        rates = np.where(lags > 0, weights[np.abs(lags)], 0.0)
        for k, inverse in enumerate(inverses):
            matrix = np.diag((2 + k) * _LEAF + np.arange(_LEAF, dtype=float)) - rates
            assert np.all(inverse >= 0.0)
            assert np.all(np.triu(inverse, 1) == 0.0)
            assert np.max(np.abs(inverse @ matrix - np.eye(_LEAF))) < 1e-14

    def test_inverse_digits_independent_of_batch(self):
        # a table's batches end at n_max's leaf, and its last leaf may build only
        # the top-left block its entries need: neither may move a digit
        toeplitz = split_rates((1.3, 1.0, 2.0), 2048).weights[_LAGS]
        batch = pmf_module._leaf_inverses(toeplitz, 16, 16, 10**4)
        for k in (0, 5, 15):
            alone = pmf_module._leaf_inverses(toeplitz, 16 + k, 1, 10**4)[0]
            assert np.array_equal(alone, batch[k])
        for rows in (1, 3, 17, 40):
            top = 1 << (rows - 1).bit_length()
            part = pmf_module._leaf_inverses(toeplitz, 16, 1, rows)[0]
            assert np.array_equal(part[:top, :top], batch[0][:top, :top])

    @staticmethod
    def planted_inverses(index):
        """Leaf inverses that are the identity, but for an inf in leaf index's row 10."""
        inverse = np.eye(_LEAF)
        planted = inverse.copy()
        planted[10, 3] = math.inf
        return SimpleNamespace(leaf=lambda k: planted if k == index else inverse)

    def test_solve_stops_short_of_a_non_finite_value(self):
        scaled = np.arange(1.0, 3 * _LEAF + 1.0)
        inverses = self.planted_inverses(1)
        solve = pmf_module._solve_span
        last, cum, exp2 = solve(scaled, None, {}, inverses, _LEAF, 2 * _LEAF, 0.0, 1.0, -10, 1)
        assert (last, exp2) == (_LEAF + 9, -10)
        assert cum == math.fsum(range(_LEAF + 1, _LEAF + 11)) / 1024.0
        # the taken entries hold their values; the rest of the span, its pending sums
        assert scaled.tolist() == list(range(1, 3 * _LEAF + 1))

    def test_solve_keeps_no_more_than_the_first_leaf_of_a_span(self):
        # an inf in the span's second leaf: the push between its leaves has fed
        # the second leaf, so all of it gets back the pending sums of the call
        weights = np.full(4 * _LEAF, 1e-3)
        scaled = np.arange(1.0, 4 * _LEAF + 1.0)
        before = scaled.copy()
        inverses = self.planted_inverses(3)
        solve = pmf_module._solve_span
        last, cum, exp2 = solve(
            scaled, weights, {}, inverses, 2 * _LEAF, 4 * _LEAF, 0.0, 1e6, 0, weights.size
        )
        assert (last, exp2) == (3 * _LEAF - 1, 0)
        assert cum == math.fsum(range(2 * _LEAF + 1, 3 * _LEAF + 1))
        assert scaled.tolist() == before.tolist()


# laws past rate 700, with one table length past 2^14 each: at rate 1e5 a
# single leaf overflows near n = 300, and the table runs to 1.5e5
LONG_SPANS = {(1.5, 1.0, 1000.0): (20000,), (1.5, 1.0, 1e4): (20000,), (1.5, 1.0, 1e5): (150000,)}


class TestBareSpans:
    """Spans of leaves solved at once at every rate, their running sum added once a span."""

    @pytest.mark.parametrize("raw", PARAM_GRID + HEAVY_TAILS)
    def test_masses_independent_of_n_max(self, raw):
        p = DSParams(*raw)
        for n in (255, 256, 257, 511, 512, 513, 767, 1023, 1025):
            for tail_bound in (0.0, 1e-12):
                short = make_table(p, n_max=n, tail_bound=tail_bound).masses
                full = make_table(p, n_max=4 * n, tail_bound=tail_bound).masses
                assert short.size == min(n + 1, full.size), n
                assert short.tolist() == full[: short.size].tolist(), n

    @pytest.mark.parametrize("raw", PARAM_GRID + HEAVY_TAILS)
    def test_stop_index_in_each_leaf_of_a_span(self, raw):
        # a bound between the running sums at stop - 1 and stop ends the table
        # there: in the first, second and fourth leaf of spans 0, 1 and 2
        p = DSParams(*raw)
        n_max = 3 * pmf_module._SPAN
        cum = np.cumsum(oracles.direct_ds_pmf(p, n_max, 0.0))
        for span in range(0, n_max, pmf_module._SPAN):
            for stop in (span + 10, span + _LEAF + 20, span + 4 * _LEAF - 1):
                if stop >= cum.size or cum[stop] - cum[stop - 1] < 1e-13:
                    continue
                tail_bound = 1.0 - 0.5 * (cum[stop - 1] + cum[stop])
                got = make_table(p, n_max=n_max, tail_bound=tail_bound)
                assert len(got) == oracles.direct_ds_pmf(p, n_max, tail_bound).size == stop + 1

    @pytest.mark.parametrize("raw", PARAM_GRID + HEAVY_TAILS + FINITE_SUPPORT + list(LONG_SPANS))
    def test_one_leaf_spans_give_the_same_bits(self, raw, monkeypatch):
        # past rate 700 the spans add the running sum and rescale between
        # leaves; tables past 2^14 entries push blocks of up to 2^14 entries
        # through the FFT buffers
        p = DSParams(*raw)
        sizes = (40, 300, 3000) + LONG_SPANS.get(raw, ())
        cases = [(n, tail_bound) for n in sizes for tail_bound in (0.0, 1e-9)]
        default = [make_table(p, n, tail_bound).masses for n, tail_bound in cases]
        monkeypatch.setattr(pmf_module, "_SPAN", _LEAF)
        for (n, tail_bound), want in zip(cases, default):
            got = make_table(p, n, tail_bound).masses
            assert got.tolist() == want.tolist(), (n, tail_bound)

    def test_non_finite_span_keeps_at_most_its_first_leaf(self, monkeypatch):
        # an inf in the inverse of the second span's second leaf makes that
        # span's running sum nan: it keeps its first leaf, and the rest gets
        # back its saved pending sums; the solve from the planted leaf stops
        # short of the inf, the loop takes that leaf's rest, and the next
        # leaf edge goes back to the inverse
        span = pmf_module._SPAN
        planted_leaf = span + _LEAF
        build = pmf_module._leaf_inverses

        def planted(toeplitz, first, count, rows, out):
            inverses = build(toeplitz, first, count, rows, out)
            k = planted_leaf // _LEAF - first
            if 0 <= k < count:
                inverses[k][10, 3] = math.inf
            return inverses

        monkeypatch.setattr(pmf_module, "_leaf_inverses", planted)
        push = pmf_module._push
        finite = []
        solving = []

        def checked_push(scaled, weights, support, e, h, spectra):
            if not solving:  # the loop's push, after a span's check
                finite.append(bool(np.isfinite(scaled).all()))
            push(scaled, weights, support, e, h, spectra)

        monkeypatch.setattr(pmf_module, "_push", checked_push)
        solve = pmf_module._solve_span
        spans = []

        def record(*args):
            solving.append(True)
            result = solve(*args)
            solving.pop()
            spans.append((args[4], result[0]))
            return result

        monkeypatch.setattr(pmf_module, "_solve_span", record)
        p = DSParams(1.3, 1.0, 2.0)
        got = make_table(p, n_max=2000, tail_bound=0.0).masses
        assert spans == [
            (1, span - 1),
            (span, planted_leaf - 1),
            (planted_leaf, planted_leaf + 9),
            (planted_leaf + _LEAF, 2 * span - 1),
            (2 * span, 3 * span - 1),
            (3 * span, 2000),
        ]
        assert finite and all(finite)
        assert np.all(np.isfinite(got))
        # the planted leaf from its entry 10 on came from the loop, within
        # roundoff of its inverse
        monkeypatch.undo()
        clean = make_table(p, n_max=2000, tail_bound=0.0).masses
        assert got[: planted_leaf + 10].tolist() == clean[: planted_leaf + 10].tolist()
        assert np.max(np.abs(got - clean) / clean) <= 1e-13

    @pytest.mark.parametrize("planted_leaf", [1, 2, 6, 9])
    def test_non_finite_value_past_rate_700_gives_one_leaf_bits(self, planted_leaf, monkeypatch):
        # lam = 999: the first span rescales after its leaves 1 and 5, so an
        # inf in leaf 2 or 6 comes right after a rescale inside the span; the
        # solve keeps that leaf's finite prefix, and the loop takes its rest,
        # as with one-leaf spans
        build = pmf_module._leaf_inverses

        def planted(toeplitz, first, count, rows, out):
            inverses = build(toeplitz, first, count, rows, out)
            if first <= planted_leaf < first + count:
                inverses[planted_leaf - first][10, 3] = math.inf
            return inverses

        monkeypatch.setattr(pmf_module, "_leaf_inverses", planted)
        p = DSParams(1.5, 1.0, 1000.0)
        spans = make_table(p, n_max=3000, tail_bound=0.0).masses
        assert np.all(np.isfinite(spans))
        monkeypatch.setattr(pmf_module, "_SPAN", _LEAF)
        assert make_table(p, n_max=3000, tail_bound=0.0).masses.tobytes() == spans.tobytes()

    def test_leaf_zero_inverse_is_nonnegative_and_exact(self):
        weights = split_rates((0.5, -1.0, 0.0), 64).weights
        inverse = pmf_module._leaf_inverses(weights[_LAGS], 0, 2, 10**4)[0]
        lags = np.subtract.outer(np.arange(_LEAF), np.arange(_LEAF))
        rates = np.where(lags > 0, weights[np.abs(lags)], 0.0)
        # diag(1, 1, 2, .., 63) - W: row 0 is the identity, f(0) being given
        matrix = np.diag(np.maximum(np.arange(_LEAF, dtype=float), 1.0)) - rates
        assert np.all(inverse >= 0.0)
        assert np.all(np.triu(inverse, 1) == 0.0)
        assert inverse[0].tolist() == [1.0] + [0.0] * (_LEAF - 1)
        assert np.max(np.abs(inverse @ matrix - np.eye(_LEAF))) < 1e-14

    def test_short_tables_solve_leaf_zero_by_inverse(self, monkeypatch):
        # down to one entry past f(0); finite support keeps the loop
        calls = []
        solve = pmf_module._solve_span
        monkeypatch.setattr(
            pmf_module, "_solve_span", lambda *args: calls.append(args[4]) or solve(*args)
        )
        for n in (1, 2, 5, 63):
            for raw in PARAM_GRID:
                p = DSParams(*raw)
                got = make_table(p, n_max=n, tail_bound=0.0).masses
                want = oracles.direct_ds_pmf(p, n, 0.0)
                assert got.size == want.size
                assert np.max(np.abs(got - want)) <= 1e-16
        bare = sum(1 for raw in PARAM_GRID if raw[0] < 2.0 and raw[1] != 0.0)
        assert calls == [1] * (4 * bare)

    def test_leaves_0_and_1_by_inverse_past_rate_700(self, monkeypatch):
        # lam = 999: one span from entry 1, as at every rate, with the shared
        # exponent's checks between its leaves
        spans = []
        solve = pmf_module._solve_span

        def record(*args):
            result = solve(*args)
            spans.append((args[4], args[5], result[0]))
            return result

        monkeypatch.setattr(pmf_module, "_solve_span", record)
        p = DSParams(1.5, 1.0, 1000.0)
        got = make_table(p, n_max=130, tail_bound=0.0).masses
        assert spans == [(1, 131, 130)]
        want = oracles.direct_ds_pmf(p, 130, 0.0)
        big = want > 1e-300
        assert got.size == want.size and big.sum() > 10
        assert np.max(np.abs(got - want)[big] / want[big]) <= 1e-13


class TestTableState:
    """Rates grown in place, one Toeplitz and one inverse array per table."""

    @pytest.mark.parametrize("raw", PARAM_GRID + HEAVY_TAILS)
    def test_grown_rates_equal_rates_from_scratch(self, raw):
        alpha = raw[0]
        rate, core_rate = pmf_module._split_rates(*raw)
        rates = split_rates(raw, _LEAF)
        for size in (1 << bits for bits in range(6, 17)):
            # the rates as computed anew at each size before they grew in place
            core = -core_rate * alpha * pmf_module._neg_survival(alpha, size - 2)
            scratch = np.concatenate(([0.0, rate], core))
            assert rates.grow(size).tobytes() == scratch.tobytes(), size

    @pytest.mark.parametrize("raw", PARAM_GRID + HEAVY_TAILS)
    def test_masses_independent_of_n_max_across_batches(self, raw):
        # 1025 and 1050 build only the top of their last leaf, and 1087 and
        # 2111 a whole one, each into the array a full batch used before
        p = DSParams(*raw)
        full = make_table(p, n_max=4000, tail_bound=0.0).masses
        for n in (1023, 1024, 1025, 1050, 1087, 2047, 2111, 3000):
            short = make_table(p, n_max=n, tail_bound=0.0).masses
            assert short.size == min(n + 1, full.size), n
            assert short.tolist() == full[: short.size].tolist(), n

    def test_batches_hold_16_leaves_from_leaf_0(self):
        assert [pmf_module._batch(i, 40) for i in (0, 1, 2, 15, 16, 31, 32, 40)] == (
            4 * [(0, 16)] + 2 * [(16, 16)] + 2 * [(32, 9)]
        )
        assert pmf_module._batch(0, 0) == (0, 1)
        assert pmf_module._batch(2, 3) == (0, 4)
        assert pmf_module._batch(16, 16) == (16, 1)

    @pytest.mark.parametrize("raw", [(1.3, 1.0, 2.0), (1.5, 1.0, 1000.0)])
    def test_one_toeplitz_and_one_array_per_table(self, raw, monkeypatch):
        # lam = 999 and lam = 1.5 both solve spans of eight leaves, on the same batches
        builds = []
        build = pmf_module._leaf_inverses

        def spy(toeplitz, first, count, rows, out):
            builds.append((toeplitz, first, count, out))
            return build(toeplitz, first, count, rows, out)

        monkeypatch.setattr(pmf_module, "_leaf_inverses", spy)
        make_table(DSParams(*raw), n_max=3000, tail_bound=0.0)
        assert [(first, count) for _, first, count, _ in builds] == [(0, 16), (16, 16), (32, 15)]
        toeplitz, out = builds[0][0], builds[0][3]
        assert all(b[0] is toeplitz and b[3] is out for b in builds)
        assert out.shape == (pmf_module._BATCH, _LEAF, _LEAF)

    def test_fft_push_in_reused_buffers_equals_fresh_arrays(self):
        # every FFT push of a table writes into one pair of buffers, a smaller
        # h into their prefix: the sums keep the bytes of fresh arrays
        weights = split_rates((1.5, 1.0, 1000.0), 1 << 15).weights
        near = pmf_module._NEAR_LAGS
        far = weights.copy()
        far[:near] = 0.0
        rng = np.random.default_rng(5)
        work = pmf_module._FftWork()
        for h in (512, 1024, 2048, 4096, 8192, 16384, 2048, 512):
            e = h if 4 * h > weights.size else 3 * h  # h is e's lowest set bit
            scaled = rng.uniform(0.5, 2.0, weights.size)
            want = scaled.copy()
            size = 2 * h
            sums = np.fft.irfft(np.fft.rfft(want[e - h : e], size) * np.fft.rfft(far[:size], size), size)
            sums = sums[h:]
            k = near - 1
            sums[:k] += np.convolve(weights[1:near], want[e - k : e])[k - 1 :]
            want[e : e + h] += sums
            pmf_module._push(scaled, weights, weights.size, e, h, work)
            assert scaled.tobytes() == want.tobytes(), h
        assert work.real.size == 2 * 16384 and sorted(work.spectra) == [512 << i for i in range(6)]

    def test_law_without_rates(self):
        # alpha = 5e-324: every jump mass underflows, so no push has rates to
        # apply, and the table holds f(0) and its honest tail
        with pytest.warns(TailBoundUnreachable):
            table = ds_pmf(DSParams(5e-324, -1.0, 0.0), n_max=3000)
        assert table.masses[0] == math.exp(-1.0)
        assert not table.masses[1:].any()


class TestWarningFreeCore:
    """_ds_pmf, ds_pmf's table without its warning, for callers that read tail_bound_met."""

    @pytest.mark.parametrize("raw", PARAM_GRID + HEAVY_TAILS + FINITE_SUPPORT[:2])
    def test_same_masses_and_warned_exactly_when_the_bound_is_missed(self, raw):
        p = DSParams(*raw)
        for n_max, tail_bound in ((0, 1e-12), (63, 1e-6), (1000, 1e-12), (1000, 0.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                core = pmf_module._ds_pmf(p, n_max, tail_bound)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                table = ds_pmf(p, n_max=n_max, tail_bound=tail_bound)
            assert core.masses.tobytes() == table.masses.tobytes()
            assert core.tail_bound_met == table.tail_bound_met
            if table.tail_bound_met:
                assert not caught
            else:
                [warning] = caught
                assert warning.category is TailBoundUnreachable
                assert warning.filename == __file__  # it names the caller of ds_pmf
                assert str(warning.message).endswith(f"at n_max = {n_max}")


# max relative error against the long-double recursion up to n = 4000, over
# masses above 1e-300. The first four bounds are the errors measured while the
# FFT pushes carried every lag, rounded up to one significant figure (8.6e-11,
# 1.3e-11, 2.9e-12, 4.6e-15); with the lags below 128 split off, the first
# three measure 1.8e-14, 1.5e-14 and 1.4e-14. The next two are 10x their
# errors with the split (6.3e-14, 2.1e-14); without it they measured 2.1e-9
# and 3.0e-10. The last two, at compound rates 999 and 2000, are 10x their
# errors against the oracle over the split rates (1.04e-13, 5.2e-14): f(0)
# underflows in double there, and the leaves are solved one at a time.
FAR_TAIL_BOUNDS = {
    (1.5, 1.0, 21.0): 9e-11,
    (1.5, 1.0, 3.0): 2e-11,
    (1.3, 1.0, 2.0): 3e-12,
    (0.5, -1.0, 0.0): 5e-15,
    (1.9, 0.5, 3.0): 6.3e-13,
    (1.5, 1.0, 100.0): 2.1e-13,
    (1.5, 1.0, 1000.0): 1.1e-12,
    (1.5, 1.0, 2001.0): 5.2e-13,
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is double here",
)
@pytest.mark.parametrize("raw", FAR_TAIL_BOUNDS)
def test_far_tail_parity_with_long_double(raw):
    p = DSParams(*raw)
    want = oracles.longdouble_ds_pmf(p, 4000)
    got = make_table(p, n_max=4000, tail_bound=0.0).masses
    big = want > 1e-300
    rel = np.abs(got.astype(np.longdouble)[big] - want[big]) / want[big]
    assert float(rel.max()) <= FAR_TAIL_BOUNDS[raw]



# alpha near 0, near 1 and at 2, and anywhere in (0, 2]
PROPERTY_ALPHAS = st.one_of(
    st.sampled_from([2.0, 1.0, 1.0 - 1e-9, 1.0 + 1e-9]),
    st.floats(min_value=-30.0, max_value=-1.0).map(lambda e: 10.0**e),
    st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
)
# compound rates log-uniform up to 1e4, and from 700 to 6000, where the
# shared exponent rescales; past ~5500 every table up to 3001 entries is
# zeros without the recursion
PROPERTY_RATES = st.one_of(
    st.floats(min_value=-3.0, max_value=4.0).map(lambda e: 10.0**e),
    st.floats(min_value=700.0, max_value=6000.0),
)

# the core's share of the rate, down to 1e-20: past delta/|gamma| ~ 1e16
# no rho resolves the jump law, but the split rates do; gamma = 0 only at
# alpha = 1
SHARES = st.floats(min_value=-20.0, max_value=0.0).map(lambda e: 10.0**e)


@st.composite
def compound_rate_laws(draw):
    """(alpha, gamma, delta) of compound rate ~lam, its core jumps at the share u."""
    alpha, lam = draw(PROPERTY_ALPHAS), draw(PROPERTY_RATES)
    u = draw(st.one_of(st.just(0.0), SHARES) if alpha == 1.0 else SHARES)
    if alpha < 1.0:
        return alpha, -u * lam, (1.0 - u) * lam
    return alpha, u * lam, lam if alpha == 1.0 else lam + u * lam


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(compound_rate_laws(), st.integers(0, 1500), st.sampled_from([0.0, 1e-12, 1e-6]))
def test_ds_pmf_finite_and_a_prefix_of_longer_tables(raw, n_max, tail_bound):
    # finite masses >= 0 for every law; a longer table only appends entries
    short = pmf_module._ds_pmf(DSParams(*raw), n_max, tail_bound).masses
    assert np.all(np.isfinite(short)) and np.all(short >= 0.0)
    full = pmf_module._ds_pmf(DSParams(*raw), 2 * n_max + 1, tail_bound).masses
    assert short.size == min(n_max + 1, full.size)
    assert short.tobytes() == full[: short.size].tobytes()

def test_library_does_not_import_scipy():
    # scipy is a test extra; importing it would slow every CLI start
    code = (
        "import sys, warnings; warnings.simplefilter('ignore'); import dstable; "
        "dstable.ds_pmf(dstable.DSParams(0.5, -1, 0), 5000); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# each request, and whether numpy.random is loaded after it and all before it
_LOAD_CODE = """
import contextlib, io, json, sys
import numpy
eager = "numpy.random" in sys.modules
import dstable, dstable.cli
law = ["--alpha", "1.5", "--gamma", "1", "--delta", "3"]
requests = [
    ["pmf", *law, "--nmax", "50", "--tail-bound", "0.01"],
    ["cdf", *law, "--nmax", "50", "--tail-bound", "0.01"],
    ["check", *law],
    ["convert", "--from", "ds", "--to", "compound", *law],
    ["plot-data", "--nmax", "20"],
    ["sample", *law, "--n", "5", "--seed", "1"],
]
seen = [["import", 0, "numpy.random" in sys.modules]]
for argv in requests:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dstable.cli.main(argv)
    seen.append([argv[0], code, "numpy.random" in sys.modules])
print(json.dumps({"eager": eager, "seen": seen}))
"""


def test_only_a_draw_loads_numpy_random():
    # numpy.random costs every process that loads it ~6 MB RSS and ~9 ms: the
    # first RngStream loads it, so a request that draws nothing never does
    out = subprocess.run([sys.executable, "-c", _LOAD_CODE], capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    if report["eager"]:
        pytest.skip("this numpy loads numpy.random at import")
    assert report["seen"] == [
        ["import", 0, False], ["pmf", 0, False], ["cdf", 0, False], ["check", 0, False],
        ["convert", 0, False], ["plot-data", 0, False], ["sample", 0, True],
    ]


class TestInversionOracle:
    def test_poisson(self):
        table = ds_pmf_inversion(DSParams(1.0, 0.0, 2.0), 20, 128)
        for n in range(21):
            assert table.masses[n] == pytest.approx(
                oracles.poisson_pmf(2.0, n), abs=1e-12
            )

    def test_agrees_with_recursion(self, grid_params):
        rec = make_table(grid_params, n_max=100)
        inv = ds_pmf_inversion(grid_params, 100, 512)
        k = min(len(rec), len(inv))
        assert np.max(np.abs(rec.masses[:k] - inv.masses[:k])) < 1e-10

    def test_heavy_tail_agreement(self):
        p = DSParams(0.5, -1.0, 0.0)
        rec = make_table(p, n_max=200)
        inv = ds_pmf_inversion(p, 200, 1024)
        assert np.max(np.abs(rec.masses[:201] - inv.masses[:201])) < 1e-10

    def test_unit_circle_through_z_one(self):
        # radius 1 puts a point on z = 1, where G = 1 exactly; at alpha = 1
        # the PGF's w log w would read 0 log 0 there
        p = DSParams(1.0, 1.0, 2.0)
        inv = ds_pmf_inversion(p, 10, 64, radius=1.0).masses
        rec = make_table(p, n_max=200, tail_bound=0.0)
        # on the unit circle each mass picks up the masses M, 2M, ... past it
        aliased = float(rec.masses[64:].sum()) + rec.tail_mass
        assert np.all(np.isfinite(inv))
        assert np.max(np.abs(inv - rec.masses[:11])) <= aliased + 1e-12

    def test_array_pgf_matches_scalar(self, grid_params):
        z = 0.9 * np.exp(1j * np.linspace(0.1, 6.2, 64))
        got = _pgf_from_one(grid_params, 1.0 - z)
        want = np.array([pgf(grid_params, complex(v)) for v in z])
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_non_finite_pgf_values_rejected(self, monkeypatch):
        # nan > 1e-8 is False, so the residue check alone lets nan through
        monkeypatch.setattr(pmf_module, "_pgf_from_one", lambda p, w: np.full(w.shape, np.nan))
        with pytest.raises(InternalConsistencyError, match="non-finite"):
            ds_pmf_inversion(DSParams(0.5, -1.0, 0.0), 20, 64)

    def test_insufficient_quadrature_rejected(self):
        with pytest.raises(DomainError):
            ds_pmf_inversion(DSParams(2.0, 1.0, 3.0), 100, 200)

    def test_extreme_radius_flagged(self):
        # a deliberately tiny circle amplifies roundoff past the residue gate
        with pytest.raises(QuadratureInsufficiency):
            ds_pmf_inversion(DSParams(2.0, 1.0, 3.0), 200, 401, radius=0.5)

    def test_randomized_parameter_sweep(self):
        # oracle agreement beyond the fixed grid, across all three branches
        rng = np.random.default_rng(987)
        params = []
        for _ in range(8):
            alpha = float(rng.uniform(0.1, 0.95))
            gamma = -float(rng.uniform(0.1, 3.0))
            delta = alpha * gamma + float(rng.uniform(0.0, 3.0))
            params.append(DSParams(alpha, gamma, delta))
        for _ in range(8):
            alpha = float(rng.uniform(1.05, 2.0))
            gamma = float(rng.uniform(0.1, 2.0))
            delta = alpha * gamma + float(rng.uniform(0.0, 3.0))
            params.append(DSParams(alpha, gamma, delta))
        for _ in range(4):
            gamma = float(rng.uniform(0.0, 2.0))
            delta = gamma + float(rng.uniform(0.01, 3.0))
            params.append(DSParams(1.0, gamma, delta))
        for p in params:
            rec = make_table(p, n_max=100, tail_bound=0.0)
            inv = ds_pmf_inversion(p, 100, 512)
            padded = np.pad(rec.masses, (0, 101 - len(rec)))
            assert np.max(np.abs(padded - inv.masses[:101])) < 1e-10, p


class TestTableQueries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(InternalConsistencyError, match="non-finite"):
            PmfTable(np.array([bad, 0.5]), "x")

    def test_cdf_poisson(self):
        table = make_table(DSParams(1.0, 0.0, 2.0), n_max=60)
        assert cdf(table, 0) == pytest.approx(math.exp(-2.0))
        assert cdf(table, len(table) - 1) == pytest.approx(1.0 - table.tail_mass)
        assert cdf(table, -3) == 0.0

    def test_cdf_monotone(self, grid_params):
        table = make_table(grid_params, n_max=300)
        values = [cdf(table, n) for n in range(len(table))]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cdf_hermite_odd_flat(self):
        table = make_table(DSParams(2.0, 1.0, 2.0), n_max=60)
        assert cdf(table, 1) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_cdf_values_running_sum(self, grid_params):
        table = make_table(grid_params, n_max=300)
        running, total = [], 0.0
        for mass in table.masses:  # left to right, as the CLI's cdf column adds
            total += float(mass)
            running.append(total)
        assert table.cdf_values.tolist() == running
        with pytest.raises(ValueError):
            table.cdf_values[0] = 0.5

    def test_cdf_beyond_table(self):
        table = make_table(DSParams(1.0, 0.0, 2.0), n_max=20)
        with pytest.raises(IndexBeyondTable):
            cdf(table, 21)

    def test_quantile_poisson(self):
        table = make_table(DSParams(1.0, 0.0, 2.0), n_max=60)
        assert quantile(table, 0.1) == 0  # e^-2 ~ 0.135 >= 0.1
        assert quantile(table, 0.0) == 0

    def test_quantile_hermite_median(self):
        table = make_table(DSParams(2.0, 1.0, 2.0), n_max=60)
        assert quantile(table, 0.5) == 2

    def test_quantile_beyond_coverage(self):
        with pytest.warns(TailBoundUnreachable):
            table = ds_pmf(DSParams(0.5, -1.0, 0.0), n_max=50, tail_bound=1e-12)
        with pytest.raises(QuantileBeyondTable):
            quantile(table, 1.0 - table.tail_mass / 2.0)

    def test_quantile_domain(self):
        table = make_table(DSParams(1.0, 0.0, 2.0), n_max=30)
        with pytest.raises(DomainError):
            quantile(table, 1.0)
        with pytest.raises(DomainError):
            quantile(table, -0.1)


class TestMoments:
    def test_examples(self):
        report = moments(DSParams(2.0, 1.0, 3.0))
        assert (report.mean, report.variance) == (3.0, 5.0)
        assert moments(DSParams(0.5, -1.0, 0.0)).mean == math.inf
        report = moments(DSParams(1.5, 1.0, 4.0))
        assert report.mean == 4.0 and report.variance == math.inf

    def test_poisson(self):
        report = moments(DSParams(1.0, 0.0, 2.5))
        assert (report.mean, report.variance) == (2.5, 2.5)

    def test_alpha_one_with_dilation(self):
        report = moments(DSParams(1.0, 1.0, 2.0))
        assert report.mean == math.inf and report.variance == math.inf

    def test_flags_agree_with_classify(self, grid_params):
        report = moments(grid_params)
        flags = classify(grid_params)
        assert math.isfinite(report.mean) == flags.mean_finite
        assert math.isfinite(report.variance) == flags.variance_finite


class TestLevyWeights:
    def test_poisson_unit_jumps(self):
        c = ds_to_compound(DSParams(1.0, 0.0, 3.0))
        w = levy_weights(c, 6)
        assert w[0] == pytest.approx(3.0)
        assert np.all(w[1:] == 0.0)

    def test_hermite_two_streams(self):
        c = CompoundRep(2.0, BSibParams(2.0, 1.5))
        w = levy_weights(c, 5)
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(1.0)
        assert np.all(w[2:] == 0.0)

    def test_sibuya_weights(self):
        c = CompoundRep(1.0, BSibParams(0.5, 0.0))
        w = levy_weights(c, 4)
        assert w[0] == pytest.approx(0.5)
        assert w[1] == pytest.approx(0.125)

    def test_sums_toward_rate(self):
        c = ds_to_compound(DSParams(1.3, 1.0, 2.0))
        w = levy_weights(c, 20000)
        assert np.all(w >= 0.0)
        assert 0.0 < c.lam - float(np.sum(w)) < 1e-3


class TestModeScan:
    def test_poisson_single_mode(self):
        report = mode_scan(make_table(DSParams(1.0, 0.0, 2.5), n_max=80))
        assert report.modes == ((2, 2),)
        assert report.unimodal

    def test_poisson_integer_rate_plateau(self):
        report = mode_scan(make_table(DSParams(1.0, 0.0, 3.0), n_max=80))
        assert report.modes == ((2, 3),)
        assert report.unimodal

    def test_hermite_multimodal(self):
        report = mode_scan(make_table(DSParams(2.0, 1.0, 2.0), n_max=60))
        assert not report.unimodal
        assert (0, 0) in report.modes and (2, 2) in report.modes

    def test_point_mass(self):
        report = mode_scan(ds_pmf(DSParams(1.0, 0.0, 0.0)))
        assert report.modes == ((0, 0),)
        assert report.unimodal

    def test_matches_loop_on_planted_plateaus(self):
        rng = np.random.default_rng(31)
        tol = 1e-12
        levels = np.array([0.0, 1e-300, 1e-3, 2e-3, 5e-3, 0.25])
        # factors put neighbours just inside, on and just past plateau_tol
        nudges = np.array([1.0, 1.0 + tol, 1.0 - tol, 1.0 + 2 * tol, 1.0 + 0.5 * tol])
        for _ in range(2000):
            runs = rng.integers(1, 6, size=rng.integers(1, 12))
            masses = np.repeat(rng.choice(levels, size=runs.size), runs)
            masses *= rng.choice(nudges, size=masses.size)
            table = PmfTable(masses, "planted")
            for plateau_tol in (tol, 0.0):
                got = mode_scan(table, plateau_tol)
                assert got == oracles.loop_mode_scan(table, plateau_tol)
                assert all(type(i) is int for mode in got.modes for i in mode)

    def test_matches_loop_on_tables(self, grid_params):
        table = make_table(grid_params, n_max=3000)
        assert mode_scan(table) == oracles.loop_mode_scan(table)

    def test_scan_honesty_fields(self):
        table = make_table(DSParams(0.5, -1.0, 0.0), n_max=500, tail_bound=1e-9)
        report = mode_scan(table)
        assert report.scanned_to == len(table) - 1
        assert report.tail_mass_at_scan == table.tail_mass
        assert report.unimodal  # strict law is self-decomposable, hence unimodal
