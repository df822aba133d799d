"""Validation, conversions, and classification of parameter triples."""

import math
import re

import numpy as np
import pytest

import dstable
from dstable import (
    BSibParams,
    CompoundRep,
    DSParams,
    ESParams,
    classify,
    compound_to_ds,
    ds_to_compound,
    ds_to_es,
    es_to_ds,
    levy_weights,
)
from dstable.errors import (
    AlphaOutOfRange,
    DegenerateDistribution,
    DeltaBelowAlphaGamma,
    DeltaLimViolation,
    DomainError,
    GammaSignViolation,
    NoScaleForDegenerate,
    ParameterError,
    PoissonConventionViolation,
    RhoOutOfRange,
)

from conftest import PARAM_GRID


class TestValidateDS:
    def test_strict_eligible_point(self):
        p = DSParams(0.5, -1.0, 0.0)
        assert (p.alpha, p.gamma, p.delta) == (0.5, -1.0, 0.0)
        assert classify(p).strict

    def test_poisson_branch(self):
        p = DSParams(1.0, 0.0, 3.0)
        assert classify(p).is_poisson

    def test_delta_below_alpha_gamma(self):
        with pytest.raises(DeltaBelowAlphaGamma):
            DSParams(2.0, 1.0, 1.5)  # needs delta >= 2

    def test_alpha_above_two(self):
        with pytest.raises(AlphaOutOfRange):
            DSParams(2.5, 1.0, 5.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.0000000001, math.nan])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            DSParams(alpha, 1.0, 5.0)

    @pytest.mark.parametrize(
        "alpha,gamma",
        [(0.5, 1.0), (1.0, -0.5), (1.5, -1.0), (2.0, -1.0)],
    )
    def test_gamma_sign_violations(self, alpha, gamma):
        with pytest.raises(GammaSignViolation):
            DSParams(alpha, gamma, 10.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_poisson_convention(self, alpha):
        with pytest.raises(PoissonConventionViolation):
            DSParams(alpha, 0.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 2.5])
    def test_gamma_zero_iff_poisson(self, alpha, delta):
        # DSParams(alpha, 0, delta) succeeds exactly when alpha = 1, delta >= 0
        should_pass = alpha == 1.0 and delta >= 0.0
        if should_pass:
            DSParams(alpha, 0.0, delta)
        else:
            with pytest.raises(ParameterError):
                DSParams(alpha, 0.0, delta)

    def test_negative_delta_allowed_below_one(self):
        # delta >= alpha*gamma permits negative delta when gamma < 0
        p = DSParams(0.5, -1.0, -0.25)
        assert p.delta == -0.25
        with pytest.raises(DeltaBelowAlphaGamma):
            DSParams(0.5, -1.0, -0.75)

    def test_near_alpha_one_flag(self):
        assert DSParams(1.0 + 1e-9, 1.0, 2.0).near_alpha_one
        assert DSParams(1.0 - 1e-9, -1.0, 0.0).near_alpha_one
        assert not DSParams(1.0, 1.0, 2.0).near_alpha_one
        assert not DSParams(1.1, 1.0, 2.0).near_alpha_one


class TestValidateBSib:
    def test_ordinary_sibuya(self):
        b = BSibParams(0.5, 0.0)
        assert b.rho == 0.0

    def test_upper_endpoint_alpha_two(self):
        assert BSibParams(2.0, 2.0).rho == 2.0  # alpha/(alpha-1) = 2

    def test_rho_out_of_range(self):
        with pytest.raises(RhoOutOfRange):
            BSibParams(1.5, 0.5)  # needs rho > 1

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            BSibParams(2.5, 0.0)

    @pytest.mark.parametrize(
        "alpha,rho,ok",
        [
            # alpha < 1: [-alpha/(1-alpha), 1)
            (0.5, -1.0, True),
            (0.5, math.nextafter(-1.0, -2.0), False),
            (0.5, 1.0, False),
            (0.5, math.nextafter(1.0, 0.0), True),
            # alpha = 1: [0, 1]
            (1.0, 0.0, True),
            (1.0, 1.0, True),
            (1.0, -1e-16, False),
            (1.0, 1.0 + 1e-15, False),
            # alpha > 1: (1, alpha/(alpha-1)]
            (2.0, 1.0, False),
            (2.0, math.nextafter(1.0, 2.0), True),
            (2.0, 2.0, True),
            (2.0, math.nextafter(2.0, 3.0), False),
            (1.5, 3.0, True),
            (1.5, 3.0 + 1e-14, False),
        ],
    )
    def test_interval_endpoints_exact(self, alpha, rho, ok):
        if ok:
            BSibParams(alpha, rho)
        else:
            with pytest.raises(RhoOutOfRange):
                BSibParams(alpha, rho)


class TestCompoundConversion:
    def test_strict_sibuya_case(self):
        c = ds_to_compound(DSParams(0.5, -1.0, 0.0))
        assert c.lam == 1.0
        assert c.summand.rho == 0.0

    def test_hermite_case(self):
        c = ds_to_compound(DSParams(2.0, 1.0, 3.0))
        assert c.lam == 2.0
        assert c.summand.rho == 1.5

    def test_alpha_one_case(self):
        c = ds_to_compound(DSParams(1.0, 1.0, 2.0))
        assert c.lam == 2.0
        assert c.summand.rho == 0.5

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDistribution):
            ds_to_compound(DSParams(1.0, 0.0, 0.0))
        with pytest.raises(DegenerateDistribution):
            CompoundRep(0.0, BSibParams(0.5, 0.0))

    def test_poisson_maps_to_unit_jumps(self):
        c = ds_to_compound(DSParams(1.0, 0.0, 3.0))
        assert c.lam == 3.0 and c.summand.rho == 0.0

    @pytest.mark.parametrize(
        "lam,alpha,rho,expected",
        [
            (1.0, 0.5, 0.0, (0.5, -1.0, 0.0)),
            (2.0, 2.0, 1.5, (2.0, 1.0, 3.0)),
            (2.0, 1.0, 0.5, (1.0, 1.0, 2.0)),
        ],
    )
    def test_compound_to_ds_examples(self, lam, alpha, rho, expected):
        p = compound_to_ds(CompoundRep(lam, BSibParams(alpha, rho)))
        assert (p.alpha, p.gamma, p.delta) == pytest.approx(expected, rel=1e-15)

    def test_round_trip(self):
        for alpha, gamma, delta in PARAM_GRID:
            p = DSParams(alpha, gamma, delta)
            if p.gamma == 0.0 and p.delta == 0.0:
                continue
            q = compound_to_ds(ds_to_compound(p))
            assert q.alpha == p.alpha
            assert q.gamma == pytest.approx(p.gamma, rel=1e-14, abs=1e-14)
            assert q.delta == pytest.approx(p.delta, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("raw", [(1.5, 1.0, 1e16), (0.5, -1.0, 1e17), (1.3, 1e-300, 1.0)])
    def test_rho_past_double_resolution(self, raw):
        # delta - gamma rounds to delta: an honest DomainError, not RhoOutOfRange
        with pytest.raises(DomainError, match="double resolution"):
            ds_to_compound(DSParams(*raw))

    def test_round_trip_at_boundary(self):
        # delta exactly at alpha*gamma maps to the rho interval endpoint
        for alpha, gamma in [(0.3, -1.0), (0.7, -2.0), (1.3, 1.0), (2.0, 1.5)]:
            p = DSParams(alpha, gamma, alpha * gamma)
            q = compound_to_ds(ds_to_compound(p))
            assert q.delta == pytest.approx(p.delta, rel=1e-13, abs=1e-13)


class TestESConversion:
    def test_gaussian_mixing(self):
        p = es_to_ds(ESParams(2.0, 1.0, 4.0))
        assert p.gamma == pytest.approx(1.0, abs=1e-15)  # sec(pi) = -1
        assert p.delta == 4.0

    def test_alpha_one(self):
        p = es_to_ds(ESParams(1.0, math.pi / 2.0, 2.0))
        assert p.gamma == pytest.approx(1.0, rel=1e-15)
        assert p.delta == 2.0

    def test_normal_correspondence(self):
        # ES(2, s/sqrt(2), mu) is the Normal(mu, s^2) mixing law; the mixed
        # count law then has mean mu and variance mu + s^2 = delta + 2*gamma
        s, mu = 1.7, 6.0
        p = es_to_ds(ESParams(2.0, s / math.sqrt(2.0), mu))
        assert p.gamma == pytest.approx(s * s / 2.0, rel=1e-14)
        assert p.delta + 2.0 * p.gamma == pytest.approx(mu + s * s, rel=1e-14)

    def test_ds_to_es_examples(self):
        e = ds_to_es(DSParams(2.0, 1.0, 4.0))
        assert (e.alpha, e.sigma, e.delta) == pytest.approx((2.0, 1.0, 4.0))
        e = ds_to_es(DSParams(1.0, 0.0, 3.0))
        assert (e.alpha, e.sigma, e.delta) == (1.0, 0.0, 3.0)
        e = ds_to_es(DSParams(0.5, -math.sqrt(2.0), 0.0))
        assert e.sigma == pytest.approx(1.0, rel=1e-14)  # sec(pi/4) = sqrt(2)

    def test_delta_lim_violation(self):
        with pytest.raises(DeltaLimViolation):
            ESParams(2.0, 1.0, 1.9)  # needs delta >= -2*sec(pi)*1 = 2

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            ESParams(2.5, 1.0, 3.0)

    def test_no_scale_when_the_base_underflows(self):
        # -gamma cos(pi alpha/2) = 1e-310 * 1.7e-16 rounds to 0: no sigma > 0 solves it
        with pytest.raises(NoScaleForDegenerate):
            ds_to_es(DSParams(1.0 + 2.0**-52, 1e-310, 1.0))

    def test_sigma_constraints(self):
        with pytest.raises(ParameterError):
            ESParams(2.0, 0.0, 5.0)
        with pytest.raises(ParameterError):
            ESParams(1.0, -0.5, 5.0)
        ESParams(1.0, 0.0, 0.0)  # degenerate mixing is allowed at alpha = 1

    def test_past_float_range_named(self):
        # sigma**alpha and (-gamma cos(pi alpha/2))**(1/alpha) pass 1.8e308
        with pytest.raises(DomainError, match="float range"):
            es_to_ds(ESParams(1.5, 1e308, 3.0))
        with pytest.raises(DomainError, match="float range"):
            ds_to_es(DSParams(0.5, -1e300, 0.0))

    def test_round_trip(self):
        rng = np.random.default_rng(20240803)
        for _ in range(200):
            alpha = float(rng.uniform(0.05, 2.0))
            if abs(alpha - 1.0) < 1e-3:
                alpha = 1.0
            sigma = float(rng.uniform(0.1, 3.0))
            # the admissible location region depends strongly on alpha; start
            # from the mixing bound so delta is always valid
            if alpha == 1.0:
                bound = sigma * 2.0 / math.pi
            else:
                bound = -alpha / math.sin(0.5 * math.pi * (1.0 - alpha)) * sigma**alpha
            e = ESParams(alpha, sigma, bound + float(rng.uniform(0.0, 5.0)))
            back = ds_to_es(es_to_ds(e))
            assert back.sigma == pytest.approx(e.sigma, rel=1e-12)
            assert back.delta == pytest.approx(e.delta, rel=1e-12)


class TestClassify:
    def test_strict_sibuya(self):
        c = classify(DSParams(0.5, -1.0, 0.0))
        assert c.strict and c.self_decomposable
        assert not c.mean_finite and not c.variance_finite

    def test_hermite_not_self_decomposable(self):
        c = classify(DSParams(2.0, 1.0, 3.0))
        assert not c.strict
        assert not c.self_decomposable  # 3 < alpha^2 gamma = 4
        assert c.mean_finite and c.variance_finite

    def test_boundary_self_decomposable(self):
        assert classify(DSParams(2.0, 1.0, 4.0)).self_decomposable

    def test_alpha_one_boundary(self):
        c = classify(DSParams(1.0, 1.0, 2.0))
        assert c.self_decomposable and not c.strict

    def test_poisson_flags(self):
        c = classify(DSParams(1.0, 0.0, 3.0))
        assert c.is_poisson and not c.is_degenerate
        assert c.strict and c.mean_finite and c.variance_finite

    def test_degenerate_flags(self):
        c = classify(DSParams(1.0, 0.0, 0.0))
        assert c.is_degenerate and not c.is_poisson

    def test_strict_implies_self_decomposable(self):
        rng = np.random.default_rng(7)
        candidates = [DSParams(1.0, 0.0, 0.0), DSParams(1.0, 0.0, 4.0)]
        for _ in range(300):
            alpha = float(rng.uniform(0.05, 0.999))
            gamma = -float(rng.uniform(0.05, 5.0))
            candidates.append(DSParams(alpha, gamma, 0.0))
        for p in candidates:
            c = classify(p)
            assert c.strict
            assert c.self_decomposable


def _rates_never_increase(p: DSParams) -> bool:
    rates = np.arange(1, 65) * levy_weights(ds_to_compound(p), 64)
    return bool(np.all(np.diff(rates) <= 0.0))


class TestSelfDecomposablePremise:
    """The flag is the Steutel-van Harn condition: k lam p_k never increases."""

    @pytest.mark.parametrize("raw", PARAM_GRID, ids=str)
    def test_grid(self, raw):
        p = DSParams(*raw)
        assert classify(p).self_decomposable == _rates_never_increase(p)

    # The boundary is delta = alpha^2 gamma (2 gamma at alpha = 1). The step
    # is one ulp of the larger of delta and lam, the scale at which the rates
    # are rounded; a step below that can vanish in their rounding. Even this
    # step is not always resolved: at (1.3, 7) and (1.7, 0.3) the rounded
    # rates disagree with the flag on one side.
    @pytest.mark.parametrize(
        "alpha, gamma",
        [(0.05, -1.0), (0.3, -1.0), (0.5, -1.0), (0.7, -2.0), (1.0, 1.0), (1.0, 0.5),
         (1.3, 1.0), (1.5, 1.0), (1.9, 3.0), (2.0, 1.0)],
    )
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_one_ulp_from_boundary(self, alpha, gamma, side):
        bound = 2.0 * gamma if alpha == 1.0 else alpha * alpha * gamma
        lam = bound if alpha == 1.0 else bound - gamma
        p = DSParams(alpha, gamma, bound + side * max(math.ulp(bound), math.ulp(lam)))
        assert classify(p).self_decomposable == (side > 0)
        assert _rates_never_increase(p) == (side > 0)


_P = DSParams(1.5, 1.0, 3.0)
# each call passes its one argument where a count goes
COUNT_CALLS = {
    "cdf": lambda n: dstable.cdf(dstable.ds_pmf(_P, 50, 1e-3), n),
    "bsib_pmf": lambda n: dstable.bsib_pmf(BSibParams(0.5, 0.0), n),
    "ds_pmf": lambda n: dstable.ds_pmf(_P, n),
    "levy_weights": lambda n: levy_weights(ds_to_compound(_P), n),
    "ds_pmf_inversion n_max": lambda n: dstable.ds_pmf_inversion(_P, n, 64),
    "ds_pmf_inversion quad_points": lambda n: dstable.ds_pmf_inversion(_P, 10, n),
    "thin": lambda n: dstable.thin(n, 0.5, dstable.RngStream(1)),
    "translate": lambda n: dstable.translate(n, 1.0, dstable.RngStream(1)),
    "sample_ds": lambda n: dstable.sample_ds(_P, dstable.RngStream(1), size=n),
    "stability_experiment": lambda n: dstable.stability_experiment(
        _P, 0.5, n, dstable.RngStream(1)
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", COUNT_CALLS)
def test_non_finite_count_raises_a_domain_error(name, bad):
    # int() refuses these with a ValueError or an OverflowError
    with pytest.raises(DomainError, match="nan|inf"):
        COUNT_CALLS[name](bad)


# each call passes its one argument where a tolerance, a count array, a seed,
# a count, a shift or a PGF argument goes
VALUE_CALLS = {
    "mode_scan": lambda v: dstable.mode_scan(dstable.ds_pmf(_P, 50, 1e-3), plateau_tol=v),
    "thin": lambda v: dstable.thin(np.array([v]), 0.5, dstable.RngStream(1)),
    "RngStream": dstable.RngStream,
    "split": lambda v: dstable.RngStream(1).split(v),
    "translate": lambda v: dstable.translate(v, 1.0, dstable.RngStream(1)),
    "stability_residual": lambda v: dstable.stability_residual(_P, 0.5, mu=v),
    "zgrid": lambda v: dstable.stability_residual(_P, 0.5, zgrid=[v]),
    "selfdecomp_remainder": lambda v: dstable.selfdecomp_remainder(_P, v),
    "radius": lambda v: dstable.ds_pmf_inversion(_P, 10, 64, radius=v),
    "pgf": lambda v: dstable.pgf(_P, v),
    "bsib_pgf": lambda v: dstable.bsib_pgf(BSibParams(0.5, 0.0), v),
}


@pytest.mark.parametrize(
    "name,bad",
    [("mode_scan", math.nan), ("mode_scan", -1.0), ("thin", math.nan), ("thin", math.inf),
     ("thin", -math.inf), ("RngStream", math.nan), ("RngStream", math.inf),
     ("split", -1), ("translate", -3), ("stability_residual", math.nan),
     ("stability_residual", math.inf), ("stability_residual", -math.inf), ("zgrid", 1.0),
     ("selfdecomp_remainder", 1.0), ("radius", 1.5),
     ("pgf", math.nan), ("pgf", complex(math.nan, 0.0)), ("pgf", complex(0.5, math.nan)),
     ("pgf", complex(math.inf, math.nan)), ("bsib_pgf", math.nan)],
)
def test_value_out_of_domain_raises_a_domain_error_that_names_it(name, bad):
    # a NaN tolerance found no modes; a NaN count was cast to int64's least
    # value; int() refused a NaN seed with a ValueError or an OverflowError;
    # split(-1) raised an OverflowError and translate returned x + a Poisson
    # count for x = -3; a NaN shift read a residual of 0.0 and an infinite
    # one a finite or infinite residual; a NaN PGF argument returned NaN
    with pytest.raises(DomainError, match=re.escape(f"got {bad!r}") + "$"):
        VALUE_CALLS[name](bad)
