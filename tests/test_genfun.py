"""Generating functions, closure laws, and the stability identity."""

import math

import numpy as np
import pytest

from dstable import (
    BSibParams,
    DSParams,
    bsib_pgf,
    classify,
    convolve_params,
    fcgf,
    pgf,
    rfunc,
    selfdecomp_remainder,
    stability_mu,
    stability_residual,
    thin_params,
    translate_params,
)
from dstable.errors import (
    AlphaMismatch,
    DomainError,
    InvalidTranslation,
    NotSelfDecomposableAtRho,
)

Z_GRID = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
RHO_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def assert_same_number(value, expected):
    """Same type, same value, and the same signs of zero in both parts."""
    assert type(value) is type(expected)
    assert value == expected
    v, e = complex(value), complex(expected)
    assert math.copysign(1.0, v.real) == math.copysign(1.0, e.real)
    assert math.copysign(1.0, v.imag) == math.copysign(1.0, e.imag)


class TestPgf:
    def test_poisson_at_zero(self):
        assert pgf(DSParams(1.0, 0.0, 2.0), 0.0) == pytest.approx(math.exp(-2.0))

    def test_one_at_one(self, grid_params):
        assert pgf(grid_params, 1.0) == 1.0
        assert pgf(grid_params, complex(1.0)) == 1.0

    def test_hermite_at_zero(self):
        assert pgf(DSParams(2.0, 1.0, 3.0), 0.0) == pytest.approx(math.exp(-2.0))

    def test_endpoints_exact_and_typed(self, grid_params):
        p = grid_params
        g0 = math.exp(-p.delta if p.alpha == 1.0 else p.gamma - p.delta)  # G(0)
        cases = [
            (1, 1.0), (1.0, 1.0), (1.0 + 5e-13, 1.0), (0.0, g0), (-0.0, g0),
            (1 + 0j, complex(1.0)), (0j, complex(g0)), (complex(-0.0, -0.0), complex(g0)),
        ]
        for z, expected in cases:
            assert_same_number(pgf(p, z), expected)

    def test_alpha_one_log_term_vanishes_at_zero(self):
        assert pgf(DSParams(1.0, 1.0, 2.0), 0.0) == pytest.approx(math.exp(-2.0))

    def test_outside_disk_rejected(self, grid_params):
        with pytest.raises(DomainError):
            pgf(grid_params, 1.0 + 1e-9)
        with pytest.raises(DomainError):
            pgf(grid_params, complex(0.8, 0.7))

    def test_matches_fcgf(self, grid_params):
        for z in Z_GRID + [1.0]:
            expected = math.exp(fcgf(grid_params, z - 1.0))
            assert pgf(grid_params, z) == pytest.approx(expected, rel=1e-14)

    def test_bounded_on_unit_disk(self, grid_params):
        rng = np.random.default_rng(11)
        radii = np.sqrt(rng.uniform(0.0, 1.0, 100))
        angles = rng.uniform(0.0, 2.0 * math.pi, 100)
        for r, t in zip(radii, angles):
            z = complex(r * math.cos(t), r * math.sin(t))
            assert abs(pgf(grid_params, z)) <= 1.0 + 1e-12

    def test_real_and_complex_paths_agree(self, grid_params):
        for z in Z_GRID:
            real = pgf(grid_params, z)
            comp = pgf(grid_params, complex(z))
            assert comp.imag == pytest.approx(0.0, abs=1e-15)
            assert comp.real == pytest.approx(real, rel=1e-14)

    @pytest.mark.parametrize("raw", [(0.5, -1.0, 0.0), (1.3, 1.0, 2.0), (1.0, 1.0, 2.0)])
    def test_numpy_complex_same_digits_as_builtin(self, raw):
        # one argument rule: a numpy.complex128 is converted, not computed on
        p = DSParams(*raw)
        rng = np.random.default_rng(0)
        points = np.sqrt(rng.random(2000)) * np.exp(2j * math.pi * rng.random(2000))
        for z in points:
            got = pgf(p, z)
            assert type(got) is complex
            assert got == pgf(p, complex(z))
        # complex64 is no subclass of complex; its imaginary part must not be dropped
        z = np.complex64(0.5j)
        assert pgf(p, z) == pgf(p, complex(z)) != pgf(p, 0.0)


class TestFcgf:
    def test_examples(self):
        p = DSParams(2.0, 1.0, 3.0)
        assert fcgf(p, -1.0) == pytest.approx(-2.0)
        assert math.exp(fcgf(p, -1.0)) == pytest.approx(pgf(p, 0.0), rel=1e-14)
        assert fcgf(DSParams(0.5, -1.0, 0.0), -0.25) == pytest.approx(-0.5)

    def test_zero_at_zero(self, grid_params):
        assert fcgf(grid_params, 0.0) == 0.0

    @pytest.mark.parametrize("t", [-1.5, 0.5, 1.0])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            fcgf(DSParams(2.0, 1.0, 3.0), t)


class TestRfunc:
    def test_poisson_constant(self):
        p = DSParams(1.0, 0.0, 3.5)
        for z in Z_GRID:
            assert rfunc(p, z) == 3.5

    def test_examples(self):
        assert rfunc(DSParams(2.0, 1.0, 3.0), 0.0) == pytest.approx(1.0)
        # p1/p0 = r(0) = 0.5 for the strict alpha = 0.5 law
        assert rfunc(DSParams(0.5, -1.0, 0.0), 0.0) == pytest.approx(0.5)

    def test_matches_log_derivative(self, grid_params):
        # central differences; pgf is defined down to z = -1 so z = 0 is fine
        h = 1e-6
        for z in [0.0, 0.25, 0.5, 0.75]:
            numeric = (
                math.log(pgf(grid_params, z + h)) - math.log(pgf(grid_params, z - h))
            ) / (2.0 * h)
            assert rfunc(grid_params, z) == pytest.approx(numeric, abs=1e-6, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            rfunc(DSParams(2.0, 1.0, 3.0), 1.0)


class TestBsibPgf:
    def test_alpha_two_is_quadratic(self):
        b = BSibParams(2.0, 2.0)
        for z in [0.0, 0.3, 0.9, 1.0]:
            assert bsib_pgf(b, z) == pytest.approx(z * z, abs=1e-15)
        zc = complex(0.3, 0.4)
        assert bsib_pgf(b, zc) == pytest.approx(zc * zc, abs=1e-15)

    def test_point_mass_at_one(self):
        b = BSibParams(1.0, 0.0)
        for z in [0.0, 0.4, 1.0]:
            assert bsib_pgf(b, z) == pytest.approx(z, abs=1e-16)

    @pytest.mark.parametrize(
        "alpha,rho", [(0.5, 0.0), (0.5, -1.0), (0.3, 0.5), (1.0, 0.7), (1.5, 1.2), (2.0, 1.5)]
    )
    def test_endpoints_exact(self, alpha, rho):
        b = BSibParams(alpha, rho)
        assert bsib_pgf(b, 0.0) == 0.0
        assert bsib_pgf(b, 1.0) == 1.0
        cases = [
            (1, 1.0), (1.0, 1.0), (1.0 + 5e-13, 1.0), (0.0, 0.0), (-0.0, 0.0),
            (1 + 0j, complex(1.0)), (0j, complex(0.0)), (complex(-0.0, -0.0), complex(0.0)),
        ]
        for z, expected in cases:
            assert_same_number(bsib_pgf(b, z), expected)

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            bsib_pgf(BSibParams(0.5, 0.0), -1.1)


class TestThinning:
    def test_identity(self, grid_params):
        assert thin_params(grid_params, 1.0) == grid_params

    def test_hermite_example(self):
        q = thin_params(DSParams(2.0, 1.0, 3.0), 0.5)
        assert (q.alpha, q.gamma, q.delta) == (2.0, 0.25, 1.5)

    def test_alpha_one_log_correction(self):
        q = thin_params(DSParams(1.0, 1.0, 2.0), 0.5)
        assert q.gamma == 0.5
        assert q.delta == pytest.approx(1.0 + 0.5 * math.log(2.0), rel=1e-15)

    def test_pgf_functional_equation(self, grid_params):
        # G(z; a o X) = G(1 + a(z-1); X)
        for a in [0.2, 0.5, 0.8, 1.0]:
            thinned = thin_params(grid_params, a)
            for z in Z_GRID:
                direct = pgf(grid_params, 1.0 + a * (z - 1.0))
                assert pgf(thinned, z) == pytest.approx(direct, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("a", [0.0, -0.1, 1.2])
    def test_domain(self, a):
        with pytest.raises(DomainError):
            thin_params(DSParams(2.0, 1.0, 3.0), a)


class TestTranslation:
    def test_examples(self):
        assert translate_params(DSParams(2.0, 1.0, 2.0), 2.0).delta == 4.0
        assert translate_params(DSParams(1.0, 0.0, 3.0), 1.0).delta == 4.0

    def test_negative_translation_checked(self):
        with pytest.raises(InvalidTranslation):
            translate_params(DSParams(2.0, 1.0, 2.0), -0.5)  # 1.5 < 2
        q = translate_params(DSParams(2.0, 1.0, 2.5), -0.5)
        assert q.delta == 2.0

    def test_pgf_picks_up_poisson_factor(self, grid_params):
        m = 1.25
        shifted = translate_params(grid_params, m)
        for z in Z_GRID:
            expected = pgf(grid_params, z) * math.exp(m * (z - 1.0))
            assert pgf(shifted, z) == pytest.approx(expected, rel=1e-14)


class TestConvolution:
    def test_exponents_add(self):
        q = convolve_params(DSParams(1.5, 1.0, 2.0), DSParams(1.5, 2.0, 4.0))
        assert (q.alpha, q.gamma, q.delta) == (1.5, 3.0, 6.0)

    def test_point_mass_is_identity(self):
        p = DSParams(1.0, 1.0, 2.0)
        assert convolve_params(DSParams(1.0, 0.0, 0.0), p) == p

    def test_alpha_mismatch(self):
        with pytest.raises(AlphaMismatch):
            convolve_params(DSParams(2.0, 1.0, 3.0), DSParams(1.0, 0.0, 1.0))

    def test_pgf_product(self, grid_params):
        other_by_alpha = {
            0.3: DSParams(0.3, -0.7, 0.5),
            0.7: DSParams(0.7, -1.5, 1.0),
            1.0: DSParams(1.0, 0.25, 1.0),
            1.3: DSParams(1.3, 0.5, 2.0),
            2.0: DSParams(2.0, 0.75, 2.0),
        }
        other = other_by_alpha[grid_params.alpha]
        combined = convolve_params(grid_params, other)
        for z in Z_GRID:
            product = pgf(grid_params, z) * pgf(other, z)
            assert pgf(combined, z) == pytest.approx(product, rel=1e-13, abs=1e-13)


class TestFcgfAlgebra:
    def test_additive_under_convolution(self, grid_params):
        other_by_alpha = {
            0.3: DSParams(0.3, -0.4, 0.2),
            0.7: DSParams(0.7, -0.9, 1.5),
            1.0: DSParams(1.0, 0.5, 2.0),
            1.3: DSParams(1.3, 1.5, 2.5),
            2.0: DSParams(2.0, 0.25, 1.0),
        }
        other = other_by_alpha[grid_params.alpha]
        combined = convolve_params(grid_params, other)
        for t in [-1.0, -0.6, -0.3, -0.05, 0.0]:
            total = fcgf(grid_params, t) + fcgf(other, t)
            assert fcgf(combined, t) == pytest.approx(total, rel=1e-13, abs=1e-15)


class TestStability:
    def test_mu_zero_for_strict(self):
        p = DSParams(0.5, -1.0, 0.0)
        for rho in RHO_GRID:
            assert stability_mu(p, rho) == 0.0
        poisson = DSParams(1.0, 0.0, 3.0)
        for rho in RHO_GRID:
            assert stability_mu(poisson, rho) == 0.0

    def test_mu_examples(self):
        assert stability_mu(DSParams(2.0, 1.0, 4.0), 0.6) == pytest.approx(1.6, rel=1e-14)
        assert stability_mu(DSParams(1.0, 1.0, 2.0), 0.5) == pytest.approx(
            math.log(2.0), rel=1e-14
        )

    def test_mu_domain(self):
        with pytest.raises(DomainError):
            stability_mu(DSParams(2.0, 1.0, 4.0), 0.0)
        with pytest.raises(DomainError):
            stability_mu(DSParams(2.0, 1.0, 4.0), 1.0)

    def test_identity_holds_on_grid(self, grid_params):
        for rho in RHO_GRID:
            report = stability_residual(grid_params, rho)
            assert report.max_residual < 1e-12

    def test_perturbed_mu_detected(self):
        p = DSParams(2.0, 1.0, 4.0)
        good = stability_residual(p, 0.6)
        bad = stability_residual(p, 0.6, mu=good.mu + 0.1)
        assert good.max_residual < 1e-12
        assert bad.max_residual > 1e-3

    def test_strict_case_residual(self):
        report = stability_residual(DSParams(0.5, -1.0, 0.0), 0.3)
        assert report.mu == 0.0
        assert report.max_residual < 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            stability_residual(DSParams(2.0, 1.0, 4.0), 0.5, zgrid=[])

    def test_small_alpha_residual(self):
        # f = (1 - rho^a)^(1/a) is 3e-46..5e-20 here, so 1 - f (1-z) rounds to 1
        p = DSParams(0.05, -1.0, 0.0)
        for rho in RHO_GRID:
            assert stability_residual(p, rho).max_residual <= 1e-12, rho

    @pytest.mark.parametrize("raw", [(1e-6, -1.0, 1000.0), (1e-6, -1.0, 0.0), (1e-3, -1.0, 10.0)])
    def test_tiny_alpha_residual(self, raw):
        # f = (1 - rho^a)^(1/a) underflows to 0 here, but f^a = 1 - rho^a does not
        p = DSParams(*raw)
        for rho in RHO_GRID:
            assert stability_residual(p, rho).max_residual <= 1e-12, rho

    def test_far_negative_shift(self):
        # mu = -865 at rho = 0.1: e^{mu (z - 1)} alone overflows, G(z) e^{mu (z - 1)} does not
        p = DSParams(0.5, -1.0, 2000.0)
        for rho in RHO_GRID:
            assert stability_residual(p, rho).max_residual < 1e-12, rho

    def test_left_side_past_the_float_range_reads_inf(self):
        # mu = -800: e^{-mu} G(0) = e^{798} passes the float range, where an
        # OverflowError escaped from the fallback exponent
        report = stability_residual(DSParams(1.5, 1.0, 3.0), 0.5, mu=-800.0)
        assert report.max_residual == math.inf

    def test_rho_domain_with_explicit_mu(self):
        p = DSParams(2.0, 1.0, 4.0)
        for rho in (0.0, 1.0, -0.5, 3.0):
            with pytest.raises(DomainError):
                stability_residual(p, rho, mu=0.0)


class TestSelfDecompRemainder:
    def test_example_valid(self):
        q = selfdecomp_remainder(DSParams(2.0, 1.0, 5.0), 0.5)
        assert q.gamma == pytest.approx(0.75)
        assert q.delta == pytest.approx(2.5)

    def test_example_invalid(self):
        with pytest.raises(NotSelfDecomposableAtRho):
            selfdecomp_remainder(DSParams(2.0, 1.0, 3.0), 0.75)

    def test_rho_zero_returns_input(self, grid_params):
        assert selfdecomp_remainder(grid_params, 0.0) == grid_params

    def test_alpha_one_formula(self):
        p = DSParams(1.0, 1.0, 2.0)
        rho = 0.4
        q = selfdecomp_remainder(p, rho)
        assert q.gamma == pytest.approx(0.6)
        assert q.delta == pytest.approx(0.6 * 2.0 + 0.4 * math.log(0.4), rel=1e-14)

    def test_remainder_pgf_divides(self, grid_params):
        # G(z) = G(1 + rho(z-1)) * G_remainder(z) whenever the remainder exists
        for rho in [0.25, 0.6]:
            try:
                rem = selfdecomp_remainder(grid_params, rho)
            except NotSelfDecomposableAtRho:
                continue
            for z in Z_GRID:
                lhs = pgf(grid_params, z)
                rhs = pgf(grid_params, 1.0 + rho * (z - 1.0)) * pgf(rem, z)
                assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_classification_matches_remainder_feasibility(self, grid_params):
        dense = [k / 100.0 for k in range(1, 100)]
        feasible_everywhere = True
        for rho in dense:
            try:
                selfdecomp_remainder(grid_params, rho)
            except NotSelfDecomposableAtRho:
                feasible_everywhere = False
                break
        assert feasible_everywhere == classify(grid_params).self_decomposable
