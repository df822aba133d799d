"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a FAILED test marks the corresponding criterion red.
"""

import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dstable import (
    BSibParams,
    DSParams,
    RngStream,
    bsib_pmf,
    classify,
    ds_pmf,
    ds_pmf_inversion,
    mode_scan,
    moments,
    sample_bsib,
    selfdecomp_remainder,
    stability_experiment,
    stability_mu,
    stability_residual,
)
from dstable.errors import NotSelfDecomposableAtRho, TailBoundUnreachable
from dstable.pmf import bsib_pmf_array
from dstable.sampler import _draws, pool_counts, tv_against_table

import oracles
from conftest import PARAM_GRID

RHO_GRID = [round(0.1 * k, 1) for k in range(1, 10)]
Z_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]


def quiet_table(p, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailBoundUnreachable)
        return ds_pmf(p, **kwargs)


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for alpha, gamma, delta in PARAM_GRID:
        p = DSParams(alpha, gamma, delta)
        rec = quiet_table(p, n_max=500, tail_bound=0.0)
        inv = ds_pmf_inversion(p, 500, 4096)
        # light tails stop the recursion once float cumulative hits 1; true
        # masses past that point are below double resolution, so padding with
        # zeros only strengthens the comparison
        padded = np.pad(rec.masses, (0, 501 - len(rec)))
        diff = float(np.max(np.abs(padded - inv.masses[:501])))
        worst = max(worst, diff)
        assert diff <= 1e-10, f"{p}: oracle disagreement {diff:.3e}"
    print(f"\nPASS criterion 1: recursion vs inversion, max |diff| = {worst:.3e} <= 1e-10")


def test_criterion_2_closed_form_reductions():
    # (a) Poisson reduction
    for delta in (0.5, 2.0, 10.0):
        table = quiet_table(DSParams(1.0, 0.0, delta), n_max=80)
        for n, mass in enumerate(table.masses):
            ref = oracles.poisson_pmf(delta, n)
            assert mass == pytest.approx(ref, rel=1e-12), (delta, n)
    # (b) Hermite two-Poisson convolution
    for gamma, delta in ((1.0, 2.0), (1.0, 3.0), (0.5, 4.0)):
        table = quiet_table(DSParams(2.0, gamma, delta), n_max=120)
        a1, a2 = delta - 2.0 * gamma, gamma
        for n, mass in enumerate(table.masses):
            ref = oracles.hermite_pmf(a1, a2, n)
            assert mass == pytest.approx(ref, rel=1e-12, abs=1e-280), (gamma, delta, n)
    # (c) Sibuya vs exact binomial-series arithmetic
    for alpha_frac in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        b = BSibParams(float(alpha_frac), 0.0)
        for n in range(1, 200):
            ref = float(oracles.sibuya_pmf_exact(alpha_frac, n))
            assert bsib_pmf(b, n) == pytest.approx(ref, rel=1e-13), (alpha_frac, n)
    print("PASS criterion 2: Poisson (1e-12), Hermite (1e-12), Sibuya (1e-13) reductions")


def test_criterion_3_stability_identity():
    worst = 0.0
    for alpha, gamma, delta in PARAM_GRID:
        p = DSParams(alpha, gamma, delta)
        for rho in RHO_GRID:
            report = stability_residual(p, rho, zgrid=Z_GRID)
            worst = max(worst, report.max_residual)
            assert report.max_residual < 1e-12, (p, rho, report.max_residual)
    # strict cases carry exactly mu = 0
    for p in (DSParams(0.5, -1.0, 0.0), DSParams(0.3, -1.0, 0.0), DSParams(1.0, 0.0, 2.0)):
        for rho in RHO_GRID:
            assert stability_mu(p, rho) == 0.0
            assert stability_residual(p, rho, zgrid=Z_GRID).max_residual < 1e-12
    print(f"PASS criterion 3: stability identity, max residual = {worst:.3e} < 1e-12")


def test_criterion_4_self_decomposability_boundary():
    dense_rho = [k / 100.0 for k in range(1, 100)]
    for alpha, gamma in ((0.5, -1.0), (1.5, 1.0), (2.0, 1.0), (1.0, 1.0)):
        boundary = 2.0 * gamma if alpha == 1.0 else alpha * alpha * gamma
        eps = 1e-2 * abs(boundary) + 1e-3
        above = DSParams(alpha, gamma, boundary + eps)
        below = DSParams(alpha, gamma, boundary - eps)
        at = DSParams(alpha, gamma, boundary)
        assert classify(above).self_decomposable
        assert classify(at).self_decomposable
        assert not classify(below).self_decomposable

        for p, feasible in ((above, True), (at, True), (below, False)):
            failures = 0
            for rho in dense_rho:
                try:
                    selfdecomp_remainder(p, rho)
                except NotSelfDecomposableAtRho:
                    failures += 1
            if feasible:
                assert failures == 0, (p, failures)
            else:
                assert failures > 0, p
    print("PASS criterion 4: classify flips exactly at the boundary; remainder grid agrees")


def test_criterion_5_unimodality():
    checked = 0
    for alpha, gamma, delta in PARAM_GRID:
        p = DSParams(alpha, gamma, delta)
        if not classify(p).self_decomposable:
            continue
        table = quiet_table(p, n_max=20000, tail_bound=1e-9)
        report = mode_scan(table)
        assert report.unimodal, (p, report.modes[:5])
        checked += 1
    assert checked >= 8
    witness = mode_scan(quiet_table(DSParams(2.0, 1.0, 2.0), n_max=100))
    assert not witness.unimodal
    assert (0, 0) in witness.modes and (2, 2) in witness.modes
    print(
        f"PASS criterion 5: {checked} self-decomposable grid points unimodal; "
        f"DS(2,1,2) multimodal with {len(witness.modes)} modes"
    )


def test_criterion_6_moments():
    table = ds_pmf(DSParams(2.0, 1.0, 3.0), n_max=10**5, tail_bound=1e-10)
    assert table.tail_mass <= 1e-10
    n = np.arange(len(table), dtype=np.float64)
    mean = float(n @ table.masses)
    var = float((n * n) @ table.masses) - mean * mean
    assert abs(mean - 3.0) < 1e-6
    assert abs(var - 5.0) < 1e-5
    for alpha, gamma, delta in PARAM_GRID:
        if alpha < 1.0:
            p = DSParams(alpha, gamma, delta)
            assert not classify(p).mean_finite
            assert moments(p).mean == math.inf
    print(
        f"PASS criterion 6: truncated mean {mean:.9f} (target 3 +- 1e-6), "
        f"variance {var:.8f} (target 5 +- 1e-5); alpha < 1 reports mean = inf"
    )


def test_criterion_7_monte_carlo_stability():
    hermite = stability_experiment(DSParams(2.0, 1.0, 4.0), 0.6, 10**5, RngStream(101))
    assert hermite.mu == pytest.approx(1.6)
    assert hermite.tv_distance < 0.02, hermite

    strict = stability_experiment(DSParams(0.5, -1.0, 0.0), 0.3, 10**5, RngStream(102))
    assert strict.mu == 0.0
    assert strict.tv_distance < 0.02, strict

    wrong = stability_experiment(
        DSParams(2.0, 1.0, 4.0), 0.6, 10**5, RngStream(103), mu_override=0.0
    )
    assert wrong.tv_distance > 0.1, wrong
    print(
        f"PASS criterion 7: tv = {hermite.tv_distance:.4f} (Hermite), "
        f"{strict.tv_distance:.4f} (strict) < 0.02; wrong-mu tv = "
        f"{wrong.tv_distance:.4f} > 0.1"
    )


def test_criterion_8_sampler_fidelity():
    n = 10**5
    worst_p = 1.0
    for i, (alpha, gamma, delta) in enumerate(PARAM_GRID):
        p = DSParams(alpha, gamma, delta)
        if p.gamma == 0.0 and p.delta == 0.0:
            continue
        # the stream of n scalar sample_ds calls (test_sampler's TestDrawLoop)
        values = np.array(_draws(p, RngStream(5000 + i), n), dtype=np.int64)
        table = quiet_table(p, n_max=2000, tail_bound=1e-9)
        _, chi2, _, dof = tv_against_table(values, table, n)
        pvalue = oracles.chi2_pvalue(chi2, dof)
        worst_p = min(worst_p, pvalue)
        assert pvalue > 0.001, f"{p}: chi2 = {chi2:.1f}, p = {pvalue:.5f}"

    for j, (alpha, rho) in enumerate([(0.3, -0.2), (0.5, 0.0), (1.0, 0.5), (1.5, 1.2), (2.0, 1.5)]):
        b = BSibParams(alpha, rho)
        rng = RngStream(6000 + j)
        draws = np.fromiter(
            (sample_bsib(b, rng) for _ in range(n)), dtype=np.int64, count=n
        )
        kmax = 500
        expected = n * bsib_pmf_array(b, kmax)[1:]
        observed = np.bincount(np.minimum(draws, kmax + 1), minlength=kmax + 2)[1:]
        obs, exp = pool_counts(
            np.append(observed[:kmax].astype(float), float(observed[kmax])),
            np.append(expected, n - expected.sum()),
        )
        stat = float(np.sum((obs - exp) ** 2 / exp))
        pvalue = oracles.chi2_pvalue(stat, len(obs) - 1)
        worst_p = min(worst_p, pvalue)
        assert pvalue > 0.001, f"bSib{(alpha, rho)}: chi2 = {stat:.1f}, p = {pvalue:.5f}"
    print(f"PASS criterion 8: goodness-of-fit at 1e5 draws, smallest p-value = {worst_p:.4f} > 0.001")


def test_criterion_9_tail_law():
    for alpha, rho in ((0.5, 0.0), (1.5, 1.2)):
        b = BSibParams(alpha, rho)
        lo = (1000.0 ** (alpha + 1.0)) * bsib_pmf(b, 1000)
        hi = (10000.0 ** (alpha + 1.0)) * bsib_pmf(b, 10000)
        drift = abs(hi - lo) / lo
        assert drift < 0.01, (alpha, rho, drift)
    b2 = BSibParams(2.0, 1.5)
    assert bsib_pmf(b2, 1) > 0.0 and bsib_pmf(b2, 2) > 0.0
    assert all(bsib_pmf(b2, k) == 0.0 for k in range(3, 50))
    rng = RngStream(200)
    assert set(sample_bsib(b2, rng) for _ in range(2000)) == {1, 2}
    print("PASS criterion 9: n^(alpha+1) p_n drift < 1% over [1e3, 1e4]; alpha = 2 support is {1, 2}")


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "dstable", "sample", "--alpha", "2", "--gamma", "1",
           "--delta", "3", "--n", "200", "--seed", "424242"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout

    base = [sys.executable, "-m", "dstable", "pmf", "--alpha", "2", "--gamma", "1",
            "--delta", "3", "--nmax", "60"]
    csv_out = subprocess.run(base, capture_output=True, text=True).stdout
    json_out = subprocess.run(base + ["--format", "json"], capture_output=True, text=True).stdout
    payload = json.loads(json_out)
    rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    for i, row in enumerate(rows):
        assert row[1] == format(payload["pmf"][i], ".17g")
        assert row[2] == format(payload["cdf"][i], ".17g")
    print("PASS criterion 10: seeded CLI output bit-identical; CSV and JSON agree to 17 digits")
