"""Generating functions and closure laws of the discrete stable family.

Evaluates the PGF, FCGF and R-function (real and complex argument, principal
branch), the broad-Sibuya PGF, the thinning/translation/convolution closure
laws, the closed-form translation shift of the stability identity, and the
self-decomposition remainder law. Everything here is a pure function of
immutable inputs.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaMismatch,
    DomainError,
    InvalidTranslation,
    NotSelfDecomposableAtRho,
    ParameterError,
)
from .params import BSibParams, DSParams, _snap_into

__all__ = [
    "pgf",
    "fcgf",
    "rfunc",
    "bsib_pgf",
    "thin_params",
    "translate_params",
    "convolve_params",
    "stability_mu",
    "stability_residual",
    "selfdecomp_remainder",
    "StabilityReport",
    "DEFAULT_Z_GRID",
]

# Slack accepted on |z| <= 1 before rejecting a PGF argument.
PGF_DISK_TOL = 1e-12

# Default evaluation grid for the stability identity residual.
DEFAULT_Z_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)


def _disk_point(z: complex | float) -> tuple[complex | float, type]:
    """A PGF argument on the closed unit disk, and its kind (float or complex).

    Raises DomainError past |z| = 1 + PGF_DISK_TOL, and for a z with a NaN
    part. Real z becomes a float, and real dust in (1, 1 + PGF_DISK_TOL] the
    z = 1 convention. Any other z becomes a builtin complex, so numpy's
    complex types take the same cmath route as a complex, and give the same
    digits.
    """
    if not abs(z) <= 1.0 + PGF_DISK_TOL:
        if z != z:  # a NaN part; abs(complex(inf, nan)) is inf
            raise DomainError(f"PGF argument must not have a NaN part, got {z}")
        raise DomainError(f"PGF argument must satisfy |z| <= 1, got |z| = {abs(z)}")
    if isinstance(z, numbers.Real):
        return min(float(z), 1.0), float
    return complex(z), complex


def pgf(p: DSParams, z: complex | float):
    """Probability generating function of a DS law at z, |z| <= 1.

    Returns a float for real z and a complex number for complex z; powers and
    logarithms use the principal branch (Re(1-z) >= 0 on the closed disk, so
    no cut is crossed). z = 1 returns exactly 1.
    """
    z, kind = _disk_point(z)
    if z == 1.0:
        return kind(1.0)
    return _pgf_from_one(p, 1.0 - z)


def _pgf_from_one(p: DSParams, w, w_alpha=None):
    """G(1 - w) for w != 0 with Re(w) >= 0, taking the distance w from 1.

    A w far below the spacing of doubles near 1 keeps its digits here, where
    1 - w would round to 1. For w = 1.0 - z, -w * delta is (z - 1) * delta
    exactly, so pgf's digits do not depend on the route. Off alpha = 1 a
    caller may pass w**alpha as w_alpha, for a w that underflows where
    w**alpha does not. w may also be a numpy array with no zero entry.
    """
    lib = cmath if isinstance(w, complex) else math if isinstance(w, float) else np
    if p.alpha == 1.0:
        return lib.exp(-w * p.delta + p.gamma * w * lib.log(w))
    if w_alpha is None:
        w_alpha = w**p.alpha
    return lib.exp(-w * p.delta + p.gamma * w_alpha)


def fcgf(p: DSParams, t: float) -> float:
    """Factorial cumulant generating function log G(1+t) for t in [-1, 0]."""
    t = float(t)
    if not -1.0 <= t <= 0.0:
        raise DomainError(f"FCGF argument must lie in [-1, 0], got {t}")
    if t == 0.0:
        return 0.0
    u = -t
    if p.alpha == 1.0:
        return t * p.delta + p.gamma * u * math.log(u)
    return t * p.delta + p.gamma * u**p.alpha


def rfunc(p: DSParams, z: float) -> float:
    """R-function d/dz log G(z) on [0, 1); p_1 = G(0) * r(0)."""
    z = float(z)
    if not 0.0 <= z < 1.0:
        raise DomainError(f"R-function argument must lie in [0, 1), got {z}")
    w = 1.0 - z
    if p.alpha == 1.0:
        return p.delta - p.gamma * (1.0 + math.log(w))
    return p.delta - p.gamma * p.alpha * w ** (p.alpha - 1.0)


def bsib_pgf(b: BSibParams, z: complex | float):
    """Broad-Sibuya PGF at z, |z| <= 1; H(0) = 0 and H(1) = 1 exactly.

    Returns a float for real z and a complex number for complex z.
    """
    z, kind = _disk_point(z)
    if z == 0.0 or z == 1.0:  # exact endpoints; abs turns z = -0.0 into +0.0
        return kind(abs(z))
    w = 1.0 - z
    if b.alpha == 1.0:
        lib = cmath if kind is complex else math
        return z + b.rho * w * lib.log(w)
    return 1.0 - (b.rho * w + (1.0 - b.rho) * w**b.alpha)


def thin_params(p: DSParams, a: float) -> DSParams:
    """Parameters of the binomial thinning a o X for a in (0, 1]."""
    a = float(a)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"thinning fraction must lie in (0, 1], got {a}")
    if p.alpha == 1.0:
        return DSParams(1.0, a * p.gamma, a * (p.delta - p.gamma * math.log(a)))
    return DSParams(p.alpha, p.gamma * a**p.alpha, a * p.delta)


def translate_params(p: DSParams, m: float) -> DSParams:
    """Parameters of the Poisson translation X (+) m; m < 0 is allowed only
    while delta + m >= alpha*gamma keeps the law valid."""
    m = float(m)
    if not math.isfinite(m):
        raise InvalidTranslation(f"translation must be a finite real, got {m}")
    delta = p.delta + m
    if delta < p.alpha * p.gamma:
        raise InvalidTranslation(
            f"translation by {m} leaves the valid region: "
            f"delta + m = {delta} < alpha*gamma = {p.alpha * p.gamma}"
        )
    return DSParams(p.alpha, p.gamma, delta)


def convolve_params(p1: DSParams, p2: DSParams) -> DSParams:
    """Parameters of the sum of independent DS laws sharing one alpha."""
    if p1.alpha != p2.alpha:
        raise AlphaMismatch(
            f"convolution needs equal alpha, got {p1.alpha} and {p2.alpha}"
        )
    gamma = p1.gamma + p2.gamma
    delta = p1.delta + p2.delta
    # exact in real arithmetic; guard the sum against an ulp of float dust
    delta = _snap_into(delta, p1.alpha * gamma, lower=True)
    return DSParams(p1.alpha, gamma, delta)


def stability_mu(p: DSParams, rho: float) -> float:
    """Closed-form Poisson-translation shift in the stability identity."""
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if p.alpha == 1.0:
        return -p.gamma * (rho * math.log(rho) + (1.0 - rho) * math.log(1.0 - rho))
    return p.delta * ((1.0 - rho**p.alpha) ** (1.0 / p.alpha) - (1.0 - rho))


@dataclass(frozen=True)
class StabilityReport:
    """Residual of the stability identity over a grid of real z values."""

    rho: float
    mu: float
    max_residual: float
    grid: tuple[float, ...]


def stability_residual(
    p: DSParams,
    rho: float,
    zgrid=None,
    mu: float | None = None,
) -> StabilityReport:
    """Max |G(z)e^{mu(z-1)} - G(1-rho(1-z)) G(1-(1-rho^a)^{1/a}(1-z))| on a grid.

    mu defaults to the closed form from :func:`stability_mu`; passing an
    explicit finite value lets callers probe how the identity degrades under
    a perturbed shift. A point whose left side passes the float range reads
    math.inf.
    """
    if zgrid is None:
        zgrid = DEFAULT_Z_GRID
    zgrid = tuple(float(z) for z in zgrid)
    if not zgrid:
        raise DomainError("z grid must be nonempty")
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    mu_used = stability_mu(p, rho) if mu is None else float(mu)
    if not math.isfinite(mu_used):
        raise DomainError(f"translation shift mu must be finite, got {mu_used}")
    # below alpha ~ 0.1 frac2 can fall under 1e-8, where 1 - frac2 (1-z)
    # rounds to 1: the right side takes the distances from 1 directly. Below
    # alpha ~ 1e-3 frac2 underflows to 0, but frac2^alpha = 1 - rho^alpha does
    # not: (frac2 (1-z))^alpha is taken as that times (1-z)^alpha
    shrink = 1.0 - rho**p.alpha
    frac2 = shrink ** (1.0 / p.alpha)
    worst = 0.0
    for z in zgrid:
        if not 0.0 <= z < 1.0:
            raise DomainError(f"z grid values must lie in [0, 1), got {z}")
        try:
            lhs = pgf(p, z) * math.exp(mu_used * (z - 1.0))
        except OverflowError:  # mu far below 0, where G(z) is tiny: add the exponents
            try:
                lhs = math.exp(fcgf(p, z - 1.0) + mu_used * (z - 1.0))
            except OverflowError:
                lhs = math.inf
        x = 1.0 - z
        rhs = _pgf_from_one(p, rho * x) * _pgf_from_one(p, frac2 * x, shrink * x**p.alpha)
        worst = max(worst, abs(lhs - rhs))
    return StabilityReport(rho=rho, mu=mu_used, max_residual=worst, grid=zgrid)


def selfdecomp_remainder(p: DSParams, rho: float) -> DSParams:
    """Law of the remainder in X =d rho o X' + X_rho, when it exists.

    Raises NotSelfDecomposableAtRho when the remainder parameters leave the
    valid region, which happens for some rho exactly when the law is not
    discretely self-decomposable.
    """
    rho = float(rho)
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    if rho == 0.0:
        return p
    if p.alpha == 1.0:
        gamma = p.gamma * (1.0 - rho)
        delta = (1.0 - rho) * p.delta + p.gamma * rho * math.log(rho)
    else:
        gamma = p.gamma * (1.0 - rho**p.alpha)
        delta = (1.0 - rho) * p.delta
    try:
        return DSParams(p.alpha, gamma, delta)
    except ParameterError as exc:
        raise NotSelfDecomposableAtRho(
            f"remainder of {p} at rho = {rho} is not a valid law: {exc}"
        ) from exc
