"""Parameter domains of the discrete stable family and its relatives.

Defines the validated parameter containers (``DSParams``, ``BSibParams``,
``CompoundRep``, ``ESParams``), the conversions between them, and the
``classify`` operation. All containers are frozen dataclasses; constructing
one validates it, so every instance in circulation is in the admissible
region.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import (
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

__all__ = [
    "DSParams",
    "BSibParams",
    "CompoundRep",
    "ESParams",
    "Classification",
    "ds_to_compound",
    "compound_to_ds",
    "es_to_ds",
    "ds_to_es",
    "classify",
]

# Width of the warning band around alpha = 1 where sec(pi*alpha/2) blows up.
NEAR_ALPHA_ONE_TOL = 1e-8
# A derived parameter less than this many ulps (of |bound| + 1) past a bound snaps onto it.
_SNAP_ULPS = 4


def cos_half_pi(alpha: float) -> float:
    """cos(pi*alpha/2), range-reduced so the sign is exact near alpha = 1, 2."""
    return math.sin(0.5 * math.pi * (1.0 - alpha))


def _power(base: float, exponent: float, name: str) -> float:
    """base**exponent, or a DomainError where it passes the float range."""
    try:
        return base**exponent
    except OverflowError:
        raise DomainError(
            f"{name} = {base!r}**{exponent!r} is past the float range "
            f"(max {sys.float_info.max!r})"
        ) from None


def _require_finite(value: float, exc: type[ParameterError], name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise exc(f"{name} must be a finite real, got {value!r}")
    return value


def _require_count(value: object, message: str, least: float = 0) -> int:
    """int(value) if it is at least least, else a DomainError of message.

    message is formatted with the value ({}). A NaN or an infinity, which
    int() refuses with a ValueError or an OverflowError, breaks it too.
    """
    try:
        count = int(value)
    except (ValueError, OverflowError):
        raise DomainError(message.format(value)) from None
    if count < least:
        raise DomainError(message.format(count))
    return count


def _snap_into(value: float, bound: float, lower: bool) -> float:
    # Derived parameters can land a few ulps outside a semantic boundary;
    # raw user input is never snapped (validation compares exactly).
    if lower:
        if bound >= value > bound - _SNAP_ULPS * math.ulp(abs(bound) + 1.0):
            return bound
    else:
        if bound <= value < bound + _SNAP_ULPS * math.ulp(abs(bound) + 1.0):
            return bound
    return value


@dataclass(frozen=True)
class DSParams:
    """Discrete stable parameter triple (alpha, gamma, delta).

    alpha in (0, 2] is the tail index; gamma is the dilation coefficient
    (negative for alpha < 1, nonnegative for alpha = 1, positive above);
    delta is the translation coefficient, constrained by delta >= alpha*gamma.
    gamma = 0 forces alpha = 1 (Poisson, or the point mass at zero when
    delta = 0 as well).
    """

    alpha: float
    gamma: float
    delta: float
    near_alpha_one: bool = field(init=False, compare=False, repr=False, default=False)

    def __post_init__(self) -> None:
        alpha = _require_finite(self.alpha, AlphaOutOfRange, "alpha")
        gamma = _require_finite(self.gamma, GammaSignViolation, "gamma")
        delta = _require_finite(self.delta, DeltaBelowAlphaGamma, "delta")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)

        if not 0.0 < alpha <= 2.0:
            raise AlphaOutOfRange(f"alpha must lie in (0, 2], got {alpha}")
        if gamma == 0.0:
            if alpha != 1.0:
                raise PoissonConventionViolation(
                    f"gamma = 0 requires alpha = 1, got alpha = {alpha}"
                )
        elif alpha < 1.0:
            if gamma > 0.0:
                raise GammaSignViolation(
                    f"gamma must be < 0 for alpha in (0, 1), got gamma = {gamma}"
                )
        elif alpha == 1.0:
            if gamma < 0.0:
                raise GammaSignViolation(
                    f"gamma must be >= 0 for alpha = 1, got gamma = {gamma}"
                )
        elif gamma < 0.0:
            raise GammaSignViolation(
                f"gamma must be > 0 for alpha in (1, 2], got gamma = {gamma}"
            )
        if delta < alpha * gamma:
            raise DeltaBelowAlphaGamma(
                f"delta must satisfy delta >= alpha*gamma: "
                f"delta = {delta} < {alpha * gamma}"
            )
        object.__setattr__(
            self, "near_alpha_one", 0.0 < abs(alpha - 1.0) < NEAR_ALPHA_ONE_TOL
        )


@dataclass(frozen=True)
class BSibParams:
    """Broad-Sibuya parameter pair (alpha, rho), the compound jump law.

    Admissible rho depends on alpha: [-alpha/(1-alpha), 1) below alpha = 1,
    [0, 1] at alpha = 1, and (1, alpha/(alpha-1)] above.
    """

    alpha: float
    rho: float

    def __post_init__(self) -> None:
        alpha = _require_finite(self.alpha, AlphaOutOfRange, "alpha")
        rho = _require_finite(self.rho, RhoOutOfRange, "rho")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho)

        if not 0.0 < alpha <= 2.0:
            raise AlphaOutOfRange(f"alpha must lie in (0, 2], got {alpha}")
        if alpha < 1.0:
            lo = -alpha / (1.0 - alpha)
            if not lo <= rho < 1.0:
                raise RhoOutOfRange(
                    f"rho must lie in [{lo}, 1) for alpha = {alpha}, got {rho}"
                )
        elif alpha == 1.0:
            if not 0.0 <= rho <= 1.0:
                raise RhoOutOfRange(
                    f"rho must lie in [0, 1] for alpha = 1, got {rho}"
                )
        else:
            hi = alpha / (alpha - 1.0)
            if not 1.0 < rho <= hi:
                raise RhoOutOfRange(
                    f"rho must lie in (1, {hi}] for alpha = {alpha}, got {rho}"
                )


@dataclass(frozen=True)
class CompoundRep:
    """Compound-Poisson form of a discrete stable law: rate and jump law."""

    lam: float
    summand: BSibParams

    def __post_init__(self) -> None:
        lam = float(self.lam)
        object.__setattr__(self, "lam", lam)
        if not (math.isfinite(lam) and lam > 0.0):
            raise DegenerateDistribution(
                f"compound rate must be a positive finite real, got {lam}"
            )


@dataclass(frozen=True)
class ESParams:
    """Extreme stable (maximally right-skewed, beta = 1) parameters.

    sigma is the scale (positive unless alpha = 1, where sigma = 0 marks the
    degenerate point-mass mixing law); delta is the location, bounded below
    so the law can mix a Poisson.
    """

    alpha: float
    sigma: float
    delta: float
    near_alpha_one: bool = field(init=False, compare=False, repr=False, default=False)

    def __post_init__(self) -> None:
        alpha = _require_finite(self.alpha, AlphaOutOfRange, "alpha")
        sigma = _require_finite(self.sigma, ParameterError, "sigma")
        delta = _require_finite(self.delta, DeltaLimViolation, "delta")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "delta", delta)

        if not 0.0 < alpha <= 2.0:
            raise AlphaOutOfRange(f"alpha must lie in (0, 2], got {alpha}")
        if alpha == 1.0:
            if sigma < 0.0:
                raise ParameterError(f"sigma must be >= 0 for alpha = 1, got {sigma}")
            bound = sigma * 2.0 / math.pi
        else:
            if sigma <= 0.0:
                raise ParameterError(f"sigma must be > 0 for alpha != 1, got {sigma}")
            bound = -alpha / cos_half_pi(alpha) * _power(sigma, alpha, "sigma**alpha")
        if delta < bound:
            raise DeltaLimViolation(
                f"location too small for Poisson mixing: delta = {delta} < {bound}"
            )
        object.__setattr__(
            self, "near_alpha_one", 0.0 < abs(alpha - 1.0) < NEAR_ALPHA_ONE_TOL
        )


@dataclass(frozen=True)
class Classification:
    """Structural flags of a discrete stable law."""

    strict: bool
    self_decomposable: bool
    is_poisson: bool
    is_degenerate: bool
    mean_finite: bool
    variance_finite: bool


def _compound_rate(p: DSParams) -> float:
    """The compound rate lam: delta at alpha = 1, else delta - gamma.

    A DomainError where delta - gamma passes the float range.
    """
    if p.alpha == 1.0:
        return p.delta
    lam = p.delta - p.gamma
    if math.isinf(lam):
        raise DomainError(
            f"the compound rate delta - gamma = {p.delta:.6g} - ({p.gamma:.6g}) "
            f"passes the float range (~1.8e308)"
        )
    return lam


def ds_to_compound(p: DSParams) -> CompoundRep:
    """Compound-Poisson representation (rate, jump law) of a DS law.

    The point mass at zero (gamma = delta = 0) has no representation with a
    positive rate and is rejected. Off alpha = 1, a delta so far above |gamma|
    that delta - gamma rounds to delta (delta/|gamma| past ~1e16) leaves
    rho = delta/(delta - gamma) at 1, which no double can resolve, and a rate
    delta - gamma past the float range has no double at all; both raise a
    DomainError.
    """
    if p.gamma == 0.0 and p.delta == 0.0:
        raise DegenerateDistribution(
            "the point mass at zero has no compound representation with rate > 0"
        )
    lam = _compound_rate(p)
    if p.alpha == 1.0:
        rho = p.gamma / p.delta if p.gamma != 0.0 else 0.0
        rho = _snap_into(rho, 1.0, lower=False)
    else:
        rho = p.delta / lam
        if rho == 1.0:
            raise DomainError(
                f"delta/|gamma| = {p.delta / abs(p.gamma):.3g} is past double "
                f"resolution: delta - gamma rounds to delta, so the jump law's "
                f"rho = delta/(delta - gamma) rounds to 1"
            )
        if p.alpha < 1.0:
            rho = _snap_into(rho, -p.alpha / (1.0 - p.alpha), lower=True)
        else:
            rho = _snap_into(rho, p.alpha / (p.alpha - 1.0), lower=False)
    return CompoundRep(lam, BSibParams(p.alpha, rho))


def compound_to_ds(c: CompoundRep) -> DSParams:
    """Inverse of :func:`ds_to_compound`."""
    alpha, rho, lam = c.summand.alpha, c.summand.rho, c.lam
    if alpha == 1.0:
        delta, gamma = lam, lam * rho
    else:
        delta, gamma = lam * rho, lam * (rho - 1.0)
    delta = _snap_into(delta, alpha * gamma, lower=True)
    return DSParams(alpha, gamma, delta)


def es_to_ds(e: ESParams) -> DSParams:
    """Map an extreme stable mixing law to the discrete stable triple.

    The index and location carry over; the dilation coefficient is
    -sec(pi*alpha/2) * sigma**alpha, or sigma*2/pi at alpha = 1.
    """
    if e.alpha == 1.0:
        gamma = e.sigma * 2.0 / math.pi
    else:
        gamma = -_power(e.sigma, e.alpha, "sigma**alpha") / cos_half_pi(e.alpha)
    delta = _snap_into(e.delta, e.alpha * gamma, lower=True)
    return DSParams(e.alpha, gamma, delta)


def ds_to_es(p: DSParams) -> ESParams:
    """Invert :func:`es_to_ds`; sigma = 0 marks the Poisson/degenerate case."""
    if p.alpha == 1.0:
        return ESParams(1.0, math.pi * p.gamma / 2.0, p.delta)
    base = -p.gamma * cos_half_pi(p.alpha)
    if base <= 0.0:
        raise NoScaleForDegenerate(
            f"no positive scale solves gamma = {p.gamma} at alpha = {p.alpha}"
        )
    sigma = _power(base, 1.0 / p.alpha, "sigma = (-gamma cos(pi alpha/2))**(1/alpha)")
    return ESParams(p.alpha, sigma, p.delta)


def classify(p: DSParams) -> Classification:
    """Strictness, self-decomposability, and moment-finiteness flags."""
    strict = (p.alpha < 1.0 and p.delta == 0.0) or (p.alpha == 1.0 and p.gamma == 0.0)
    if p.alpha == 1.0:
        self_decomposable = p.delta >= 2.0 * p.gamma
    else:
        self_decomposable = p.delta >= p.alpha * p.alpha * p.gamma
    is_poisson = p.gamma == 0.0 and p.delta > 0.0
    is_degenerate = p.gamma == 0.0 and p.delta == 0.0
    mean_finite = p.alpha > 1.0 or p.gamma == 0.0
    variance_finite = p.alpha == 2.0 or p.gamma == 0.0
    return Classification(
        strict=strict,
        self_decomposable=self_decomposable,
        is_poisson=is_poisson,
        is_degenerate=is_degenerate,
        mean_finite=mean_finite,
        variance_finite=variance_finite,
    )
