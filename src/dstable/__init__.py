"""Broadly discrete stable distributions DS(alpha, gamma, delta).

Parameter validation and conversions, generating functions and closure laws,
exact PMF/CDF evaluation through the compound-Poisson representation with an
independent inversion oracle, classification (strict/broad stability,
self-decomposability, moment finiteness), and seedable random sampling.
"""

from . import errors
from .genfun import (
    StabilityReport,
    bsib_pgf,
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
from .params import (
    BSibParams,
    Classification,
    CompoundRep,
    DSParams,
    ESParams,
    classify,
    compound_to_ds,
    ds_to_compound,
    ds_to_es,
    es_to_ds,
)
from .pmf import (
    ModeReport,
    MomentReport,
    PmfTable,
    bsib_pmf,
    cdf,
    ds_pmf,
    ds_pmf_inversion,
    levy_weights,
    mode_scan,
    moments,
    quantile,
)
from .sampler import (
    ExperimentResult,
    RngStream,
    sample_bsib,
    sample_ds,
    sample_poisson,
    stability_experiment,
    thin,
    translate,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
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
    "PmfTable",
    "MomentReport",
    "ModeReport",
    "bsib_pmf",
    "ds_pmf",
    "ds_pmf_inversion",
    "cdf",
    "quantile",
    "moments",
    "levy_weights",
    "mode_scan",
    "RngStream",
    "ExperimentResult",
    "sample_poisson",
    "sample_bsib",
    "sample_ds",
    "thin",
    "translate",
    "stability_experiment",
]
