"""Gradient aggregation rules (GARs).

All seven statistically-robust rules analysed by the paper (Table 1),
plus plain averaging (the non-robust baseline) and Multi-Krum.  Rules
are available through their classes or the string registry:

>>> from repro.gars import get_gar
>>> gar = get_gar("mda", n=11, f=5)
>>> gar.k_f()  # doctest: +ELLIPSIS
0.42...
"""

from repro.gars.average import AverageGAR
from repro.gars.base import GAR
from repro.gars.bulyan import BulyanGAR
from repro.gars.constants import (
    k_bulyan,
    k_krum,
    k_mda,
    k_meamed,
    k_median,
    k_phocas,
    k_trimmed_mean,
    krum_eta,
)
from repro.gars.geometric_median import GeometricMedianGAR
from repro.gars.kernels import pairwise_sq_distances
from repro.gars.krum import KrumGAR
from repro.gars.mda import MDAGAR
from repro.gars.oracle import OracleGAR
from repro.gars.meamed import MeamedGAR
from repro.gars.median import MedianGAR
from repro.gars.phocas import PhocasGAR
from repro.gars.trimmed_mean import TrimmedMeanGAR
from repro.exceptions import AggregationError

__all__ = [
    "GAR",
    "AverageGAR",
    "BulyanGAR",
    "GeometricMedianGAR",
    "KrumGAR",
    "MDAGAR",
    "MeamedGAR",
    "MedianGAR",
    "OracleGAR",
    "PhocasGAR",
    "TrimmedMeanGAR",
    "GAR_REGISTRY",
    "available_gars",
    "get_gar",
    "pairwise_sq_distances",
    "k_bulyan",
    "k_krum",
    "k_mda",
    "k_meamed",
    "k_median",
    "k_phocas",
    "k_trimmed_mean",
    "krum_eta",
]

#: Name -> class mapping for every built-in rule.
GAR_REGISTRY: dict[str, type[GAR]] = {
    AverageGAR.name: AverageGAR,
    MedianGAR.name: MedianGAR,
    TrimmedMeanGAR.name: TrimmedMeanGAR,
    KrumGAR.name: KrumGAR,
    MDAGAR.name: MDAGAR,
    OracleGAR.name: OracleGAR,
    BulyanGAR.name: BulyanGAR,
    MeamedGAR.name: MeamedGAR,
    PhocasGAR.name: PhocasGAR,
    GeometricMedianGAR.name: GeometricMedianGAR,
}


def available_gars() -> tuple[str, ...]:
    """Names of all registered aggregation rules, sorted.

    Delegates to the unified component registry
    (:mod:`repro.pipeline.registry`), so rules registered there under
    the ``"gar"`` family are included too.
    """
    from repro.pipeline.registry import REGISTRY

    return tuple(sorted(set(REGISTRY.available("gar")) | set(GAR_REGISTRY)))


def get_gar(name: str, n: int, f: int, **kwargs) -> GAR:
    """Instantiate a registered GAR by name.

    Extra keyword arguments are passed to the rule's constructor (e.g.
    ``m`` for Multi-Krum, ``allow_byzantine`` for averaging under
    attack).  Dispatches through the unified component registry's
    ``"gar"`` family.
    """
    from repro.pipeline.registry import REGISTRY

    if not REGISTRY.has("gar", name):
        if name in GAR_REGISTRY:  # added to the legacy dict post-bootstrap
            REGISTRY.register("gar", name, GAR_REGISTRY[name], overwrite=True)
        else:
            raise AggregationError(
                f"unknown GAR {name!r}; available: {', '.join(available_gars())}"
            )
    return REGISTRY.build("gar", {"name": name, **kwargs}, n=n, f=f)
