"""HPX parcelports: the paper's core contribution layer.

Typical use::

    from repro.parcelport import PPConfig, make_parcelport_factory
    from repro.hpx_rt import HpxRuntime, EXPANSE

    cfg = PPConfig.parse("lci_psr_cq_pin_i")
    rt = HpxRuntime(EXPANSE, n_localities=2,
                    parcelport_factory=make_parcelport_factory(cfg),
                    immediate=cfg.immediate)
"""

from typing import Callable

from ..lci_sim.params import DEFAULT_LCI_PARAMS, LciParams
from ..mpi_sim.params import DEFAULT_MPI_PARAMS, MpiParams
from .base import Connection, DetachedWorker, Parcelport
from .config import ALL_LCI_VARIANTS, PPConfig, TABLE1
from .header import HEADER_BASE_BYTES, HeaderPlan, plan_header
from .lci_pp import LciParcelport
from .mpi_pp import MpiParcelport
from .tagging import TagAllocator, TagProvider, tag_of

__all__ = [
    "Parcelport", "Connection", "DetachedWorker",
    "MpiParcelport", "LciParcelport",
    "PPConfig", "TABLE1", "ALL_LCI_VARIANTS",
    "HeaderPlan", "plan_header", "HEADER_BASE_BYTES",
    "TagAllocator", "TagProvider", "tag_of",
    "create_parcelport", "make_parcelport_factory",
]


def create_parcelport(locality, config: PPConfig,
                      mpi_params: MpiParams = DEFAULT_MPI_PARAMS,
                      lci_params: LciParams = DEFAULT_LCI_PARAMS):
    """Instantiate the parcelport described by ``config`` on ``locality``."""
    if config.backend == "mpi":
        return MpiParcelport(locality, config, mpi_params=mpi_params)
    return LciParcelport(locality, config, lci_params=lci_params)


def make_parcelport_factory(config: "PPConfig | str",
                            mpi_params: MpiParams = DEFAULT_MPI_PARAMS,
                            lci_params: LciParams = DEFAULT_LCI_PARAMS,
                            ) -> Callable:
    """A per-locality factory suitable for :class:`HpxRuntime`."""
    if isinstance(config, str):
        config = PPConfig.parse(config)

    def factory(locality):
        return create_parcelport(locality, config,
                                 mpi_params=mpi_params,
                                 lci_params=lci_params)

    factory.config = config
    return factory
