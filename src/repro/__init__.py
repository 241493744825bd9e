"""repro — simulation-based reproduction of the SC-W 2023 paper
"Design and Analysis of the Network Software Stack of an Asynchronous
Many-task System — The LCI parcelport of HPX" (Yan, Kaiser, Snir).

Layers (bottom-up):

* :mod:`repro.sim` — deterministic discrete-event kernel
* :mod:`repro.netsim` — NICs + InfiniBand-like fabric
* :mod:`repro.mpi_sim` / :mod:`repro.lci_sim` — the two communication
  libraries under study
* :mod:`repro.hpx_rt` — the HPX-like asynchronous many-task runtime
* :mod:`repro.parcelport` — the MPI and LCI parcelports (the paper's
  contribution) with every Table-1 variant
* :mod:`repro.apps` — the Octo-Tiger-like application benchmark
* :mod:`repro.bench` — workloads and per-figure drivers

Quick start::

    from repro import make_runtime
    rt = make_runtime("lci_psr_cq_pin_i")   # see examples/quickstart.py
"""

from .faults import FaultInjector, FaultPlan, ParcelSendError, RetryPolicy
from .flow import FlowControlPolicy, ParcelShedError
from .hpx_rt import (EXPANSE, LAPTOP, ROSTAM, CostModel, HpxRuntime,
                     PlatformSpec, RunOptions, platform_by_name)
from .parcelport import (ALL_LCI_VARIANTS, PPConfig, TABLE1,
                         make_parcelport_factory)

__version__ = "1.0.0"

__all__ = [
    "HpxRuntime", "RunOptions", "PlatformSpec", "CostModel",
    "EXPANSE", "ROSTAM", "LAPTOP", "platform_by_name",
    "PPConfig", "TABLE1", "ALL_LCI_VARIANTS", "make_parcelport_factory",
    "FaultPlan", "RetryPolicy", "FaultInjector", "ParcelSendError",
    "FlowControlPolicy", "ParcelShedError",
    "make_runtime",
    "__version__",
]


def make_runtime(config: "PPConfig | str", platform=LAPTOP,
                 n_localities: int = 2, seed: int = 0xC0FFEE,
                 options: RunOptions = RunOptions()) -> HpxRuntime:
    """Convenience constructor: runtime + parcelport from a Table-1 string."""
    if isinstance(config, str):
        config = PPConfig.parse(config)
    factory = make_parcelport_factory(config)
    return HpxRuntime(platform, n_localities, factory,
                      immediate=config.immediate, seed=seed, options=options)
