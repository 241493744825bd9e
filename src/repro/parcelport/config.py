"""Parcelport configuration and the paper's Table-1 naming scheme.

A configuration string is parsed exactly as the paper abbreviates it::

    mpi            MPI parcelport (aggregation on)
    mpi_i          MPI parcelport + send-immediate
    mpi_orig       the original (pre-improvement) MPI parcelport of §3.1
    lci            LCI baseline == lci_psr_cq_pin
    lci_psr_cq_pin_i
    lci_sr_sy_mt_i
    ...

Tokens: ``psr``/``sr`` (protocol), ``cq``/``sy`` (completion type),
``pin``/``rp``/``mt``/``worker`` (progress model), trailing ``i``
(send-immediate optimization), ``orig`` (original MPI variant).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

__all__ = ["PPConfig", "ALL_LCI_VARIANTS", "TABLE1"]


#: The paper's Table 1 (abbreviation -> meaning), reproduced verbatim.
TABLE1 = {
    "mpi": "Use the MPI parcelport",
    "lci": "Use the LCI parcelport",
    "sr": "Use the sendrecv protocol",
    "psr": "Use the putsendrecv protocol",
    "sy": "Use synchronizer as the completion type",
    "cq": "Use completion queue as the completion type",
    "pin": "Use a pinned dedicated progress thread",
    "mt": "Use all worker threads to make progress",
    "i": "Enable the send immediate optimization",
}


@dataclass(frozen=True)
class PPConfig:
    """Fully-resolved parcelport configuration."""

    backend: str = "lci"        # "mpi" | "lci"
    protocol: str = "psr"       # "psr" | "sr"          (LCI only)
    completion: str = "cq"      # "cq" | "sy"           (LCI only)
    progress: str = "pin"       # "pin" | "worker"      (LCI only)
    immediate: bool = False     # send-immediate optimization
    mpi_variant: str = "improved"   # "improved" | "original"

    def __post_init__(self) -> None:
        if self.backend not in ("mpi", "lci"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.protocol not in ("psr", "sr"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.completion not in ("cq", "sy"):
            raise ValueError(f"unknown completion {self.completion!r}")
        if self.progress not in ("pin", "worker"):
            raise ValueError(f"unknown progress {self.progress!r}")
        if self.mpi_variant not in ("improved", "original"):
            raise ValueError(f"unknown MPI variant {self.mpi_variant!r}")
        # Normalize fields that do not apply to this backend to their
        # canonical defaults, so two configs that behave identically
        # compare (and hash, and round-trip through parse) identically —
        # e.g. PPConfig(backend="mpi", protocol="sr") used to be a
        # distinct object whose label parsed back to a different config.
        if self.backend == "mpi":
            object.__setattr__(self, "protocol", "psr")
            object.__setattr__(self, "completion", "cq")
            object.__setattr__(self, "progress", "pin")
        else:
            object.__setattr__(self, "mpi_variant", "improved")

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "PPConfig":
        """Parse a Table-1-style configuration string."""
        tokens: List[str] = [t for t in spec.strip().lower().split("_") if t]
        if not tokens:
            raise ValueError("empty parcelport spec")
        backend = tokens.pop(0)
        if backend not in ("mpi", "lci"):
            raise ValueError(f"spec must start with mpi/lci: {spec!r}")
        kw = dict(backend=backend)
        for tok in tokens:
            if tok in ("psr", "sr"):
                kw["protocol"] = tok
            elif tok in ("cq", "sy"):
                kw["completion"] = tok
            elif tok in ("pin", "rp"):
                kw["progress"] = "pin"
            elif tok in ("mt", "worker"):
                kw["progress"] = "worker"
            elif tok == "i":
                kw["immediate"] = True
            elif tok == "orig":
                kw["mpi_variant"] = "original"
            else:
                raise ValueError(f"unknown token {tok!r} in spec {spec!r}")
        if backend == "mpi":
            for field_ in ("protocol", "completion", "progress"):
                if field_ in kw:
                    raise ValueError(
                        f"{field_} token is LCI-only (spec {spec!r})")
        elif "mpi_variant" in kw:
            raise ValueError(f"orig token is MPI-only (spec {spec!r})")
        return cls(**kw)

    @property
    def label(self) -> str:
        """The paper-style abbreviation for this configuration."""
        if self.backend == "mpi":
            parts = ["mpi"]
            if self.mpi_variant == "original":
                parts.append("orig")
        else:
            parts = ["lci", self.protocol, self.completion,
                     "pin" if self.progress == "pin" else "mt"]
        if self.immediate:
            parts.append("i")
        return "_".join(parts)

    @property
    def canonical_name(self) -> str:
        """The unique spec string this config round-trips through:

        ``PPConfig.parse(cfg.canonical_name) == cfg`` for every config,
        and ``PPConfig.parse(spec).canonical_name == spec`` for every
        canonical Table-1 spec.
        """
        return self.label

    def with_(self, **kw) -> "PPConfig":
        return replace(self, **kw)


def _lci_variants() -> List[str]:
    out = []
    for proto in ("psr", "sr"):
        for comp in ("cq", "sy"):
            for prog in ("pin", "mt"):
                out.append(f"lci_{proto}_{comp}_{prog}_i")
    return out


#: The eight immediate-mode LCI variants of Figs 2/5.
ALL_LCI_VARIANTS = _lci_variants()
