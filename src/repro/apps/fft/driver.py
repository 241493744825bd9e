"""Distributed 1-D FFT mini-app: row FFTs → all-to-all transpose → row FFTs.

The second application workload (after Octo-Tiger), modelled on the HPX
distributed-FFT benchmark that PAPERS.md points at (arXiv 2504.03657):
where Octo-Tiger's ghost-zone exchange is a *neighbour* pattern, the
FFT's transpose step is a full **all-to-all** — every locality ships a
block to every other locality at the same instant, so every receiver
sees a simultaneous ``P-1``-way incast.  That stresses receiver-side
progress engines, packet pools and credit windows in exactly the regime
the paper's aggregation / flow-control analysis cares about.

Algorithm (the classic four-step / transpose FFT, ``N = n1·n2``)::

    A[j1][j2] = x[j1 + n1·j2]            # rows j1 block-distributed
    Y[j1]     = FFT_n2(A[j1])            # phase 1: local row FFTs
    Z[j1][k2] = Y[j1][k2] · W_N^{j1·k2}  #          twiddle scaling
    Zt        = all_to_all transpose      # phase 2: the incast
    B[k2]     = FFT_n1(Zt[k2])           # phase 3: local row FFTs
    X[k2 + n2·k1] = B[k2][k1]            # natural-order output

All floating-point work has a fixed operation order, so the output is
bit-identical across runs, locality counts **and parcelport
configurations** — the property the test battery leans on.  Every
network byte moves through :class:`~repro.hpx_rt.collectives.
Collectives` (barriers delimit the timed phases; the transpose is
``all_to_all``; a final ``allreduce`` checksums the result), so the
whole workload rides the parcelport under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...hpx_rt.collectives import Collectives
from ...hpx_rt.future import Latch
from ...hpx_rt.runtime import HpxRuntime, raise_parcel_failure
from .dft import fft, is_pow2, twiddle

__all__ = ["FftConfig", "FftResult", "FftDriver", "COMPLEX_BYTES"]

#: wire size of one complex sample (two float64)
COMPLEX_BYTES = 16

#: phase keys, in causal order
PHASES = ("row_fft1", "transpose", "row_fft2")


@dataclass(frozen=True)
class FftConfig:
    """Problem shape + cost knobs for one distributed FFT."""

    n1: int = 16              #: first matrix dimension (power of 2)
    n2: int = 16              #: second matrix dimension (power of 2)
    iterations: int = 1       #: back-to-back FFTs (op_ids are reused)
    #: ship each row segment as its own message (True, like real FFT
    #: transposes — deepens per-peer backlogs) or one block per peer
    fragment: bool = True
    #: simulated compute cost per butterfly point (µs, thread-weighted)
    flop_us_per_point: float = 0.02

    @property
    def n_points(self) -> int:
        return self.n1 * self.n2

    def validate(self, n_localities: int) -> None:
        if not (is_pow2(self.n1) and is_pow2(self.n2)):
            raise ValueError(f"n1/n2 must be powers of 2, got "
                             f"{self.n1}x{self.n2}")
        if self.n1 % n_localities or self.n2 % n_localities:
            raise ValueError(
                f"{self.n1}x{self.n2} not divisible across "
                f"{n_localities} localities")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class FftResult:
    """Outcome of one distributed FFT run."""

    config: FftConfig
    n_localities: int
    #: final-iteration spectrum in natural order (X[k], k = 0..N-1)
    output: List[complex]
    #: allreduce checksum of the spectrum (same on every locality)
    checksum: complex
    #: per-iteration phase durations, µs (keys: row_fft1/transpose/row_fft2)
    phase_times_us: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def total_time_us(self) -> float:
        return sum(sum(v) for v in self.phase_times_us.values())

    @property
    def transpose_time_us(self) -> float:
        return sum(self.phase_times_us.get("transpose", ()))

    @property
    def points_per_second(self) -> float:
        """Throughput over virtual time: FFT points per second."""
        t_s = self.total_time_us * 1e-6
        n = self.config.n_points * self.config.iterations
        return n / t_s if t_s > 0 else 0.0


class FftDriver:
    """Registers the collective actions and runs the stepped pipeline."""

    def __init__(self, runtime: HpxRuntime,
                 config: Optional[FftConfig] = None):
        self.rt = runtime
        self.cfg = config or FftConfig()
        self.p = len(runtime.localities)
        self.cfg.validate(self.p)
        self.coll = Collectives(runtime, prefix="fft")
        self.r1 = self.cfg.n1 // self.p   #: rows per locality, phase 1
        self.r2 = self.cfg.n2 // self.p   #: rows per locality, phase 3
        self._input = self._make_input()
        #: (iteration, phase-mark) -> lid -> timestamp
        self._marks: Dict[tuple, Dict[int, float]] = {}
        #: lid -> list of (k2, FFT_n1 row) for the final iteration
        self._out: Dict[int, List[tuple]] = {}
        self._checksum: Dict[int, complex] = {}
        self._latch: Optional[Latch] = None

    # ------------------------------------------------------------------
    # deterministic input (depends on the runtime seed, nothing else)
    # ------------------------------------------------------------------
    def _make_input(self) -> List[complex]:
        rng = self.rt.rng.stream("fft.input")
        n = self.cfg.n_points
        re = rng.uniform(-1.0, 1.0, n)
        im = rng.uniform(-1.0, 1.0, n)
        return [complex(float(a), float(b)) for a, b in zip(re, im)]

    @property
    def input(self) -> List[complex]:
        return list(self._input)

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> FftResult:
        # Every parcel is needed: a failed or shed one ends the run.
        self.rt.on_parcel_failure = raise_parcel_failure
        self._latch = Latch(self.rt.sim, self.p)
        for lid in range(self.p):
            self.rt.locality(lid).spawn(self._make_task(lid))
        self.rt.run_until(self._latch, max_events=max_events)
        if not self._latch.open:
            raise RuntimeError("FFT run did not complete (event budget "
                               "exhausted or messages permanently lost)")
        return self._assemble()

    # ------------------------------------------------------------------
    # per-locality pipeline
    # ------------------------------------------------------------------
    def _mark(self, it: int, tag: str, lid: int) -> None:
        self._marks.setdefault((it, tag), {})[lid] = self.rt.sim.now

    def _make_task(self, lid: int):
        cfg = self.cfg

        def task(worker):
            for it in range(cfg.iterations):
                yield from self.coll.barrier(worker, "fft_start")
                self._mark(it, "t0", lid)
                z_rows = yield from self._row_fft1(worker, lid)
                self._mark(it, "t1", lid)
                got = yield from self.coll.all_to_all(
                    worker, "fft_transpose", self._chunks(z_rows),
                    size=COMPLEX_BYTES * (self.r2 if cfg.fragment
                                          else self.r1 * self.r2),
                    fragment=cfg.fragment)
                self._mark(it, "t2", lid)
                out = yield from self._row_fft2(worker, lid, got)
                self._mark(it, "t3", lid)
                if it == cfg.iterations - 1:
                    self._out[lid] = out
            local_sum = sum(row[k1] for _, row in self._out[lid]
                            for k1 in range(cfg.n1))
            total = yield from self.coll.allreduce(
                worker, "fft_checksum", local_sum, op="sum", size=16)
            self._checksum[lid] = total
            self._latch.count_down()

        return task

    def _row_cost(self, m: int) -> float:
        return self.cfg.flop_us_per_point * m * max(1.0, math.log2(m))

    def _row_fft1(self, worker, lid: int):
        """Phase 1: FFT + twiddle over this locality's ``r1`` rows."""
        cfg, n1, n2 = self.cfg, self.cfg.n1, self.cfg.n2
        x, big_n = self._input, self.cfg.n_points
        z_rows: List[List[complex]] = []
        for j1 in range(lid * self.r1, (lid + 1) * self.r1):
            yield from worker.compute_granular(self._row_cost(n2))
            y = fft([x[j1 + n1 * j2] for j2 in range(n2)])
            z_rows.append([y[k2] * twiddle(big_n, j1 * k2)
                           for k2 in range(n2)])
        return z_rows

    def _chunks(self, z_rows: List[List[complex]]) -> List[List[List[complex]]]:
        """Per-destination chunks: for peer ``q``, one ``r2``-wide segment
        of every owned row (the unit that travels as one fragment)."""
        return [[row[q * self.r2:(q + 1) * self.r2] for row in z_rows]
                for q in range(self.p)]

    def _row_fft2(self, worker, lid: int, got):
        """Phase 3: reassemble transposed rows, FFT each (length n1)."""
        out: List[tuple] = []
        for k2_local in range(self.r2):
            zt_row = [got[j1 // self.r1][j1 % self.r1][k2_local]
                      for j1 in range(self.cfg.n1)]
            yield from worker.compute_granular(self._row_cost(self.cfg.n1))
            out.append((lid * self.r2 + k2_local, fft(zt_row)))
        return out

    # ------------------------------------------------------------------
    # assembly + timing
    # ------------------------------------------------------------------
    def _assemble(self) -> FftResult:
        cfg = self.cfg
        output = [0j] * cfg.n_points
        for lid in range(self.p):
            for k2, row in self._out[lid]:
                for k1 in range(cfg.n1):
                    output[k2 + cfg.n2 * k1] = row[k1]
        checksums = set(self._checksum.values())
        if len(checksums) != 1:
            raise AssertionError(f"checksum mismatch across localities: "
                                 f"{sorted(self._checksum.items())}")
        phase_times: Dict[str, List[float]] = {k: [] for k in PHASES}
        for it in range(cfg.iterations):
            bounds = [max(self._marks[(it, tag)].values())
                      for tag in ("t0", "t1", "t2", "t3")]
            for k, (a, b) in zip(PHASES, zip(bounds, bounds[1:])):
                phase_times[k].append(b - a)
        return FftResult(config=cfg, n_localities=self.p, output=output,
                         checksum=checksums.pop(),
                         phase_times_us=phase_times)
