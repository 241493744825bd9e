"""Deterministic fault injection for the simulated network stack.

Real InfiniBand fabrics (and the LCI runtime itself) must tolerate
transient faults: lost or corrupted packets, links that flap, NICs that
stall while firmware recovers.  This module supplies a *seeded,
reproducible* model of those faults so every recovery path in the stack
above (:mod:`repro.lci_sim`, :mod:`repro.mpi_sim`, the parcelports) can
be exercised bit-identically:

* :class:`FaultPlan` — a frozen configuration describing *what* goes
  wrong: message drop probability, corruption probability, scheduled
  link-flap windows, NIC stall intervals, and optional per-endpoint
  targeting.  Plans can be written in code or parsed from the compact
  DSL used by the ``--faults`` benchmark knob.
* :class:`FaultInjector` — the runtime object consulted by
  :class:`~repro.netsim.fabric.Fabric` on every transmit and by
  :class:`~repro.netsim.nic.Nic` on every delivery.  All random draws
  come from one named :class:`~repro.sim.rng.RngPool` stream and happen
  in deterministic event order, so the same seed + plan reproduces the
  same fault schedule exactly.
* :class:`RetryPolicy` — how the parcelports recover: per-message
  timeout, bounded retries with exponential backoff + jitter.

A ``None`` injector (the default everywhere) adds zero simulated cost
and zero behavioral change: fault-free runs are byte-identical to a
build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, TYPE_CHECKING

from .sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from .netsim.message import NetMsg
    from .sim.core import Simulator

__all__ = [
    "TransportError", "ParcelSendError",
    "LinkFlap", "NicStall", "SlowReceiver", "PoolSqueeze", "CreditStarve",
    "FaultPlan", "FaultInjector", "RetryPolicy",
    "DELIVER", "DROP", "CORRUPT", "ACK_TAG",
]

#: verdicts returned by :meth:`FaultInjector.on_transmit`
DELIVER = "deliver"
DROP = "drop"
CORRUPT = "corrupt"

#: wire tag of end-to-end ack messages (both parcelports; defined here —
#: not in the parcelport layer — so the injector's credit-starvation mode
#: can recognize acks without an upward import)
ACK_TAG = 2


class TransportError(Exception):
    """A simulated transport-level failure (corrupted or aborted op)."""


class ParcelSendError(Exception):
    """An HPX message exhausted its retries and was reported failed."""


@dataclass(frozen=True)
class LinkFlap:
    """A time window during which a link (or every link) is down.

    ``src``/``dst`` of ``None`` are wildcards; a flap with both ``None``
    takes the whole fabric down for the window.  Messages entering the
    wire inside [start_us, end_us) are dropped deterministically.
    """

    start_us: float
    end_us: float
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        if self.end_us <= self.start_us:
            raise ValueError(f"empty flap window [{self.start_us}, "
                             f"{self.end_us})")

    def covers(self, src: int, dst: int, t: float) -> bool:
        if not (self.start_us <= t < self.end_us):
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class NicStall:
    """A window during which one node's NIC defers all RX deliveries.

    Messages arriving inside [start_us, end_us) sit in the (modelled)
    hardware queue and land at ``end_us`` instead — in arrival order,
    since the deferral preserves the original schedule ordering.
    """

    node: int
    start_us: float
    end_us: float

    def __post_init__(self) -> None:
        if self.end_us <= self.start_us:
            raise ValueError(f"empty stall window [{self.start_us}, "
                             f"{self.end_us})")

    def covers(self, node: int, t: float) -> bool:
        return node == self.node and self.start_us <= t < self.end_us


@dataclass(frozen=True)
class SlowReceiver:
    """A window during which one node's RX deliveries are each delayed.

    Unlike :class:`NicStall` (which parks everything until the window
    ends), a slow receiver keeps consuming — just ``delay_us`` late per
    message, modelling a receiver that cannot keep up with the offered
    load.  Each message is delayed at most once (no compounding).
    """

    node: int
    start_us: float
    end_us: float
    delay_us: float

    def __post_init__(self) -> None:
        if self.end_us <= self.start_us:
            raise ValueError(f"empty slow window [{self.start_us}, "
                             f"{self.end_us})")
        if self.delay_us <= 0.0:
            raise ValueError("slow-receiver delay must be positive")

    def covers(self, node: int, t: float) -> bool:
        return node == self.node and self.start_us <= t < self.end_us


@dataclass(frozen=True)
class PoolSqueeze:
    """A window during which one node's packet pools shrink to ``cap``.

    Models registered-memory pressure: :class:`~repro.lci_sim.packet_pool.
    PacketPool.try_acquire` fails (retry status) whenever ``in_use``
    would exceed the squeezed capacity — exactly the exhaustion signal
    the paper's eager protocol exposes to the layers above.
    """

    node: int
    start_us: float
    end_us: float
    cap: int

    def __post_init__(self) -> None:
        if self.end_us <= self.start_us:
            raise ValueError(f"empty squeeze window [{self.start_us}, "
                             f"{self.end_us})")
        if self.cap < 0:
            raise ValueError("squeeze cap must be >= 0")

    def covers(self, node: int, t: float) -> bool:
        return node == self.node and self.start_us <= t < self.end_us


@dataclass(frozen=True)
class CreditStarve:
    """A window during which acks destined to ``node`` are held back.

    Every wire message with the end-to-end ack tag headed to ``node``
    sits in the (modelled) hardware queue until the window ends, so the
    sender's credit window drains and stays empty — the targeted test
    mode for credit-starvation behavior.  Acks are delayed, never lost:
    exactly-once delivery must survive.
    """

    node: int
    start_us: float
    end_us: float

    def __post_init__(self) -> None:
        if self.end_us <= self.start_us:
            raise ValueError(f"empty starve window [{self.start_us}, "
                             f"{self.end_us})")

    def covers(self, node: int, t: float) -> bool:
        return node == self.node and self.start_us <= t < self.end_us


@dataclass(frozen=True)
class FaultPlan:
    """Everything that is allowed to go wrong, and to whom.

    ``targets`` restricts the *random* faults (drop/corrupt) to matching
    (src, dst) pairs; ``None`` in a pair is a wildcard, and a ``None``
    targets tuple means all traffic is eligible.  Flaps and stalls carry
    their own endpoint selectors and ignore ``targets``.
    """

    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    flaps: Tuple[LinkFlap, ...] = ()
    stalls: Tuple[NicStall, ...] = ()
    slows: Tuple[SlowReceiver, ...] = ()
    squeezes: Tuple[PoolSqueeze, ...] = ()
    starves: Tuple[CreditStarve, ...] = ()
    targets: Optional[Tuple[Tuple[Optional[int], Optional[int]], ...]] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ValueError(f"drop_prob {self.drop_prob} not in [0, 1]")
        if not (0.0 <= self.corrupt_prob <= 1.0):
            raise ValueError(
                f"corrupt_prob {self.corrupt_prob} not in [0, 1]")
        if self.drop_prob + self.corrupt_prob > 1.0:
            raise ValueError("drop_prob + corrupt_prob exceeds 1")

    @property
    def is_zero(self) -> bool:
        """True if this plan perturbs nothing (a strict no-op)."""
        return (self.drop_prob == 0.0 and self.corrupt_prob == 0.0
                and not self.flaps and not self.stalls
                and not self.slows and not self.squeezes
                and not self.starves)

    # -- DSL -----------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the compact ``--faults`` DSL.

        Comma-separated tokens::

            drop=0.01                  # drop probability
            corrupt=0.002              # corruption probability
            flap=100:200               # all links down for t in [100, 200)
            flap=100:200@0>1           # only the 0 -> 1 link
            stall=50:80@1              # node 1's NIC defers RX in [50, 80)
            slow=50:80@1*2.5           # node 1 delivers 2.5 us late in window
            squeeze=0:500@0*8          # node 0's packet pools capped at 8
            starve=0:500@0             # acks to node 0 held until 500
            target=0>1                 # random faults only on 0 -> 1
            target=0>*                 # ... or on everything 0 sends

        Example: ``"drop=0.05,corrupt=0.01,flap=500:900@0>1"``.
        """
        drop = 0.0
        corrupt = 0.0
        flaps = []
        stalls = []
        slows = []
        squeezes = []
        starves = []
        targets = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise ValueError(f"malformed fault token {token!r}")
            key, _, val = token.partition("=")
            key = key.strip()
            val = val.strip()
            if key == "drop":
                drop = float(val)
            elif key == "corrupt":
                corrupt = float(val)
            elif key == "flap":
                window, _, link = val.partition("@")
                t0, t1 = _parse_window(window, token)
                src = dst = None
                if link:
                    src, dst = _parse_link(link, token)
                flaps.append(LinkFlap(t0, t1, src=src, dst=dst))
            elif key == "stall":
                window, sep, node = val.partition("@")
                if not sep:
                    raise ValueError(
                        f"stall needs a node: {token!r} (stall=T0:T1@N)")
                t0, t1 = _parse_window(window, token)
                stalls.append(NicStall(int(node), t0, t1))
            elif key == "slow":
                window, sep, rest = val.partition("@")
                node_s, sep2, delay = rest.partition("*")
                if not sep or not sep2:
                    raise ValueError(f"slow needs a node and delay: "
                                     f"{token!r} (slow=T0:T1@N*D)")
                t0, t1 = _parse_window(window, token)
                slows.append(SlowReceiver(int(node_s), t0, t1, float(delay)))
            elif key == "squeeze":
                window, sep, rest = val.partition("@")
                node_s, sep2, cap = rest.partition("*")
                if not sep or not sep2:
                    raise ValueError(f"squeeze needs a node and cap: "
                                     f"{token!r} (squeeze=T0:T1@N*CAP)")
                t0, t1 = _parse_window(window, token)
                squeezes.append(PoolSqueeze(int(node_s), t0, t1, int(cap)))
            elif key == "starve":
                window, sep, node = val.partition("@")
                if not sep:
                    raise ValueError(
                        f"starve needs a node: {token!r} (starve=T0:T1@N)")
                t0, t1 = _parse_window(window, token)
                starves.append(CreditStarve(int(node), t0, t1))
            elif key == "target":
                targets.append(_parse_link(val, token))
            else:
                raise ValueError(f"unknown fault key {key!r} in {token!r}")
        return cls(drop_prob=drop, corrupt_prob=corrupt,
                   flaps=tuple(flaps), stalls=tuple(stalls),
                   slows=tuple(slows), squeezes=tuple(squeezes),
                   starves=tuple(starves),
                   targets=tuple(targets) if targets else None)

    def describe(self) -> str:
        """One-line human summary (used by benchmark reports)."""
        parts = []
        if self.drop_prob:
            parts.append(f"drop={self.drop_prob:g}")
        if self.corrupt_prob:
            parts.append(f"corrupt={self.corrupt_prob:g}")
        for f in self.flaps:
            link = ("" if f.src is None and f.dst is None
                    else f"@{_show(f.src)}>{_show(f.dst)}")
            parts.append(f"flap={f.start_us:g}:{f.end_us:g}{link}")
        for s in self.stalls:
            parts.append(f"stall={s.start_us:g}:{s.end_us:g}@{s.node}")
        for s in self.slows:
            parts.append(f"slow={s.start_us:g}:{s.end_us:g}@{s.node}"
                         f"*{s.delay_us:g}")
        for s in self.squeezes:
            parts.append(f"squeeze={s.start_us:g}:{s.end_us:g}@{s.node}"
                         f"*{s.cap}")
        for s in self.starves:
            parts.append(f"starve={s.start_us:g}:{s.end_us:g}@{s.node}")
        if self.targets:
            parts.extend(f"target={_show(s)}>{_show(d)}"
                         for s, d in self.targets)
        return ",".join(parts) if parts else "none"


def _parse_window(window: str, token: str) -> Tuple[float, float]:
    t0, sep, t1 = window.partition(":")
    if not sep:
        raise ValueError(f"window must be T0:T1 in {token!r}")
    return float(t0), float(t1)


def _parse_link(link: str, token: str
                ) -> Tuple[Optional[int], Optional[int]]:
    src, sep, dst = link.partition(">")
    if not sep:
        raise ValueError(f"link must be SRC>DST in {token!r}")
    return (None if src.strip() == "*" else int(src),
            None if dst.strip() == "*" else int(dst))


def _show(v: Optional[int]) -> str:
    return "*" if v is None else str(v)


@dataclass(frozen=True)
class RetryPolicy:
    """How the parcelports recover from lost/failed transfers.

    An HPX message is retransmitted when its end-to-end ack has not
    arrived within ``timeout_us``; retry ``k`` waits
    ``timeout_us * backoff**k * (1 + jitter * u)`` with ``u`` uniform in
    [0, 1) drawn from a named rng stream (deterministic given the seed).
    After ``max_retries`` retransmissions the message is reported to the
    parcel layer as failed — a failed future, never a hang.
    """

    timeout_us: float = 1000.0
    max_retries: int = 6
    backoff: float = 2.0
    jitter: float = 0.1
    #: wire bytes of one ack message
    ack_bytes: int = 16
    #: receiver connections idle longer than timeout_us * this factor are
    #: reaped (their posted receives cancelled) — bounds completion leaks
    recv_expiry_factor: float = 8.0
    #: CPU charged per reliability poll / per retransmit initiation
    poll_cost_us: float = 0.02
    retransmit_cpu_us: float = 0.2
    #: max expired senders/receivers drained per reliability poll slice
    #: (bounds the work one background call can absorb under an expiry
    #: burst; larger values clear bursts faster at the cost of latency
    #: spikes in the polling thread)
    drain_limit: int = 8

    def __post_init__(self) -> None:
        if self.timeout_us <= 0.0:
            raise ValueError("timeout_us must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.jitter < 0.0:
            raise ValueError("jitter must be >= 0")
        if self.drain_limit < 1:
            raise ValueError("drain_limit must be >= 1")

    @property
    def recv_expiry_us(self) -> float:
        return self.timeout_us * self.recv_expiry_factor


class FaultInjector:
    """Runtime fault oracle consulted by the fabric and the NICs.

    One injector per runtime; all Bernoulli draws come from ``rng`` (a
    dedicated named stream) in deterministic event order.  Counters live
    in :attr:`stats` (drops/corrupts by wire kind, flap drops, stall
    deferrals) for the benchmark harness to report.
    """

    def __init__(self, sim: "Simulator", plan: FaultPlan, rng,
                 name: str = "faults"):
        self.sim = sim
        self.plan = plan
        self.rng = rng
        self.stats = StatSet(name)
        self._random = plan.drop_prob > 0.0 or plan.corrupt_prob > 0.0

    # -- deterministic schedules --------------------------------------------
    def link_down(self, src: int, dst: int, t: float) -> bool:
        return any(f.covers(src, dst, t) for f in self.plan.flaps)

    def stalled_until(self, node: int, t: float) -> float:
        """Latest stall-window end covering (node, t); ``t`` if none."""
        end = t
        for s in self.plan.stalls:
            if s.covers(node, t) and s.end_us > end:
                end = s.end_us
        return end

    def deferred_until(self, msg: "NetMsg", node: int, t: float,
                       redelivery: bool = False) -> float:
        """When a message landing at ``node`` at ``t`` may actually be
        delivered; ``t`` means "now" (no hold).

        Combines every RX-side hold: NIC stalls (everything parked to
        window end), slow-receiver windows (each message ``delay_us``
        late — skipped on ``redelivery`` so holds never compound), and
        credit starvation (ack-tagged messages parked to window end).
        Counters are bumped per category the first time each applies.
        """
        until = t
        stall_end = self.stalled_until(node, t)
        if stall_end > t:
            self.stats.inc("stall_deferrals")
            until = stall_end
        if not redelivery:
            for s in self.plan.slows:
                if s.covers(node, t):
                    self.stats.inc("slow_deferrals")
                    until = max(until, t + s.delay_us)
                    break
        if msg.tag == ACK_TAG and self.plan.starves:
            for s in self.plan.starves:
                if s.covers(node, t) and s.end_us > until:
                    self.stats.inc("ack_holds")
                    until = s.end_us
        return until

    def pool_cap(self, node: int, t: float) -> Optional[int]:
        """Squeezed packet-pool capacity for ``node`` at ``t`` (None = no
        squeeze active)."""
        cap: Optional[int] = None
        for s in self.plan.squeezes:
            if s.covers(node, t) and (cap is None or s.cap < cap):
                cap = s.cap
        return cap

    # -- per-message verdict -------------------------------------------------
    def _targeted(self, msg: "NetMsg") -> bool:
        targets = self.plan.targets
        if targets is None:
            return True
        return any((s is None or s == msg.src)
                   and (d is None or d == msg.dst)
                   for s, d in targets)

    def on_transmit(self, msg: "NetMsg") -> str:
        """Decide this message's fate: DELIVER, DROP or CORRUPT."""
        if self.link_down(msg.src, msg.dst, self.sim.now):
            self.stats.inc("flap_drops")
            self.stats.inc(f"drop.{msg.kind}")
            return DROP
        if self._random and self._targeted(msg):
            r = float(self.rng.random())
            if r < self.plan.drop_prob:
                self.stats.inc("drops")
                self.stats.inc(f"drop.{msg.kind}")
                return DROP
            if r < self.plan.drop_prob + self.plan.corrupt_prob:
                self.stats.inc("corrupts")
                self.stats.inc(f"corrupt.{msg.kind}")
                return CORRUPT
        return DELIVER
