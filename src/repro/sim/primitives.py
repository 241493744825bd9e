"""Synchronization and contention primitives for the simulated stack.

These model the three concurrency mechanisms the paper contrasts:

* :class:`SpinLock` — a coarse-grained **blocking** lock.  Waiters queue in
  FIFO order and their (simulated) core is busy the whole time: this is the
  ``ucp_progress`` blocking-lock pathology that makes ``mpi_i`` collapse on
  the 128-core Expanse nodes in Fig. 10.
* :class:`TryLock` — a fine-grained **try** lock that fails fast, as used
  throughout LCI's progress engine.
* :class:`AtomicCell` — an atomic variable.  Hardware serializes atomic
  read-modify-write operations on one cache line, so the cell is modelled as
  a serializing resource with a per-operation service time: uncontended ops
  cost ``op_cost``; concurrent ops queue behind each other, which is exactly
  cache-line ownership transfer at the granularity this simulation needs.

All costs are in microseconds of virtual time.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Any, Deque, Optional

from .core import NORMAL, Event, LockGrant, Simulator

__all__ = [
    "SpinLock",
    "TryLock",
    "AtomicCell",
    "SerialResource",
    "ContentionMeter",
]


class ContentionMeter:
    """Exponentially-decaying estimate of how *hot* a shared object is.

    ``pressure()`` approximates the number of recent concurrent users:
    each touch adds 1, and pressure decays with time constant ``tau_us``.
    Used to inflate operation costs under contention (cache misses,
    retried CAS loops) without simulating individual cache lines.
    """

    __slots__ = ("tau_us", "_pressure", "_last_t")

    def __init__(self, tau_us: float = 5.0):
        self.tau_us = tau_us
        self._pressure = 0.0
        self._last_t = 0.0

    def touch(self, now: float) -> float:
        """Record one access at time ``now``; return pressure *before* it."""
        dt = now - self._last_t
        if dt > 0:
            # cheap linear-decay approximation of exp(-dt/tau)
            decay = max(0.0, 1.0 - dt / self.tau_us)
            self._pressure *= decay
            self._last_t = now
        before = self._pressure
        self._pressure += 1.0
        return before

    def pressure(self, now: float) -> float:
        dt = now - self._last_t
        if dt > 0:
            decay = max(0.0, 1.0 - dt / self.tau_us)
            return self._pressure * decay
        return self._pressure


class SpinLock:
    """FIFO blocking spin lock.

    ``acquire()`` returns a :class:`~repro.sim.core.LockGrant`, which the
    caller yields at once; it owns the lock when the grant resumes it.
    While waiting, the calling thread's core is considered busy
    (spinning), which in this one-thread-per-core model is implicit: the
    process simply cannot do anything else.

    Statistics: ``total_wait_us``, ``acquisitions``, ``max_queue``.
    """

    __slots__ = ("sim", "name", "locked", "_waiters", "acquire_cost",
                 "total_wait_us", "acquisitions", "max_queue")

    def __init__(self, sim: Simulator, name: str = "spinlock",
                 acquire_cost: float = 0.02):
        self.sim = sim
        self.name = name
        self.locked = False
        self._waiters: Deque[tuple] = deque()
        self.acquire_cost = acquire_cost
        self.total_wait_us = 0.0
        self.acquisitions = 0
        self.max_queue = 0

    def acquire(self) -> LockGrant:
        grant = LockGrant()
        if not self.locked:
            self.locked = True
            self._grant(grant)
        else:
            waiters = self._waiters
            waiters.append((self.sim.now, grant))
            if len(waiters) > self.max_queue:
                self.max_queue = len(waiters)
        return grant

    def release(self) -> None:
        if not self.locked:
            raise RuntimeError(f"{self.name}: release of unheld lock")
        if self._waiters:
            t_enq, grant = self._waiters.popleft()
            self.total_wait_us += self.sim.now - t_enq
            self._grant(grant)
        else:
            self.locked = False

    def _grant(self, grant: LockGrant) -> None:
        """Hand the lock to ``grant``'s waiter: even an uncontended
        acquire costs a CAS, and a hand-off is the waiter's CAS finally
        succeeding, so the grant pops ``acquire_cost`` from now."""
        sim = self.sim
        self.acquisitions += 1
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now + self.acquire_cost, NORMAL, seq, grant))

    @property
    def queue_len(self) -> int:
        return len(self._waiters)


class TryLock:
    """Fail-fast try lock (LCI style).

    ``try_acquire()`` returns True and takes the lock, or False immediately.
    A failed attempt still costs the caller ``fail_cost`` µs (one CAS miss);
    the caller charges that to itself via its own timeout.
    """

    __slots__ = ("sim", "name", "locked", "attempts", "failures", "fail_cost")

    def __init__(self, sim: Simulator, name: str = "trylock",
                 fail_cost: float = 0.03):
        self.sim = sim
        self.name = name
        self.locked = False
        self.attempts = 0
        self.failures = 0
        self.fail_cost = fail_cost

    def try_acquire(self) -> bool:
        self.attempts += 1
        if self.locked:
            self.failures += 1
            return False
        self.locked = True
        return True

    def release(self) -> None:
        if not self.locked:
            raise RuntimeError(f"{self.name}: release of unheld lock")
        self.locked = False

    @property
    def failure_rate(self) -> float:
        return self.failures / self.attempts if self.attempts else 0.0


class SerialResource:
    """A resource that serves requests one at a time, FIFO, O(1) per request.

    Implemented with a ``busy_until`` watermark rather than a process: a
    request arriving at ``t`` with service time ``s`` completes at
    ``max(t, busy_until) + s``.  Used for NIC TX pipelines and atomic
    cache lines.
    """

    __slots__ = ("sim", "name", "busy_until", "served", "total_busy_us",
                 "total_queued_us")

    def __init__(self, sim: Simulator, name: str = "resource"):
        self.sim = sim
        self.name = name
        self.busy_until = 0.0
        self.served = 0
        self.total_busy_us = 0.0
        self.total_queued_us = 0.0

    def request(self, service_us: float) -> Event:
        """Returns an event firing when this request's service completes."""
        now = self.sim.now
        start = max(now, self.busy_until)
        self.total_queued_us += start - now
        self.busy_until = start + service_us
        self.total_busy_us += service_us
        self.served += 1
        return self.sim.timeout(self.busy_until - now)

    def finish_time(self, service_us: float) -> float:
        """Like :meth:`request` but returns the absolute completion time."""
        now = self.sim.now
        start = max(now, self.busy_until)
        self.total_queued_us += start - now
        self.busy_until = start + service_us
        self.total_busy_us += service_us
        self.served += 1
        return self.busy_until

    def utilization(self) -> float:
        return self.total_busy_us / self.sim.now if self.sim.now else 0.0


class AtomicCell:
    """An atomic integer living on one (simulated) cache line.

    ``fetch_add`` costs ``op_cost`` uncontended; concurrent ops serialize
    through a :class:`SerialResource` and pay a contention surcharge
    proportional to recent pressure, approximating the cache line bouncing
    between cores.
    """

    __slots__ = ("sim", "name", "value", "op_cost", "contention_factor",
                 "_line", "_meter", "ops")

    def __init__(self, sim: Simulator, name: str = "atomic", value: int = 0,
                 op_cost: float = 0.02, contention_factor: float = 0.5):
        self.sim = sim
        self.name = name
        self.value = value
        self.op_cost = op_cost
        self.contention_factor = contention_factor
        self._line = SerialResource(sim, name + ".line")
        self._meter = ContentionMeter()
        self.ops = 0

    def _service(self) -> float:
        pressure = self._meter.touch(self.sim.now)
        return self.op_cost * (1.0 + self.contention_factor * pressure)

    def fetch_add(self, n: int = 1) -> "Event":
        """Atomically add ``n``; the event fires with the *previous* value."""
        self.ops += 1
        old = self.value
        self.value += n
        return self._wrap(old)

    def _wrap(self, old: int) -> Event:
        # Slim form of ``request() + Event + lambda callback``: the line's
        # accounting is inlined (request() minus its Timeout) and the
        # value-carrying grant is scheduled as one bare wake record at the
        # same seq-allocation point the Timeout used to occupy.
        line = self._line
        sim = self.sim
        now = sim.now
        service = self._service()
        start = now if now >= line.busy_until else line.busy_until
        line.total_queued_us += start - now
        line.busy_until = start + service
        line.total_busy_us += service
        line.served += 1
        ev = Event(sim)
        sim.succeed_later(ev, line.busy_until - now, old)
        return ev

    def load(self) -> int:
        """Relaxed load: free (no event)."""
        return self.value

    def store(self, v: int) -> Event:
        self.ops += 1
        self.value = v
        return self._line.request(self._service())

    def add_relaxed(self, n: int = 1) -> int:
        """Zero-cost add used for pure statistics counters (not modelled)."""
        old = self.value
        self.value += n
        return old
