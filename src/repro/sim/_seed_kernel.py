"""Frozen pre-optimisation copy of the discrete-event kernel.

This module is a verbatim snapshot of :mod:`repro.sim.core` as it stood
before the fast-path rewrite (see docs/PERFORMANCE.md).  It is the
stand-alone reference for ``tests/test_determinism_kernel.py``, which
replays identical workloads on both kernels step-by-step and asserts the
``(time, priority, seq)`` schedules are bit-identical — the determinism
contract of the fast paths.  It must **not** be used by the runtime.

Known seed-kernel quirks are preserved on purpose (the ``max_events``
off-by-one and the interrupt-vs-completion races fixed in the live
kernel); the comparison suites deliberately avoid those edges.

The original module docstring follows.

----

Deterministic discrete-event simulation kernel.

This is the foundation of the whole reproduction: every CPU cycle, lock
acquisition, NIC transfer and wire hop in the simulated HPX/MPI/LCI stack is
an event scheduled on a :class:`Simulator`.

The kernel is intentionally simpy-like (generator-coroutine processes that
``yield`` events) but is written from scratch, lean, and fully deterministic:

* Virtual time is a ``float`` in **microseconds**.
* Ties are broken by ``(time, priority, seq)`` where ``seq`` is a global
  monotonically increasing counter, so two runs of the same program produce
  bit-identical schedules.
* There is no wall-clock coupling anywhere.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(3.0)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[3.0]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
]

#: Event priorities: URGENT events fire before NORMAL events scheduled at the
#: same timestamp.  Used for immediate wake-ups (e.g. lock hand-off).
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double-trigger, run without events)."""


class Interrupt(Exception):
    """Thrown into a :class:`Process` by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulator timeline.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (or when the simulator schedules it), and
    *processed* once its callbacks ran.  Processes wait on events by
    yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "triggered", "processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: bool = True
        self.triggered = False
        self.processed = False

    # -- introspection ---------------------------------------------------
    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` (or the failure exception)."""
        return self._value

    @property
    def ok(self) -> bool:
        """False if the event failed."""
        return self._ok

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully; callbacks run at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._value = value
        self.sim._schedule(self, 0.0, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiting processes receive ``exc``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._ok = False
        self._value = exc
        self.sim._schedule(self, 0.0, priority)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed (immediately if done)."""
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires ``delay`` µs after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self.triggered = True
        self._value = value
        sim._schedule(self, delay, NORMAL)


class Process(Event):
    """A generator-coroutine driven by the simulator.

    The generator yields :class:`Event` instances; the process resumes when
    the yielded event fires, receiving ``event.value`` as the result of the
    ``yield`` expression.  The process *itself* is an event that triggers
    with the generator's return value, so processes can wait on each other.
    """

    __slots__ = ("gen", "name", "_target")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        # Bootstrap: resume once at the current time.
        boot = Event(sim)
        boot.triggered = True
        sim._schedule(boot, 0.0, URGENT)
        boot.add_callback(self._resume)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        wake = Event(self.sim)
        wake.triggered = True
        wake._ok = False
        wake._value = Interrupt(cause)
        self.sim._schedule(wake, 0.0, URGENT)
        wake.add_callback(self._resume)

    # -- internal ----------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        if self.triggered:
            return
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if trigger.ok:
                nxt = self.gen.send(trigger.value)
            else:
                exc = trigger.value
                nxt = self.gen.throw(exc)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            sim._active_process = None
            if sim.strict:
                raise
            self.fail(exc, priority=URGENT)
            return
        sim._active_process = None
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}")
        if nxt.callbacks is None:
            # Already processed: resume immediately (at current time).
            wake = Event(sim)
            wake.triggered = True
            wake._ok = nxt._ok
            wake._value = nxt._value
            sim._schedule(wake, 0.0, URGENT)
            wake.add_callback(self._resume)
            self._target = wake
        else:
            nxt.add_callback(self._resume)
            self._target = nxt


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* the given events have triggered.

    Value is a dict mapping each event to its value.  Fails fast if any
    child fails.
    """

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed({e: e.value for e in self.events})


class AnyOf(_Condition):
    """Triggers when *any one* of the given events triggers (value = (event, value))."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed((ev, ev.value))


class Simulator:
    """Heap-driven deterministic event loop.

    Parameters
    ----------
    strict:
        If True (default), exceptions raised inside processes propagate out
        of :meth:`run` immediately instead of failing the process event.
    """

    def __init__(self, strict: bool = True):
        self.now: float = 0.0
        self.strict = strict
        self._heap: list = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        self.event_count = 0

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` µs from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process; returns its completion event."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heapq.heappush(self._heap, (self.now + delay, priority,
                                    next(self._seq), event))

    def schedule_call(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` µs (no process needed)."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _e: fn())
        return ev

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        t, _prio, _seq, event = heapq.heappop(self._heap)
        if t < self.now:
            raise SimulationError("time went backwards")
        self.now = t
        self.event_count += 1
        callbacks = event.callbacks
        event.callbacks = None
        event.processed = True
        for cb in callbacks:
            cb(event)

    def run(self, until: "float | Event | None" = None,
            max_events: Optional[int] = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion; a float — run until virtual time
            reaches it; an :class:`Event` — run until it triggers and return
            its value.
        max_events:
            Safety valve; raise if more events than this are processed.
        """
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
        elif until is not None:
            deadline = float(until)

        processed = 0
        while self._heap:
            if stop_event is not None and stop_event.callbacks is None:
                break
            t = self._heap[0][0]
            if deadline is not None and t > deadline:
                self.now = deadline
                break
            self.step()
            processed += 1
            if max_events is not None and processed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} (possible livelock)")
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before `until` triggered")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if deadline is not None and not self._heap:
            self.now = max(self.now, deadline)
        return None

    def peek(self) -> float:
        """Time of the next scheduled event (inf if none)."""
        return self._heap[0][0] if self._heap else float("inf")

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process
