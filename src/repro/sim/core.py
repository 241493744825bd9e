"""Deterministic discrete-event simulation kernel.

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

The hot paths (``run``, ``Timeout``, ``schedule_call``) are hand-optimised
— heap pushes inlined, each process waiting through one reusable resume
record that the run loop resumes itself, idle-sleep timers on a heap of
their own, the sequence counter a plain int — under a hard determinism
contract: the ``(time, priority, seq)`` schedule, the ``event_count``, and
every simulated result are bit-identical to the pre-optimisation kernel
(kept frozen in :mod:`repro.sim._seed_kernel` and compared against in
``tests/test_determinism_kernel.py``).  See docs/PERFORMANCE.md for the
full catalogue of fast paths.

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

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Optional, Tuple

__all__ = [
    "Event",
    "Timeout",
    "Sleeper",
    "LockGrant",
    "Process",
    "Simulator",
    "SimulationError",
]

#: Event priorities: URGENT events fire before NORMAL events scheduled at the
#: same timestamp.  Used for immediate wake-ups (e.g. lock hand-off).
URGENT = 0
NORMAL = 1

#: Wire deliveries are scheduled at their own priority level, between URGENT
#: wake-ups and NORMAL events, with an *intrinsic* tie-break key in the seq
#: slot: ``(src locality, per-source delivery sequence)`` instead of the
#: global scheduling counter.  Co-temporal deliveries therefore order by
#: (time, src, per-src order) — a property of the *traffic*, not of when the
#: scheduling call happened to run.  Every committed result and golden
#: digest depends on this order.  Keys are tuples and plain seqs are ints,
#: so the distinct priority level also keeps the heap's lexicographic
#: compare from ever mixing the two.
DELIVERY = 0.5


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double-trigger, run without events)."""


class _Wake:
    """Bare heap record for internal wake-ups (resumes off processed
    events, :meth:`Simulator.succeed_later`).

    Quacks just enough like a processed-event carrier for the run loop
    (``callbacks``) and for :meth:`Process._resume` (``_value``); never
    escapes the kernel.  Compared to a full :class:`Event` it skips
    ``sim``/``triggered`` bookkeeping and the ``__init__`` call — call
    sites assign the two slots directly.
    """

    __slots__ = ("callbacks", "_value")


class _Resume:
    """A process's resume record: the one heap record that boots it and
    wakes it from a bare delay, a :class:`Sleeper` or a
    :class:`LockGrant`.

    The run loop recognises it by class and sends into ``proc``'s
    generator itself.  A process waits on at most one thing at a time,
    so its record is in a heap at most once.
    """

    __slots__ = ("proc",)

    #: what :meth:`Process._resume` sends: a wake-up carries no value
    _value = None

    def __init__(self, proc: "Process"):
        self.proc = proc


class Event:
    """A one-shot occurrence on the simulator timeline.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    is called (or when the simulator schedules it), and *processed* once
    its callbacks ran.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self.triggered = False

    # -- introspection ---------------------------------------------------
    @property
    def processed(self) -> bool:
        """True once the callbacks ran: the run loop clears the list."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed`."""
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully; callbacks run at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._value = value
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now, priority, seq, self))
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
        # Slimmed constructor: Event.__init__ + succeed() fused into direct
        # slot assignments and one inlined heap push.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self.triggered = True
        self.delay = delay
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now + delay, NORMAL, seq, self))


class _Call(Event):
    """A :meth:`Simulator.schedule_call` event: runs ``fn()`` when processed.

    Replaces the seed kernel's ``Timeout + lambda callback`` pair with a
    single object; the heap tuple it pushes is identical, so schedules are
    unchanged.
    """

    __slots__ = ("fn",)

    def __init__(self, sim: "Simulator", delay: float,
                 fn: Callable[[], None]):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.fn = fn
        self.callbacks = [self._invoke]
        self._value = None
        self.triggered = True
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now + delay, NORMAL, seq, self))

    def _invoke(self, _event: Event) -> None:
        self.fn()


class _Call1(Event):
    """A :meth:`Simulator.schedule_call1` event: runs ``fn(arg)``.

    Like :class:`_Call` but carries one argument, replacing the
    per-message closures on the hot wire-delivery and rendezvous-
    completion paths (``lambda: dst.deliver(msg)`` and friends) with
    plain attribute slots.  Heap tuple identical to ``schedule_call``.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator", delay: float,
                 fn: Callable[[Any], None], arg: Any):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.fn = fn
        self.arg = arg
        self.callbacks = [self._invoke]
        self._value = None
        self.triggered = True
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now + delay, NORMAL, seq, self))

    def _invoke(self, _event: Event) -> None:
        self.fn(self.arg)


def _succeed_stashed(wake: "_Wake") -> None:
    """Callback for :meth:`Simulator.succeed_later` wake records: the
    target event rides in the record's ``_value`` slot; deliver the value
    pre-staged on the event itself."""
    ev = wake._value
    ev.succeed(ev._value)


class Sleeper:
    """An idle wait: the seed kernel's ``AnyOf([wake, Timeout(delay)])``
    in one object.

    Yielded by the sleeping process right after it is made.  It pushes
    the records the three-event form pushed, with the same seqs: the
    timer at construction — onto the simulator's idle heap, since a woken
    sleeper leaves it behind until its deadline — and a wake record when
    :meth:`succeed` is called.  The first of those two to pop hands over
    to the sleeping process at that time (see :class:`Simulator`), and
    the later one pops as a no-op.  ``triggered`` means the wake half fired,
    exactly as on the ``wake`` event it replaces.
    """

    __slots__ = ("sim", "triggered", "fired", "_rec")

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.triggered = False
        #: the first record popped: the sleeper was handed over
        self.fired = False
        #: the waiting process's resume record, set when it is yielded
        self._rec: Optional[_Resume] = None
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._idle, (sim.now + delay, NORMAL, seq, self))

    def succeed(self) -> "Sleeper":
        """Wake the sleeper: push its wake record at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now, NORMAL, seq, self))
        return self


class LockGrant:
    """A :class:`~repro.sim.primitives.SpinLock` grant in one record.

    ``SpinLock.acquire()`` returns it and the acquiring process yields it
    at once.  The lock pushes it one CAS (``acquire_cost``) after the
    acquire, or after the release that hands the lock over; when it pops
    it hands over to the waiting process at that time.  These are the
    records, with the seqs, of the ``Event`` a one-CAS-later
    ``schedule_call`` triggers.
    """

    __slots__ = ("_rec",)

    def __init__(self):
        #: the waiting process's resume record, set when it is yielded
        self._rec: Optional[_Resume] = None


class Process(Event):
    """A generator-coroutine driven by the simulator.

    The generator yields :class:`Event` instances; the process resumes when
    the yielded event fires, receiving ``event.value`` as the result of the
    ``yield`` expression.  The process *itself* is an event that triggers
    with the generator's return value, so processes can wait on each other.
    A bare delay (a float), a :class:`Sleeper` and a :class:`LockGrant`
    wake it through its resume record instead, which the run loop
    resumes itself.  An exception raised in the generator propagates out
    of :meth:`Simulator.run`.
    """

    __slots__ = ("gen", "name", "_bound_resume", "_rec")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self.triggered = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # One bound method for the whole lifetime instead of a fresh
        # ``self._resume`` allocation on every wait on an Event.
        self._bound_resume = self._resume
        # The reusable resume record: the boot record, re-pushed by every
        # bare-delay wait and handed over by every sleeper and grant.
        rec = self._rec = _Resume(self)
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now, URGENT, seq, rec))

    # -- internal ----------------------------------------------------------
    def _resume(self, trigger: Any) -> None:
        """Resume off ``trigger``: an Event callback, a ``_Wake``, or the
        resume record on the reference path (:meth:`Simulator.step`)."""
        try:
            nxt = self.gen.send(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value, priority=URGENT)
            return
        self._wait(nxt)

    def _wait(self, nxt: Any) -> None:
        """Wait on what the generator yielded.

        :meth:`_resume` calls this for every yield; the run loop handles
        a bare delay and a fresh sleeper or grant itself, the same way,
        and calls it for everything else.
        """
        sim = self.sim
        cls = nxt.__class__
        if cls is float or cls is int:
            # Bare-delay yield (``yield worker.cpu(us)`` returns a float):
            # push the resume record — the same ``(now + d, NORMAL, seq)``
            # heap tuple, at the same seq-allocation point, as ``yield
            # sim.timeout(d)``, minus the Timeout object.
            if nxt < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {nxt!r}")
            seq = sim._seq
            sim._seq = seq + 1
            _heappush(sim._heap, (sim.now + nxt, NORMAL, seq, self._rec))
            return
        if cls is Sleeper or cls is LockGrant:
            # The sleeper or grant hands over to the resume record.
            if nxt._rec is not None:
                raise SimulationError(
                    f"process {self.name!r} yielded a used {cls.__name__}")
            nxt._rec = self._rec
            return
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}")
        cbs = nxt.callbacks
        if cbs is None:
            # Already processed: resume immediately (at current time) via a
            # bare wake record — same heap tuple as the seed kernel's full
            # Event, minus the allocation and bookkeeping.
            wake = _Wake()
            wake._value = nxt._value
            wake.callbacks = [self._bound_resume]
            seq = sim._seq
            sim._seq = seq + 1
            _heappush(sim._heap, (sim.now, URGENT, seq, wake))
        else:
            cbs.append(self._bound_resume)


class Simulator:
    """Heap-driven deterministic event loop.

    Popped records dispatch by class.  A process's resume record resumes
    the process, which :meth:`run` does itself, with no callback; a lock
    grant, or the first of a sleeper's two records, hands over to the
    waiting process by pushing its resume record at the current time;
    every other record runs its callbacks.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        #: :class:`Sleeper` timers.  Most are stale by the time they pop
        #: (their sleeper was woken first), so they wait here instead of
        #: deepening the main heap.  Both heaps hold ``(time, priority,
        #: seq, record)`` tuples, seqs are unique across the two, and
        #: every pop takes the smaller top.
        self._idle: list = []
        #: next ``(time, priority, seq)`` tie-breaker; a plain int sequence
        #: (same values as the seed kernel's ``itertools.count``)
        self._seq: int = 0
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

    # -- scheduling ----------------------------------------------------------
    def schedule_call(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` µs (no process needed)."""
        return _Call(self, delay, fn)

    def schedule_call1(self, delay: float, fn: Callable[[Any], None],
                       arg: Any) -> Event:
        """Run ``fn(arg)`` after ``delay`` µs — closure-free
        :meth:`schedule_call` for the per-message hot paths."""
        return _Call1(self, delay, fn, arg)

    def schedule_delivery(self, delay: float, fn: Callable[[Any], None],
                          arg: Any, key: Tuple[int, int]) -> Event:
        """Run ``fn(arg)`` after ``delay`` µs at :data:`DELIVERY` priority
        with the intrinsic tie-break ``key`` (``(src, per-src seq)``).

        Used exclusively for wire deliveries (:meth:`repro.netsim.fabric.
        Fabric.transmit`): the key replaces the global seq counter so
        co-temporal deliveries order by traffic identity rather than by
        scheduling order, and no global seq is consumed (later events keep
        the same *relative* seq order either way).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = _Call1.__new__(_Call1)
        ev.sim = self
        ev.fn = fn
        ev.arg = arg
        ev.callbacks = [ev._invoke]
        ev._value = None
        ev.triggered = True
        _heappush(self._heap, (self.now + delay, DELIVERY, key, ev))
        return ev

    def succeed_later(self, event: Event, delay: float,
                      value: Any = None) -> None:
        """Trigger ``event.succeed(value)`` after ``delay`` µs via one bare
        wake record.

        Schedule-identical to ``schedule_call(delay, lambda:
        event.succeed(value))`` — same two-record dance, same seq
        allocation points — without the _Call event or the closure.  The
        value is pre-staged in the target's ``_value`` slot (observable
        only through ``Event.value`` introspection before the trigger,
        which nothing on these paths does).
        """
        event._value = value
        wake = _Wake()
        wake._value = event
        wake.callbacks = [_succeed_stashed]
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now + delay, NORMAL, seq, wake))

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process the single next record through the reference dispatch
        (:meth:`_dispatch`).

        Semantically identical to one iteration of :meth:`run`, which
        inlines the dispatch and resumes processes itself; kept as the
        single-step API for tests and schedule tracing.
        """
        item = _heappop(self._next_heap())
        t = item[0]
        if t < self.now:
            raise SimulationError("time went backwards")
        self.now = t
        self.event_count += 1
        self._dispatch(item[3])

    def _dispatch(self, record: Any) -> None:
        """Process one popped record, by its class: the reference form of
        :meth:`run`'s event/exhaustion loop, used by :meth:`step` and the
        deadline loop."""
        cls = record.__class__
        if cls is _Resume:
            record.proc._resume(record)
        elif cls is Sleeper or cls is LockGrant:
            self._hand_over(record)
        else:
            callbacks = record.callbacks
            record.callbacks = None
            for cb in callbacks:
                cb(record)

    def _hand_over(self, waiter: "Sleeper | LockGrant") -> None:
        """A lock grant's pop, or the first pop of a sleeper's two: push
        the waiting process's resume record at the current time."""
        if waiter.__class__ is Sleeper:
            if waiter.fired:
                return
            waiter.fired = True
        rec = waiter._rec
        if rec is None:
            raise SimulationError(
                f"a {type(waiter).__name__} fired before a process waited "
                f"on it; yield it right after it is made")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now, NORMAL, seq, rec))

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
            Safety valve; raise once exactly ``max_events`` events have been
            processed and more remain (the run may *complete* in exactly
            ``max_events``).
        """
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
        elif until is not None:
            deadline = float(until)

        heap = self._heap
        idle = self._idle
        pop = _heappop
        push = _heappush
        limit = max_events if max_events is not None else float("inf")
        now = self.now
        processed = 0
        try:
            if deadline is None:
                # Hot path: run to exhaustion or until ``stop_event``
                # triggers.  Records dispatch by class as in _dispatch,
                # but the loop resumes processes itself.
                hand_over = self._hand_over
                while heap or idle:
                    if stop_event is not None \
                            and stop_event.callbacks is None:
                        break
                    if processed >= limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"(possible livelock)")
                    if idle and (not heap or idle[0] < heap[0]):
                        item = pop(idle)
                    else:
                        item = pop(heap)
                    t = item[0]
                    if t < now:
                        raise SimulationError("time went backwards")
                    self.now = now = t
                    processed += 1
                    rec = item[3]
                    cls = rec.__class__
                    if cls is _Resume:
                        proc = rec.proc
                    elif cls is LockGrant or cls is Sleeper:
                        hand_over(rec)
                        continue
                    else:
                        callbacks = rec.callbacks
                        rec.callbacks = None
                        for cb in callbacks:
                            cb(rec)
                        continue
                    try:
                        nxt = proc.gen.send(None)
                    except StopIteration as stop:
                        proc.succeed(stop.value, priority=URGENT)
                        continue
                    cls = nxt.__class__
                    if (cls is float or cls is int) and nxt >= 0:
                        seq = self._seq
                        self._seq = seq + 1
                        push(heap, (now + nxt, NORMAL, seq, rec))
                    elif (cls is Sleeper or cls is LockGrant) \
                            and nxt._rec is None:
                        nxt._rec = rec
                    else:
                        proc._wait(nxt)
            else:
                # Deadline path, through the reference dispatch (nothing
                # in the runtime runs one): peek before popping so events
                # beyond the deadline stay scheduled.
                dispatch = self._dispatch
                while heap or idle:
                    if stop_event is not None \
                            and stop_event.callbacks is None:
                        break
                    src = idle if idle and (not heap or idle[0] < heap[0]) \
                        else heap
                    t = src[0][0]
                    if t > deadline:
                        self.now = deadline
                        break
                    if processed >= limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"(possible livelock)")
                    item = pop(src)
                    if t < now:
                        raise SimulationError("time went backwards")
                    self.now = now = t
                    processed += 1
                    dispatch(item[3])
        finally:
            self.event_count += processed
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before `until` triggered")
            return stop_event.value
        if deadline is not None and not heap and not idle:
            self.now = max(self.now, deadline)
        return None

    def _next_heap(self) -> list:
        """The heap whose top pops next (the empty main heap if both are
        empty); :meth:`run` inlines this choice."""
        heap = self._heap
        idle = self._idle
        if idle and (not heap or idle[0] < heap[0]):
            return idle
        return heap

    def next_key(self) -> Optional[tuple]:
        """``(time, priority, seq)`` of the next record to pop, or None."""
        heap = self._next_heap()
        return heap[0][:3] if heap else None

    def peek(self) -> float:
        """Time of the next scheduled event (inf if none)."""
        key = self.next_key()
        return key[0] if key is not None else float("inf")
