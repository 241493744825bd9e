"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (AllOf, AnyOf, Event, Interrupt, SimulationError,
                       Simulator, SpinLock, Timeout)
from repro.sim.core import URGENT, Sleeper


def test_timeout_fires_at_delay():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(3.5)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [3.5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_value_passed_to_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim):
        v = yield ev
        got.append(v)

    sim.process(waiter(sim))
    sim.schedule_call(2.0, lambda: ev.succeed("payload"))
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_raises_in_process():
    sim = Simulator(strict=False)
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except RuntimeError as e:
            caught.append(str(e))

    sim.process(waiter(sim))
    sim.schedule_call(1.0, lambda: ev.fail(RuntimeError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_process_exception_propagates_in_strict_mode():
    sim = Simulator(strict=True)

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("kaput")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="kaput"):
        sim.run()


def test_process_return_value_is_event_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return 42

    def parent(sim, out):
        v = yield sim.process(child(sim))
        out.append(v)

    out = []
    sim.process(parent(sim, out))
    sim.run()
    assert out == [42]


def test_deterministic_fifo_order_for_simultaneous_events():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_float_deadline():
    sim = Simulator()
    hits = []

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)
            hits.append(sim.now)

    sim.process(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5
    assert hits == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc(sim))
    assert sim.run(until=p) == "done"


def test_run_until_untriggered_event_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_max_events_guard():
    sim = Simulator()

    def spin(sim):
        while True:
            yield sim.timeout(0.1)

    sim.process(spin(sim))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=50)


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done_at = []

    def proc(sim):
        yield AllOf(sim, [sim.timeout(1.0), sim.timeout(5.0),
                          sim.timeout(3.0)])
        done_at.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done_at == [5.0]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered


def test_any_of_fires_on_first():
    sim = Simulator()
    done_at = []

    def proc(sim):
        yield AnyOf(sim, [sim.timeout(4.0), sim.timeout(1.5)])
        done_at.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done_at == [1.5]


def test_interrupt_injects_exception():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("slept")
        except Interrupt as i:
            log.append(("interrupted", i.cause, sim.now))

    p = sim.process(sleeper(sim))
    sim.schedule_call(2.0, lambda: p.interrupt("wake"))
    sim.run()
    assert log == [("interrupted", "wake", 2.0)]


def test_yield_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield "not an event"

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_yield_bare_delay_sleeps_like_timeout():
    """A float/int yield is the fast-path spelling of ``sim.timeout(d)``:
    same wake time, same number of heap records, same seq consumption."""
    log = []

    def float_proc(sim):
        yield 3.0
        log.append(("float", sim.now))
        yield 2
        log.append(("int", sim.now))

    def timeout_proc(sim):
        yield sim.timeout(3.0)
        log.append(("timeout", sim.now))
        yield sim.timeout(2)
        log.append(("timeout", sim.now))

    sim_a = Simulator()
    sim_a.process(float_proc(sim_a))
    sim_a.run()
    sim_b = Simulator()
    sim_b.process(timeout_proc(sim_b))
    sim_b.run()
    assert [t for _, t in log[:2]] == [t for _, t in log[2:]] == [3.0, 5.0]
    assert sim_a.event_count == sim_b.event_count
    assert sim_a._seq == sim_b._seq


def test_interrupt_retires_the_reused_resume_record():
    """Every bare-delay wait re-pushes one record per process.  An
    interrupted wait leaves its entry in the heap; that entry must still
    pop and count, but must not resume the next wait at its old time."""
    sim = Simulator()
    log = []

    def proc(sim):
        try:
            yield 5.0
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield 10.0
        log.append(("resumed", sim.now))

    p = sim.process(proc(sim))
    sim.schedule_call(2.0, lambda: p.interrupt())
    sim.run()
    assert log == [("interrupted", 2.0), ("resumed", 12.0)]
    # boot, the call, the interrupt, the stale 5.0 entry, the 12.0
    # resume and the completion
    assert sim.event_count == 6


def test_interrupted_sleeper_never_resumes_the_next_wait():
    """A sleeper's timer pushes its resume record after the interrupt; the
    record belongs to the retired one."""
    sim = Simulator()
    log = []

    def proc(sim):
        try:
            yield Sleeper(sim, 5.0)
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield 10.0
        log.append(("resumed", sim.now))

    p = sim.process(proc(sim))
    sim.schedule_call(2.0, lambda: p.interrupt())
    sim.run()
    assert log == [("interrupted", 2.0), ("resumed", 12.0)]
    # the timer at 5.0 and the resume record it pushes pop as no-ops
    assert sim.event_count == 7


def test_sleeper_wake_timer_and_misuse():
    sim = Simulator()
    log = []
    naps = []

    def proc(sim):
        for delay in (4.0, 1.0):
            nap = Sleeper(sim, delay)
            naps.append(nap)
            yield nap
            log.append((sim.now, nap.triggered))
        yield naps[0]                    # a used sleeper

    sim.process(proc(sim))
    sim.schedule_call(2.0, lambda: naps[0].succeed())
    with pytest.raises(SimulationError, match="used Sleeper"):
        sim.run()
    # woken at 2.0; the second nap's timer fires at 3.0
    assert log == [(2.0, True), (3.0, False)]
    with pytest.raises(SimulationError, match="already triggered"):
        naps[0].succeed()
    with pytest.raises(ValueError, match="negative delay"):
        Sleeper(sim, -1.0)


def test_sleeper_fired_before_anyone_waits_raises():
    sim = Simulator()
    Sleeper(sim, 1.0)
    with pytest.raises(SimulationError, match="yield it right after"):
        sim.run()


def test_conditions_refuse_sleepers_and_lock_grants():
    """A Sleeper or a lock grant has no callbacks: the run loop hands it
    to the one process that yields it, so a condition over one is
    refused at construction and leaves no trace in later sleeps."""
    sim = Simulator()
    lock = SpinLock(sim)
    for waitable in (Sleeper(sim, 1.0), lock.acquire(), lock.acquire()):
        for cond in (AnyOf, AllOf):
            with pytest.raises(SimulationError, match="Events only"):
                cond(sim, [sim.timeout(1.0), waitable])

    # a later simulator's sleeps are untouched
    sim = Simulator()
    log = []

    def proc(sim):
        yield Sleeper(sim, 2.0)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [2.0]


def test_lock_waiter_interrupted_while_queued_is_never_resumed():
    """The queued waiter's grant still pops when the lock is handed to
    it, but its resume record belongs to the retired wait, not to the
    one after the interrupt: the grant passes the lock on to the next
    waiter instead of leaving it held by no one."""
    sim = Simulator()
    lock = SpinLock(sim, acquire_cost=0.5)
    log = []
    granted = []

    def holder(sim):
        yield lock.acquire()
        yield 5.0
        lock.release()

    def waiter(sim):
        try:
            yield lock.acquire()
            log.append(("granted", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield 10.0
        log.append(("resumed", sim.now))

    def next_waiter(sim):
        yield lock.acquire()             # queued behind the interrupted one
        granted.append(sim.now)
        yield 1.0
        lock.release()

    sim.process(holder(sim))
    p = sim.process(waiter(sim))
    sim.process(next_waiter(sim))
    sim.schedule_call(2.0, lambda: p.interrupt())
    sim.run()
    assert log == [("interrupted", 2.0), ("resumed", 12.0)]
    # hand-off at 5.5 to the interrupted waiter, its grant at 6.0 hands
    # the lock on, and the next waiter's grant pops one CAS later
    assert granted == [6.5]
    assert not lock.locked and lock.acquisitions == 3 and lock.max_queue == 2
    # 3 boots, holder's grant + resume and its 5.0 delay, the call, the
    # interrupt, the passed-on grant at 6.0, the next waiter's grant +
    # resume and its 1.0 delay, the 12.0 resume and 3 completions
    assert sim.event_count == 16


def test_lock_waiter_interrupted_between_grant_and_resume_passes_it_on():
    """The grant has popped and pushed the waiter's resume record, and an
    interrupt due at that instant lands before the record pops: the
    waiter is thrown ``Interrupt`` without the lock, which passes to the
    next waiter instead of staying held by no one."""
    sim = Simulator()
    lock = SpinLock(sim, acquire_cost=0.5)
    log = []
    granted = []
    procs = {}

    def holder(sim):
        yield lock.acquire()
        yield 5.0
        lock.release()                   # the waiter's grant pops at 6.0
        sim.schedule_call(0.5, lambda: procs["waiter"].interrupt())

    def waiter(sim):
        try:
            yield lock.acquire()
            log.append(("granted", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))

    def next_waiter(sim):
        yield lock.acquire()             # queued behind the interrupted one
        granted.append(sim.now)
        yield 1.0
        lock.release()

    sim.process(holder(sim))
    procs["waiter"] = sim.process(waiter(sim))
    sim.process(next_waiter(sim))
    sim.run()
    assert log == [("interrupted", 6.0)]
    # the interrupt at 6.0 hands the lock on; the next grant pops at 6.5
    assert granted == [6.5]
    assert not lock.locked and lock.queue_len == 0
    assert lock.acquisitions == 3
    # 3 boots, holder's grant + resume and its 5.0 delay, the waiter's
    # grant and its retired resume record, the call, the interrupt, the
    # next waiter's grant + resume and its 1.0 delay, 3 completions
    assert sim.event_count == 16


def test_interrupt_after_the_grant_resumed_keeps_the_lock_held():
    """Once the grant has resumed the waiter, the lock is the waiter's:
    an interrupt at that instant, while it waits on a zero delay, is
    thrown into it with the lock still held."""
    sim = Simulator()
    lock = SpinLock(sim, acquire_cost=0.5)
    log = []
    procs = []

    def holder(sim):
        try:
            yield lock.acquire()
            sim.schedule_call(0.0, procs[0].interrupt)
            yield 0.0
        except Interrupt:
            log.append(("interrupted", sim.now, lock.locked))
        lock.release()

    def next_waiter(sim):
        yield lock.acquire()
        log.append(("granted", sim.now))
        lock.release()

    procs.append(sim.process(holder(sim)))
    sim.process(next_waiter(sim))
    sim.run()
    assert log == [("interrupted", 0.5, True), ("granted", 1.0)]
    assert not lock.locked and lock.acquisitions == 2


def test_lock_grant_misuse():
    sim = Simulator()
    SpinLock(sim).acquire()              # nobody yields the grant
    with pytest.raises(SimulationError, match="LockGrant fired before"):
        sim.run()

    sim = Simulator()
    lock = SpinLock(sim)

    def proc(sim):
        grant = lock.acquire()
        yield grant
        yield grant

    sim.process(proc(sim))
    with pytest.raises(SimulationError, match="used LockGrant"):
        sim.run()


def test_yield_negative_delay_raises():
    sim = Simulator()

    def bad(sim):
        yield -1.0

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="negative delay"):
        sim.run()


def test_waiting_on_already_processed_event_resumes():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    got = []

    def late(sim):
        yield sim.timeout(5.0)
        got.append((yield ev))

    sim.process(late(sim))
    sim.run()
    assert got == ["v"]
    assert sim.now == 5.0


def test_clock_never_goes_backwards():
    sim = Simulator()
    stamps = []

    def proc(sim, delays):
        for d in delays:
            yield sim.timeout(d)
            stamps.append(sim.now)

    sim.process(proc(sim, [3.0, 0.0, 1.0]))
    sim.process(proc(sim, [1.0, 1.0, 1.0]))
    sim.run()
    assert stamps == sorted(stamps)


def test_schedule_call_runs_function():
    sim = Simulator()
    out = []
    sim.schedule_call(7.0, lambda: out.append(sim.now))
    sim.run()
    assert out == [7.0]


def test_event_count_increments():
    sim = Simulator()
    sim.schedule_call(1.0, lambda: None)
    sim.schedule_call(2.0, lambda: None)
    sim.run()
    assert sim.event_count == 2


def test_peek_returns_next_event_time():
    sim = Simulator()
    sim.schedule_call(4.0, lambda: None)
    assert sim.peek() == 4.0
    sim.run()
    assert sim.peek() == float("inf")


# ---------------------------------------------------------------------------
# max_events semantics (regression: the seed kernel raised only after
# max_events + 1 events had been processed)
# ---------------------------------------------------------------------------
def test_max_events_stops_at_exactly_max_events():
    sim = Simulator()

    def spin(sim):
        while True:
            yield sim.timeout(0.1)

    sim.process(spin(sim))
    with pytest.raises(SimulationError, match="max_events=50"):
        sim.run(max_events=50)
    assert sim.event_count == 50


def test_max_events_allows_run_completing_in_exactly_max_events():
    sim = Simulator()
    for i in range(5):
        sim.schedule_call(float(i), lambda: None)
    sim.run(max_events=5)
    assert sim.event_count == 5
    assert sim.peek() == float("inf")


def test_max_events_respected_under_deadline():
    sim = Simulator()

    def spin(sim):
        while True:
            yield sim.timeout(0.1)

    sim.process(spin(sim))
    with pytest.raises(SimulationError, match="max_events=10"):
        sim.run(until=1000.0, max_events=10)
    assert sim.event_count == 10


# ---------------------------------------------------------------------------
# interrupt-vs-completion races
# ---------------------------------------------------------------------------
def test_interrupt_with_triggered_unprocessed_target_delivers_value_first():
    # The wait target has already triggered (URGENT, so it pops before the
    # interrupt wake): the process receives the value, then the interrupt
    # at its next suspension point — the completion is not lost.
    sim = Simulator()
    log = []
    ev = sim.event()

    def proc(sim):
        v = yield ev
        log.append(("value", v, sim.now))
        try:
            yield sim.timeout(100.0)
            log.append("slept")
        except Interrupt as i:
            log.append(("interrupted", i.cause, sim.now))

    p = sim.process(proc(sim))

    def fire(sim):
        yield sim.timeout(2.0)
        ev.succeed("payload", priority=0)   # URGENT: pops before the wake
        p.interrupt("late")

    sim.process(fire(sim))
    sim.run()
    assert log == [("value", "payload", 2.0), ("interrupted", "late", 2.0)]


def test_interrupt_from_same_event_callback_no_double_resume():
    # Regression for the seed kernel's mid-step race: a callback of the
    # very event the process is waiting on interrupts it.  The stale wait
    # target must never resume the process a second time.
    sim = Simulator()
    log = []
    ev = sim.event()
    late = sim.event()

    def proc(sim):
        v = yield ev
        log.append(("value", v))
        try:
            yield late
            log.append(("late", sim.now))
        except Interrupt as i:
            log.append(("interrupted", i.cause))
            yield sim.timeout(5.0)
            log.append(("resumed", sim.now))

    p = sim.process(proc(sim))
    # Interrupt *before* the process's own resume callback runs: the
    # event's callback list is already detached when interrupt() fires.
    ev.callbacks.insert(0, lambda _e: p.interrupt("race"))
    sim.schedule_call(1.0, lambda: ev.succeed("v"))
    # `late` succeeding afterwards must not resume the moved-on process.
    sim.schedule_call(2.0, lambda: late.succeed("stale"))
    sim.run()
    assert log == [("value", "v"), ("interrupted", "race"),
                   ("resumed", 6.0)]


def test_interrupt_before_process_starts_is_catchable_at_first_yield():
    sim = Simulator()
    log = []

    def proc(sim):
        try:
            yield sim.timeout(50.0)
            log.append("slept")
        except Interrupt as i:
            log.append(("interrupted", i.cause, sim.now))

    p = sim.process(proc(sim))
    p.interrupt("early")          # before the bootstrap event has run
    sim.run()
    assert log == [("interrupted", "early", 0.0)]


def test_interrupt_detaches_stale_target_no_resume_after_interrupt():
    # After an interrupt, the abandoned wait target firing later must not
    # resume the process (the seed kernel left it attached in some races).
    sim = Simulator()
    log = []
    first = sim.event()

    def proc(sim):
        try:
            yield first
            log.append("first")
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield sim.timeout(10.0)
        log.append(("after", sim.now))

    p = sim.process(proc(sim))
    sim.schedule_call(1.0, lambda: p.interrupt())
    sim.schedule_call(2.0, lambda: first.succeed("zombie"))
    sim.run()
    assert log == [("interrupted", 1.0), ("after", 11.0)]


def test_double_interrupt_delivers_both():
    sim = Simulator()
    log = []

    def proc(sim):
        for _ in range(2):
            try:
                yield sim.timeout(100.0)
                log.append("slept")
            except Interrupt as i:
                log.append(("interrupted", i.cause))
        yield sim.timeout(1.0)
        log.append("done")

    p = sim.process(proc(sim))

    def fire(sim):
        yield sim.timeout(1.0)
        p.interrupt("a")
        p.interrupt("b")

    sim.process(fire(sim))
    sim.run()
    assert log == [("interrupted", "a"), ("interrupted", "b"), "done"]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)
        return "ok"

    p = sim.process(quick(sim))
    sim.run()
    p.interrupt("too late")
    sim.run()
    assert p.value == "ok"


# ---------------------------------------------------------------------------
# kernel edge cases exercised by the fast paths
# ---------------------------------------------------------------------------
def test_resume_off_already_processed_failed_event_throws():
    sim = Simulator(strict=False)
    ev = sim.event()
    ev.fail(RuntimeError("old failure"))
    sim.run()                      # process the failure; ev is now stale
    caught = []

    def late(sim):
        yield sim.timeout(3.0)
        try:
            yield ev               # already processed *and* failed
        except RuntimeError as e:
            caught.append((str(e), sim.now))

    sim.process(late(sim))
    sim.run()
    assert caught == [("old failure", 3.0)]


def test_all_of_with_prefailed_child_fails_immediately():
    sim = Simulator(strict=False)
    bad = sim.event()
    bad.fail(RuntimeError("pre-failed"))
    sim.run()
    assert bad.processed and not bad.ok
    caught = []

    def waiter(sim):
        try:
            yield AllOf(sim, [sim.timeout(5.0), bad])
        except RuntimeError as e:
            caught.append((str(e), sim.now))

    sim.process(waiter(sim))
    sim.run()
    assert caught == [("pre-failed", 0.0)]


def test_any_of_with_prefailed_child_fails_immediately():
    sim = Simulator(strict=False)
    bad = sim.event()
    bad.fail(RuntimeError("pre-failed any"))
    sim.run()
    caught = []

    def waiter(sim):
        try:
            yield AnyOf(sim, [sim.timeout(5.0), bad])
        except RuntimeError as e:
            caught.append(str(e))

    sim.process(waiter(sim))
    sim.run()
    assert caught == ["pre-failed any"]


def test_any_of_with_preprocessed_ok_child_triggers_at_construction():
    sim = Simulator()
    won = sim.event()
    won.succeed("early")
    sim.run()
    got = []

    def waiter(sim):
        ev, value = yield AnyOf(sim, [sim.timeout(9.0), won])
        got.append((ev is won, value, sim.now))

    sim.process(waiter(sim))
    sim.run()
    assert got == [(True, "early", 0.0)]


def test_run_until_deadline_processes_urgent_ties_at_deadline():
    # A process completing at exactly the deadline schedules an URGENT wake
    # at t == deadline; ``run(until=deadline)`` must process it (ties at the
    # deadline are inside the window) while leaving anything beyond it.
    sim = Simulator()
    order = []

    def child(sim):
        yield sim.timeout(5.0)
        return "done"

    def parent(sim):
        v = yield sim.process(child(sim))
        order.append(("urgent-completion", sim.now, v))

    sim.process(parent(sim))
    sim.schedule_call(5.0, lambda: order.append(("normal", sim.now)))
    sim.schedule_call(5.0001, lambda: order.append(("beyond", sim.now)))
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert order == [("normal", 5.0), ("urgent-completion", 5.0, "done")]
    sim.run()
    assert order[-1] == ("beyond", 5.0001)


def test_peek_on_empty_heap_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")
    assert sim.next_key() is None
    assert sim._heap == [] and sim._idle == []
    sim.run()                      # running an empty sim is a no-op
    assert sim.now == 0.0 and sim.peek() == float("inf")


def test_schedule_calls_batch_matches_individual_calls():
    sim = Simulator()
    out = []
    evs = sim.schedule_calls([(3.0, lambda: out.append("c")),
                              (1.0, lambda: out.append("a")),
                              (2.0, lambda: out.append("b"))])
    assert len(evs) == 3 and all(e.triggered for e in evs)
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.event_count == 3


def test_schedule_calls_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_calls([(1.0, lambda: None), (-0.5, lambda: None)])


def test_schedule_call_result_is_waitable_event():
    sim = Simulator()
    out = []
    ev = sim.schedule_call(2.0, lambda: out.append("ran"))

    def waiter(sim):
        yield ev
        out.append(("woke", sim.now))

    sim.process(waiter(sim))
    sim.run()
    assert out == ["ran", ("woke", 2.0)]


def test_co_temporal_order_urgent_then_deliveries_by_key_then_normal():
    # At one timestamp: URGENT wake-ups run first, then wire deliveries
    # in (src, per-src seq) key order whatever order they were scheduled
    # in, then NORMAL events in scheduling order.
    sim = Simulator()
    order = []

    def burst():
        sim.schedule_call(0.0, lambda: order.append("normal-1"))
        for key in ((2, 0), (0, 1), (1, 0), (0, 0)):
            sim.schedule_delivery(0.0, order.append, ("dlv",) + key, key)
        sim.schedule_call(0.0, lambda: order.append("normal-2"))
        ev = sim.event()
        ev.add_callback(lambda _ev: order.append("urgent"))
        ev.succeed(priority=URGENT)

    sim.schedule_call(2.0, burst)
    # Two deliveries due at t=7: the higher key is scheduled first, at t=0.
    sim.schedule_delivery(7.0, order.append, ("late", 1, 0), (1, 0))
    sim.schedule_call(3.0, lambda: sim.schedule_delivery(
        4.0, order.append, ("late", 0, 5), (0, 5)))
    sim.run()
    assert order == ["urgent",
                     ("dlv", 0, 0), ("dlv", 0, 1), ("dlv", 1, 0),
                     ("dlv", 2, 0),
                     "normal-1", "normal-2",
                     ("late", 0, 5), ("late", 1, 0)]
    assert sim.now == 7.0
