"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import SimulationError, Simulator, SpinLock
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


def test_process_exception_propagates_in_strict_mode():
    sim = Simulator()

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
# kernel edge cases exercised by the fast paths
# ---------------------------------------------------------------------------
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
