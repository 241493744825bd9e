"""Tests for the HPX-like runtime: scheduler, futures, actions, parcel layer."""

import gc
import tracemalloc

import pytest

from repro import LAPTOP, make_runtime
from repro.hpx_rt import (EXPANSE, Future, Latch, Parcel, ROSTAM,
                          platform_by_name, serialize_parcels)
from repro.hpx_rt.scheduler import Worker
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# futures / latches
# ---------------------------------------------------------------------------
def test_future_set_and_wait():
    sim = Simulator()
    fut = Future(sim)
    got = []

    def waiter(sim):
        got.append((yield fut.wait()))

    sim.process(waiter(sim))
    sim.schedule_call(2.0, lambda: fut.set_result("v"))
    sim.run()
    assert got == ["v"]
    assert fut.done and fut.value == "v"


def test_future_wait_after_done_is_immediate():
    sim = Simulator()
    fut = Future(sim)
    fut.set_result(7)
    assert fut.wait().triggered


def test_future_double_set_raises():
    sim = Simulator()
    fut = Future(sim)
    fut.set_result(1)
    with pytest.raises(RuntimeError):
        fut.set_result(2)


def test_future_value_before_done_raises():
    sim = Simulator()
    fut = Future(sim)
    with pytest.raises(RuntimeError):
        _ = fut.value


def test_future_fanout_to_multiple_waiters():
    sim = Simulator()
    fut = Future(sim)
    got = []

    def waiter(sim, tag):
        got.append((tag, (yield fut.wait())))

    sim.process(waiter(sim, "a"))
    sim.process(waiter(sim, "b"))
    sim.schedule_call(1.0, lambda: fut.set_result("x"))
    sim.run()
    assert sorted(got) == [("a", "x"), ("b", "x")]


def test_latch_counts_down():
    sim = Simulator()
    latch = Latch(sim, 3)
    assert not latch.open
    latch.count_down()
    latch.count_down(2)
    assert latch.open
    assert latch.wait().triggered


def test_latch_zero_opens_immediately():
    sim = Simulator()
    assert Latch(sim, 0).open


def test_latch_overshoot_raises():
    sim = Simulator()
    latch = Latch(sim, 1)
    latch.count_down()
    with pytest.raises(RuntimeError):
        latch.count_down()


# ---------------------------------------------------------------------------
# runtime basics
# ---------------------------------------------------------------------------
def test_platform_lookup():
    assert platform_by_name("expanse") is EXPANSE
    assert platform_by_name("rostam") is ROSTAM
    with pytest.raises(KeyError):
        platform_by_name("summit")


def test_platform_thread_weight():
    assert EXPANSE.thread_weight == 8.0
    assert ROSTAM.thread_weight == 4.0
    assert EXPANSE.sim_cores_per_node * EXPANSE.thread_weight == 128


def test_runtime_rejects_excess_localities():
    with pytest.raises(ValueError, match="at most"):
        make_runtime("lci", platform=LAPTOP, n_localities=100)


def test_duplicate_action_registration_rejected():
    rt = make_runtime("lci", platform=LAPTOP)
    rt.register_action("a", lambda w: None)
    with pytest.raises(ValueError):
        rt.register_action("a", lambda w: None)


def test_unregistered_action_apply_raises():
    rt = make_runtime("lci", platform=LAPTOP)
    rt.boot()

    def task(worker):
        yield from rt.locality(0).apply(worker, 1, "missing", ())

    rt.locality(0).spawn(task)
    with pytest.raises(KeyError, match="missing"):
        rt.run_until(rt.sim.now + 1000.0)


def test_double_boot_rejected():
    rt = make_runtime("lci", platform=LAPTOP)
    rt.boot()
    with pytest.raises(RuntimeError):
        rt.boot()


def test_local_action_short_circuits_network():
    rt = make_runtime("lci", platform=LAPTOP, n_localities=2)
    done = rt.new_future()

    def handler(worker, v):
        done.set_result(v)
        return None

    rt.register_action("local", handler)

    def task(worker):
        yield from rt.locality(0).apply(worker, 0, "local", (42,))

    rt.boot()
    rt.locality(0).spawn(task)
    assert rt.run_until(done) == 42
    assert rt.fabric.stats.counters.get("msgs", 0) == 0  # nothing on wire


def test_action_decorator_form():
    rt = make_runtime("lci", platform=LAPTOP)
    done = rt.new_future()

    @rt.action("decorated")
    def handler(worker, v):
        done.set_result(v + 1)
        return None

    def task(worker):
        yield from rt.locality(0).apply(worker, 1, "decorated", (1,))

    rt.boot()
    rt.locality(0).spawn(task)
    assert rt.run_until(done) == 2


def test_remote_action_roundtrip_with_reply():
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP, n_localities=2)
    done = rt.new_future()

    def echo(worker, v):
        yield from worker.locality.apply(worker, 0, "reply", (v * 2,))

    def reply(worker, v):
        done.set_result(v)
        return None

    rt.register_action("echo", echo)
    rt.register_action("reply", reply)

    def task(worker):
        yield from rt.locality(0).apply(worker, 1, "echo", (21,))

    rt.boot()
    rt.locality(0).spawn(task)
    assert rt.run_until(done, max_events=100000) == 42


def test_worker_cpu_returns_bare_charge():
    rt = make_runtime("lci", platform=EXPANSE, n_localities=2)
    rt.boot()
    w = rt.localities[0].workers[0]
    # cpu returns the bare charge (the kernel's float fast path schedules
    # it exactly like a timeout of the same delay)
    assert w.cpu(5.0) == 5.0


def test_aggregate_stats_merge():
    rt = make_runtime("lci", platform=LAPTOP, n_localities=2)
    done = rt.new_latch(5)

    def sink(worker, i):
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def task(worker):
        for i in range(5):
            yield from rt.locality(0).apply(worker, 1, "sink", (i,))

    rt.boot()
    rt.locality(0).spawn(task)
    rt.run_until(done, max_events=100000)
    stats = rt.aggregate_stats()
    assert stats.counters["parcels_created"] == 5
    assert stats.counters["parcels_executed"] == 5


# ---------------------------------------------------------------------------
# parcel layer: aggregation vs immediate
# ---------------------------------------------------------------------------
def _run_batch(config, n=40):
    rt = make_runtime(config, platform=LAPTOP, n_localities=2)
    done = rt.new_latch(n)

    def sink(worker, i):
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def burst(worker):
        for i in range(n):
            yield from rt.locality(0).apply(worker, 1, "sink", (i,))

    rt.boot()
    # several concurrent producer tasks -> aggregation opportunity
    for _ in range(4):
        rt.locality(0).spawn(burst)
    rt.run_until(rt.new_latch(0).wait() if False else done,
                 max_events=2_000_000)
    return rt


def test_default_mode_aggregates_parcels():
    rt = _run_batch("lci_psr_cq_pin", n=40)
    layer = rt.localities[0].parcel_layer
    assert layer.stats.counters["parcels_sent"] == 160
    # queue + bounded connections must have batched at least some sends
    assert layer.stats.counters["messages_sent"] < 160
    assert layer.aggregation_ratio() > 1.0


def test_immediate_mode_never_aggregates():
    rt = _run_batch("lci_psr_cq_pin_i", n=40)
    layer = rt.localities[0].parcel_layer
    assert layer.stats.counters["messages_sent"] == 160
    assert layer.aggregation_ratio() == 1.0


def test_aggregation_preserves_parcel_multiset():
    rt = make_runtime("mpi", platform=LAPTOP, n_localities=2)
    seen = []
    done = rt.new_latch(30)

    def sink(worker, i):
        seen.append(i)
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def burst(worker, base):
        for i in range(10):
            yield from rt.locality(0).apply(worker, 1, "sink", (base + i,))

    rt.boot()
    for b in (0, 100, 200):
        rt.locality(0).spawn(lambda w, b=b: burst(w, b))
    rt.run_until(done, max_events=2_000_000)
    assert sorted(seen) == sorted(list(range(0, 10))
                                  + list(range(100, 110))
                                  + list(range(200, 210)))


def test_queued_parcel_task_footprint():
    """A queued local parcel is its own scheduler-queue entry: one
    GC-tracked object and at most 200 B each, with no Task, bound method
    or trace id beside it (Octo-Tiger queues ~60 k of these)."""
    n = 20_000
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP, n_localities=2)
    rt.register_action("noop", lambda worker, x: None)
    loc = rt.locality(0)
    worker = Worker(loc, 0)

    def queue(count):
        for i in range(count):
            for _ in loc.apply(worker, 0, "noop", (i,)):
                pass

    queue(100)  # first-use state: stat keys, scheduler deque
    gc.collect()
    objects0 = len(gc.get_objects())
    tracemalloc.start()
    try:
        queue(n)
        gc.collect()
        nbytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    objects = len(gc.get_objects()) - objects0
    assert loc.sched.pending() == n + 100
    assert objects / n < 1.01, objects / n  # slack: incidental objects
    assert nbytes / n <= 200, nbytes / n
    entries = [loc.sched.try_pop() for _ in range(n + 100)]
    assert all(type(e) is Parcel for e in entries)
    assert [e.args for e in entries[100:]] == [(i,) for i in range(n)]
    # untraced: no trace id is drawn
    assert rt.obs is None and all(e.pid == 0 for e in entries)


def test_worker_runs_tasks_parcels_and_messages_in_fifo_order():
    """Tasks, local parcels and received HPX messages share one FIFO
    queue: the worker runs each body once, in push order, and a message's
    parcels queue when its decode runs."""
    one_core = LAPTOP.with_(phys_cores_per_node=1, sim_cores_per_node=1)
    rt = make_runtime("mpi_i", platform=one_core, n_localities=2)
    ran = []
    done = rt.new_latch(5)

    def record(worker, tag):
        ran.append(tag)
        done.count_down()

    rt.register_action("record", record)
    rt.boot()
    loc = rt.locality(0)
    loc.spawn(record, "task")
    loc.sched.push(Parcel("record", dest=0, src=0, args=("parcel",)))
    loc.on_message(serialize_parcels(
        [Parcel("record", dest=0, src=1, args=(tag,)) for tag in ("m0", "m1")],
        rt.cost))
    loc.spawn(record, "after")
    rt.run_until(done)
    assert ran == ["task", "parcel", "after", "m0", "m1"]
    assert [w.stats.counters["tasks_run"] for w in loc.workers] == [6]
    assert loc.sched.pending() == 0
