"""Tests for worker-thread scheduling internals."""

import pytest

from repro import LAPTOP, make_runtime
from repro.hpx_rt import EXPANSE
from repro.hpx_rt.scheduler import Scheduler
from repro.hpx_rt.task import Task
from repro.sim import Event, Simulator


# ---------------------------------------------------------------------------
# Scheduler data structure
# ---------------------------------------------------------------------------
def test_scheduler_fifo_order():
    sim = Simulator()
    sched = Scheduler(sim)
    for i in range(3):
        sched.push(Task(lambda w, i: None, i))
    args = [sched.try_pop().arg for _ in range(3)]
    assert args == [0, 1, 2]
    assert sched.try_pop() is None
    assert sched.stats.counters["tasks_pushed"] == 3


def test_scheduler_notify_wakes_one_sleeper():
    sim = Simulator()
    sched = Scheduler(sim)
    evs = [Event(sim) for _ in range(3)]
    for ev in evs:
        sched.register_sleeper(ev)
    sched.notify()
    sim.run()
    assert sum(1 for ev in evs if ev.triggered) == 1


def test_scheduler_notify_skips_stale_entries():
    sim = Simulator()
    sched = Scheduler(sim)
    stale = Event(sim)
    live = Event(sim)
    sched.register_sleeper(stale)
    sched.register_sleeper(live)
    stale.succeed()          # woken by a timeout elsewhere
    sched.notify()           # must not crash, must wake `live`
    assert live.triggered


def test_scheduler_notify_all():
    sim = Simulator()
    sched = Scheduler(sim)
    evs = [Event(sim) for _ in range(4)]
    for ev in evs:
        sched.register_sleeper(ev)
    sched.notify_all()
    assert all(ev.triggered for ev in evs)


def test_unregister_sleeper_tolerates_missing():
    sim = Simulator()
    sched = Scheduler(sim)
    ev = Event(sim)
    sched.unregister_sleeper(ev)  # no-op, no exception


@pytest.mark.parametrize("rng_seed", [3, 17, 101, 2024])
def test_sleeper_cancellation_order_matches_linear_reference(rng_seed):
    """Tombstoned wake list == the seed's O(n) list under random churn.

    The scheduler replaced ``deque.remove`` (O(n) per timed-out sleeper)
    with lazy tombstones plus periodic compaction.  That is purely a
    representation change: under any interleaving of register /
    unregister / notify the same events must wake, in the same order, as
    the seed's plain remove-from-list implementation.
    """
    import random

    rng = random.Random(rng_seed)
    sim = Simulator()
    sched = Scheduler(sim)
    reference = []          # the seed behaviour: a list with .remove()
    cancelled = []
    for _ in range(800):
        op = rng.random()
        if op < 0.45 or not reference:
            ev = Event(sim)
            sched.register_sleeper(ev)
            reference.append(ev)
        elif op < 0.75:
            # a sleeper times out and withdraws (cancellation path)
            ev = reference.pop(rng.randrange(len(reference)))
            sched.unregister_sleeper(ev)
            cancelled.append(ev)
        else:
            n = rng.randrange(1, 4)
            expect, rest = reference[:n], reference[n:]
            sched.notify(n)
            # exactly the first n live sleepers woke — FIFO order held
            # at every step pins the global wake order
            assert all(ev.triggered for ev in expect)
            assert not any(ev.triggered for ev in rest)
            reference = rest
    sched.notify_all()
    assert all(ev.triggered for ev in reference)
    assert not any(ev.triggered for ev in cancelled)


# ---------------------------------------------------------------------------
# Worker behaviour
# ---------------------------------------------------------------------------
def test_tasks_execute_on_multiple_workers():
    rt = make_runtime("lci", platform=LAPTOP, n_localities=1)
    done = rt.new_latch(8)
    cores = set()

    def job(worker):
        cores.add(worker.core_id)
        yield worker.cpu(50.0)
        done.count_down()

    rt.boot()
    for _ in range(8):
        rt.locality(0).spawn(job)
    rt.run_until(done)
    # 4 cores -> parallel execution across more than one worker
    assert len(cores) > 1


def test_parallel_speedup_from_workers():
    def span(n_tasks):
        rt = make_runtime("lci", platform=LAPTOP, n_localities=1)
        done = rt.new_latch(n_tasks)

        def job(worker):
            yield worker.cpu(100.0)
            done.count_down()

        rt.boot()
        for _ in range(n_tasks):
            rt.locality(0).spawn(job)
        rt.run_until(done)
        return rt.now

    # 4 tasks on 4 cores take about as long as 1 task, not 4x
    assert span(4) < 2.0 * span(1)


def test_compute_granular_interleaves_background():
    rt = make_runtime("lci_psr_cq_pin_i", platform=EXPANSE, n_localities=1)
    done = rt.new_latch(1)

    def job(worker):
        yield from worker.compute_granular(8000.0)  # several slices
        done.count_down()

    rt.boot()
    rt.locality(0).spawn(job)
    rt.run_until(done)
    w = rt.localities[0].workers[0]
    # compute time recorded is weight-scaled
    assert w.stats.accum["compute_us"] == pytest.approx(
        8000.0 / EXPANSE.thread_weight)
    # virtual time exceeds the pure compute (background slices ran)
    assert rt.now > 8000.0 / EXPANSE.thread_weight


def test_idle_workers_sleep_not_spin():
    """An idle runtime must not burn unbounded events."""
    rt = make_runtime("lci", platform=LAPTOP, n_localities=1)
    rt.boot()
    rt.run_until(50_000.0, max_events=30_000)  # 50 ms idle
    # exponential backoff keeps the event count tiny
    assert rt.sim.event_count < 30_000


def test_worker_wakes_quickly_on_task_arrival():
    rt = make_runtime("lci", platform=LAPTOP, n_localities=1)
    rt.boot()
    rt.run_until(30_000.0)   # let workers back off deeply
    done = rt.new_future()

    def job(worker):
        done.set_result(rt.now)
        return None

    t0 = rt.now
    rt.locality(0).spawn(job)
    finished = rt.run_until(done)
    assert finished - t0 < 50.0  # notify bypasses the long poll backoff
