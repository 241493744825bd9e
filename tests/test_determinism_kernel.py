"""Determinism contract of the kernel fast paths.

The optimised kernel in :mod:`repro.sim.core` must produce **bit-identical**
schedules to the frozen pre-optimisation copy in
:mod:`repro.sim._seed_kernel`: the same ``(time, priority, seq)`` pop order,
the same ``event_count``, and the same simulated results.  These tests
replay identical workloads on both kernels step-by-step and compare the
traced schedules, then pin a set of end-to-end golden values captured from
the seed kernel.

The deliberate behaviour fix (the ``max_events`` off-by-one) is excluded
here — it is covered by regression tests in ``tests/test_sim_core.py``.

The seed kernel has no idle :class:`~repro.sim.core.Sleeper` and no
:class:`~repro.sim.core.LockGrant`; its workloads run the seed-era
spellings there, ``AnyOf([wake, Timeout])`` and an ``Event`` that a
``schedule_call`` triggers one CAS later.
"""

from collections import deque

import pytest

import repro.sim._seed_kernel as seed_kernel
import repro.sim.core as live_kernel
from repro.hpx_rt.scheduler import Scheduler
from repro.sim.primitives import SpinLock


def next_key(sim):
    """The next record's ``(time, priority, seq)``, or None: asked of the
    live kernel, which merges its idle-timer heap, and read off the seed
    kernel's single heap."""
    if hasattr(sim, "next_key"):
        return sim.next_key()
    return sim._heap[0][:3] if sim._heap else None


def trace_schedule(mod, build):
    """Run ``build(sim, mod)`` then drain the sim via ``step()``, recording
    the ``(time, priority, seq)`` triple of every processed event."""
    sim = mod.Simulator()
    build(sim, mod)
    sched = []
    key = next_key(sim)
    while key is not None:
        sched.append(key)
        sim.step()
        key = next_key(sim)
    return sched, sim.now, sim.event_count


def assert_identical_schedule(build):
    new = trace_schedule(live_kernel, build)
    old = trace_schedule(seed_kernel, build)
    assert new[0] == old[0], "schedule (time, priority, seq) diverged"
    assert new[1] == old[1], "final virtual time diverged"
    assert new[2] == old[2], "event_count diverged"
    return new


# ---------------------------------------------------------------------------
# kernel workloads
# ---------------------------------------------------------------------------
def build_timeout_storm(sim, mod):
    def proc(sim, k, d):
        for i in range(k):
            yield sim.timeout(d * (1 + (i % 3)))
    for j in range(5):
        sim.process(proc(sim, 40, 0.5 + 0.25 * j))


def build_process_chain(sim, mod):
    def child(sim, depth):
        yield sim.timeout(1.0)
        if depth:
            v = yield sim.process(child(sim, depth - 1))
            return v + 1
        return 0
    def root(sim):
        v = yield sim.process(child(sim, 10))
        assert v == 10
    sim.process(root(sim))


def build_process_ping_pong(sim, mod):
    # spawn/complete churn: each round pays a boot and a completion wake
    def child(sim):
        yield sim.timeout(0.1)
        return 1
    def parent(sim, k):
        total = 0
        for _ in range(k):
            total += yield sim.process(child(sim))
        assert total == k
    sim.process(parent(sim, 60))


def build_already_processed_resume(sim, mod):
    done = sim.event()
    done.succeed("early")
    def late(sim):
        yield sim.timeout(2.0)
        v = yield done            # already processed: resume-wake fast path
        assert v == "early"
        yield done                # and again
    sim.process(late(sim))
    sim.process(late(sim))


def build_schedule_call_chains(sim, mod):
    out = []
    def hop(i):
        if i < 30:
            sim.schedule_call(0.5 * (i % 5), lambda: hop(i + 1))
        out.append(i)
    sim.schedule_call(1.0, lambda: hop(0))
    def proc(sim):
        yield sim.timeout(4.0)
        sim.schedule_call(0.0, lambda: out.append("zero-delay"))
    sim.process(proc(sim))


def build_urgent_ties(sim, mod):
    order = []
    def quick(sim, tag):
        yield sim.timeout(5.0)
        order.append(tag)        # completion wakes are URGENT at t=5
    for tag in range(8):
        sim.process(quick(sim, tag))
    sim.schedule_call(5.0, lambda: order.append("normal"))


# -- live-kernel wait forms, spelled the seed's way on the seed kernel ------
def delay(sim, mod, d):
    """A bare-delay wait: the float fast path live, a Timeout on the seed."""
    return d if mod is live_kernel else sim.timeout(d)


def nap(sim, mod, sched, d):
    """Generator: one idle sleep as ``Worker._run`` takes it — a Sleeper
    live, ``AnyOf([wake, Timeout(d)])`` on the seed — registered with
    ``sched`` while it lasts."""
    if mod is live_kernel:
        wait = wake = live_kernel.Sleeper(sim, d)
    else:
        wake = mod.Event(sim)
        wait = mod.AnyOf(sim, [wake, sim.timeout(d)])
    sched.register_sleeper(wake)
    yield wait
    sched.unregister_sleeper(wake)
    return wake


def build_sleep_woken_before_timer(sim, mod):
    # every nap is notified long before its timer: wake, then resume,
    # records pop first and the timer pops stale later
    sched = Scheduler(sim)
    woken = []

    def napper(sim):
        for _ in range(6):
            wake = yield from nap(sim, mod, sched, 8.0)
            woken.append(wake.triggered)
            yield delay(sim, mod, 0.5)

    def waker(sim):
        for _ in range(6):
            yield delay(sim, mod, 1.5)
            sched.notify()

    sim.process(napper(sim))
    sim.process(waker(sim))
    return woken


def build_sleep_woken_by_timer(sim, mod):
    # backed-off naps that only their timers end; each leaves a stale
    # entry in the scheduler's wake list
    sched = Scheduler(sim)
    woken = []

    def napper(sim, first):
        d = first
        for _ in range(5):
            wake = yield from nap(sim, mod, sched, d)
            woken.append(wake.triggered)
            d *= 2.0

    sim.process(napper(sim, 0.5))
    sim.process(napper(sim, 0.75))
    return woken


def build_sleep_notified_at_deadline(sim, mod):
    # notifies that land exactly on a nap's deadline.  One scheduled after
    # the nap pops after its timer, which already pushed the resume
    # record, and before that record: it wakes a fired sleeper, and its
    # wake record pops as a no-op.  One scheduled before the nap pops
    # before the timer, which then pops as the no-op.
    sched = Scheduler(sim)
    woken = []

    def notify_at_deadline():
        sim.schedule_call(2.0, sched.notify)

    def napper(sim):
        for i in range(6):
            if i % 2:
                notify_at_deadline()
            else:
                # runs once the nap below is made
                sim.schedule_call(0.0, notify_at_deadline)
            wake = yield from nap(sim, mod, sched, 2.0)
            woken.append(wake.triggered)
            yield delay(sim, mod, 1.0)

    sim.process(napper(sim))
    return woken


class SeedLock:
    """The FIFO spin lock of the seed era: an ``Event`` per acquire,
    triggered one CAS (``cost``) after the acquire or the hand-off."""

    def __init__(self, sim, cost):
        self.sim = sim
        self.cost = cost
        self.locked = False
        self.max_queue = 0
        self._waiters = deque()

    def acquire(self):
        ev = self.sim.event()
        if self.locked:
            self._waiters.append(ev)
            self.max_queue = max(self.max_queue, len(self._waiters))
        else:
            self.locked = True
            self.sim.schedule_call(self.cost, ev.succeed)
        return ev

    def release(self):
        if self._waiters:
            self.sim.schedule_call(self.cost, self._waiters.popleft().succeed)
        else:
            self.locked = False


def spin_lock(sim, mod, cost):
    """A lock: a SpinLock live, a SeedLock on the seed."""
    if mod is live_kernel:
        return SpinLock(sim, acquire_cost=cost)
    return SeedLock(sim, cost)


def build_lock_uncontended(sim, mod):
    # one process takes and drops the lock round after round: every
    # grant is pushed by acquire() itself, with and without a CAS cost
    locks = [spin_lock(sim, mod, 0.02), spin_lock(sim, mod, 0.0)]

    def proc(sim):
        for i in range(8):
            lock = locks[i % 2]
            yield lock.acquire()
            yield delay(sim, mod, 0.5 + 0.25 * (i % 3))
            lock.release()
            yield delay(sim, mod, 1.0)

    sim.process(proc(sim))
    return locks


def lock_contention(cost):
    """Four processes with different hold times and gaps on one lock:
    after the first acquire, nearly every grant is a hand-off."""
    def build(sim, mod):
        lock = spin_lock(sim, mod, cost)

        def proc(sim, hold, gap, rounds):
            for _ in range(rounds):
                yield lock.acquire()
                yield delay(sim, mod, hold)
                lock.release()
                if gap:
                    yield delay(sim, mod, gap)

        for hold, gap, rounds in ((1.0, 0.0, 6), (0.25, 0.5, 8),
                                  (2.5, 0.0, 4), (0.5, 3.0, 7)):
            sim.process(proc(sim, hold, gap, rounds))
        return [lock]

    build.__name__ = f"build_lock_contended_cost_{cost}"
    return build


build_lock_contended_free = lock_contention(0.0)
build_lock_contended_cas = lock_contention(0.02)


WORKLOADS = [build_timeout_storm, build_process_chain,
             build_process_ping_pong, build_already_processed_resume,
             build_schedule_call_chains, build_urgent_ties,
             build_sleep_woken_before_timer, build_sleep_woken_by_timer,
             build_sleep_notified_at_deadline, build_lock_uncontended,
             build_lock_contended_free, build_lock_contended_cas]


@pytest.mark.parametrize("build", WORKLOADS,
                         ids=lambda b: b.__name__.replace("build_", ""))
def test_schedule_bit_identical_to_seed_kernel(build):
    sched, _now, count = assert_identical_schedule(build)
    assert count == len(sched) and count > 0
    # seq values strictly increase within one (time, priority) tie class
    by_key = {}
    for t, prio, seq in sched:
        key = (t, prio)
        assert by_key.get(key, -1) < seq
        by_key[key] = seq


def test_sleep_workloads_reach_every_path(monkeypatch):
    """The idle-sleep inputs above exercise what they claim to: sleeps
    ended by a notify, by the timer, and by a notify at the deadline both
    before and after the timer popped."""
    def run(build):
        sim = live_kernel.Simulator()
        out = build(sim, live_kernel)
        sim.run()
        return out

    notified = []
    succeed = live_kernel.Sleeper.succeed

    def logged_succeed(self):
        notified.append(self.fired)
        return succeed(self)

    monkeypatch.setattr(live_kernel.Sleeper, "succeed", logged_succeed)
    assert run(build_sleep_woken_before_timer) == [True] * 6
    assert notified == [False] * 6
    notified.clear()
    assert run(build_sleep_woken_by_timer) == [False] * 10
    assert notified == []
    assert run(build_sleep_notified_at_deadline) == [True] * 6
    assert notified == [True, False] * 3


@pytest.mark.parametrize("build,max_queue", [
    (build_lock_uncontended, [0, 0]),
    (build_lock_contended_free, [3]),
    (build_lock_contended_cas, [3]),
])
def test_lock_workloads_contend_as_claimed(build, max_queue):
    """The uncontended lock input never queues a waiter; the contended
    ones queue all three other processes behind the holder."""
    for mod in (live_kernel, seed_kernel):
        sim = mod.Simulator()
        locks = build(sim, mod)
        sim.run()
        assert [lock.max_queue for lock in locks] == max_queue
        assert not any(lock.locked for lock in locks)


# ---------------------------------------------------------------------------
# run() against step(): the run loop resumes processes itself, step() is
# the reference dispatch
# ---------------------------------------------------------------------------
def logged(gen, sim, name, log):
    """Drive ``gen`` as its process would, appending ``(now, name,
    sim._seq)`` to ``log`` at every resume."""
    value = None
    while True:
        log.append((sim.now, name, sim._seq))
        try:
            nxt = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield nxt


def resume_log(build, drive):
    """Build ``build`` on a live simulator whose processes log every
    resume and drive it with ``drive(sim, built)``; return the log and
    the final ``(now, event_count, _seq)``."""
    sim = live_kernel.Simulator()
    log = []
    make = sim.process

    def process(gen, name=""):
        name = name or gen.__name__
        return make(logged(gen, sim, name, log), name)

    sim.process = process
    drive(sim, build(sim, live_kernel))
    return log, (sim.now, sim.event_count, sim._seq)


def run_to_end(sim, _built):
    sim.run()


def step_to_end(sim, _built):
    while sim.next_key() is not None:
        sim.step()


def build_cotemporal_hand_overs(sim, mod):
    # Two hand-overs with other records due at the same instant, which a
    # waiter resumed straight off its grant would overtake.  At 2.0 a
    # lock grant pops ahead of a later-seq NORMAL call, which pushes an
    # URGENT wake and a zero-delay wire delivery; all three run before
    # the grant's resume record.  At 4.0 a grant pops ahead of a
    # sleeper's timer on the idle heap, whose hand-over takes the next
    # seq before the grant's waiter resumes.
    lock = SpinLock(sim, acquire_cost=0.5)
    ev = sim.event()
    order = []

    def waiter(sim):
        yield 1.5
        yield lock.acquire()             # grant at (2.0, NORMAL)
        order.append(("granted", sim.now))
        yield 1.5
        lock.release()
        yield lock.acquire()             # grant at (4.0, NORMAL)
        order.append(("granted", sim.now))
        lock.release()

    def woken(sim):
        yield ev
        order.append(("urgent", sim.now))

    def at_two():
        order.append(("call", sim.now))
        ev.succeed(priority=live_kernel.URGENT)
        sim.schedule_delivery(0.0, order.append, ("delivery", sim.now),
                              (0, 0))

    def caller(sim):
        yield 1.5                        # resumes after the acquire
        sim.schedule_call(0.5, at_two)   # (2.0, NORMAL), later seq
        yield 2.0
        yield 0.0                        # resumes after the acquire
        yield live_kernel.Sleeper(sim, 0.5)     # timer at 4.0
        order.append(("slept", sim.now))

    sim.process(waiter(sim))
    sim.process(woken(sim))
    sim.process(caller(sim))
    return order


#: inputs for the run/step tie only: the seed kernel has no wire
#: delivery priority, no Sleeper and no LockGrant
RUN_STEP_ONLY = [build_cotemporal_hand_overs]


@pytest.mark.parametrize("build", WORKLOADS + RUN_STEP_ONLY,
                         ids=lambda b: b.__name__.replace("build_", ""))
def test_run_resumes_as_step_does(build):
    """Every process resumes at the same time and with the same seqs
    allocated before it under run() as under step(), and both end on
    the same ``(now, event_count, _seq)``."""
    by_run = resume_log(build, run_to_end)
    by_step = resume_log(build, step_to_end)
    assert by_run[0] == by_step[0], "resume log diverged"
    assert by_run[1] == by_step[1], "final (now, event_count, _seq) diverged"
    assert by_run[0]


def test_cotemporal_hand_overs_resume_in_seq_order():
    """In the co-temporal input, what is due at a grant's instant runs
    before its waiter resumes, under run() as under step()."""
    expected = [("call", 2.0), ("urgent", 2.0), ("delivery", 2.0),
                ("granted", 2.0), ("granted", 4.0), ("slept", 4.0)]
    for drive in (run_to_end, step_to_end):
        sim = live_kernel.Simulator()
        order = build_cotemporal_hand_overs(sim, live_kernel)
        drive(sim, order)
        assert order == expected


def snapshot(sim):
    return sim.now, sim.event_count, sim._seq, sim.next_key()


def first_hand_over(build):
    """Steps until the first lock grant has popped: the count and the
    state, whose next record is the waiter's resume record at ``now``."""
    sim = live_kernel.Simulator()
    build(sim, live_kernel)
    n = 0
    while sim._next_heap()[0][3].__class__ is not live_kernel.LockGrant:
        sim.step()
        n += 1
    sim.step()
    record = sim._next_heap()[0]
    assert record[0] == sim.now and record[3].__class__ is live_kernel._Resume
    return n + 1, snapshot(sim)


def test_run_capped_between_hand_over_and_resume():
    """``run(max_events=N)`` that ends on a grant leaves its resume
    record in the heap, as N step()s do, and a later run() picks up from
    there."""
    build = build_lock_contended_cas
    n, after_grant = first_hand_over(build)
    snaps = []

    def capped(sim, _built):
        with pytest.raises(live_kernel.SimulationError, match="max_events"):
            sim.run(max_events=n)
        snaps.append(snapshot(sim))
        sim.run()

    def stepped(sim, _built):
        for _ in range(n):
            sim.step()
        snaps.append(snapshot(sim))
        step_to_end(sim, _built)

    assert resume_log(build, capped) == resume_log(build, stepped)
    assert snaps == [after_grant, after_grant]


def build_lock_workers(sim, mod):
    # two processes share a lock; the shorter one finishes first
    lock = SpinLock(sim, acquire_cost=0.02)

    def worker(sim, hold):
        for _ in range(3):
            yield lock.acquire()
            yield hold
            lock.release()
            yield 0.25
        return hold

    return [sim.process(worker(sim, hold)) for hold in (0.5, 1.0)]


def test_run_until_stops_on_a_process_completion():
    """``run(until=proc)`` stops where stepping until the process's
    completion is processed stops, with the other process mid-run."""
    snaps = []

    def until_first(sim, procs):
        assert sim.run(until=procs[0]) == 0.5
        snaps.append(snapshot(sim))
        sim.run()

    def step_first(sim, procs):
        while not procs[0].processed:
            sim.step()
        snaps.append(snapshot(sim))
        step_to_end(sim, procs)

    assert (resume_log(build_lock_workers, until_first)
            == resume_log(build_lock_workers, step_first))
    assert snaps[0] == snaps[1] and snaps[0][3] is not None


# ---------------------------------------------------------------------------
# end-to-end golden values captured from the seed kernel (pre-fast-path)
# ---------------------------------------------------------------------------
# The event counts pin the schedule's length: a kernel change can keep
# every result while pushing one extra no-op record per rare interleaving.
GOLDEN_MESSAGE_RATE = [
    # (config, inject_time_us, comm_time_us, events) for
    # MessageRateParams(msg_size=8, batch=50, total_msgs=2000,
    #                   inject_rate_kps=200.0), seed=7
    ("mpi", 9942.827805390223, 9953.554842100666, 616718),
    ("mpi_i", 9808.548227200472, 9911.956400001256, 317758),
    ("lci_psr_cq_pin_i", 9788.916742360374, 9815.27039999989, 243812),
    ("lci_sr_sy_mt", 9957.228369905555, 10002.455300129022, 466719),
    ("mpi_orig", 9969.84220000193, 9984.819200002068, 655349),
]

GOLDEN_LATENCY = [
    # (config, total_time_us, events) for LatencyParams(8, window=16,
    # steps=30), seed=7
    ("mpi_i", 2107.6731999998888, 147257),
    ("lci_psr_cq_pin_i", 562.6053963056061, 95818),
]

GOLDEN_OCTOTIGER = [
    # (config, total_time_us, events) for OctoTigerBenchParams(
    # n_localities=2, paper_level=4, n_steps=1), seed=7
    ("mpi_i", 210793.64027123534, 1029072),
    ("lci_psr_cq_pin_i", 203394.30973565462, 679024),
]


@pytest.fixture
def built_sims(monkeypatch):
    """Every Simulator built while the test runs, in order."""
    built = []
    init = live_kernel.Simulator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(live_kernel.Simulator, "__init__", recording_init)
    return built


@pytest.mark.parametrize("cfg,inject_us,comm_us,events", GOLDEN_MESSAGE_RATE,
                         ids=[c[0] for c in GOLDEN_MESSAGE_RATE])
def test_message_rate_results_byte_identical_to_seed(cfg, inject_us,
                                                     comm_us, events,
                                                     built_sims):
    from repro.bench.message_rate import (MessageRateParams,
                                          run_message_rate)
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=2000,
                               inject_rate_kps=200.0)
    res = run_message_rate(cfg, params, seed=7)
    assert res.inject_time_us == inject_us
    assert res.comm_time_us == comm_us
    assert [sim.event_count for sim in built_sims] == [events]


@pytest.mark.parametrize("cfg,total_us,events", GOLDEN_LATENCY,
                         ids=[c[0] for c in GOLDEN_LATENCY])
def test_latency_results_byte_identical_to_seed(cfg, total_us, events,
                                                built_sims):
    from repro.bench.latency import LatencyParams, run_latency
    res = run_latency(cfg, LatencyParams(msg_size=8, window=16, steps=30),
                      seed=7)
    assert res.total_time_us == total_us
    assert [sim.event_count for sim in built_sims] == [events]


@pytest.mark.parametrize("cfg,total_us,events", GOLDEN_OCTOTIGER,
                         ids=[c[0] for c in GOLDEN_OCTOTIGER])
def test_octotiger_results_byte_identical_to_seed(cfg, total_us, events,
                                                  built_sims):
    from repro.bench.octotiger_bench import (OctoTigerBenchParams,
                                             run_octotiger)
    res = run_octotiger(cfg, OctoTigerBenchParams(n_localities=2,
                                                  paper_level=4, n_steps=1),
                        seed=7)
    assert res["total_time_us"] == total_us
    assert [sim.event_count for sim in built_sims] == [events]


# lci_sr_sy_mt at the benchmark's msgrate_8b point: MessageRateParams(
# msg_size=8, batch=50, total_msgs=2500), unlimited injection, seed 7.
# Its workers notify sleepers whose timers already fired, whose wake
# records then pop as no-ops; none of the points above does.  A kernel
# that skipped those records would keep the times and lose the events.
FIRED_SLEEPER_NOTIFY = ("lci_sr_sy_mt", 5182.369999999975, 5599.381897600024,
                        91817, 58)


def test_fired_sleeper_notify_point_pinned(built_sims, monkeypatch):
    from repro.bench.message_rate import (MessageRateParams,
                                          run_message_rate)
    cfg, inject_us, comm_us, events, late = FIRED_SLEEPER_NOTIFY
    notified = []
    succeed = live_kernel.Sleeper.succeed

    def logged_succeed(self):
        notified.append(self.fired)
        return succeed(self)

    monkeypatch.setattr(live_kernel.Sleeper, "succeed", logged_succeed)
    res = run_message_rate(cfg, MessageRateParams(msg_size=8, batch=50,
                                                  total_msgs=2500), seed=7)
    assert res.inject_time_us == inject_us
    assert res.comm_time_us == comm_us
    assert [sim.event_count for sim in built_sims] == [events]
    assert sum(notified) == late
