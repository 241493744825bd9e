"""Collectives + distributed-FFT test battery (``pytest -m collectives``).

Four contracts, mirroring docs/COLLECTIVES.md:

* the root-based data collectives (scatter / gather / all_gather) and
  the direct-exchange ``all_to_all`` move the right values, for any
  payload shape, with out-of-order arrivals and heavy op_id reuse;
* the distributed FFT equals the naive reference DFT on every
  parcelport configuration and locality count, bit-identically across
  configs;
* every run is deterministic — timelines, summaries and figure points
  are replay-identical, including under ``--jobs 2`` and a warm cache;
* the transpose incast survives adversity (drops, slow receivers,
  squeezed pools) exactly-once with conserved credits, and engages the
  flow-control machinery under high offered load.
"""

import math
import random

import pytest

from repro import (FaultPlan, FlowControlPolicy, LAPTOP, ParcelSendError,
                   RetryPolicy, RunOptions, make_runtime)
from repro.apps.fft import (COMPLEX_BYTES, FftConfig, FftDriver, fft,
                            is_pow2, naive_dft, twiddle)
from repro.bench.fft_bench import FftBenchParams, run_fft
from repro.hpx_rt.collectives import Collectives

pytestmark = pytest.mark.collectives

#: three Table-1 configuration families (one-sided LCI, improved MPI
#: with and without immediate completion) — the correctness matrix
CONFIGS = ["lci_psr_cq_pin_i", "mpi_i", "mpi"]


# ---------------------------------------------------------------------------
# harness: run one generator body on every locality
# ---------------------------------------------------------------------------
def run_collective(fn_builder, n_loc=3, config="lci_psr_cq_pin_i",
                   seed=1234, **rt_kw):
    """Boot a runtime, run ``fn_builder(coll, results, worker, lid)``."""
    rt = make_runtime(config, platform=LAPTOP, n_localities=n_loc,
                      seed=seed, **rt_kw)
    coll = Collectives(rt)
    done = rt.new_latch(n_loc)
    results = {}

    def make_task(lid):
        def task(worker):
            yield from fn_builder(coll, results, worker, lid)
            done.count_down()
        return task

    rt.boot()
    for lid in range(n_loc):
        rt.locality(lid).spawn(make_task(lid))
    rt.run_until(done, max_events=5_000_000)
    assert done.open, "collective bodies did not all complete"
    return rt, results


# ---------------------------------------------------------------------------
# the FFT kernel vs the reference DFT (pure math, no runtime)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 128])
def test_fft_kernel_matches_naive_dft(n):
    rng = random.Random(50 + n)
    x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    got = fft(x)
    want = naive_dft(x)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9 * max(1, n)


def test_fft_kernel_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fft([0j] * 12)


def test_is_pow2_and_twiddle_basics():
    assert [m for m in range(1, 9) if is_pow2(m)] == [1, 2, 4, 8]
    assert not is_pow2(0)
    assert twiddle(4, 0) == pytest.approx(1.0)
    assert twiddle(4, 1) == pytest.approx(-1j)
    # twiddle is periodic in the exponent
    assert twiddle(8, 3) == pytest.approx(twiddle(8, 11))


# ---------------------------------------------------------------------------
# scatter / gather / all_gather
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n_loc", [2, 3, 5])
def test_scatter_delivers_indexed_slice(n_loc):
    def body(coll, results, worker, lid):
        values = [f"item{j}" for j in range(n_loc)] if lid == 0 else None
        got = yield from coll.scatter(worker, "sc", values, size=64)
        results[lid] = got

    _, results = run_collective(body, n_loc=n_loc)
    assert results == {lid: f"item{lid}" for lid in range(n_loc)}


def test_scatter_requires_root_values_of_right_length():
    def body(coll, results, worker, lid):
        # the root validates before participating, so peers must not
        # enter the op (they would wait forever on a dead generation)
        if lid == 0:
            with pytest.raises(ValueError):
                yield from coll.scatter(worker, "sc_bad", [1, 2], size=8)
            with pytest.raises(ValueError):
                yield from coll.scatter(worker, "sc_none", None, size=8)
        yield worker.cpu(1.0)

    run_collective(body, n_loc=3)


@pytest.mark.parametrize("n_loc", [2, 4])
def test_gather_collects_in_locality_order_at_root_only(n_loc):
    def body(coll, results, worker, lid):
        # staggered entry: contributions arrive out of order
        yield worker.cpu(float(n_loc - lid) * 7.0)
        got = yield from coll.gather(worker, "ga", lid * 11, size=8)
        results[lid] = got

    _, results = run_collective(body, n_loc=n_loc)
    assert results[0] == [lid * 11 for lid in range(n_loc)]
    assert all(results[lid] is None for lid in range(1, n_loc))


@pytest.mark.parametrize("n_loc", [2, 3, 6])
def test_all_gather_delivers_full_list_everywhere(n_loc):
    def body(coll, results, worker, lid):
        yield worker.cpu(float(lid) * 3.0)
        got = yield from coll.all_gather(worker, "ag", (lid, lid ** 2),
                                         size=16)
        results[lid] = got

    _, results = run_collective(body, n_loc=n_loc)
    want = [(lid, lid ** 2) for lid in range(n_loc)]
    assert all(results[lid] == want for lid in range(n_loc))


# ---------------------------------------------------------------------------
# all_to_all: matrix transpose, randomized payload shapes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n_loc,seed", [(2, 0), (3, 1), (4, 2), (8, 3)])
def test_all_to_all_transposes_randomized_payloads(n_loc, seed):
    rng = random.Random(seed)
    # ragged, heterogeneous chunks: values[src][dest]
    matrix = [[(src, dest, tuple(rng.sample(range(100), rng.randint(0, 4))))
               for dest in range(n_loc)] for src in range(n_loc)]

    def body(coll, results, worker, lid):
        yield worker.cpu(float((lid * 13) % 5))
        got = yield from coll.all_to_all(worker, "a2a", matrix[lid],
                                         size=128)
        results[lid] = got

    _, results = run_collective(body, n_loc=n_loc)
    for dest in range(n_loc):
        assert results[dest] == [matrix[src][dest] for src in range(n_loc)]


@pytest.mark.parametrize("n_loc,seed", [(3, 10), (4, 11)])
def test_all_to_all_fragmented_reassembles_in_index_order(n_loc, seed):
    rng = random.Random(seed)
    # variable fragment counts per (src, dest) pair
    matrix = [[[f"s{src}d{dest}p{p}" for p in range(rng.randint(1, 5))]
               for dest in range(n_loc)] for src in range(n_loc)]

    def body(coll, results, worker, lid):
        yield worker.cpu(float((n_loc - lid) * 4))
        got = yield from coll.all_to_all(worker, "a2af", matrix[lid],
                                         size=32, fragment=True)
        results[lid] = got

    _, results = run_collective(body, n_loc=n_loc)
    for dest in range(n_loc):
        assert results[dest] == [matrix[src][dest] for src in range(n_loc)]


def test_all_to_all_validates_chunk_count_and_empty_fragments():
    def body(coll, results, worker, lid):
        with pytest.raises(ValueError):
            yield from coll.all_to_all(worker, "bad_n", [1, 2])
        with pytest.raises(ValueError):
            yield from coll.all_to_all(worker, "bad_frag", [[], [1], [2]],
                                       fragment=True)

    run_collective(body, n_loc=3)


# ---------------------------------------------------------------------------
# generation reuse: same op_id in a loop, out-of-order arrivals
# ---------------------------------------------------------------------------
def test_generation_reuse_no_cross_talk_many_rounds():
    """The same op_id for many generations, with per-locality jitter so
    round ``k`` arrivals from a fast locality overlap round ``k-1``
    stragglers — results must never mix generations."""
    n_loc, rounds = 4, 12

    def body(coll, results, worker, lid):
        mine = []
        for k in range(rounds):
            # jitter scrambles arrival order across rounds
            yield worker.cpu(float((lid * 7 + k * 3) % 11))
            total = yield from coll.allreduce(worker, "loop", lid + k * 100,
                                              op="sum")
            mine.append(total)
        results[lid] = mine

    _, results = run_collective(body, n_loc=n_loc)
    base = sum(range(n_loc))
    want = [base + k * 100 * n_loc for k in range(rounds)]
    assert all(results[lid] == want for lid in range(n_loc))


def test_generation_reuse_all_to_all_rounds_stay_separate():
    n_loc, rounds = 3, 8

    def body(coll, results, worker, lid):
        mine = []
        for k in range(rounds):
            yield worker.cpu(float((lid * 5 + k) % 7))
            got = yield from coll.all_to_all(
                worker, "t", [(k, lid, dest) for dest in range(n_loc)],
                size=24)
            mine.append(got)
        results[lid] = mine

    _, results = run_collective(body, n_loc=n_loc)
    for lid in range(n_loc):
        assert results[lid] == [[(k, src, lid) for src in range(n_loc)]
                                for k in range(rounds)]


def test_generation_state_is_garbage_collected():
    """After completed rounds, no per-generation state may linger."""
    n_loc = 3

    def body(coll, results, worker, lid):
        for k in range(5):
            yield from coll.allreduce(worker, "gc", 1, op="sum")
            yield from coll.all_to_all(worker, "gc_x",
                                       [k] * n_loc, size=8)

    rt, _ = run_collective(body, n_loc=n_loc)
    # the Collectives object is created inside run_collective; re-find it
    # through the registered (bound-method) action
    coll = rt.actions["coll_arrive"].__self__
    assert coll._gather == {}
    assert coll._futures == {}
    assert coll._xchg == {}


# ---------------------------------------------------------------------------
# distributed FFT vs reference DFT: configs x locality counts
# ---------------------------------------------------------------------------
def _reference_spectrum(driver):
    return naive_dft(driver.input)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("n_loc", [2, 4, 8])
def test_distributed_fft_matches_reference(config, n_loc):
    rt = make_runtime(config, platform=LAPTOP, n_localities=n_loc,
                      seed=7000 + n_loc)
    driver = FftDriver(rt, FftConfig(n1=16, n2=16))
    res = driver.run(max_events=10_000_000)
    want = _reference_spectrum(driver)
    err = max(abs(a - b) for a, b in zip(res.output, want))
    assert err < 1e-9
    assert res.checksum == pytest.approx(sum(res.output))
    assert all(len(v) == 1 for v in res.phase_times_us.values())
    assert res.total_time_us > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_distributed_fft_random_inputs_and_shapes(seed):
    shapes = {1: (8, 32), 2: (32, 8), 3: (16, 16)}
    n1, n2 = shapes[seed]
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP, n_localities=4,
                      seed=seed * 977)
    driver = FftDriver(rt, FftConfig(n1=n1, n2=n2, fragment=False))
    res = driver.run(max_events=10_000_000)
    want = _reference_spectrum(driver)
    assert max(abs(a - b) for a, b in zip(res.output, want)) < 1e-9


def test_distributed_fft_output_bit_identical_across_configs():
    """Same seed => same input stream => bit-identical spectra, because
    the floating-point operation order is fixed by construction."""
    outs = []
    for config in CONFIGS:
        rt = make_runtime(config, platform=LAPTOP, n_localities=4,
                          seed=4242)
        res = FftDriver(rt, FftConfig(n1=16, n2=16)).run(
            max_events=10_000_000)
        outs.append(res.output)
    assert outs[0] == outs[1] == outs[2]


def test_fft_config_validation():
    with pytest.raises(ValueError):
        FftConfig(n1=12, n2=16).validate(4)
    with pytest.raises(ValueError):
        FftConfig(n1=16, n2=16).validate(3)
    with pytest.raises(ValueError):
        FftConfig(n1=16, n2=16, iterations=0).validate(4)


def test_fft_multiple_iterations_reuse_op_ids():
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP, n_localities=2,
                      seed=11)
    driver = FftDriver(rt, FftConfig(n1=8, n2=8, iterations=3))
    res = driver.run(max_events=10_000_000)
    assert all(len(v) == 3 for v in res.phase_times_us.values())
    want = _reference_spectrum(driver)
    assert max(abs(a - b) for a, b in zip(res.output, want)) < 1e-9


# ---------------------------------------------------------------------------
# determinism: timelines, summaries, figure points
# ---------------------------------------------------------------------------
def _fingerprint(config, **kw):
    params = FftBenchParams(n1=16, n2=16, n_localities=4,
                            credit_window=4, max_backlog=8, **kw)
    res = run_fft(config, params, seed=321)
    return (res.total_time_us, res.checksum,
            tuple(sorted(res.phase_times_us.items())),
            tuple(sorted(res.faults.items())))


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_fft_runs_are_replay_identical(config):
    assert _fingerprint(config) == _fingerprint(config)


def test_fft_flow_and_fault_summaries_are_replay_identical():
    def once():
        rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP,
                          n_localities=4, seed=77,
                          options=RunOptions(
                              flow_policy=FlowControlPolicy(
                                  credit_window=4, max_backlog=8),
                              reliable=True))
        driver = FftDriver(rt, FftConfig(n1=32, n2=32))
        driver.run(max_events=20_000_000)
        rt.run_until(rt.sim.now + 30000.0, max_events=1_000_000)
        flow = tuple(sorted((k, tuple(sorted(v.get("credits", {}).items())))
                            for k, v in rt.flow_summary().items()))
        return (rt.sim.now, tuple(sorted(rt.fault_summary().items())), flow)

    assert once() == once()


def test_fft_figure_points_invariant_under_jobs_and_cache(tmp_path):
    from repro.bench.fft_bench import FftBenchParams
    from repro.bench.parallel import PointTask, ResultCache, run_points

    params = FftBenchParams(n1=16, n2=16, n_localities=4, platform=LAPTOP,
                            credit_window=4, max_backlog=8)
    tasks = [PointTask(config, params, 55) for config in CONFIGS]
    seq = run_points(tasks, jobs=1, no_cache=True)
    par = run_points(tasks, jobs=2, no_cache=True)
    assert seq == par
    cache = ResultCache(tmp_path)
    cold = run_points(tasks, jobs=1, cache=cache)
    warm = run_points(tasks, jobs=1, cache=cache)
    assert cold == seq
    assert warm == seq
    assert cache.stats()["hits"] >= len(tasks)


# ---------------------------------------------------------------------------
# incast under adversity: drops, slow receivers, squeezed pools
# ---------------------------------------------------------------------------
ADVERSITY = "drop=0.05,slow=50:800@1*2.5,squeeze=0:500@0*8"


def _run_fft_adverse(config, plan, n=16, n_loc=4, seed=909):
    rt = make_runtime(config, platform=LAPTOP, n_localities=n_loc,
                      seed=seed, options=RunOptions(
                          fault_plan=FaultPlan.parse(plan),
                          retry_policy=RetryPolicy(timeout_us=150.0,
                                                   max_retries=30),
                          flow_policy=FlowControlPolicy(credit_window=4,
                                                        max_backlog=8),
                          reliable=True))
    driver = FftDriver(rt, FftConfig(n1=n, n2=n))
    res = driver.run(max_events=30_000_000)
    # let retransmit acks / credit returns drain fully
    rt.run_until(rt.sim.now + 60000.0, max_events=2_000_000)
    rt.shutdown()
    return rt, driver, res


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_incast_completes_exactly_once_under_adversity(config):
    rt, driver, res = _run_fft_adverse(config, ADVERSITY)
    want = naive_dft(driver.input)
    assert max(abs(a - b) for a, b in zip(res.output, want)) < 1e-9
    summary = rt.fault_summary()
    assert summary.get("retransmits", 0) > 0, "drops never exercised"
    # conservation: every credit back home, nothing tracked forever
    for loc in rt.localities:
        rel = loc.parcelport.reliability
        assert rel is not None
        assert rel.in_flight == 0
        for peer, left in rel._credits.items():
            assert left == rel.credit_window, (loc.lid, peer, left)
    assert summary.get("credits_consumed") == \
        summary.get("credits_replenished")


def test_failed_parcel_ends_the_run():
    """A transpose parcel that runs out of retries ends the run with its
    ParcelSendError instead of leaving it to spin to ``max_events``."""
    params = FftBenchParams(n1=16, n2=16, n_localities=4,
                            max_events=2_000_000)
    options = RunOptions(fault_plan=FaultPlan(drop_prob=0.6),
                         retry_policy=RetryPolicy(max_retries=1))
    with pytest.raises(ParcelSendError, match="failed after 1 retrans"):
        run_fft("mpi_i", params, seed=7, options=options)


def test_high_offered_load_incast_engages_flow_control():
    """A 64x64 fragmented transpose at window 4 must visibly stall on
    credits and defer sends — the acceptance criterion of ISSUE.md."""
    params = FftBenchParams(n1=64, n2=64, n_localities=4,
                            credit_window=4, max_backlog=8,
                            platform=LAPTOP)
    res = run_fft("lci_psr_cq_pin_i", params, seed=1000)
    assert res.faults.get("credit_stalls", 0) > 0
    assert res.faults.get("puts_deferred", 0) > 0
    assert res.faults.get("backlogged_sends", 0) > 0


def test_unfragmented_small_fft_leaves_flow_idle():
    """The armed-but-unloaded policy must not engage on a tiny block
    transpose: counters exist but the workload fits the window."""
    params = FftBenchParams(n1=8, n2=8, n_localities=2, fragment=False,
                            credit_window=64, max_backlog=0,
                            platform=LAPTOP)
    res = run_fft("lci_psr_cq_pin_i", params, seed=5)
    assert res.faults.get("credit_stalls", 0) == 0
    assert res.faults.get("puts_deferred", 0) == 0


# ---------------------------------------------------------------------------
# the fft figures
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fft_smoke_checks():
    from repro.bench.figures import fft_smoke
    from repro.bench.validation import validate

    res = fft_smoke(quick=True)
    return res, {c.name: c for c in validate(res)}


def test_fft_smoke_reports_breakdown_and_flow_counters(fft_smoke_checks):
    from repro.bench.figures import FFT_CONFIGS

    res, checks = fft_smoke_checks
    assert [s.label for s in res.series] == FFT_CONFIGS
    assert set(res.meta["counters"]) == set(FFT_CONFIGS)
    # critical-path decomposition present and incast-aware
    for cfg, rep in res.meta["reports"].items():
        assert "backlog_wait" in rep
        assert "progress" in rep
    assert all(c.passed for c in checks.values()), \
        [c.render() for c in checks.values()]


def test_fft_smoke_lci_polls_while_mpi_waits_on_lock(fft_smoke_checks):
    _, checks = fft_smoke_checks
    for claim in ("lci_never_waits_on_lock", "lci_polls",
                  "mpi_waits_more_than_it_polls",
                  "mpi_dominated_by_lock_wait"):
        assert checks[claim].passed, checks[claim].render()
