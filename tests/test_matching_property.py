"""Property tests: indexed matchers vs the frozen linear-scan reference.

The indexed ``PostedQueue``/``UnexpectedQueue`` (repro.mpi_sim.matching)
must be observationally identical to the seed's linear scans
(repro.mpi_sim._seed_match) — same match, same deterministic ``scanned``
count, same container semantics — because ``scanned`` feeds straight into
simulated CPU charges and any divergence breaks the bit-identity contract.

Coverage here:

* randomized lockstep workloads over both posted-queue implementations —
  wildcard receives (ANY_SOURCE/ANY_TAG), non-recv entries that occupy
  scan positions without matching, cancel-path removals, and misses;
* the same for the unexpected queue, including duplicate message arrivals
  (the faulted-network dup path appends the same wire message twice);
* an end-to-end cross-check: a faulted (drop + corrupt) message-rate run
  must reproduce the results pinned from the full frozen seed stack.
"""

import random

import pytest

from repro import RunOptions
from repro.faults import FaultPlan
from repro.mpi_sim._seed_match import SeedPostedQueue, SeedUnexpectedQueue
from repro.mpi_sim.matching import PostedQueue, UnexpectedQueue
from repro.mpi_sim.request import ANY_SOURCE, ANY_TAG, Request
from repro.netsim.message import NetMsg

SEEDS = [1, 7, 42, 1234, 987654]

SRCS = [0, 1, 2, 3]
TAGS = [0, 1, 2, 5, 99]


def _assert_posted_equal(live: PostedQueue, seed: SeedPostedQueue) -> None:
    assert len(live) == len(seed)
    assert list(live) == list(seed)


@pytest.mark.parametrize("rng_seed", SEEDS)
def test_posted_queue_lockstep(rng_seed):
    rng = random.Random(rng_seed)
    live, seed = PostedQueue(), SeedPostedQueue()
    alive = []
    for _ in range(600):
        op = rng.random()
        if op < 0.45 or not alive:
            # post: mostly receives (some with wildcards), some non-recv
            # entries that occupy a scan position but never match
            kind = "recv" if rng.random() < 0.85 else "send"
            src = rng.choice(SRCS + [ANY_SOURCE, ANY_SOURCE])
            tag = rng.choice(TAGS + [ANY_TAG])
            req = Request(kind, src, 8, tag)
            live.append(req)
            seed.append(req)
            alive.append(req)
        elif op < 0.85:
            # probe: both implementations must report the same
            # (match, scanned) pair for an arbitrary (src, tag)
            src, tag = rng.choice(SRCS), rng.choice(TAGS + [7])
            got = live.match_pop(src, tag)
            want = seed.match_pop(src, tag)
            assert got == want, (src, tag, got, want)
            if got[0] is not None:
                alive.remove(got[0])
                assert got[0] not in live
        else:
            # cancel path: remove by identity from the middle of the list
            req = alive.pop(rng.randrange(len(alive)))
            live.remove(req)
            seed.remove(req)
            assert req not in live
        _assert_posted_equal(live, seed)
    # drain: every remaining receive must come out in the same order
    for src in SRCS:
        for tag in TAGS:
            while True:
                got = live.match_pop(src, tag)
                want = seed.match_pop(src, tag)
                assert got == want
                if got[0] is None:
                    break
    _assert_posted_equal(live, seed)


def test_posted_queue_remove_missing_raises_like_list():
    live, seed = PostedQueue(), SeedPostedQueue()
    req = Request("recv", 0, 8, 1)
    with pytest.raises(ValueError):
        live.remove(req)
    with pytest.raises(ValueError):
        seed.remove(req)
    live.append(req)
    seed.append(req)
    live.remove(req)
    seed.remove(req)
    with pytest.raises(ValueError):
        live.remove(req)
    with pytest.raises(ValueError):
        seed.remove(req)


@pytest.mark.parametrize("rng_seed", SEEDS)
def test_unexpected_queue_lockstep(rng_seed):
    rng = random.Random(rng_seed)
    live, seed = UnexpectedQueue(), SeedUnexpectedQueue()
    for _ in range(600):
        op = rng.random()
        if op < 0.5 or not len(live):
            msg = NetMsg(src=rng.choice(SRCS), dst=0, size=8, kind="eager",
                         tag=rng.choice(TAGS))
            live.append(msg)
            seed.append(msg)
            if rng.random() < 0.15:
                # duplicate arrival (faulted-network dup path): the same
                # wire message object queued twice
                live.append(msg)
                seed.append(msg)
        else:
            src = rng.choice(SRCS + [ANY_SOURCE])
            tag = rng.choice(TAGS + [ANY_TAG, 7])
            got = live.match_pop(src, tag)
            want = seed.match_pop(src, tag)
            assert got == want, (src, tag, got, want)
        assert len(live) == len(seed)
        assert list(live) == list(seed)


#: ``as_dict()`` of the faulted run below, pinned from the frozen seed stack
#: (seed kernel, linear-scan matching and pre-optimisation model paths)
FAULTED_REFERENCE = {
    "mpi_i": {
        "achieved_injection_kps": 209.92697060546666,
        "message_rate_kps": 85.89611551996845,
        "failed_msgs": 0.0,
        "fault.acks_received": 298.0,
        "fault.corrupt.mpi_eager": 9.0,
        "fault.corrupts": 9.0,
        "fault.drop.mpi_eager": 22.0,
        "fault.drops": 22.0,
        "fault.dup_deliveries": 12.0,
        "fault.retransmits": 29.0,
        "fault.tracked_sends": 301.0,
    },
    "lci_psr_cq_pin_i": {
        "achieved_injection_kps": 215.14219478371763,
        "message_rate_kps": 63.97786747034145,
        "failed_msgs": 0.0,
        "fault.acks_received": 300.0,
        "fault.corrupt.lci_medium": 5.0,
        "fault.corrupt.lci_put": 4.0,
        "fault.corrupts": 9.0,
        "fault.drop.lci_medium": 11.0,
        "fault.drop.lci_put": 11.0,
        "fault.drops": 22.0,
        "fault.dup_deliveries": 16.0,
        "fault.retransmits": 31.0,
        "fault.tracked_sends": 301.0,
    },
}


@pytest.mark.parametrize("config", sorted(FAULTED_REFERENCE))
def test_faulted_run_matches_frozen_reference(config):
    """End-to-end: drop+corrupt faults, live vs the frozen stack's result."""
    from repro.bench.message_rate import MessageRateParams, run_message_rate

    params = MessageRateParams(msg_size=8, batch=25, total_msgs=300,
                               inject_rate_kps=200.0)
    plan = FaultPlan.parse("drop=0.05,corrupt=0.02")
    res = run_message_rate(config, params, seed=11,
                           options=RunOptions(fault_plan=plan))
    assert res.as_dict() == FAULTED_REFERENCE[config]
