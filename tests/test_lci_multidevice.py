"""Tests for the multi-device LCI extension (§7.2)."""

import pytest

from repro import LAPTOP, make_runtime
from repro.hpx_rt import HpxRuntime
from repro.lci_sim import DEFAULT_LCI_PARAMS
from repro.parcelport import PPConfig, make_parcelport_factory


def make_multidev_runtime(num_devices, config="lci_psr_cq_mt_i"):
    cfg = PPConfig.parse(config)
    params = DEFAULT_LCI_PARAMS.with_(num_devices=num_devices)
    factory = make_parcelport_factory(cfg, lci_params=params)
    return HpxRuntime(LAPTOP, 2, factory, immediate=cfg.immediate)


@pytest.mark.parametrize("config", ["lci_psr_cq_mt_i", "lci_sr_sy_pin_i"])
def test_multi_device_delivers_correctly(config):
    rt = make_multidev_runtime(3, config)
    done = rt.new_latch(12)
    got = []

    def sink(worker, i, blob):
        got.append(i)
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def sender(worker):
        for i in range(12):
            # mix of small and zero-copy messages across devices
            size = 20000 if i % 3 == 0 else 64
            yield from rt.locality(0).apply(worker, 1, "sink", (i, "x"),
                                            arg_sizes=[8, size])

    rt.boot()
    rt.locality(0).spawn(sender)
    rt.run_until(done, max_events=3_000_000)
    assert sorted(got) == list(range(12))


def test_multi_device_spreads_traffic():
    rt = make_multidev_runtime(3)
    done = rt.new_latch(30)

    def sink(worker, i):
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def sender(worker):
        for i in range(30):
            yield from rt.locality(0).apply(worker, 1, "sink", (i,))

    rt.boot()
    rt.locality(0).spawn(sender)
    rt.run_until(done, max_events=3_000_000)
    pp = rt.localities[0].parcelport
    assert len(pp.devices) == 3
    used = [d.stats.counters.get("putva", 0) for d in pp.devices]
    # the tag-block hash spreads headers over every device
    assert all(u > 0 for u in used)
    assert sum(used) == 30


def test_single_device_is_default():
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP)
    rt.boot()
    assert len(rt.localities[0].parcelport.devices) == 1
    assert rt.localities[0].parcelport.device is \
        rt.localities[0].parcelport.devices[0]
