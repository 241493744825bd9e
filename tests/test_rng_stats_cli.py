"""Tests for RNG streams, statistics containers and the CLI plumbing."""

import pytest

from repro.bench.cli import main as cli_main
from repro.sim import RngPool, StatSet, TimeSeries
from repro.sim.stats import summarize


# ---------------------------------------------------------------------------
# RngPool
# ---------------------------------------------------------------------------
def test_streams_are_deterministic_per_seed_and_name():
    a = RngPool(42).stream("x").random(5)
    b = RngPool(42).stream("x").random(5)
    assert (a == b).all()


def test_streams_differ_across_names_and_seeds():
    pool = RngPool(42)
    x = pool.stream("x").random(5)
    y = pool.stream("y").random(5)
    assert not (x == y).all()
    other = RngPool(43).stream("x").random(5)
    assert not (x == other).all()


def test_stream_is_cached():
    pool = RngPool(1)
    assert pool.stream("s") is pool.stream("s")


# ---------------------------------------------------------------------------
# StatSet / TimeSeries
# ---------------------------------------------------------------------------
def test_statset_counters_accumulators_series():
    s = StatSet("s")
    s.inc("a")
    s.inc("a", 2)
    s.add("t", 1.5)
    s.sample("ts", 1.0, 10.0)
    s.sample("ts", 2.0, 20.0)
    assert s.counters["a"] == 3
    assert s.accum["t"] == 1.5
    assert s.series["ts"].mean() == 15.0
    assert s.series["ts"].max() == 20.0
    assert len(s.series["ts"]) == 2


def test_statset_merge():
    a, b = StatSet("a"), StatSet("b")
    a.inc("x")
    b.inc("x", 4)
    b.add("y", 2.0)
    b.sample("z", 0.0, 1.0)
    a.merge(b)
    assert a.counters["x"] == 5
    assert a.accum["y"] == 2.0
    assert len(a.series["z"]) == 1


def test_statset_as_dict_combines():
    s = StatSet()
    s.inc("n", 2)
    s.add("t", 0.5)
    assert s.as_dict() == {"n": 2, "t": 0.5}


def test_timeseries_empty_safe():
    ts = TimeSeries()
    assert ts.mean() == 0.0
    assert ts.max() == 0.0


def test_summarize_empty():
    assert summarize([])["n"] == 0


def test_summarize_population_std():
    s = summarize([2.0, 4.0])
    assert s["mean"] == 3.0
    assert s["std"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_tables(capsys):
    assert cli_main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "putsendrecv" in out
    assert "expanse" in out


def test_cli_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        cli_main(["fig99"])


@pytest.mark.parametrize("flag", [["--bench-out", "out"],
                                  ["--tune-workload", "fft"]])
def test_cli_rejects_tune_flags_outside_tune(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["tables"] + flag)
    assert exc.value.code == 2
    assert f"{flag[0]} only applies to tune" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--repeats", "0"], ["--repeats", "-1"],
                                  ["--jobs", "0"]])
def test_cli_rejects_counts_below_one(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["fig1"] + flag)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"repro-fig: error: {flag[0]} must be >= 1" in err


def test_cli_help_lists_figures(capsys):
    with pytest.raises(SystemExit):
        cli_main(["--help"])
    out = capsys.readouterr().out
    assert "fig1" in out and "fig11" in out


def test_cli_validate_flag_runs_shape_checks(capsys):
    # fig7 is the fastest figure (~4s quick) with registered checks
    rc = cli_main(["fig7", "--no-plot", "--validate"])
    out = capsys.readouterr().out
    assert "[PASS]" in out or "[FAIL]" in out
    assert rc in (0, 1)
    # our calibrated defaults must actually pass
    assert rc == 0, out
    # the three latency anchors of the cost constants live on fig7
    for claim in ("small_latency_band", "mpi_i_small_latency_close",
                  "mpi_i_large_latency_worse"):
        assert f"[PASS] {claim}: " in out
