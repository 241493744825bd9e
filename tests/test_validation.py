"""Tests for the claims table and its validation engine."""

from repro.bench import (FIGURES, CheckResult, FigureResult, Series,
                         checks_for, validate)
from repro.bench.validation import CHECKS


def fig_with(figure, data, xs=None):
    series = []
    for label, ys in data.items():
        s = Series(label)
        for i, y in enumerate(ys):
            s.add(float(xs[i] if xs else i + 1), y)
        series.append(s)
    return FigureResult(figure, "t", series)


def test_every_registered_figure_has_checks():
    assert set(CHECKS) <= set(FIGURES)
    for name in FIGURES:
        ids = [c.id for c in checks_for(name)]
        assert len(ids) == len(set(ids)), name
        # fault_smoke reports counters under arbitrary user fault plans
        assert bool(ids) == (name != "fault_smoke"), name


def test_fig1_checks_pass_on_paper_like_shape():
    r = fig_with("fig1", {
        "lci_psr_cq_pin_i": [100, 800],
        "lci_psr_cq_pin": [100, 450],
        "mpi": [100, 450],
        "mpi_i": [100, 250],
    })
    results = validate(r)
    assert results and all(c.passed for c in results)


def test_fig1_checks_fail_when_mpi_wins():
    r = fig_with("fig1", {
        "lci_psr_cq_pin_i": [100, 300],
        "lci_psr_cq_pin": [100, 450],
        "mpi": [100, 800],
        "mpi_i": [100, 700],
    })
    assert any(not c.passed for c in validate(r))


def test_fig4_decline_check():
    good = fig_with("fig4", {
        "lci_psr_cq_pin_i": [100, 220, 225],
        "lci_psr_cq_pin": [90, 120, 110],
        "mpi": [100, 150, 80],
        "mpi_i": [40, 80, 20],
    })
    assert all(c.passed for c in validate(good))
    flat_mpi = fig_with("fig4", {
        "lci_psr_cq_pin_i": [100, 220, 225],
        "lci_psr_cq_pin": [90, 120, 110],
        "mpi": [100, 120, 130],   # no decline -> fail
        "mpi_i": [40, 80, 20],
    })
    assert any(not c.passed for c in validate(flat_mpi))


def test_fig7_latency_ordering_check():
    sizes = [8, 65536]
    good = fig_with("fig7", {
        "lci_psr_cq_pin_i": [4, 14],
        "lci_psr_cq_pin": [6, 16],
        "mpi": [7, 27],
        "mpi_i": [5, 24],
    }, sizes)
    assert all(c.passed for c in validate(good))
    bad = fig_with("fig7", {
        "lci_psr_cq_pin_i": [8, 26],   # slower than mpi_i -> fail
        "lci_psr_cq_pin": [6, 16],
        "mpi": [7, 27],
        "mpi_i": [5, 24],
    }, sizes)
    failed = {c.name for c in validate(bad) if not c.passed}
    assert "lci_always_fastest" in failed


def test_fig10_collapse_check():
    good = fig_with("fig10", {
        "lci": [9, 80],
        "mpi": [8, 55],
        "mpi_i": [8, 13],
    })
    assert all(c.passed for c in validate(good))


def test_missing_series_reported_not_raised():
    r = fig_with("fig1", {"lci_psr_cq_pin_i": [1, 2]})
    results = validate(r)
    assert [c.name for c in results] == [c.id for c in CHECKS["fig1"]]
    missing = {c.name for c in results if "missing data" in c.detail}
    # each claim that needs another series fails under its own id
    assert missing == {"lci_best_beats_mpi", "lci_best_beats_mpi_i",
                       "immediate_beats_aggregated_lci",
                       "aggregation_helps_mpi", "no_immediate_band_8b",
                       "lci_over_mpi_i_8b"}
    assert not any(c.passed for c in results if c.name in missing)


def test_checkresult_render():
    c = CheckResult("x", True, "fine")
    assert c.render() == "[PASS] x: fine"
    assert "[FAIL]" in CheckResult("x", False, "bad").render()


def test_unknown_figure_validates_empty():
    r = fig_with("fig99", {"a": [1]})
    assert validate(r) == []
