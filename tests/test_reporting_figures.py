"""Tests for FigureResult plumbing and figure metadata (no slow sweeps)."""

import re
from pathlib import Path

import pytest

from repro.bench import FigureResult, Series
from repro.bench.figures import ALL_CONFIGS, MPI_VS_LCI


def make_result():
    s1 = Series("a")
    s1.add(1, 10)
    s1.add(10, 100)
    s2 = Series("b")
    s2.add(1, 20)
    return FigureResult("figX", "title", [s1, s2], x_name="x", y_name="y")


def test_by_label_lookup():
    r = make_result()
    assert r.by_label("a").peak == 100
    with pytest.raises(KeyError, match="figX"):
        r.by_label("missing")


def test_render_contains_table_and_plot():
    r = make_result()
    text = r.render()
    assert "figX" in text
    assert "title" in text
    assert "a" in text and "b" in text
    # multiple x values -> an ascii plot is included
    assert "log" in text


def test_render_skips_plot_for_single_x():
    s = Series("only")
    s.add(1, 5)
    r = FigureResult("f", "t", [s])
    assert "log" not in r.render()


def test_render_plot_suppressible():
    r = make_result()
    assert "log" not in r.render(plot=False)


def test_config_sets_match_paper():
    # Figs 1/4 compare MPI with/without immediate against LCI baseline
    assert MPI_VS_LCI == ["mpi", "mpi_i", "lci_psr_cq_pin",
                          "lci_psr_cq_pin_i"]
    # Figs 3/6/7/8/9 use the 11 configurations of the paper
    assert len(ALL_CONFIGS) == 11
    assert "lci_psr_cq_pin" in ALL_CONFIGS     # the no-immediate baseline
    assert "mpi" in ALL_CONFIGS and "mpi_i" in ALL_CONFIGS
    assert sum(1 for c in ALL_CONFIGS if c.startswith("lci")) == 9


# ---------------------------------------------------------------------------
# EXPERIMENTS.md quotes the committed Octo-Tiger tables verbatim
# ---------------------------------------------------------------------------
REPO = Path(__file__).resolve().parent.parent


def results_columns(text):
    """``{column: cells}`` of the table that opens a committed figure
    output; header names lose their inner spaces (``lci / mpi`` ->
    ``lci/mpi``)."""
    lines = text.splitlines()
    header = [name.replace(" ", "")
              for name in re.split(r"\s{2,}", lines[1].strip())]
    rows = []
    for line in lines[3:]:
        cells = line.split()
        if len(cells) != len(header):
            break
        rows.append(cells)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def experiments_columns(text, heading):
    """``{column: cells}`` of the first ``| nodes | ...`` table under
    ``heading``, with bold markers stripped."""
    section = text.split(heading, 1)[1]
    table = []
    for line in section[section.index("| nodes |"):].splitlines():
        if not line.startswith("|"):
            break
        table.append([cell.strip().replace("**", "")
                      for cell in line.strip().strip("|").split("|")])
    header, rows = table[0], table[2:]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


@pytest.mark.parametrize("fig", ["fig10", "fig11"])
def test_experiments_octotiger_table_matches_results(fig):
    doc = experiments_columns(
        (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8"),
        f"### Fig {fig[3:]} ")
    res = results_columns(
        (REPO / "results" / f"{fig}.txt").read_text(encoding="utf-8"))
    assert set(doc) == set(res) and len(res["nodes"]) >= 3, (doc, res)
    for column, cells in doc.items():
        assert cells == res[column], (fig, column)
