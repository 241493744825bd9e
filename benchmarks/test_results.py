"""Every committed result regenerates and holds its claims, three ways.

For each figure in ``repro.bench.FIGURES`` this runs ``repro-fig <name>
--validate`` in process and compares its output with
``results/<name>.txt``: sequentially into an empty ``--cache``, at
``--jobs 2 --no-cache``, and sequentially again from the warm cache,
which must serve every sweep point.  Lines holding ``s wall`` (the
wall-clock trailers) and blank lines are dropped on both sides; every
other line, the claim lines of :data:`repro.bench.validation.CHECKS`
included, must match.  A nonzero exit, a ``[FAIL]`` line, a figure with
no results file and a results file with no figure all fail.

Run with ``python -m pytest -q benchmarks`` (``-k fig10`` picks figures);
a new or changed figure is recorded with ``repro-fig <name> --validate >
results/<name>.txt``.
"""

from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.bench.figures import FIGURES
from repro.bench.parallel import execution

RESULTS = Path(__file__).resolve().parent.parent / "results"
NAMES = sorted(set(FIGURES) | {p.stem for p in RESULTS.glob("*.txt")})


def comparable(text):
    return [line for line in text.splitlines()
            if line and "s wall" not in line]


@pytest.mark.parametrize("name", NAMES)
def test_result_regenerates_and_holds_its_claims(name, tmp_path, capsys):
    assert name in FIGURES, f"results/{name}.txt has no figure"
    path = RESULTS / f"{name}.txt"
    assert path.exists(), f"figure {name} has no results file"
    expected = comparable(path.read_text())
    cache = str(tmp_path / "cache")
    for run in (["--cache", cache], ["--jobs", "2", "--no-cache"],
                ["--cache", cache]):
        with execution():
            rc = main([name, "--validate", *run])
        out, err = capsys.readouterr()
        assert "[FAIL]" not in out, (run, out)
        assert rc == 0, run
        assert comparable(out) == expected, run
    # the warm run served every sweep point from the cache
    assert ", 0 misses," in err, err
