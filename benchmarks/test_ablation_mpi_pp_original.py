"""§3.1 ablation: the original vs improved MPI parcelport.

The paper: the two improvements (dynamic header with transmission-chunk
piggybacking, and replacing the tag-provider/tag-release protocol with an
atomic counter) "improve the application (Octo-Tiger) performance by about
20%".  Shape target: improved mpi beats mpi_orig on Octo-Tiger.
"""

from conftest import run_once

from repro.bench import ablation_mpi_pp


def test_ablation_original_vs_improved(benchmark):
    result = run_once(benchmark, ablation_mpi_pp, quick=True)
    print("\n" + result.render())
    ratios = result.meta["counters"]["improved_over_original"]
    app_ratio, rate_ratio = ratios["app"], ratios["rate"]
    print(f"improved/original: app {app_ratio:.3f}x, "
          f"8B message rate {rate_ratio:.3f}x (paper: ~1.2x at app level)")
    # microbenchmark: the improvements must clearly win (tag-release
    # traffic + static 512B headers cost the original on every message)
    assert 1.05 < rate_ratio < 2.0
    # application: improved never loses (our mini-app under-weights the
    # small-message traffic the header improvement targets, so the app
    # gain is smaller than the paper's ~20% — see EXPERIMENTS.md)
    assert app_ratio > 0.97
