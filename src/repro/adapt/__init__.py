"""Adaptive parcelport policies and the metrics-driven config auto-tuner.

``AdaptiveSpec`` configures a controller that retunes the aggregation
threshold and the LCI progress mode mid-run from simulated runtime
signals (``docs/TUNING.md``).  ``run_tune`` drives
a successive-halving search over ``PPConfig`` x adaptive-parameter space
through the cached parallel sweep engine (``repro-fig tune``).
"""

from .policy import AdaptiveController, AdaptiveSpec, AdaptiveState

__all__ = ["AdaptiveController", "AdaptiveSpec", "AdaptiveState"]
