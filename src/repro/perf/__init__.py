"""Performance engine: metrics, cost model, optimization ladder, tuning.

Names load on first access (PEP 562): ``from repro.perf import CostModel``
imports only the cost model, and ``repro.perf.model`` (the calibration a
``--jobs N`` sweep reads for its cost stamps) loads without the rest.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the submodule that defines it.
_NAMES = {
    "AblationResult": "ablation",
    "ablate_depth_consolidation": "ablation",
    "ablate_gc_split_overlap": "ablation",
    "ablate_simd_lanes": "ablation",
    "run_all_ablations": "ablation",
    "CostModel": "cost_model",
    "Placement": "cost_model",
    "StepBreakdown": "cost_model",
    "Workload": "cost_model",
    "CommSimResult": "event_sim",
    "simulate_comm_times": "event_sim",
    "HybridSweepPoint": "hybrid_model",
    "best_point": "hybrid_model",
    "sweep_hybrid": "hybrid_model",
    "mflups": "metrics",
    "parallel_efficiency": "metrics",
    "runtime_for_mflups": "metrics",
    "speedup": "metrics",
    "FittedPerfModel": "model",
    "MeasuredSample": "model",
    "ModelEntry": "model",
    "Prediction": "model",
    "calibration_path": "model",
    "fit_samples": "model",
    "load_calibration": "model",
    "samples_from_bench": "model",
    "save_calibration": "model",
    "JitterModel": "noise",
    "LADDER": "optimization",
    "LevelEffect": "optimization",
    "OptimizationLevel": "optimization",
    "base_params": "optimization",
    "effect_note": "optimization",
    "ladder_states": "optimization",
    "CodeParams": "params",
    "ScalingPoint": "scaling",
    "strong_scaling": "scaling",
    "weak_scaling": "scaling",
    "DepthSweepResult": "tuner",
    "depth_table": "tuner",
    "optimal_depth": "tuner",
    "sweep_ghost_depth": "tuner",
    "tuned_params_for_depth_study": "tuner",
}

__all__ = [
    "ablate_depth_consolidation",
    "ablate_gc_split_overlap",
    "ablate_simd_lanes",
    "AblationResult",
    "base_params",
    "run_all_ablations",
    "best_point",
    "CodeParams",
    "CommSimResult",
    "CostModel",
    "depth_table",
    "DepthSweepResult",
    "effect_note",
    "calibration_path",
    "fit_samples",
    "FittedPerfModel",
    "load_calibration",
    "MeasuredSample",
    "ModelEntry",
    "Prediction",
    "samples_from_bench",
    "save_calibration",
    "HybridSweepPoint",
    "JitterModel",
    "LADDER",
    "ladder_states",
    "LevelEffect",
    "mflups",
    "optimal_depth",
    "OptimizationLevel",
    "parallel_efficiency",
    "Placement",
    "runtime_for_mflups",
    "simulate_comm_times",
    "speedup",
    "StepBreakdown",
    "sweep_ghost_depth",
    "sweep_hybrid",
    "tuned_params_for_depth_study",
    "Workload",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
]


def __getattr__(name: str) -> Any:
    if name in _NAMES:
        value = getattr(importlib.import_module(f".{_NAMES[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
