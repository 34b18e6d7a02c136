"""Ring-based LiDAR cluster proposals and training-sample preparation.

Pipeline per frame: assign ring indices from where each revolution
starts, remove the ground with segmented iterative plane fits, cluster the
remainder ring by ring, then filter and enlarge oriented boxes into
proposals. A separate preparation stage turns proposals into fixed-size,
augmented training samples. `ringseg.kernels` holds the vectorized
numpy kernel of the cluster scan.

The package imports lazily (PEP 562): `import ringseg` loads no
submodule, and each exported name or submodule is imported on first use,
so a process loads only the code it runs.
"""

import sys

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("TimingReport", "benchmark_stage1"), "bench"),
    **dict.fromkeys(("OrientedBBox", "Proposal"), "boxes"),
    **dict.fromkeys(("CLASS_NAMES", "FOREGROUND_CLASSES", "ClassId", "ClusterLabeling",
                     "PointCloud", "assign_rings", "load_labels", "load_point_cloud",
                     "save_labels", "save_point_cloud"), "cloud"),
    **dict.fromkeys(("cluster_ring_based", "resolve_labels"), "clustering"),
    **dict.fromkeys(("ClusterParams", "DEFAULT_SIZE_PRIORS", "GroundParams", "PipelineConfig",
                     "RefineParams", "SamplePrepParams", "SizePrior", "build_config",
                     "load_config", "read_kv_file"), "config"),
    **dict.fromkeys(("AlignmentError", "ConfigError", "DegenerateGeometryError",
                     "FileFormatError", "InvalidClassError", "RingSegError",
                     "ScanFormatError", "SceneValidationError"), "errors"),
    **dict.fromkeys(("PlaneModel", "ground_plane_fit"), "ground"),
    **dict.fromkeys(("MetricsReport", "RecallReport", "pointwise_metrics",
                     "proposal_recall"), "metrics"),
    **dict.fromkeys(("Stage1Result", "run_stage1"), "pipeline"),
    **dict.fromkeys(("BoxTable", "adaptive_threshold", "enlarge_and_merge", "filter_proposals",
                     "fit_boxes"), "refine"),
    **dict.fromkeys(("Sample", "canonical_transform", "export_samples", "load_samples",
                     "sample_rng"), "samples"),
    **dict.fromkeys(("ObjectSpec", "SceneSpec", "SyntheticScene",
                     "generate_synthetic_scene", "sample_traffic_scene", "scene_from_file"),
                    "synth"),
}
# the modules that export nothing here still resolve as attributes
_SUBMODULES = {*_EXPORTS.values(), "cli", "kernels"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name, name)
    if submodule not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in `python -X importtime`
    __import__(f"{__name__}.{submodule}")
    module = sys.modules[f"{__name__}.{submodule}"]
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
