"""Ring-based LiDAR cluster proposals and training-sample preparation.

Pipeline per frame: assign ring indices by azimuth quadrant tracing,
remove the ground with segmented iterative plane fits, cluster the
remainder ring by ring, then filter and enlarge oriented boxes into
proposals. A separate preparation stage turns proposals into fixed-size,
augmented training samples. `ringseg.kernels` holds the vectorized
numpy kernels for the ring trace and the cluster scan.
"""

from .bench import TimingReport, benchmark_stage1
from .cloud import (
    CLASS_NAMES,
    FOREGROUND_CLASSES,
    ClassId,
    PointCloud,
    assign_rings,
    load_labels,
    load_point_cloud,
    save_labels,
    save_point_cloud,
)
from .clustering import ClusterLabeling, ClusterParams, cluster_ring_based, resolve_labels
from .config import PipelineConfig, build_config, load_config, read_kv_file
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateGeometryError,
    FileFormatError,
    InvalidClassError,
    RingSegError,
    ScanFormatError,
    SceneValidationError,
)
from .ground import (
    GroundParams,
    PlaneModel,
    extract_initial_seeds,
    fit_plane,
    ground_plane_fit,
    split_segments,
)
from .metrics import MetricsReport, RecallReport, pointwise_metrics, proposal_recall
from .pipeline import Stage1Result, run_stage1
from .refine import (
    DEFAULT_SIZE_PRIORS,
    BoxTable,
    OrientedBBox,
    Proposal,
    RefineParams,
    SizePrior,
    adaptive_threshold,
    enlarge_and_merge,
    enlarge_bbox,
    filter_proposals,
    fit_boxes,
    min_oriented_bbox,
)
from .samples import (
    ArchiveRecord,
    FeatureMatrix,
    Sample,
    SamplePrepParams,
    augment_eightfold,
    build_feature_matrix,
    canonical_transform,
    export_samples,
    load_samples,
    resample_points,
    sample_rng,
)
from .synth import (
    ObjectSpec,
    SceneSpec,
    SyntheticScene,
    generate_synthetic_scene,
    sample_traffic_scene,
    scene_from_file,
)

__version__ = "0.1.0"
