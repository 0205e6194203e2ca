"""Joint hand-eye calibration and implicit scene representation.

Recovers the camera-to-end-effector transform and metric scale from
end-effector poses paired with unscaled camera poses, then builds
queryable occupancy / segmentation / color fields in the robot base
frame.
"""

from .calibration import (
    CalibrationConfig,
    CalibrationResult,
    MotionPair,
    calibrate,
    motion_pairs,
    residuals,
    solve_rotation,
    solve_translation_scale,
)
from .alignment import (
    AlignmentResult,
    PairGraph,
    PairwisePrediction,
    align_global,
    default_pair_graph,
    extract_point_cloud,
)
from .geometry import Pose, exp_map, inv_sqrt_psd, log_map
from .reconstruction import (
    LabeledPointCloud,
    adaptive_confidence_threshold,
    join_pixel_labels,
    reconstruct,
    transform_to_base,
    truth_errors,
)
from .fields import (
    FieldModel,
    PositionalEncoding,
    TrainConfig,
    gradient_check,
    query,
    train_color,
    train_occupancy,
    train_segmentation,
)
from .synth import (
    CameraConfig,
    HiddenParams,
    NoiseProfile,
    SceneSpec,
    TrajectoryConfig,
    generate_dataset,
    ray_cast,
    tabletop_scene,
)

__version__ = "0.1.0"
