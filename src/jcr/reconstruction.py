"""Transform aligned model-frame points into the metric robot base frame.

Each point x in the shared model frame is moved into its source view's
camera frame, scaled to meters, and pushed through the calibrated chain:

    x_base = E_v^-1 ( X ( lam * P_v(x) ) )

with P_v the model-to-camera pose of view v, X the camera-to-end-effector
transform and E_v the base-to-end-effector pose of view v.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .alignment import AlignmentResult, extract_point_cloud
from .calibration import CalibrationResult
from .errors import DimensionMismatch, InputError, MissingView, UncalibratedInput
from .geometry import CAMERA_MODEL, ROBOT_BASE, rotation_angle

CONFIDENCE_PERCENTILE = 65.0   # of all positive confidences: the point filter
HEIGHT_BAND_PERCENTILE = 80.0  # estimate_height: the upper band of z


@dataclass
class LabeledPointCloud:
    points: np.ndarray            # (N, 3)
    frame: str                    # "camera_model" (unscaled) or "robot_base"
    views: np.ndarray             # (N,) source view index
    pixels: np.ndarray            # (N, 2) source pixel as (w, h)
    colors: np.ndarray | None = None        # (N, 3) in [0, 1]
    segmentation: np.ndarray | None = None  # (N,) int class labels
    confidence: np.ndarray | None = None    # (N,)

    def __post_init__(self):
        n = len(self.points)
        for name in ("views", "pixels", "colors", "segmentation", "confidence"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != n:
                raise InputError(f"{name} has length {len(arr)}, expected {n}")

    def __len__(self):
        return len(self.points)


def transform_to_base(
    cloud: LabeledPointCloud,
    camera_poses: list,
    ee_poses: list,
    calib: CalibrationResult,
    force: bool = False,
) -> LabeledPointCloud:
    """Map a model-frame cloud into meters in the robot base frame.

    ``camera_poses`` are model-to-camera (model units) and ``ee_poses``
    base-to-end-effector, both lists indexed by view. Label arrays are
    carried through untouched. Refuses a non-converged calibration unless
    ``force`` is set; raises MissingView for a view outside either list.
    """
    if cloud.frame == ROBOT_BASE:
        raise InputError("cloud is already in the robot base frame")
    if not calib.converged and not force:
        raise UncalibratedInput(
            "calibration did not converge; pass force=True to override"
        )
    X = calib.pose
    out = np.empty_like(cloud.points)
    for v in np.unique(cloud.views):
        if not 0 <= v < min(len(camera_poses), len(ee_poses)):
            raise MissingView(f"no pose pair for view {v}")
        mask = cloud.views == v
        cam = camera_poses[v].apply(cloud.points[mask])   # model camera frame
        ee = X.apply(calib.scale * cam)                   # metric, ee frame
        out[mask] = ee_poses[v].inverse().apply(ee)       # robot base frame
    return replace(cloud, points=out, frame=ROBOT_BASE)


def join_pixel_labels(
    cloud: LabeledPointCloud,
    color_images=None,
    segmentation_images=None,
) -> LabeledPointCloud:
    """Attach per-pixel labels via each point's (view, w, h) provenance.

    The images are lists indexed by view; a view outside a list raises
    MissingView. An image of the wrong shape (color (H, W, 3), segmentation
    (H, W)) or a pixel outside its image raises DimensionMismatch."""

    def lookup(images, channels):
        shape = (len(cloud), channels) if channels else (len(cloud),)
        dtype = float if channels else int
        out = np.zeros(shape, dtype=dtype)
        for v in np.unique(cloud.views):
            if not 0 <= v < len(images):
                raise MissingView(f"no label image for view {v}")
            img = np.asarray(images[v])
            if img.ndim < 2 or img.shape[2:] != shape[1:]:
                form = f"(H, W, {channels})" if channels else "(H, W)"
                raise DimensionMismatch(f"view {v}: expected {form}, got {img.shape}")
            mask = cloud.views == v
            w = cloud.pixels[mask, 0]
            h = cloud.pixels[mask, 1]
            if (min(w.min(), h.min()) < 0 or (h >= img.shape[0]).any()
                    or (w >= img.shape[1]).any()):
                raise DimensionMismatch(
                    f"view {v}: pixels outside image shape {img.shape[:2]}"
                )
            out[mask] = img[h, w]
        return out

    colors = cloud.colors
    segmentation = cloud.segmentation
    if color_images is not None:
        colors = lookup(color_images, 3)
    if segmentation_images is not None:
        segmentation = lookup(segmentation_images, 0)
    return replace(cloud, colors=colors, segmentation=segmentation)


def estimate_height(z_values):
    """Robust top-surface height from per-point z in the base frame.

    Objects seen from above carry a dense cluster of points on the top
    face, so the median z of the upper band is nearly unbiased under
    symmetric point noise, unlike a max or high percentile which ride
    the noise tail.
    """
    z = np.asarray(z_values, dtype=float).reshape(-1)
    if z.size == 0:
        raise InputError("no points to estimate a height from")
    band = z[z >= np.percentile(z, HEIGHT_BAND_PERCENTILE)]
    return float(np.median(band))


def truth_errors(calib, gt_calib, gt_scale, points=None, labels=None,
                 object_heights=None):
    """Errors of a calibration, and of its cloud, against the synthetic truth.

    Returns the rotation error in degrees (``rot_err_deg``), the translation
    error in mm (``trans_err_mm``) and the scale error in % (``scale_err_pct``).
    Given a labeled base-frame cloud and the true object heights (class id
    -> top z over the table at z = 0), it adds ``heights``: per object
    present in the cloud, its true and estimated height in meters and the
    error in %, and ``height_err_pct``, the worst of those errors. Heights
    are measured from the reconstructed table, the median z of class 0, so
    a vertical offset shared by the whole cloud cancels.
    """
    out = {
        "rot_err_deg": float(
            np.degrees(rotation_angle(calib.rotation @ gt_calib.rotation.T))
        ),
        "trans_err_mm": float(
            1e3 * np.linalg.norm(calib.translation - gt_calib.translation)
        ),
        "scale_err_pct": float(100.0 * abs(calib.scale - gt_scale) / gt_scale),
    }
    if object_heights is None:
        return out
    if labels is None or not (labels == 0).any():
        raise InputError("height errors need a cloud labeled with its table (class 0)")
    table = float(np.median(points[labels == 0, 2]))
    heights = {}
    for cid, true_h in object_heights.items():
        mask = labels == int(cid)
        if true_h <= 0 or not mask.any():
            continue
        est = estimate_height(points[mask, 2]) - table
        heights[cid] = {
            "true_m": true_h,
            "estimated_m": est,
            "error_percent": 100.0 * abs(est - true_h) / true_h,
        }
    out["heights"] = heights
    out["height_err_pct"] = max(
        (h["error_percent"] for h in heights.values()), default=float("nan")
    )
    return out


def adaptive_confidence_threshold(confidences):
    """CONFIDENCE_PERCENTILE of all positive confidences; the filter level."""
    conf = np.concatenate([np.asarray(c).reshape(-1) for c in confidences])
    conf = conf[conf > 0]
    if conf.size == 0:
        return 0.0
    return float(np.percentile(conf, CONFIDENCE_PERCENTILE))


def reconstruct(
    aligned: AlignmentResult,
    ee_poses,
    calib: CalibrationResult,
    color_images=None,
    segmentation_images=None,
    force=False,
):
    """The metric, labeled cloud in the robot base frame from an alignment.

    Keeps the points at or above the adaptive confidence threshold,
    attaches the per-pixel labels when images are given, and maps the
    points through the inverted alignment poses and the calibrated chain
    (``transform_to_base``, which refuses a non-converged calibration
    unless ``force``). Returns (cloud, confidence threshold). Raises
    DimensionMismatch unless each list of images holds one image per view,
    of its view's (H, W).
    """
    sizes = [conf.shape for conf in aligned.confidences]
    for images in (color_images, segmentation_images):
        if images is not None and [np.shape(i)[:2] for i in images] != sizes:
            raise DimensionMismatch(
                f"label images of (H, W) {[np.shape(i)[:2] for i in images]} "
                f"for aligned maps of {sizes}")
    threshold = adaptive_confidence_threshold(aligned.confidences)
    points, views, pixels, confs = extract_point_cloud(aligned, threshold)
    cloud = LabeledPointCloud(
        points=points, frame=CAMERA_MODEL, views=views, pixels=pixels,
        confidence=confs,
    )
    if color_images is not None or segmentation_images is not None:
        cloud = join_pixel_labels(cloud, color_images, segmentation_images)
    camera_poses = [p.inverse() for p in aligned.poses]  # global -> camera
    cloud = transform_to_base(cloud, camera_poses, ee_poses, calib, force=force)
    return cloud, threshold
