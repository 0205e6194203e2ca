"""Synthetic scenes, trajectories, and pairwise pointmaps with known truth.

Generates desk-scale datasets that are exactly consistent with the
hand-eye relation under a hidden (camera-to-end-effector transform,
scale) pair, plus the pairwise pointmap/confidence structure a 3D
foundation model would emit. Noiseless datasets drive the exact-recovery
tests; a noise profile produces realistic degradation.

Frame conventions (shared with the rest of the package):
    * scene primitives and trajectories live in the robot base frame,
    * a trajectory yields camera-to-base poses C_n,
    * end-effector poses are base-to-end-effector: E_n = X C_n^-1 with
      X the hidden camera-to-end-effector transform,
    * camera poses handed to calibration are model-to-camera with
      translations divided by the hidden scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import PairGraph, PairwisePrediction, default_pair_graph
from .errors import InputError, InsufficientDiversity
from .geometry import Pose, exp_map, log_map, random_rotation

_FAR = np.inf
# Confidences of hit pixels are rescaled to this range; misses get 0.
CONFIDENCE_RANGE = (0.5, 3.0)


# ---------------------------------------------------------------------------
# Scene primitives


@dataclass(frozen=True)
class BoxPrimitive:
    pose: Pose          # local -> base; box spans [-size/2, size/2] locally
    size: tuple         # (sx, sy, sz) meters
    color: tuple = (0.5, 0.5, 0.5)
    class_id: int = 0

    def top_z(self):
        corners = np.array(
            [
                [sx, sy, sz]
                for sx in (-self.size[0] / 2, self.size[0] / 2)
                for sy in (-self.size[1] / 2, self.size[1] / 2)
                for sz in (-self.size[2] / 2, self.size[2] / 2)
            ]
        )
        return float(self.pose.apply(corners)[:, 2].max())


@dataclass(frozen=True)
class CylinderPrimitive:
    pose: Pose          # local -> base; axis +z, spans z in [0, height]
    radius: float
    height: float
    color: tuple = (0.5, 0.5, 0.5)
    class_id: int = 0

    def top_z(self):
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        rim = np.column_stack(
            [
                self.radius * np.cos(theta),
                self.radius * np.sin(theta),
                np.full_like(theta, self.height),
            ]
        )
        return float(self.pose.apply(rim)[:, 2].max())


@dataclass(frozen=True)
class PlanePrimitive:
    pose: Pose          # local -> base; rectangle in local z=0 plane
    extent: tuple       # (ex, ey) meters
    color: tuple = (0.8, 0.8, 0.8)
    class_id: int = 0

    def top_z(self):
        return float(self.pose.translation[2])


WORKSPACE = ((-1.0, -1.0, -0.2), (1.0, 1.0, 1.0))  # holds primitive centres
SURFACE_DENSITY = 4000.0  # points / m^2 for surface sampling


@dataclass(frozen=True)
class SceneSpec:
    primitives: tuple

    def __post_init__(self):
        lo, hi = np.array(WORKSPACE[0]), np.array(WORKSPACE[1])
        for p in self.primitives:
            c = p.pose.translation
            if (c < lo - 1e-9).any() or (c > hi + 1e-9).any():
                raise InputError(f"primitive centred at {c} outside workspace")

    def object_heights(self):
        """Top-surface z per class id (table assumed at z = 0)."""
        return {p.class_id: p.top_z() for p in self.primitives}


def tabletop_scene():
    """Default test scene: table plane, one box, one cylinder."""
    return SceneSpec(
        primitives=(
            PlanePrimitive(
                pose=Pose.identity(),
                extent=(1.2, 1.2),
                color=(0.85, 0.82, 0.75),
                class_id=0,
            ),
            BoxPrimitive(
                pose=Pose(np.eye(3), [0.10, -0.05, 0.06]),
                size=(0.14, 0.10, 0.12),
                color=(0.8, 0.2, 0.2),
                class_id=1,
            ),
            CylinderPrimitive(
                pose=Pose(np.eye(3), [-0.12, 0.10, 0.0]),
                radius=0.045,
                height=0.16,
                color=(0.2, 0.4, 0.8),
                class_id=2,
            ),
        )
    )


# ---------------------------------------------------------------------------
# Ray casting


def _ray_box(origins, dirs, box: BoxPrimitive):
    inv = box.pose.inverse()
    o = inv.apply(origins)
    d = dirs @ inv.rotation.T
    h = np.asarray(box.size, dtype=float) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-h - o) / d
        t2 = (h - o) / d
    t_lo = np.minimum(t1, t2)
    t_hi = np.maximum(t1, t2)
    # Parallel rays miss the slab unless the origin is inside it.
    parallel = np.abs(d) < 1e-12
    inside = np.abs(o) <= h
    t_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), t_lo)
    t_hi = np.where(parallel, np.where(inside, np.inf, -np.inf), t_hi)
    tmin = t_lo.max(axis=1)
    tmax = t_hi.min(axis=1)
    hit = (tmax >= tmin) & (tmin > 1e-9) & np.isfinite(tmin)
    t = np.where(hit, tmin, _FAR)
    axis = np.argmax(t_lo, axis=1)
    normal_local = np.zeros_like(o)
    rows = np.arange(len(o))
    normal_local[rows, axis] = -np.sign(d[rows, axis])
    normals = normal_local @ box.pose.rotation.T
    return t, normals


def _ray_cylinder(origins, dirs, cyl: CylinderPrimitive):
    inv = cyl.pose.inverse()
    o = inv.apply(origins)
    d = dirs @ inv.rotation.T
    t = np.full(len(o), _FAR)
    normals = np.zeros_like(o)

    # Side surface: quadratic in the xy-plane.
    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
    c = o[:, 0] ** 2 + o[:, 1] ** 2 - cyl.radius**2
    disc = b**2 - 4 * a * c
    ok = (disc >= 0) & (a > 1e-14)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            ts = np.where(ok, (-b + sign * sq) / (2 * a), _FAR)
            z = o[:, 2] + ts * d[:, 2]
            valid = ok & (ts > 1e-9) & (z >= 0) & (z <= cyl.height) & (ts < t)
            if valid.any():
                p = o[valid] + ts[valid, None] * d[valid]
                n = np.zeros_like(p)
                n[:, :2] = p[:, :2] / cyl.radius
                t[valid] = ts[valid]
                normals[valid] = n

    # Caps at z = 0 and z = height.
    for z0, nz in ((0.0, -1.0), (cyl.height, 1.0)):
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = (z0 - o[:, 2]) / d[:, 2]
        p_xy = o[:, :2] + ts[:, None] * d[:, :2]
        valid = (
            (np.abs(d[:, 2]) > 1e-12)
            & (ts > 1e-9)
            & ((p_xy**2).sum(axis=1) <= cyl.radius**2)
            & (ts < t)
        )
        t[valid] = ts[valid]
        normals[valid] = np.array([0.0, 0.0, nz])

    return t, normals @ cyl.pose.rotation.T


def _ray_rect(origins, dirs, plane: PlanePrimitive):
    inv = plane.pose.inverse()
    o = inv.apply(origins)
    d = dirs @ inv.rotation.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = -o[:, 2] / d[:, 2]
    p_xy = o[:, :2] + ts[:, None] * d[:, :2]
    ex, ey = plane.extent
    valid = (
        (np.abs(d[:, 2]) > 1e-12)
        & (ts > 1e-9)
        & (np.abs(p_xy[:, 0]) <= ex / 2)
        & (np.abs(p_xy[:, 1]) <= ey / 2)
    )
    t = np.where(valid, ts, _FAR)
    normal_local = np.zeros_like(o)
    normal_local[:, 2] = -np.sign(d[:, 2])
    return t, normal_local @ plane.pose.rotation.T


_INTERSECTORS = {
    BoxPrimitive: _ray_box,
    CylinderPrimitive: _ray_cylinder,
    PlanePrimitive: _ray_rect,
}


@dataclass(frozen=True)
class CameraConfig:
    width: int = 32
    height: int = 24
    fov_deg: float = 60.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InputError(
                f"camera width {self.width} and height {self.height} must be >= 1"
            )
        if not (10.0 < self.fov_deg < 120.0):
            raise InputError(f"fov {self.fov_deg} outside (10, 120) degrees")


@dataclass
class RayCastResult:
    points: np.ndarray      # (H, W, 3) camera-frame hit points, meters
    labels: np.ndarray      # (H, W) class id, -1 for miss
    colors: np.ndarray      # (H, W, 3) in [0, 1], 0 for miss
    depth: np.ndarray       # (H, W) ray parameter, inf for miss
    incidence: np.ndarray   # (H, W) |cos| of incidence angle at the hit


def ray_cast(scene: SceneSpec, camera_pose: Pose, camera: CameraConfig):
    """Per-pixel nearest-primitive intersection.

    ``camera_pose`` maps camera coordinates to the base frame. The camera
    looks along +z with x right and y down; returned points are in the
    camera frame (metric).
    """
    W, H = camera.width, camera.height
    f = (W / 2.0) / np.tan(np.deg2rad(camera.fov_deg) / 2.0)
    u = (np.arange(W) + 0.5) - W / 2.0
    v = (np.arange(H) + 0.5) - H / 2.0
    uu, vv = np.meshgrid(u, v)
    dirs_cam = np.stack([uu / f, vv / f, np.ones_like(uu)], axis=-1)
    dirs_cam /= np.linalg.norm(dirs_cam, axis=-1, keepdims=True)
    dirs = dirs_cam.reshape(-1, 3) @ camera_pose.rotation.T
    origins = np.broadcast_to(camera_pose.translation, dirs.shape)

    best_t = np.full(len(dirs), _FAR)
    best_normal = np.zeros_like(dirs)
    best_label = np.full(len(dirs), -1, dtype=int)
    best_color = np.zeros_like(dirs)
    for prim in scene.primitives:
        t, normals = _INTERSECTORS[type(prim)](origins, dirs, prim)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_normal[closer] = normals[closer]
        best_label[closer] = prim.class_id
        best_color[closer] = np.asarray(prim.color)

    hit = np.isfinite(best_t)
    pts_base = origins + best_t[:, None] * dirs
    pts_base[~hit] = 0.0
    pts_cam = camera_pose.inverse().apply(pts_base)
    pts_cam[~hit] = 0.0
    incidence = np.abs((dirs * best_normal).sum(axis=1))
    incidence[~hit] = 0.0
    return RayCastResult(
        points=pts_cam.reshape(H, W, 3),
        labels=best_label.reshape(H, W),
        colors=best_color.reshape(H, W, 3),
        depth=best_t.reshape(H, W),
        incidence=incidence.reshape(H, W),
    )


# ---------------------------------------------------------------------------
# Trajectories


# View-sphere trajectories.
LOOK_AT = (0.0, 0.0, 0.05)          # look-at target, base frame
VIEW_RADIUS = (0.45, 0.70)          # distance band, meters
VIEW_ELEVATION_DEG = (35.0, 70.0)
VIEW_ROLL_DEG = 25.0                # max random roll about the optical axis
MIN_AXIS_ANGLE_DEG = 5.0            # rotation-diversity requirement


@dataclass(frozen=True)
class TrajectoryConfig:
    num_poses: int = 10


def _look_at(position, target, roll):
    """Camera-to-base pose: +z toward target, roll about the optical axis."""
    z = np.asarray(target, dtype=float) - position
    z /= np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(up, z)) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.column_stack([x, y, z]) @ exp_map([0.0, 0.0, roll])
    return Pose(R, position)


def view_sphere_trajectory(cfg: TrajectoryConfig, rng):
    """Camera-to-base poses on a sphere cap around the scene centre."""
    poses = []
    az = rng.uniform(0, 2 * np.pi)
    for i in range(cfg.num_poses):
        az += 2 * np.pi / cfg.num_poses * rng.uniform(0.7, 1.3)
        el = np.deg2rad(rng.uniform(*VIEW_ELEVATION_DEG))
        r = rng.uniform(*VIEW_RADIUS)
        pos = np.asarray(LOOK_AT) + r * np.array(
            [np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)]
        )
        roll = np.deg2rad(rng.uniform(-VIEW_ROLL_DEG, VIEW_ROLL_DEG))
        poses.append(_look_at(pos, LOOK_AT, roll))
    _check_rotation_diversity(poses)
    return poses


def single_axis_trajectory(num_poses, axis=(0.0, 0.0, 1.0), step_deg=12.0,
                           translation_step=(0.03, 0.01, 0.02)):
    """Degenerate trajectory: every relative rotation shares one axis."""
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    poses = []
    for i in range(num_poses):
        R = exp_map(axis * np.deg2rad(step_deg) * i)
        t = np.array([0.5, 0.0, 0.3]) + i * np.asarray(translation_step)
        poses.append(Pose(R, t))
    return poses


def _check_rotation_diversity(poses):
    axes = []
    for a, b in zip(poses[:-1], poses[1:]):
        v = log_map(b.rotation @ a.rotation.T)
        n = np.linalg.norm(v)
        if n > 1e-9:
            axes.append(v / n)
    ok = any(
        np.arccos(np.clip(abs(np.dot(u, w)), 0, 1))
        > np.deg2rad(MIN_AXIS_ANGLE_DEG)
        for i, u in enumerate(axes)
        for w in axes[i + 1 :]
    )
    if not ok:
        raise InsufficientDiversity(
            "trajectory rotation axes are (near-)parallel; hand-eye "
            "calibration needs at least two distinct axes"
        )


# ---------------------------------------------------------------------------
# Noise and dataset generation


@dataclass(frozen=True)
class NoiseProfile:
    sigma_rot: float = np.deg2rad(0.5)   # end-effector rotation noise, rad
    sigma_trans: float = 0.002           # end-effector translation noise, m
    sigma_point: float = 0.01            # pointmap noise, model units
    dropout: float = 0.0                 # pair dropout probability
    pair_scale_jitter: float = 0.0       # lognormal sigma on per-pair scale

    def __post_init__(self):
        spreads = (self.sigma_rot, self.sigma_trans, self.sigma_point,
                   self.pair_scale_jitter)
        if not (all(s >= 0 for s in spreads) and 0 <= self.dropout <= 1):
            raise InputError(f"noise sigmas and pair_scale_jitter must be >= 0 "
                             f"and dropout in [0, 1], got {self}")

    @staticmethod
    def zero():
        return NoiseProfile(0.0, 0.0, 0.0, dropout=0.0, pair_scale_jitter=0.0)


MAX_OFFSET = 0.08  # HiddenParams.random: largest calib translation per axis, m


@dataclass(frozen=True)
class HiddenParams:
    calib: Pose        # camera -> end-effector, meters
    scale: float       # meters per model unit

    def __post_init__(self):
        if not 0 < self.scale < np.inf:
            raise InputError(
                f"HiddenParams.scale must be finite and > 0, got {self.scale!r}")

    @staticmethod
    def random(rng):
        R = random_rotation(rng, max_angle=np.pi / 2)
        t = rng.uniform(-MAX_OFFSET, MAX_OFFSET, size=3)
        lam = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        return HiddenParams(Pose(R, t), lam)


@dataclass
class GroundTruth:
    calib: Pose
    scale: float
    camera_to_base: list        # metric C_n
    ee_poses_clean: list
    object_heights: dict        # class id -> top z (meters)


@dataclass
class SynthDataset:
    ee_poses: list              # base -> end-effector, noise applied
    camera_poses: list          # model -> camera, model units, exact
    pairs: list                 # PairwisePrediction, noise applied
    graph: PairGraph | None
    color_images: list          # per-view (H, W, 3)
    segmentation_images: list   # per-view (H, W) int, -1 for miss
    ground_truth: GroundTruth


def _confidence_from_cast(cast: RayCastResult, lo, hi):
    """Incidence x distance falloff, rescaled to [lo, hi]; misses get 0."""
    hit = np.isfinite(cast.depth)
    raw = np.where(hit, cast.incidence / (1.0 + cast.depth**2), 0.0)
    if hit.any():
        rmin, rmax = raw[hit].min(), raw[hit].max()
        span = rmax - rmin
        scaled = lo + (hi - lo) * (raw - rmin) / span if span > 0 else (
            np.full_like(raw, (lo + hi) / 2.0)
        )
        raw = np.where(hit, scaled, 0.0)
    return raw


def generate_dataset(
    scene: SceneSpec,
    trajectory: TrajectoryConfig,
    hidden: HiddenParams,
    noise: NoiseProfile,
    seed: int,
    camera: CameraConfig | None = None,
    with_pointmaps: bool = True,
):
    """Full synthetic dataset consistent with the hidden calibration.

    Camera poses satisfy the hand-eye relation exactly before noise;
    pointmaps are ray-cast hits expressed in camera frames in model units
    (metric divided by the hidden scale), one prediction per edge of
    ``default_pair_graph`` that pair dropout keeps.
    """
    if trajectory.num_poses < 3:
        raise InputError("need at least 3 poses")
    rng = np.random.default_rng(seed)
    cam_to_base = view_sphere_trajectory(trajectory, rng)
    X = hidden.calib
    lam = hidden.scale

    ee_clean = [X.compose(C.inverse()) for C in cam_to_base]
    ee_noisy = []
    for E in ee_clean:
        if noise.sigma_rot > 0 or noise.sigma_trans > 0:
            dR = exp_map(rng.normal(0.0, noise.sigma_rot, size=3))
            dt = rng.normal(0.0, noise.sigma_trans, size=3)
            ee_noisy.append(Pose(dR @ E.rotation, E.translation + dt))
        else:
            ee_noisy.append(E)

    camera_poses = []
    for C in cam_to_base:
        C_inv = C.inverse()
        camera_poses.append(Pose(C_inv.rotation, C_inv.translation / lam))

    pairs = []
    color_images = []
    seg_images = []
    used_graph = None
    if with_pointmaps:
        camera = camera or CameraConfig()
        casts = [ray_cast(scene, C, camera) for C in cam_to_base]
        color_images = [c.colors for c in casts]
        seg_images = [c.labels for c in casts]
        confs = [
            _confidence_from_cast(c, *CONFIDENCE_RANGE) for c in casts
        ]
        used_graph = default_pair_graph(trajectory.num_poses)
        edges = list(used_graph.edges)
        if noise.dropout > 0:
            keep = [e for e in edges if rng.random() > noise.dropout]
            # Always keep a connected chain in both directions.
            chain = {(i, i + 1) for i in range(trajectory.num_poses - 1)}
            chain |= {(i + 1, i) for i in range(trajectory.num_poses - 1)}
            kept = set(keep) | (chain & set(edges))
            edges = [e for e in edges if e in kept]
            used_graph = PairGraph(trajectory.num_poses, tuple(edges))
        for n, m in edges:
            rel = cam_to_base[n].inverse().compose(cam_to_base[m])  # m -> n
            pm_self = casts[n].points / lam
            hit_m = np.isfinite(casts[m].depth)
            pm_other_metric = casts[m].points.reshape(-1, 3) @ rel.rotation.T
            pm_other_metric = pm_other_metric + rel.translation
            pm_other = (pm_other_metric / lam).reshape(casts[m].points.shape)
            pm_other[~hit_m] = 0.0
            c_self, c_other = confs[n].copy(), confs[m].copy()
            s_pair = 1.0
            if noise.pair_scale_jitter > 0:
                s_pair = float(
                    np.exp(rng.normal(0.0, noise.pair_scale_jitter))
                )
            pm_self = pm_self * s_pair
            pm_other = pm_other * s_pair
            if noise.sigma_point > 0:
                for pm, cc in ((pm_self, c_self), (pm_other, c_other)):
                    # Less confident pixels are noisier.
                    sig = noise.sigma_point / np.maximum(cc, 0.25)
                    eps = rng.normal(size=pm.shape) * sig[..., None]
                    hit = cc > 0
                    pm[hit] += eps[hit]
            pairs.append(
                PairwisePrediction(
                    n=n,
                    m=m,
                    pointmap_self=pm_self,
                    pointmap_other=pm_other,
                    confidence_self=c_self,
                    confidence_other=c_other,
                )
            )

    gt = GroundTruth(
        calib=X,
        scale=lam,
        camera_to_base=cam_to_base,
        ee_poses_clean=ee_clean,
        object_heights=scene.object_heights(),
    )
    return SynthDataset(
        ee_poses=ee_noisy,
        camera_poses=camera_poses,
        pairs=pairs,
        graph=used_graph,
        color_images=color_images,
        segmentation_images=seg_images,
        ground_truth=gt,
    )


# ---------------------------------------------------------------------------
# Surface sampling (training data for field tests)


def _sample_box(box: BoxPrimitive, density, rng):
    sx, sy, sz = box.size
    faces = [
        (sx * sy, 2), (sx * sy, 2),   # z faces
        (sx * sz, 1), (sx * sz, 1),   # y faces
        (sy * sz, 0), (sy * sz, 0),   # x faces
    ]
    pts = []
    half = np.array([sx, sy, sz]) / 2.0
    for k, (area, axis) in enumerate(faces):
        n = max(int(area * density), 1)
        p = rng.uniform(-half, half, size=(n, 3))
        p[:, axis] = half[axis] if k % 2 == 0 else -half[axis]
        pts.append(p)
    return box.pose.apply(np.vstack(pts))


def _sample_cylinder(cyl: CylinderPrimitive, density, rng):
    side_area = 2 * np.pi * cyl.radius * cyl.height
    cap_area = np.pi * cyl.radius**2
    n_side = max(int(side_area * density), 1)
    theta = rng.uniform(0, 2 * np.pi, n_side)
    z = rng.uniform(0, cyl.height, n_side)
    side = np.column_stack(
        [cyl.radius * np.cos(theta), cyl.radius * np.sin(theta), z]
    )
    pts = [side]
    for z0 in (0.0, cyl.height):
        n_cap = max(int(cap_area * density), 1)
        r = cyl.radius * np.sqrt(rng.uniform(0, 1, n_cap))
        th = rng.uniform(0, 2 * np.pi, n_cap)
        pts.append(
            np.column_stack([r * np.cos(th), r * np.sin(th), np.full(n_cap, z0)])
        )
    return cyl.pose.apply(np.vstack(pts))


def _sample_plane(plane: PlanePrimitive, density, rng):
    ex, ey = plane.extent
    n = max(int(ex * ey * density), 1)
    p = np.column_stack(
        [
            rng.uniform(-ex / 2, ex / 2, n),
            rng.uniform(-ey / 2, ey / 2, n),
            np.zeros(n),
        ]
    )
    return plane.pose.apply(p)


_SAMPLERS = {
    BoxPrimitive: _sample_box,
    CylinderPrimitive: _sample_cylinder,
    PlanePrimitive: _sample_plane,
}


def sample_surface(scene: SceneSpec, rng):
    """Random surface points with colors and class labels, base frame, at
    SURFACE_DENSITY points per m^2."""
    pts, colors, labels = [], [], []
    for prim in scene.primitives:
        p = _SAMPLERS[type(prim)](prim, SURFACE_DENSITY, rng)
        pts.append(p)
        colors.append(np.tile(np.asarray(prim.color), (len(p), 1)))
        labels.append(np.full(len(p), prim.class_id))
    return np.vstack(pts), np.vstack(colors), np.concatenate(labels)
