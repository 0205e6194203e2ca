"""Synthetic scenes, ray casting, trajectories, and dataset generation."""

import numpy as np
import pytest

from jcr.calibration import calibrate
from jcr.errors import InputError, InsufficientDiversity
from jcr.geometry import Pose, exp_map
from jcr.synth import (
    BoxPrimitive,
    CameraConfig,
    CylinderPrimitive,
    HiddenParams,
    NoiseProfile,
    PlanePrimitive,
    SceneSpec,
    WORKSPACE,
    TrajectoryConfig,
    ray_cast,
    sample_surface,
    single_axis_trajectory,
    tabletop_scene,
    view_sphere_trajectory,
)

from util import connected, pose_dataset, rotation_error


def _camera_above(height):
    """Camera at z = height looking straight down the -z axis of the base."""
    R = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    return Pose(R, np.array([0.0, 0.0, height]))


class TestRayCast:
    def test_principal_ray_hits_plane_at_depth(self):
        scene = SceneSpec(
            primitives=(PlanePrimitive(Pose.identity(), extent=(2.0, 2.0)),)
        )
        cam = CameraConfig(width=33, height=25)
        cast = ray_cast(scene, _camera_above(0.8), cam)
        center = cast.points[cam.height // 2, cam.width // 2]
        assert np.allclose(center, [0.0, 0.0, 0.8], atol=1e-9)

    def test_box_height_extent(self):
        h = 0.15
        box = BoxPrimitive(
            Pose.identity().compose(
                Pose(np.eye(3), np.array([0.0, 0.0, h / 2]))
            ),
            size=(0.2, 0.2, h),
        )
        scene = SceneSpec(primitives=(box,))
        pose = _camera_above(1.0)
        cast = ray_cast(scene, pose, CameraConfig(width=64, height=48))
        hit = np.isfinite(cast.depth)
        assert hit.any()
        base_pts = pose.apply(cast.points[hit])
        assert abs(base_pts[:, 2].max() - h) < 1e-6
        assert base_pts[:, 2].min() > -1e-9

    def test_facing_away_all_miss(self):
        scene = tabletop_scene()
        up = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))  # +z away from table
        cast = ray_cast(scene, up, CameraConfig())
        assert not np.isfinite(cast.depth).any()
        assert (cast.labels == -1).all()

    def test_labels_and_colors_match_primitives(self):
        scene = tabletop_scene()
        cast = ray_cast(scene, _camera_above(0.8), CameraConfig(width=48, height=36))
        labels = np.unique(cast.labels)
        assert set(labels.tolist()) <= {-1, 0, 1, 2}
        assert {0, 1}.issubset(set(labels.tolist()))

    def test_bad_fov_rejected(self):
        with pytest.raises(InputError):
            CameraConfig(fov_deg=170.0)

    @pytest.mark.parametrize("size", [{"width": 0}, {"height": -1}])
    def test_empty_image_rejected(self, size):
        with pytest.raises(InputError):
            CameraConfig(**size)


class TestTrajectories:
    def test_view_sphere_is_diverse(self):
        rng = np.random.default_rng(0)
        poses = view_sphere_trajectory(TrajectoryConfig(num_poses=8), rng)
        assert len(poses) == 8
        # All cameras look at the scene centre from above the table.
        for p in poses:
            assert p.translation[2] > 0.2

    def test_single_axis_fails_diversity(self):
        from jcr.synth import _check_rotation_diversity

        poses = single_axis_trajectory(8)
        with pytest.raises(InsufficientDiversity):
            _check_rotation_diversity(poses)


class TestSceneSpec:
    def test_object_heights(self):
        scene = tabletop_scene()
        heights = scene.object_heights()
        assert heights[1] == pytest.approx(0.12)
        assert heights[2] == pytest.approx(0.16)

    def test_primitive_outside_workspace_rejected(self):
        with pytest.raises(InputError):
            SceneSpec(
                primitives=(
                    BoxPrimitive(
                        Pose(np.eye(3), np.array([5.0, 0.0, 0.0])),
                        size=(0.1, 0.1, 0.1),
                    ),
                )
            )


class TestNoiseProfile:
    def test_negative_sigma_rejected(self):
        with pytest.raises(InputError):
            NoiseProfile(sigma_rot=-1.0)

    @pytest.mark.parametrize("change", [
        {"dropout": 1.5}, {"dropout": -0.1}, {"dropout": float("nan")},
        {"pair_scale_jitter": -0.1}, {"pair_scale_jitter": float("nan")},
    ])
    def test_out_of_range_rejected(self, change):
        with pytest.raises(InputError):
            NoiseProfile(**change)

    def test_zero_profile(self):
        z = NoiseProfile.zero()
        assert z.sigma_rot == 0.0
        assert z.sigma_trans == 0.0
        assert z.sigma_point == 0.0


class TestGenerateDataset:
    def test_identity_hidden_params_make_poses_equal(self):
        hidden = HiddenParams(Pose.identity(), 1.0)
        ds = pose_dataset(seed=41, num_poses=6, hidden=hidden)
        for E, P in zip(ds.ee_poses, ds.camera_poses):
            assert np.abs(E.matrix() - P.matrix()).max() < 1e-9

    def test_zero_noise_calibrates_exactly(self):
        for seed in (42, 43):
            ds = pose_dataset(seed=seed, num_poses=10)
            gt = ds.ground_truth
            result = calibrate(ds.ee_poses, ds.camera_poses)
            assert rotation_error(result.rotation, gt.calib.rotation) < 1e-5
            assert np.linalg.norm(
                result.translation - gt.calib.translation
            ) < 1e-5
            assert abs(result.scale - gt.scale) / gt.scale < 1e-5

    def test_dropout_keeps_graph_connected(self):
        ds = pose_dataset(
            seed=44,
            num_poses=6,
            with_pointmaps=True,
            noise=NoiseProfile(dropout=0.95),
        )
        assert connected(ds.graph)
        assert len(ds.pairs) < 30  # most non-chain edges dropped

    def test_confidence_range_and_misses(self):
        ds = pose_dataset(seed=45, num_poses=4, with_pointmaps=True)
        for p in ds.pairs:
            for conf in (p.confidence_self, p.confidence_other):
                hits = conf[conf > 0]
                assert hits.min() >= 0.5 - 1e-9
                assert hits.max() <= 3.0 + 1e-9

    def test_pairwise_pointmaps_consistent_with_poses(self):
        """Noiseless pointmaps must satisfy the alignment model exactly."""
        ds = pose_dataset(seed=46, num_poses=4, with_pointmaps=True)
        lam = ds.ground_truth.scale
        for p in ds.pairs[:4]:
            C_n = ds.ground_truth.camera_to_base[p.n]
            C_m = ds.ground_truth.camera_to_base[p.m]
            rel = C_n.inverse().compose(C_m)  # camera m -> camera n, metric
            mask = p.confidence_other > 0
            got = p.pointmap_other[mask]
            expect = rel.apply(lam * _self_map(ds, p.m)[mask]) / lam
            assert np.abs(got - expect).max() < 1e-9

    def test_too_few_poses(self):
        with pytest.raises(InputError):
            pose_dataset(seed=47, num_poses=2)


def _self_map(ds, view):
    for p in ds.pairs:
        if p.n == view:
            return p.pointmap_self
    raise AssertionError(f"no self map for view {view}")


class TestSampleSurface:
    def test_labels_match_primitives(self):
        rng = np.random.default_rng(1)
        pts, colors, labels = sample_surface(tabletop_scene(), rng)
        assert len(pts) == len(colors) == len(labels)
        assert set(np.unique(labels).tolist()) == {0, 1, 2}
        assert colors.min() >= 0.0 and colors.max() <= 1.0

    def test_points_lie_in_workspace(self):
        rng = np.random.default_rng(2)
        scene = tabletop_scene()
        pts, _, _ = sample_surface(scene, rng)
        lo, hi = np.asarray(WORKSPACE[0]), np.asarray(WORKSPACE[1])
        assert (pts >= lo - 1e-9).all() and (pts <= hi + 1e-9).all()


def _rotated_scene():
    """A plane, a box and a cylinder, each turned about a different axis and
    moved off the base origin."""
    return SceneSpec(primitives=(
        PlanePrimitive(Pose(exp_map([0.10, -0.15, 0.40]), [0.02, -0.01, -0.03]),
                       extent=(1.0, 0.8), class_id=0),
        BoxPrimitive(Pose(exp_map([0.35, -0.50, 0.70]), [0.10, -0.06, 0.08]),
                     size=(0.14, 0.10, 0.12), class_id=1),
        CylinderPrimitive(Pose(exp_map([-0.45, 0.25, 0.10]), [-0.12, 0.10, 0.03]),
                          radius=0.05, height=0.16, class_id=2),
    ))


def _surface_normals(prim, p, tol=1e-9):
    """Outward local normals of local points ``p``; asserts that every point
    lies on the primitive's surface within ``tol``."""
    n = np.zeros_like(p)
    if isinstance(prim, BoxPrimitive):
        h = np.asarray(prim.size) / 2.0
        gap = np.abs(np.abs(p) - h)
        assert (np.abs(p) <= h + tol).all()
        assert (gap.min(axis=1) <= tol).all()
        axis = gap.argmin(axis=1)
        rows = np.arange(len(p))
        n[rows, axis] = np.sign(p[rows, axis])
    elif isinstance(prim, CylinderPrimitive):
        r = np.linalg.norm(p[:, :2], axis=1)
        side = (np.abs(r - prim.radius) <= tol) & (p[:, 2] >= -tol) & (
            p[:, 2] <= prim.height + tol)
        bottom = (np.abs(p[:, 2]) <= tol) & (r <= prim.radius + tol)
        top = (np.abs(p[:, 2] - prim.height) <= tol) & (r <= prim.radius + tol)
        assert (side | bottom | top).all()
        n[side, :2] = p[side, :2] / r[side, None]
        n[bottom & ~side, 2] = -1.0
        n[top & ~side, 2] = 1.0
    else:
        ex, ey = prim.extent
        assert (np.abs(p[:, 2]) <= tol).all()
        assert (np.abs(p[:, 0]) <= ex / 2 + tol).all()
        assert (np.abs(p[:, 1]) <= ey / 2 + tol).all()
        n[:, 2] = 1.0
    return n


class TestRotatedPrimitives:
    """Primitives whose local frame is not the base frame: hits and samples
    map back onto each primitive's surface, and the incidence at a hit is
    taken with the base-frame normal."""

    def test_ray_cast_hits_lie_on_surface_with_base_normals(self):
        scene = _rotated_scene()
        poses = view_sphere_trajectory(TrajectoryConfig(num_poses=6),
                                       np.random.default_rng(5))
        counts = np.zeros(3, dtype=int)
        for C in poses:
            cast = ray_cast(scene, C, CameraConfig(width=48, height=36))
            for prim in scene.primitives:
                mask = cast.labels == prim.class_id
                counts[prim.class_id] += mask.sum()
                base = C.apply(cast.points[mask])
                local = prim.pose.inverse().apply(base)
                normals = _surface_normals(prim, local) @ prim.pose.rotation.T
                rays = base - C.translation
                rays /= np.linalg.norm(rays, axis=1, keepdims=True)
                want = np.abs((rays * normals).sum(axis=1))
                assert np.abs(cast.incidence[mask] - want).max() < 1e-9
        assert (counts > 100).all(), counts

    def test_sample_surface_points_lie_on_surface(self):
        scene = _rotated_scene()
        pts, _, labels = sample_surface(scene, np.random.default_rng(3))
        for prim in scene.primitives:
            mask = labels == prim.class_id
            assert mask.sum() > 10
            _surface_normals(prim, prim.pose.inverse().apply(pts[mask]))
