"""Model-frame points into the metric robot base frame."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from jcr.calibration import CalibrationResult
from jcr import reconstruction
from jcr.errors import (
    DimensionMismatch,
    InputError,
    MissingView,
    UncalibratedInput,
)
from jcr.geometry import Pose, random_rotation
from jcr.reconstruction import (
    LabeledPointCloud,
    adaptive_confidence_threshold,
    estimate_height,
    join_pixel_labels,
    reconstruct,
    transform_to_base,
    truth_errors,
)

from util import pose_dataset

ROOT = Path(__file__).resolve().parents[1]


def _calib_result(pose: Pose, scale, converged=True):
    return CalibrationResult(
        rotation=pose.rotation,
        translation=pose.translation,
        scale=scale,
        residuals_t=np.zeros(1),
        residuals_r=np.zeros(1),
        converged=converged,
        num_pairs=1,
    )


def _cloud(points, views=None):
    points = np.asarray(points, dtype=float)
    n = len(points)
    return LabeledPointCloud(
        points=points,
        frame="camera_model",
        views=np.zeros(n, dtype=int) if views is None else views,
        pixels=np.zeros((n, 2), dtype=int),
    )


class TestTransformToBase:
    def test_identity_everything_is_identity(self):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        out = transform_to_base(
            _cloud(pts),
            [Pose.identity()],
            [Pose.identity()],
            _calib_result(Pose.identity(), 1.0),
        )
        assert np.allclose(out.points, pts)
        assert out.frame == "robot_base"

    def test_round_trip_through_ground_truth(self):
        """Base-frame points pushed into camera-model coordinates come back."""
        rng = np.random.default_rng(1)
        ds = pose_dataset(seed=51, num_poses=4)
        gt = ds.ground_truth
        lam = gt.scale
        base_pts = rng.uniform(-0.3, 0.3, size=(40, 3))
        views = rng.integers(0, 4, size=40)
        model_pts = np.empty_like(base_pts)
        for v in range(4):
            mask = views == v
            # base -> camera (metric) -> model units, then undo the
            # model-to-camera pose to land in the shared model frame.
            cam_metric = gt.camera_to_base[v].inverse().apply(base_pts[mask])
            model_pts[mask] = ds.camera_poses[v].inverse().apply(cam_metric / lam)
        out = transform_to_base(
            _cloud(model_pts, views),
            ds.camera_poses,
            gt.ee_poses_clean,
            _calib_result(gt.calib, lam),
        )
        assert np.abs(out.points - base_pts).max() < 1e-6

    def test_scale_doubling_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(10, 3))
        cam = Pose(random_rotation(rng), rng.normal(size=3))
        ee = Pose(random_rotation(rng), rng.normal(size=3))
        X = Pose(random_rotation(rng), rng.uniform(-0.1, 0.1, 3))
        for lam in (0.7, 1.4):
            out = transform_to_base(
                _cloud(pts), [cam], [ee], _calib_result(X, lam)
            )
            direct = ee.inverse().apply(X.apply(lam * cam.apply(pts)))
            assert np.abs(out.points - direct).max() < 1e-12

    def test_unconverged_calibration_refused(self):
        pts = np.zeros((3, 3))
        calib = _calib_result(Pose.identity(), 1.0, converged=False)
        with pytest.raises(UncalibratedInput):
            transform_to_base(_cloud(pts), [Pose.identity()], [Pose.identity()], calib)
        out = transform_to_base(
            _cloud(pts), [Pose.identity()], [Pose.identity()], calib, force=True
        )
        assert out.frame == "robot_base"

    def test_already_in_base_frame_rejected(self):
        cloud = _cloud(np.zeros((2, 3)))
        cloud.frame = "robot_base"
        with pytest.raises(InputError):
            transform_to_base(
                cloud, [Pose.identity()], [Pose.identity()],
                _calib_result(Pose.identity(), 1.0),
            )

    def test_missing_view_pose(self):
        cloud = _cloud(np.zeros((2, 3)), views=np.array([0, 3]))
        with pytest.raises(MissingView):
            transform_to_base(
                cloud, [Pose.identity()], [Pose.identity()],
                _calib_result(Pose.identity(), 1.0),
            )

    def test_negative_view_pose(self):
        # A list would index view -1 from its end.
        cloud = _cloud(np.zeros((2, 3)), views=np.array([0, -1]))
        with pytest.raises(MissingView):
            transform_to_base(
                cloud, [Pose.identity()] * 2, [Pose.identity()] * 2,
                _calib_result(Pose.identity(), 1.0),
            )



class TestJoinPixelLabels:
    def _cloud_with_pixels(self, pixels, views):
        n = len(pixels)
        return LabeledPointCloud(
            points=np.zeros((n, 3)),
            frame="camera_model",
            views=np.asarray(views),
            pixels=np.asarray(pixels),
        )

    def test_constant_color(self):
        cloud = self._cloud_with_pixels([[0, 0], [1, 1], [2, 0]], [0, 0, 0])
        img = np.full((2, 3, 3), 0.25)
        out = join_pixel_labels(cloud, color_images=[img])
        assert np.allclose(out.colors, 0.25)

    def test_unique_labels_match_lookup(self):
        rng = np.random.default_rng(3)
        seg = np.arange(12).reshape(3, 4)
        ww = rng.integers(0, 4, size=30)
        hh = rng.integers(0, 3, size=30)
        cloud = self._cloud_with_pixels(
            np.column_stack([ww, hh]), np.zeros(30, dtype=int)
        )
        out = join_pixel_labels(cloud, segmentation_images=[seg])
        for i in range(30):
            assert out.segmentation[i] == seg[hh[i], ww[i]]

    def test_missing_view_image(self):
        cloud = self._cloud_with_pixels([[0, 0]], [2])
        with pytest.raises(MissingView):
            join_pixel_labels(cloud, segmentation_images=[np.zeros((2, 2), int)])

    def test_negative_view_image(self):
        cloud = self._cloud_with_pixels([[0, 0]], [-1])
        with pytest.raises(MissingView):
            join_pixel_labels(cloud, segmentation_images=[np.zeros((2, 2), int)])

    def test_out_of_range_pixel(self):
        from jcr.errors import DimensionMismatch

        cloud = self._cloud_with_pixels([[5, 0]], [0])
        with pytest.raises(DimensionMismatch):
            join_pixel_labels(cloud, segmentation_images=[np.zeros((2, 2), int)])

    @pytest.mark.parametrize("pixel", [[-1, 0], [0, -1]])
    @pytest.mark.parametrize("kind", ["color", "segmentation"])
    def test_negative_pixel(self, pixel, kind):
        """A negative pixel would index from the image's far edge."""
        cloud = self._cloud_with_pixels([[0, 0], pixel], [0, 0])
        img = np.zeros((2, 2, 3)) if kind == "color" else np.zeros((2, 2), int)
        with pytest.raises(DimensionMismatch):
            join_pixel_labels(cloud, **{f"{kind}_images": [img]})

    @pytest.mark.parametrize("kind, shape", [
        ("segmentation", ()), ("segmentation", (4,)),
        ("segmentation", (2, 2, 1)), ("segmentation", (2, 2, 3)),
        ("color", ()), ("color", (4,)), ("color", (2, 2)),
        ("color", (2, 2, 1)), ("color", (2, 2, 3, 1)),
    ])
    def test_image_of_wrong_shape(self, kind, shape):
        """Segmentation images are (H, W), color images (H, W, 3)."""
        cloud = self._cloud_with_pixels([[0, 0]], [0])
        with pytest.raises(DimensionMismatch):
            join_pixel_labels(cloud, **{f"{kind}_images": [np.zeros(shape, int)]})


class TestHelpers:
    def test_label_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            LabeledPointCloud(
                points=np.zeros((3, 3)),
                frame="camera_model",
                views=np.zeros(2, dtype=int),
                pixels=np.zeros((3, 2), dtype=int),
            )

    def test_adaptive_threshold_is_percentile(self, monkeypatch):
        conf = [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 5.0]])]
        want = np.percentile([1, 2, 3, 4, 5], 65.0)
        assert adaptive_confidence_threshold(conf) == pytest.approx(want)
        monkeypatch.setattr(reconstruction, "CONFIDENCE_PERCENTILE", 50.0)
        got = adaptive_confidence_threshold(conf)
        assert got == pytest.approx(np.percentile([1, 2, 3, 4, 5], 50))

    def test_estimate_height_noiseless(self):
        z = np.concatenate([np.full(200, 0.12), np.linspace(0.0, 0.12, 100)])
        assert estimate_height(z) == pytest.approx(0.12)

    def test_estimate_height_ignores_upward_outliers(self):
        rng = np.random.default_rng(4)
        z = np.concatenate(
            [np.full(500, 0.12) + rng.normal(0, 0.002, 500), [0.5, 0.6]]
        )
        # The band median carries a small upward bias (about 1.3 sigma of
        # the per-point noise) but shrugs off the gross outliers.
        assert abs(estimate_height(z) - 0.12) < 0.0035

    def test_estimate_height_empty(self):
        with pytest.raises(InputError):
            estimate_height([])


def _load(path):
    """Import a script or benchmark module that is not on the path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def benchmark_tabletop():
    """The benchmark's workloads module and its tabletop scenes (seeds 1000
    and 1001), each run through the benchmark's own written-out chain of
    align, calibrate and reconstruct calls."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # workloads imports spans
    try:
        workloads = _load(ROOT / "perfbench" / "workloads.py")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    bench = workloads.TabletopLibrary()
    return workloads, [(ds, bench.scene(item)) for item in bench.setup(None)
                       for ds in [item[1]]]


class TestPipeline:
    def test_reconstruct_matches_written_out_chain(self, benchmark_tabletop):
        _, runs = benchmark_tabletop
        for ds, (aligned, calib, cloud) in runs:
            got, threshold = reconstruct(
                aligned, ds.ee_poses, calib, ds.color_images,
                ds.segmentation_images,
            )
            assert threshold == adaptive_confidence_threshold(aligned.confidences)
            assert got.frame == cloud.frame
            for name in ("points", "colors", "segmentation", "views", "pixels",
                         "confidence"):
                assert np.array_equal(getattr(got, name), getattr(cloud, name))

    def test_truth_errors_match_benchmark(self, benchmark_tabletop):
        workloads, runs = benchmark_tabletop
        for ds, (_, calib, cloud) in runs:
            gt = ds.ground_truth
            got = truth_errors(calib, gt.calib, gt.scale, cloud.points,
                               cloud.segmentation, gt.object_heights)
            want = workloads._calib_errors(
                calib.rotation, calib.translation, calib.scale, gt.calib,
                gt.scale,
            )
            want["height_err_pct"] = workloads._height_err_pct(
                cloud.points, cloud.segmentation, gt.object_heights
            )
            assert {k: got[k] for k in want} == want
            assert got["heights"].keys() == {1, 2}

    @pytest.mark.parametrize("which", ["color", "segmentation"])
    @pytest.mark.parametrize("change", ["larger", "one-more", "one-fewer"])
    def test_label_images_must_match_the_maps(self, benchmark_tabletop, which,
                                               change):
        _, runs = benchmark_tabletop
        ds, (aligned, calib, _) = runs[0]
        images = list(getattr(ds, f"{which}_images"))
        if change == "larger":
            images[3] = np.repeat(np.repeat(images[3], 2, axis=0), 2, axis=1)
        elif change == "one-more":
            images.append(images[0])
        else:
            images.pop()
        kwargs = {f"{which}_images": images}
        with pytest.raises(DimensionMismatch):
            reconstruct(aligned, ds.ee_poses, calib, **kwargs)

    def test_truth_errors_need_a_table(self):
        calib = _calib_result(Pose.identity(), 1.0)
        pts = np.zeros((4, 3))
        with pytest.raises(InputError):
            truth_errors(calib, Pose.identity(), 1.0, pts, np.ones(4, int),
                         {1: 0.1})
        errors = truth_errors(calib, Pose.identity(), 1.0)
        assert errors == {"rot_err_deg": 0.0, "trans_err_mm": 0.0,
                          "scale_err_pct": 0.0}

    def test_noise_sweep_runs(self, capsys):
        sweep = _load(ROOT / "scripts" / "noise_sweep.py")
        assert sweep.main(["--seeds", "1", "--levels", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 1
        assert rows[0].split()[:2] == ["0.00", "1/1"]
