"""End-to-end command-line interface checks."""

import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from jcr import cli, io
from jcr.alignment import PairGraph, PairwisePrediction
from jcr.cli import _check_manifest, main
from jcr.fields import (
    MAX_FREQUENCIES,
    FieldModel,
    TrainConfig,
    query,
    train_segmentation,
)
from jcr.reconstruction import estimate_height
from jcr.synth import single_axis_trajectory


def _noiseless_manifest(tmp_path, num_poses=6):
    manifest = {
        "seed": 11,
        "synth": {
            "num_poses": num_poses,
            "noise": "zero",
            "camera": {"width": 16, "height": 12},
        },
        "fields": {"epochs": 5, "hidden_size": 16},
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestRun:
    def test_noiseless_pipeline(self, tmp_path):
        manifest = _noiseless_manifest(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
        calib = io.load_json(out / "calibrate" / "calibration.json")
        gt = io.load_json(out / "synth" / "ground_truth.json")
        assert calib["converged"]
        assert abs(calib["scale"] - gt["scale"]) / gt["scale"] < 1e-5
        assert (out / "reconstruct" / "cloud.ply").exists()
        assert (out / "fields" / "field_occupancy.json").exists()
        # Artifacts embed their provenance.
        align = io.load_json(out / "align" / "alignment.json")
        assert "_provenance" in align
        assert align["stop_reason"] == "floor"

    def test_missing_manifest_file(self, tmp_path):
        code = main(["run", "--manifest", str(tmp_path / "nope.json")])
        assert code == 2

    @pytest.mark.parametrize("manifest, key", [
        ({"synth": {"noise": {"bogus": 1}}}, "synth.noise.bogus"),
        ({"synth": {"camera": {"fov": 50}}}, "synth.camera.fov"),
        ({"synth": {"num_poses": "ten"}}, "synth.num_poses"),
        ({"fields": {"epochs": "x"}}, "fields.epochs"),
        ({"calibrate": {"tau_t": "x"}}, "calibrate.tau_t"),
        ({"reconstruct": {"confidence_percentile": "high"}}, "reconstruct"),
        ({"align": {"step": 0.1}}, "align"),
        ({"synth": {"hidden": {"calib": [1, 0], "scale": 1.0}}},
         "synth.hidden.calib"),
        ({"synth": {"camera": {"width": 0}}}, "width"),
        ({"calibrate": {"tau_r": 0.15}}, "calibrate.tau_r"),
        ({"seed": -3}, "seed"),
        ({"synth": {"num_poses": 4, "noise": {"dropout": 1.5}}}, "dropout"),
        ({"synth": {"num_poses": 4, "noise": {"dropout": -0.2}}}, "dropout"),
        ({"synth": {"num_poses": 4, "noise": {"pair_scale_jitter": -0.1}}},
         "pair_scale_jitter"),
    ])
    def test_bad_manifest_exit_2(self, tmp_path, capsys, manifest, key):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--manifest", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, missing", [
        ({"ee_poses": "ee.json"}, "pointmaps"),
        ({"pointmaps": "pairs.json"}, "ee_poses"),
        ({"labels": "labels.npz"}, "ee_poses"),
        ({"labels": "labels.npz", "ee_poses": "ee.json"}, "pointmaps"),
    ])
    def test_input_files_without_both_exit_2(self, tmp_path, capsys, manifest,
                                             missing):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code = main(["run", "--manifest", str(path), "--out", str(out)])
        assert code == 2
        assert f"manifest key {missing}:" in capsys.readouterr().err
        assert not (out / "synth").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_field_exit_4_and_not_saved(self, tmp_path, capsys):
        """A head whose training loss ends non-finite stops the run with
        NonConvergence (exit 4), and no field model is written."""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "synth": {"num_poses": 6, "camera": {"width": 16, "height": 12}},
            "fields": {"epochs": 3, "hidden_size": 16,
                       "color_learning_rate": 1e6},
        }))
        out = tmp_path / "out"
        code = main(["run", "--seed", "3", "--manifest", str(path),
                     "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "error in stage train-field" in err and "color" in err
        assert (out / "reconstruct" / "cloud.ply").exists()
        assert not list(out.glob("fields/field_*.json"))

    def test_readme_manifest_is_valid(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"with a manifest such as:\s*```json\n(.*?)```",
                          readme, re.S)
        _check_manifest(json.loads(block.group(1)))


class TestSeeds:
    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "unused", "--seed", "-1"],
        ["run", "--seed", "-2"],
        ["align", "--pointmaps", "unused", "--out", "unused", "--seed", "x"],
    ])
    def test_bad_seed_is_a_usage_error(self, argv, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestStages:
    def test_calibrate_exit_codes(self, tmp_path):
        # Degenerate single-axis trajectory: exit 3.
        poses = single_axis_trajectory(8)
        ee = tmp_path / "ee.json"
        cam = tmp_path / "cam.json"
        io.save_poses(ee, poses)
        io.save_poses(cam, poses)
        code = main(
            ["calibrate", "--ee-poses", str(ee), "--camera-poses", str(cam),
             "--out", str(tmp_path / "calib")]
        )
        assert code == 3

    def test_calibrate_missing_input(self, tmp_path):
        code = main(
            ["calibrate", "--ee-poses", str(tmp_path / "nope.json"),
             "--camera-poses", str(tmp_path / "nope2.json"),
             "--out", str(tmp_path / "calib")]
        )
        assert code == 2

    def test_align_view_of_two_sizes_exit_2(self, tmp_path, capsys):
        # View 1 is 4x5 in pair (0,1) and 3x5 in pair (1,2).
        pairs = []
        for n, m, height in ((0, 1, 4), (1, 2, 3)):
            pts = np.ones((height, 5, 3))
            conf = np.ones((height, 5))
            pairs.append(PairwisePrediction(n, m, pts, pts, conf, conf))
        path = io.save_pair_set(tmp_path / "pairs", pairs,
                                PairGraph(3, ((0, 1), (1, 2))))
        code = main(["align", "--pointmaps", str(path),
                     "--out", str(tmp_path / "align")])
        assert code == 2
        assert "view 1 is 3x5" in capsys.readouterr().err

    @pytest.mark.parametrize("num_poses", ["0", "-1", "2"])
    def test_synth_too_few_poses_exit_2(self, tmp_path, capsys, num_poses):
        code = main(["synth", "--out", str(tmp_path / "synth"),
                     "--num-poses", num_poses])
        assert code == 2
        assert "need at least 3 poses" in capsys.readouterr().err
        assert not (tmp_path / "synth" / "ee_poses.json").exists()

    def test_synth_then_align_then_calibrate(self, tmp_path):
        synth_dir = tmp_path / "synth"
        assert main(
            ["synth", "--out", str(synth_dir), "--seed", "12",
             "--num-poses", "5", "--zero-noise"]
        ) == 0
        align_dir = tmp_path / "align"
        assert main(
            ["align", "--pointmaps", str(synth_dir / "pointmaps" / "pairs.json"),
             "--out", str(align_dir)]
        ) == 0
        # The exact camera poses calibrate cleanly.
        code = main(
            ["calibrate", "--ee-poses", str(synth_dir / "ee_poses.json"),
             "--camera-poses", str(synth_dir / "camera_poses.json"),
             "--out", str(tmp_path / "calib")]
        )
        assert code == 0
        calib = io.load_json(tmp_path / "calib" / "calibration.json")
        gt = io.load_json(synth_dir / "ground_truth.json")
        assert abs(calib["scale"] - gt["scale"]) / gt["scale"] < 1e-5


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_pipeline")
    manifest = _noiseless_manifest(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    return out


class TestQueryAndEval:
    def test_query_occupancy(self, pipeline, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0.05\n0,0,0.9\n")
        outf = tmp_path / "q.csv"
        assert main(
            ["query", "--model", str(pipeline / "fields" / "field_occupancy.json"),
             "--points", str(pts), "--out", str(outf)]
        ) == 0
        vals = np.loadtxt(outf, delimiter=",")
        assert vals.shape == (2,)
        assert ((vals >= 0) & (vals <= 1)).all()

    @pytest.mark.parametrize("text", [
        "0,0,0.05\n0,0\n",  # ragged rows
        "0,0\n1,1\n2,2\n3,3\n",  # (4, 2)
        "0,zero,0\n",
        "0,nan,0\n",
    ])
    def test_query_bad_points_exit_2(self, pipeline, tmp_path, text):
        pts = tmp_path / "pts.csv"
        pts.write_text(text)
        assert main(
            ["query", "--model", str(pipeline / "fields" / "field_occupancy.json"),
             "--points", str(pts), "--out", str(tmp_path / "q.csv")]
        ) == 2

    def test_train_field_then_query_match_library(self, pipeline, tmp_path):
        """The model `jcr train-field` saves queries bit for bit like the one
        trained in memory, and `jcr query` writes that model's values."""
        cloud = pipeline / "reconstruct" / "cloud.ply"
        model_path = tmp_path / "seg.json"
        assert main(["train-field", "--cloud", str(cloud), "--kind",
                     "segmentation", "--epochs", "3", "--out",
                     str(model_path)]) == 0
        points, _, labels = io.load_ply(cloud)
        model = train_segmentation(
            SimpleNamespace(points=points, segmentation=labels),
            TrainConfig(seed=0, epochs=3))
        q = np.vstack([points[:40], points[:40] + 0.05])
        pts = tmp_path / "pts.csv"
        np.savetxt(pts, q, delimiter=",", fmt="%.17g")
        outf = tmp_path / "q.csv"
        assert main(["query", "--model", str(model_path), "--points", str(pts),
                     "--out", str(outf)]) == 0
        saved = FieldModel.from_dict(io.load_json(model_path))
        assert np.array_equal(query(saved, q), query(model, q))
        want = tmp_path / "want.csv"
        np.savetxt(want, query(model, q), delimiter=",", fmt="%.8g")
        assert outf.read_text() == want.read_text()

    def test_train_field_diverged_exit_4(self, pipeline, tmp_path, capsys,
                                         monkeypatch):
        def diverging(cloud, cfg):
            model = train_segmentation(cloud, cfg)
            model.final_loss = float("nan")
            return model

        monkeypatch.setattr(cli, "train_segmentation", diverging)
        model_path = tmp_path / "seg.json"
        assert main(["train-field", "--cloud",
                     str(pipeline / "reconstruct" / "cloud.ply"), "--kind",
                     "segmentation", "--epochs", "2", "--out",
                     str(model_path)]) == 4
        assert "segmentation" in capsys.readouterr().err
        assert not model_path.exists()

    def test_query_too_many_frequencies_exit_2(self, pipeline, tmp_path, capsys):
        model = io.load_json(pipeline / "fields" / "field_occupancy.json")
        model["encoding"]["num_frequencies"] = MAX_FREQUENCIES + 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0.05\n")
        assert main(["query", "--model", str(path), "--points", str(pts),
                     "--out", str(tmp_path / "q.csv")]) == 2
        assert f"num_frequencies={MAX_FREQUENCIES + 1}" in capsys.readouterr().err

    def test_query_malformed_model_exit_2(self, pipeline, tmp_path):
        model = io.load_json(pipeline / "fields" / "field_color.json")
        model["weights"]["W2"] = model["weights"]["W2"][:-8]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0.05\n")
        assert main(["query", "--model", str(path), "--points", str(pts),
                     "--out", str(tmp_path / "q.csv")]) == 2

    def test_eval_with_ground_truth(self, pipeline, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(
            ["eval",
             "--calibration", str(pipeline / "calibrate" / "calibration.json"),
             "--ground-truth", str(pipeline / "synth" / "ground_truth.json"),
             "--cloud", str(pipeline / "reconstruct" / "cloud.ply"),
             "--out", str(report)]
        ) == 0
        data = io.load_json(report)
        assert data["rotation_error_deg"] < 1e-4
        assert data["translation_error_m"] < 1e-4
        # Heights are measured from the reconstructed table, as acceptance 3
        # measures them.
        pts, _, labels = io.load_ply(pipeline / "reconstruct" / "cloud.ply")
        table = np.median(pts[labels == 0, 2])
        assert data["object_heights"].keys() == {"1", "2"}
        for cid, h in data["object_heights"].items():
            est = estimate_height(pts[labels == int(cid), 2]) - table
            assert h["estimated_m"] == est
            assert h["error_percent"] == 100 * abs(est - h["true_m"]) / h["true_m"]
        printed = capsys.readouterr().out
        assert "scale_error_percent" in printed

    def test_eval_without_ground_truth(self, pipeline, capsys):
        assert main(
            ["eval",
             "--calibration", str(pipeline / "calibrate" / "calibration.json")]
        ) == 0
        printed = capsys.readouterr().out
        assert "mean_residual_t" in printed
        assert "rotation_error_deg" not in printed


class TestOlderFiles:
    """Files that an earlier jcr wrote, with keys for settings that are now
    module constants, read back as before."""

    def test_calibration_with_tau_keys(self, pipeline, tmp_path):
        written = io.load_json(pipeline / "calibrate" / "calibration.json")
        assert "tau_t" not in written and "tau_r" not in written
        older = dict(written, tau_t=0.1, tau_r=0.15)
        reports = []
        for name, calib in (("now", written), ("older", older)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(calib))
            assert main(
                ["eval", "--calibration", str(path),
                 "--ground-truth", str(pipeline / "synth" / "ground_truth.json"),
                 "--cloud", str(pipeline / "reconstruct" / "cloud.ply"),
                 "--out", str(tmp_path / f"{name}_report.json")]
            ) == 0
            reports.append((tmp_path / f"{name}_report.json").read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("head", ["occupancy", "segmentation", "color"])
    def test_field_model_with_eleven_train_keys(self, pipeline, tmp_path, head):
        written = io.load_json(pipeline / "fields" / f"field_{head}.json")
        assert written["train_config"].keys() == {
            "learning_rate", "epochs", "seed", "hidden_size",
            "negatives_per_positive"}
        older = json.loads(json.dumps(written))
        older["train_config"].update(
            momentum=0.9, batch_size=512, num_frequencies=6, include_raw=True,
            neg_bounds=None, bounds_inflation=0.2)
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0.05\n0.1,-0.05,0.12\n0,0,0.9\n")
        outputs = []
        for name, model in (("now", written), ("older", older)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(model))
            out = tmp_path / f"{name}.csv"
            assert main(["query", "--model", str(path), "--points", str(pts),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert (FieldModel.from_dict(older).train_config
                == FieldModel.from_dict(written).train_config)


def _edited_calibration(pipeline, edit):
    calib = io.load_json(pipeline / "calibrate" / "calibration.json")
    edit(calib)
    return json.dumps(calib)


class TestBadFilesExit2:
    """A malformed file that ``jcr eval``, ``jcr reconstruct`` or ``jcr run``
    reads back ends in exit code 2, not a traceback."""

    @pytest.mark.parametrize("edit", [
        lambda c: c.pop("scale"),
        lambda c: c.update(rotation=[1]),
        lambda c: c.update(translation=[0.1, 0.2]),
        lambda c: c.update(residuals_t=[]),
        lambda c: c.update(scale=float("nan")),
    ], ids=["missing-key", "rotation", "translation", "residuals", "non-finite"])
    def test_eval_calibration(self, pipeline, tmp_path, edit):
        path = tmp_path / "calibration.json"
        path.write_text(_edited_calibration(pipeline, edit))
        assert main(["eval", "--calibration", str(path)]) == 2

    @pytest.mark.parametrize("gt", [
        {"scale": 1},
        {"calib": np.eye(4).reshape(-1).tolist()},
        {"calib": [1, 0], "scale": 1},
        {"calib": np.eye(4).reshape(-1).tolist(), "scale": 0},
        {"calib": np.eye(4).reshape(-1).tolist(), "scale": 1,
         "object_heights": {"table": 0.1}},
    ], ids=["no-calib", "no-scale", "calib", "zero-scale", "heights"])
    def test_eval_ground_truth(self, pipeline, tmp_path, gt):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(gt))
        assert main(
            ["eval",
             "--calibration", str(pipeline / "calibrate" / "calibration.json"),
             "--ground-truth", str(path),
             "--cloud", str(pipeline / "reconstruct" / "cloud.ply")]
        ) == 2

    def _reconstruct(self, pipeline, tmp_path, align_dir=None, labels=None):
        args = [
            "reconstruct",
            "--alignment", str(align_dir or pipeline / "align"),
            "--calibration", str(pipeline / "calibrate" / "calibration.json"),
            "--ee-poses", str(pipeline / "synth" / "ee_poses.json"),
            "--out", str(tmp_path / "recon"),
        ]
        return main(args + (["--labels", str(labels)] if labels else []))

    def test_reconstruct_reads_good_files(self, pipeline, tmp_path):
        assert self._reconstruct(pipeline, tmp_path,
                                 labels=pipeline / "synth" / "labels.npz") == 0

    def test_reconstruct_labels_not_npz(self, pipeline, tmp_path):
        labels = tmp_path / "labels.npz"
        labels.write_text("colors,segmentation\n")
        assert self._reconstruct(pipeline, tmp_path, labels=labels) == 2

    @pytest.mark.parametrize("views, height, width", [
        (6, 24, 32), (7, 12, 16)], ids=["larger", "one-more"])
    def test_reconstruct_labels_not_matching_maps(self, pipeline, tmp_path,
                                                  capsys, views, height, width):
        labels = tmp_path / "labels.npz"
        np.savez(labels, colors=np.zeros((views, height, width, 3)),
                 segmentation=np.zeros((views, height, width), int))
        assert self._reconstruct(pipeline, tmp_path, labels=labels) == 2
        assert "label image" in capsys.readouterr().err

    def test_reconstruct_labels_wrong_arrays(self, pipeline, tmp_path):
        labels = tmp_path / "labels.npz"
        np.savez(labels, colors=np.zeros(()), segmentation=np.zeros((1, 2, 2)))
        assert self._reconstruct(pipeline, tmp_path, labels=labels) == 2

    def _align_copy(self, pipeline, tmp_path):
        align_dir = tmp_path / "align"
        shutil.copytree(pipeline / "align", align_dir)
        return align_dir

    def test_reconstruct_alignment_maps_not_npz(self, pipeline, tmp_path):
        align_dir = self._align_copy(pipeline, tmp_path)
        (align_dir / "alignment_maps.npz").write_text("not an archive\n")
        assert self._reconstruct(pipeline, tmp_path, align_dir) == 2

    def test_reconstruct_alignment_maps_missing_view(self, pipeline, tmp_path):
        align_dir = self._align_copy(pipeline, tmp_path)
        np.savez(align_dir / "alignment_maps.npz", pointmap_0=np.zeros((2, 2, 3)),
                 confidence_0=np.ones((2, 2)))
        assert self._reconstruct(pipeline, tmp_path, align_dir) == 2

    @pytest.mark.parametrize("meta", [
        {"sigmas": []},
        {"poses_camera_to_global": [[1, 2]], "sigmas": [], "objective": 0,
         "converged": True, "edges": []},
        {"poses_camera_to_global": [np.eye(4).tolist()] * 2, "sigmas": [1.0],
         "objective": 0, "converged": True, "edges": [[0, 2]]},
    ], ids=["missing-keys", "pose", "edge-view"])
    def test_reconstruct_alignment_json(self, pipeline, tmp_path, meta):
        align_dir = self._align_copy(pipeline, tmp_path)
        (align_dir / "alignment.json").write_text(json.dumps(meta))
        assert self._reconstruct(pipeline, tmp_path, align_dir) == 2

    def test_run_labels_not_npz(self, pipeline, tmp_path):
        labels = tmp_path / "labels.npz"
        labels.write_text("colors,segmentation\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "ee_poses": str(pipeline / "synth" / "ee_poses.json"),
            "pointmaps": str(pipeline / "synth" / "pointmaps" / "pairs.json"),
            "labels": str(labels),
        }))
        assert main(["run", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")]) == 2


class TestReconstructFlags:
    def test_force_uncalibrated(self, tmp_path):
        manifest = _noiseless_manifest(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
        # Sabotage the calibration file so it reads as unconverged.
        calib_path = out / "calibrate" / "calibration.json"
        calib = io.load_json(calib_path)
        calib["converged"] = False
        io.save_json(calib_path, calib)
        args = [
            "reconstruct",
            "--alignment", str(out / "align"),
            "--calibration", str(calib_path),
            "--ee-poses", str(out / "synth" / "ee_poses.json"),
            "--out", str(out / "recon2"),
        ]
        assert main(args) == 4
        assert main(args + ["--force-uncalibrated"]) == 0
