"""End-to-end command-line interface checks."""

import dataclasses
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
    FieldModel,
    TrainConfig,
    query,
    train_segmentation,
)
from jcr.reconstruction import LabeledPointCloud, estimate_height
from jcr.synth import CameraConfig, single_axis_trajectory

from util import (pose_dataset, split_confidence_of_view,
                  zero_confidence_of_view)


ZERO_NOISE = {"sigma_rot": 0.0, "sigma_trans": 0.0, "sigma_point": 0.0}


def _noiseless_manifest(tmp_path, num_poses=6):
    manifest = {
        "seed": 11,
        "synth": {
            "num_poses": num_poses,
            "noise": ZERO_NOISE,
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
        ({"synth": {"noise": "zero"}}, "synth.noise"),
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

    @pytest.mark.parametrize("block, key", [
        ({"fields": {"epochs": 0}}, "epochs"),
        ({"fields": {"learning_rate": 1e-2}}, "fields.learning_rate"),
        ({"fields": {"color_learning_rate": -1.0}}, "fields.color_learning_rate"),
        ({"synth": {"hidden": {"calib": np.eye(4).ravel().tolist(), "scale": 0}}},
         "scale"),
        ({"synth": {"hidden": {"calib": np.eye(4).ravel().tolist(),
                               "scale": -1.0}}}, "scale"),
        ({"synth": {"num_poses": 0}}, "need at least 3 poses"),
        ({"synth": {"num_poses": -1}}, "need at least 3 poses"),
        ({"synth": {"num_poses": 2}}, "need at least 3 poses"),
    ])
    def test_bad_stage_setting_exit_2_before_synth(self, tmp_path, capsys,
                                                   block, key):
        """A value that the fields or the synth stage would refuse, or
        fields.learning_rate or fields.color_learning_rate, which jcr no
        longer reads, ends the run before synth writes anything."""
        manifest = {"seed": 3, "synth": {"num_poses": 4,
                                         "camera": {"width": 16, "height": 12}}}
        for name, values in block.items():
            manifest[name] = {**manifest.get(name, {}), **values}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code = main(["run", "--manifest", str(path), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "synth").exists()

    def test_synth_with_input_files_exit_2(self, tmp_path, capsys):
        """A run either synthesizes its inputs or reads them; a manifest
        that asks for both is refused, naming the keys."""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "synth": {"num_poses": 4, "camera": {"width": 16, "height": 12}},
            "ee_poses": str(tmp_path / "absent.json"),
            "pointmaps": str(tmp_path / "absent" / "pairs.json"),
            "fields": {"epochs": 1, "hidden_size": 16},
        }))
        out = tmp_path / "out"
        code = main(["run", "--manifest", str(path), "--out", str(out)])
        assert code == 2
        assert ("manifest keys synth and ee_poses, pointmaps:"
                in capsys.readouterr().err)
        assert not (out / "synth").exists()

    def test_diverged_field_exit_4_and_not_saved(self, tmp_path, capsys,
                                                 monkeypatch):
        """A head whose training loss ends non-finite stops the run with
        NonConvergence (exit 4), and no field model is written, not even
        the heads that fitted. Every head is fitted by a solve, so the
        segmentation head's loss is made NaN here."""
        def diverging(cloud, cfg):
            model = train_segmentation(cloud, cfg)
            model.final_loss = float("nan")
            return model

        monkeypatch.setattr(cli, "train_segmentation", diverging)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "synth": {"num_poses": 6, "camera": {"width": 16, "height": 12}},
            "fields": {"epochs": 5, "hidden_size": 16},
        }))
        out = tmp_path / "out"
        code = main(["run", "--seed", "3", "--manifest", str(path),
                     "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "error in stage train-field" in err
        assert "head(s): segmentation\n" in err
        assert (out / "reconstruct" / "cloud.ply").exists()
        assert not list(out.glob("fields/field_*.json"))

    def _unconverged_run(self, tmp_path, monkeypatch, *flags):
        """``jcr run`` on the noiseless manifest with a calibration that
        reads as not converged; returns the exit code and output folder."""
        solve = cli.calibrate
        monkeypatch.setattr(cli, "calibrate", lambda *args: dataclasses.replace(
            solve(*args), converged=False))
        out = tmp_path / "out"
        code = main(["run", "--manifest", str(_noiseless_manifest(tmp_path)),
                     "--out", str(out), *flags])
        return code, out

    def test_unconverged_calibration_exit_4_before_reconstruct(
            self, tmp_path, capsys, monkeypatch):
        """A calibration that did not converge stops the run in stage
        reconstruct (exit 4), after the alignment and the calibration,
        marked not converged, are written."""
        code, out = self._unconverged_run(tmp_path, monkeypatch)
        assert code == 4
        err = capsys.readouterr().err
        assert "error in stage reconstruct: calibration did not converge" in err
        assert "--force-uncalibrated" in err
        assert (out / "align" / "alignment.json").exists()
        assert io.load_json(out / "calibrate" / "calibration.json")[
            "converged"] is False
        assert not (out / "reconstruct" / "cloud.ply").exists()
        assert not (out / "fields").exists()

    def test_force_uncalibrated_run_writes_cloud_and_fields_exit_4(
            self, tmp_path, capsys, monkeypatch):
        """With --force-uncalibrated the run goes on to the cloud and every
        field model, and still exits 4, saying that calibration did not
        converge."""
        code, out = self._unconverged_run(tmp_path, monkeypatch,
                                          "--force-uncalibrated")
        assert code == 4
        assert capsys.readouterr().err == "calibration did not converge\n"
        assert (out / "reconstruct" / "cloud.ply").exists()
        for head in ("occupancy", "segmentation", "color"):
            assert (out / "fields" / f"field_{head}.json").exists()

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


class TestRemovedFlags:
    """Flags that changed no output, or that repeated a manifest key, are
    gone: passing one is a usage error (exit 2) that writes nothing."""

    @pytest.mark.parametrize("argv, flag", [
        (["train-field", "--cloud", "c.ply", "--kind", "color",
          "--out", "m.json", "--epochs", "5"], "--epochs 5"),
        (["query", "--model", "m.json", "--points", "p.csv",
          "--out", "q.csv", "--seed", "1"], "--seed 1"),
        (["eval", "--calibration", "c.json", "--out", "r.json",
          "--seed", "1"], "--seed 1"),
        (["synth", "--out", "s", "--num-poses", "5"], "--num-poses 5"),
        (["synth", "--out", "s", "--zero-noise"], "--zero-noise"),
    ], ids=["train-field-epochs", "query-seed", "eval-seed",
            "synth-num-poses", "synth-zero-noise"])
    def test_flag_is_a_usage_error(self, argv, flag, capsys, tmp_path,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
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

    def test_calibrate_column_major_poses_exit_2(self, tmp_path, capsys):
        poses = single_axis_trajectory(4)
        ee = tmp_path / "ee.json"
        cam = tmp_path / "cam.json"
        ee.write_text(json.dumps(
            [{"matrix": p.matrix().T.reshape(-1).tolist()} for p in poses]))
        io.save_poses(cam, poses)
        code = main(
            ["calibrate", "--ee-poses", str(ee), "--camera-poses", str(cam),
             "--out", str(tmp_path / "calib")]
        )
        assert code == 2
        assert "column-major" in capsys.readouterr().err

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

    def test_align_view_that_is_no_reference_view_exit_3(self, tmp_path,
                                                          capsys):
        # Without the edges (3, m) no edge determines view 3's pose.
        ds = pose_dataset(seed=31, num_poses=4, with_pointmaps=True)
        pairs = [p for p in ds.pairs if p.n != 3]
        path = io.save_pair_set(tmp_path / "pairs", pairs,
                                PairGraph(4, tuple((p.n, p.m) for p in pairs)))
        code = main(["align", "--pointmaps", str(path),
                     "--out", str(tmp_path / "align")])
        assert code == 3
        assert "views [3]" in capsys.readouterr().err
        assert not (tmp_path / "align").exists()

    def test_align_view_without_confidence_exit_3(self, tmp_path, capsys):
        # Every edge touching view 3 has zero confidence.
        ds = pose_dataset(seed=31, num_poses=4, with_pointmaps=True)
        path = io.save_pair_set(tmp_path / "pairs",
                                zero_confidence_of_view(ds.pairs, 3), ds.graph)
        code = main(["align", "--pointmaps", str(path),
                     "--out", str(tmp_path / "align")])
        assert code == 3
        assert "views [3]: " in capsys.readouterr().err
        assert not (tmp_path / "align").exists()

    def test_align_view_without_initializer_weight_exit_3(self, tmp_path,
                                                          capsys):
        # No edge touching view 1 has a pixel with both confidences.
        ds = pose_dataset(seed=3, num_poses=3, with_pointmaps=True,
                          camera=CameraConfig(width=16, height=12))
        path = io.save_pair_set(tmp_path / "pairs",
                                split_confidence_of_view(ds.pairs, 1), ds.graph)
        code = main(["align", "--pointmaps", str(path),
                     "--out", str(tmp_path / "align")])
        assert code == 3
        assert "views [1]: " in capsys.readouterr().err
        assert not (tmp_path / "align").exists()

    @pytest.mark.parametrize("keep", [1, 2])
    def test_align_view_placed_by_collinear_points_exit_3(self, tmp_path,
                                                          capsys, keep):
        # Every edge touching view 1 has both confidences at only `keep`
        # points of one row, which lie on a line.
        ds = pose_dataset(seed=3, num_poses=3, with_pointmaps=True,
                          camera=CameraConfig(width=16, height=12))
        pairs = split_confidence_of_view(ds.pairs, 1, keep=keep)
        path = io.save_pair_set(tmp_path / "pairs", pairs, ds.graph)
        code = main(["align", "--pointmaps", str(path),
                     "--out", str(tmp_path / "align")])
        assert code == 3
        assert "views [1]: " in capsys.readouterr().err
        assert not (tmp_path / "align").exists()

    @pytest.mark.parametrize("num_poses", [0, -1, 2])
    def test_synth_too_few_poses_exit_2(self, tmp_path, capsys, num_poses):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"synth": {"num_poses": num_poses}}))
        code = main(["synth", "--manifest", str(manifest),
                     "--out", str(tmp_path / "synth")])
        assert code == 2
        assert "need at least 3 poses" in capsys.readouterr().err
        assert not (tmp_path / "synth").exists()

    def test_synth_then_align_then_calibrate(self, tmp_path):
        synth_dir = tmp_path / "synth"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"synth": {"num_poses": 5, "noise": ZERO_NOISE}}))
        assert main(
            ["synth", "--manifest", str(manifest), "--out", str(synth_dir),
             "--seed", "12"]
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
                     "segmentation", "--out", str(model_path)]) == 0
        points, _, labels = io.load_ply(cloud)
        model = train_segmentation(
            SimpleNamespace(points=points, segmentation=labels),
            TrainConfig(seed=0))
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

    def test_run_and_train_field_write_the_same_color_model(
            self, pipeline, tmp_path, monkeypatch):
        """`jcr run` fits color under the TrainConfig of its other heads,
        built from the manifest's fields block over TrainConfig's defaults,
        so for the same cloud and seed and no fields block it writes the
        model that `jcr train-field --kind color` writes. The
        PLY rounds points to float32 and colors to 8 bits, so the run's
        reconstruct stage is given the cloud that the PLY holds."""
        ply = pipeline / "reconstruct" / "cloud.ply"
        points, colors, labels = io.load_ply(ply)
        cloud = LabeledPointCloud(
            points=points, frame="robot_base",
            views=np.zeros(len(points), int),
            pixels=np.zeros((len(points), 2), int),
            colors=colors, segmentation=labels)
        monkeypatch.setattr(cli, "reconstruct", lambda *args, **kw: (cloud, 0.0))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "seed": 11,
            "synth": {"num_poses": 6, "noise": ZERO_NOISE,
                      "camera": {"width": 16, "height": 12}},
        }))
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
        model_path = tmp_path / "color.json"
        assert main(["train-field", "--cloud", str(ply), "--kind", "color",
                     "--seed", "11", "--out", str(model_path)]) == 0
        run_model = (out / "fields" / "field_color.json").read_text()
        assert run_model == model_path.read_text()

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
                     "segmentation", "--out", str(model_path)]) == 4
        assert "segmentation" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("encoding", [
        {"num_frequencies": 10, "include_raw": True},
        {"num_frequencies": 6, "include_raw": False},
        {"num_frequencies": 6},
    ], ids=["frequencies", "no-raw", "no-raw-key"])
    def test_query_other_encoding_exit_2(self, pipeline, tmp_path, capsys,
                                         encoding):
        """Every field is saved with the one encoding; a model file with
        any other is refused, naming it, and nothing is written."""
        model = io.load_json(pipeline / "fields" / "field_occupancy.json")
        assert model["encoding"] == {"num_frequencies": 6, "include_raw": True}
        model["encoding"] = encoding
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0.05\n")
        assert main(["query", "--model", str(path), "--points", str(pts),
                     "--out", str(tmp_path / "q.csv")]) == 2
        assert f"encoding {encoding!r}" in capsys.readouterr().err
        assert not (tmp_path / "q.csv").exists()

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

    def test_eval_cloud_without_ground_truth_exit_2(self, pipeline, tmp_path,
                                                    capsys):
        """Heights in --cloud are compared with the ground truth's, so
        --cloud without --ground-truth is refused, not ignored."""
        report = tmp_path / "report.json"
        assert main(
            ["eval",
             "--calibration", str(pipeline / "calibrate" / "calibration.json"),
             "--cloud", str(pipeline / "reconstruct" / "cloud.ply"),
             "--out", str(report)]
        ) == 2
        captured = capsys.readouterr()
        assert "--cloud needs --ground-truth" in captured.err
        assert captured.out == ""
        assert not report.exists()

    @pytest.mark.parametrize("heights", [None, {}], ids=["absent", "empty"])
    def test_eval_cloud_without_object_heights_exit_2(self, pipeline, tmp_path,
                                                      capsys, heights):
        gt = io.load_json(pipeline / "synth" / "ground_truth.json")
        gt.pop("object_heights")
        if heights is not None:
            gt["object_heights"] = heights
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps(gt))
        report = tmp_path / "report.json"
        assert main(
            ["eval",
             "--calibration", str(pipeline / "calibrate" / "calibration.json"),
             "--ground-truth", str(gt_path),
             "--cloud", str(pipeline / "reconstruct" / "cloud.ply"),
             "--out", str(report)]
        ) == 2
        captured = capsys.readouterr()
        assert f"{gt_path}: no object_heights" in captured.err
        assert captured.out == ""
        assert not report.exists()

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
        {"poses_camera_to_global": [np.eye(4).reshape(-1).tolist()] * 2,
         "sigmas": [1.0], "objective": 0, "converged": True,
         "edges": [[0, 2]]},
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
    def test_force_uncalibrated(self, tmp_path, capsys):
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
        assert "--force-uncalibrated" in capsys.readouterr().err
        assert main(args + ["--force-uncalibrated"]) == 0
