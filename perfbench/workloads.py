"""The benchmark workloads.

Each workload runs a fixed panel of scenes (one seed per scene) through the
public functions of jcr. ``setup`` makes the inputs, ``scene`` is the timed
call, ``read`` (fields only) is a timed read-side call, run once per
pass over the panel, and ``check``
scores the outputs against the hidden truth that synth generated. A scene
(or, on fields-surface, a head) fails when its accuracy falls behind the
``reference`` its seed scored with the first benchmarked jcr by more than
``SLACK``, so that time bought with accuracy counts as failures. Calls go
through module attributes (``alignment.align_global``), never through names
bound at import, so the tracer's wrappers see them. README.md says why
each workload exists.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np

from jcr import alignment, calibration, cli, fields, io, reconstruction, synth
from jcr.errors import JCRError
from jcr.geometry import Pose, rotation_angle
from spans import facts


@dataclasses.dataclass
class Outcome:
    attempted: int
    failures: list = dataclasses.field(default_factory=list)  # one per failed unit
    wrong: list = dataclasses.field(default_factory=list)  # malformed outputs
    values: dict = dataclasses.field(default_factory=dict)  # accuracy metrics
    exact: dict = dataclasses.field(default_factory=dict)  # must repeat bit for bit

    @property
    def failed(self):
        return len(self.failures)

    def fail(self, unit, reasons):
        if reasons:
            self.failures.append(f"{unit}: " + ", ".join(reasons))


# How far an accuracy metric may fall behind its reference before the scene
# (or head) counts as failed: the larger of an absolute slack, in the
# metric's unit, and a share of the reference value.
SLACK = {
    "rot_err_deg": (0.05, 0.05),
    "trans_err_mm": (1.0, 0.05),
    "scale_err_pct": (0.1, 0.05),
    "height_err_pct": (0.1, 0.05),
    "occ_acc": (0.005, 0.0),
    "seg_acc": (0.005, 0.0),
    "color_mae": (0.002, 0.05),
}
HIGHER_IS_BETTER = ("occ_acc", "seg_acc")


def less_accurate(values, reference, metrics=None):
    """The metrics of ``values`` that fall behind ``reference`` beyond SLACK.

    A value that is missing or NaN falls behind.
    """
    out = []
    for metric in metrics or reference:
        ref, got = reference[metric], values.get(metric, math.nan)
        worse = ref - got if metric in HIGHER_IS_BETTER else got - ref
        absolute, share = SLACK[metric]
        if not worse <= max(absolute, share * abs(ref)):
            out.append(f"{metric} {got:.4g} behind reference {ref:.4g}")
    return out


def _calib_errors(R, t, scale, gt_calib, gt_scale):
    return {
        "rot_err_deg": float(np.degrees(rotation_angle(R @ gt_calib.rotation.T))),
        "trans_err_mm": float(1e3 * np.linalg.norm(t - gt_calib.translation)),
        "scale_err_pct": float(100.0 * abs(scale - gt_scale) / gt_scale),
    }


def _height_err_pct(points, labels, true_heights):
    """Worst table-relative object-height error, as acceptance 3 computes it."""
    table = float(np.median(points[labels == 0, 2]))
    errs = []
    for cid, true_h in true_heights.items():
        if true_h <= 0:
            continue
        z = points[labels == int(cid), 2]
        est = reconstruction.estimate_height(z) - table
        errs.append(100.0 * abs(est - true_h) / true_h)
    return max(errs)


def _calib_failures(calib, values, reference):
    """Why a calibrated scene failed: not converged, or less accurate."""
    return ((["calibration not converged"] if not calib.converged else [])
            + less_accurate(values, reference))


def _rotation_ok(R):
    return bool(
        np.all(np.isfinite(R))
        and np.allclose(R @ R.T, np.eye(3), atol=1e-6)
        and np.linalg.det(R) > 0
    )


class TabletopLibrary:
    name = "tabletop-10v"
    # The acceptance fixture's first two seeds; the ROADMAP baseline table
    # lists their calibration errors (deg, mm, %), which this path must
    # reproduce at the table's precision.
    panel = (1000, 1001)
    units = 1
    baseline = {1000: (0.36, 26.7, 2.20), 1001: (1.16, 13.2, 1.19)}
    # Accuracy of each seed with the first benchmarked jcr; see SLACK.
    reference = {
        1000: {"rot_err_deg": 0.3554, "trans_err_mm": 26.68,
               "scale_err_pct": 2.201, "height_err_pct": 0.6632},
        1001: {"rot_err_deg": 1.158, "trans_err_mm": 13.20,
               "scale_err_pct": 1.194, "height_err_pct": 1.106},
    }

    def setup(self, workdir):
        items = []
        for s in self.panel:
            rng = np.random.default_rng(s)
            hidden = synth.HiddenParams.random(rng)
            ds = synth.generate_dataset(
                synth.tabletop_scene(), synth.TrajectoryConfig(num_poses=10),
                hidden, synth.NoiseProfile(), seed=s,
                camera=synth.CameraConfig(width=32, height=24),
            )
            items.append((s, ds))
        return items

    def scene(self, item):
        _, ds = item
        aligned = alignment.align_global(ds.pairs, ds.graph)
        camera_poses = [p.inverse() for p in aligned.poses]
        calib = calibration.calibrate(
            ds.ee_poses, camera_poses,
            calibration.CalibrationConfig(all_pairs=True),
        )
        threshold = reconstruction.adaptive_confidence_threshold(
            aligned.confidences
        )
        pts, views, pixels, confs = alignment.extract_point_cloud(
            aligned, threshold
        )
        cloud = reconstruction.LabeledPointCloud(
            points=pts, frame="camera_model", views=views, pixels=pixels,
            confidence=confs,
        )
        cloud = reconstruction.join_pixel_labels(
            cloud, ds.color_images, ds.segmentation_images
        )
        cloud = reconstruction.transform_to_base(
            cloud, camera_poses, ds.ee_poses, calib
        )
        return aligned, calib, cloud

    def check(self, item, out):
        _, ds = item
        aligned, calib, cloud = out
        gt = ds.ground_truth
        o = Outcome(attempted=self.units)
        if not _rotation_ok(calib.rotation):
            o.wrong.append("calibration rotation is not a rotation")
        if cloud.frame != "robot_base" or not np.all(np.isfinite(cloud.points)):
            o.wrong.append("cloud is not a finite base-frame cloud")
        if cloud.segmentation is None or len(cloud.segmentation) != len(cloud):
            o.wrong.append("cloud lacks per-point labels")
        if o.wrong:
            return o
        o.values = _calib_errors(
            calib.rotation, calib.translation, calib.scale, gt.calib, gt.scale
        )
        o.values["height_err_pct"] = _height_err_pct(
            cloud.points, cloud.segmentation, gt.object_heights
        )
        o.fail(f"seed {item[0]}",
               _calib_failures(calib, o.values, self.reference[item[0]]))
        o.exact = {"alignment": facts(aligned), "calibration": facts(calib),
                   "cloud": facts(cloud), "accuracy": o.values}
        return o


class CliJitter:
    name = "run-16v-jitter"
    panel = (1001,)
    units = 1
    reference = {
        1001: {"rot_err_deg": 1.450, "trans_err_mm": 23.46,
               "scale_err_pct": 3.798, "height_err_pct": 2.861},
    }
    fields_block = {"epochs": 60, "hidden_size": 64}

    def setup(self, workdir):
        items = []
        for s in self.panel:
            d = Path(workdir) / f"scene{s}"
            d.mkdir(parents=True, exist_ok=True)
            synth_manifest = d / "synth.json"
            synth_manifest.write_text(json.dumps({"synth": {
                "num_poses": 16,
                "noise": {"dropout": 0.2, "pair_scale_jitter": 0.02},
                "camera": {"width": 16, "height": 12},
            }}))
            data = d / "data"
            rc = cli.main([
                "synth", "--manifest", str(synth_manifest), "--out", str(data),
                "--seed", str(s),
            ])
            if rc != 0:
                raise RuntimeError(f"jcr synth exited with {rc} for seed {s}")
            run_manifest = d / "run.json"
            run_manifest.write_text(json.dumps({
                "seed": s,
                "ee_poses": str(data / "ee_poses.json"),
                "pointmaps": str(data / "pointmaps" / "pairs.json"),
                "labels": str(data / "labels.npz"),
                "calibrate": {"all_pairs": True},
                "fields": self.fields_block,
            }))
            items.append((s, d))
        return items

    def scene(self, item):
        _, d = item
        return cli.main(["run", "--manifest", str(d / "run.json"),
                         "--out", str(d / "out")])

    def check(self, item, rc):
        _, d = item
        o = Outcome(attempted=self.units)
        if rc != 0:
            o.fail(f"seed {item[0]}", [f"jcr run exited with {rc}"])
            return o
        out = d / "out"
        try:
            gt = io.load_json(d / "data" / "ground_truth.json")
            align = io.load_json(out / "align" / "alignment.json")
            calib = calibration.CalibrationResult.from_dict(
                io.load_json(out / "calibrate" / "calibration.json")
            )
            pts, colors, labels = io.load_ply(out / "reconstruct" / "cloud.ply")
            models = {
                head: fields.FieldModel.from_dict(
                    io.load_json(out / "fields" / f"field_{head}.json"))
                for head in ("occupancy", "segmentation", "color")
            }
        except (JCRError, OSError, KeyError) as exc:
            o.wrong.append(f"missing artifact: {exc}")
            return o
        if not _rotation_ok(calib.rotation):
            o.wrong.append("calibration rotation is not a rotation")
        if labels is None or colors is None or not np.all(np.isfinite(pts)):
            o.wrong.append("cloud.ply lacks finite points, colors or labels")
        if o.wrong:
            return o
        gt_calib = Pose.from_matrix(np.array(gt["calib"]).reshape(4, 4))
        o.values = _calib_errors(
            calib.rotation, calib.translation, calib.scale, gt_calib, gt["scale"]
        )
        o.values["height_err_pct"] = _height_err_pct(
            pts, labels, gt["object_heights"]
        )
        heads = {head: facts(m) for head, m in models.items()}
        o.fail(f"seed {item[0]}",
               _calib_failures(calib, o.values, self.reference[item[0]])
               + [f"{head} loss is not finite" for head, f in heads.items()
                  if not math.isfinite(f["final_loss"])])
        o.exact = {
            # alignment.json carries no objective trace, so no iterations.
            "alignment": {"objective": align["objective"],
                          "converged": align["converged"]},
            "calibration": facts(calib), "cloud": {"points": len(pts)},
            "heads": heads, "accuracy": o.values,
        }
        return o


def _min_dist(a, b, chunk=500):
    out = np.empty(len(a))
    for i in range(0, len(a), chunk):
        d = a[i:i + chunk, None, :] - b[None, :, :]
        out[i:i + chunk] = np.sqrt((d**2).sum(-1)).min(axis=1)
    return out


HEAD_SCORES = {"occupancy": "occ_acc", "segmentation": "seg_acc",
               "color": "color_mae"}


@dataclasses.dataclass
class FieldsScene:
    train: object      # LabeledPointCloud, 80% of the surface sample
    held: np.ndarray   # the other 20%
    held_colors: np.ndarray
    held_labels: np.ndarray
    free: np.ndarray   # points farther than 3 cm from the surface
    grid: np.ndarray   # dense query box


class FieldsSurface:
    name = "fields-surface"
    # TrainConfig's default seed is 0 and the panel counts up from it. The
    # color head diverges to NaN on seed 1 with the stage defaults; that
    # is a known defect, counted as a failure rather than steered round.
    panel = (0, 1, 2)
    units = 3  # heads per scene
    # Every seed trains the same heads on the same number of points, so the
    # scenes take the same time and need not run in whole rounds.
    whole_rounds = False
    # Seed 1's color head scores the worst value, so it has nothing to lose.
    reference = {
        0: {"occ_acc": 0.9895, "seg_acc": 0.9834, "color_mae": 0.06893},
        1: {"occ_acc": 0.9920, "seg_acc": 0.9866, "color_mae": 1.0},
        2: {"occ_acc": 0.9845, "seg_acc": 0.9850, "color_mae": 0.1659},
    }
    grid_side = 64

    def setup(self, workdir):
        items = []
        for s in self.panel:
            rng = np.random.default_rng(s)
            pts, colors, labels = synth.sample_surface(synth.tabletop_scene(), rng)
            perm = rng.permutation(len(pts))
            split = int(0.8 * len(pts))
            tr, he = perm[:split], perm[split:]
            train = reconstruction.LabeledPointCloud(
                points=pts[tr], frame="robot_base",
                views=np.zeros(len(tr), dtype=int),
                pixels=np.zeros((len(tr), 2), dtype=int),
                colors=colors[tr], segmentation=labels[tr],
            )
            # Held-out negatives exactly as acceptance 7 draws them.
            lo = pts.min(axis=0) - 0.05
            hi = pts.max(axis=0) + 0.05
            free = rng.uniform(lo, hi, size=(3000, 3))
            refs = pts[rng.permutation(len(pts))[:2000]]
            free = free[_min_dist(free, refs) > 0.03][:1000]
            axes = [np.linspace(lo[k], hi[k], self.grid_side) for k in range(3)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
            items.append((s, FieldsScene(
                train, pts[he], colors[he], labels[he], free, grid,
            )))
        return items

    def scene(self, item):
        seed, data = item
        cfg = fields.TrainConfig(seed=seed, epochs=60, hidden_size=256,
                                 learning_rate=1e-2)
        color_cfg = dataclasses.replace(cfg, learning_rate=0.05)
        # A diverging head overflows; the NaN it ends in is scored by check.
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            return {
                "occupancy": fields.train_occupancy(data.train, cfg),
                "segmentation": fields.train_segmentation(data.train, cfg),
                "color": fields.train_color(data.train, color_cfg),
            }

    def read(self, item, models):
        with np.errstate(all="ignore"):
            return fields.query(models["occupancy"], item[1].grid)

    def check(self, item, models, grid_occ):
        """``grid_occ`` is None for a scene that ran no read side."""
        _, data = item
        o = Outcome(attempted=self.units)
        held_pos = data.held[:1000]
        with np.errstate(all="ignore"):
            occ_pos = fields.query(models["occupancy"], held_pos)
            occ_free = fields.query(models["occupancy"], data.free)
            seg = fields.query(models["segmentation"], data.held)
            col = fields.query(models["color"], data.held)
        occ = [occ_pos, occ_free]
        if grid_occ is not None:
            occ.append(grid_occ)
            if grid_occ.shape != (len(data.grid),):
                o.wrong.append(f"grid query returned shape {grid_occ.shape}")
        occ = np.concatenate([np.ravel(x) for x in occ])
        ok = {
            "occupancy": np.all(np.isfinite(occ)),
            "segmentation": np.all(np.isfinite(seg)),
            "color": np.all(np.isfinite(col)),
        }
        for head, model in models.items():
            ok[head] = bool(ok[head] and math.isfinite(model.final_loss))
        if ok["occupancy"] and (occ.min() < 0 or occ.max() > 1):
            o.wrong.append("occupancy outside [0, 1]")
        if ok["segmentation"] and not np.allclose(seg.sum(axis=1), 1.0):
            o.wrong.append("segmentation rows do not sum to 1")
        # Held-out scores as acceptance 7 computes them. A diverged head
        # scores the worst value its output range allows.
        o.values["occ_acc"] = (
            float(((occ_pos > 0.5).sum() + (occ_free <= 0.5).sum())
                  / (len(occ_pos) + len(occ_free)))
            if ok["occupancy"] else 0.0
        )
        seg_model = models["segmentation"]
        o.values["seg_acc"] = (
            float((seg_model.class_values[np.argmax(seg, axis=1)]
                   == data.held_labels).mean())
            if ok["segmentation"] else 0.0
        )
        o.values["color_mae"] = (
            float(np.abs(col - data.held_colors).mean())
            if ok["color"] else 1.0
        )
        for head, metric in HEAD_SCORES.items():
            o.fail(f"seed {item[0]} {head} head",
                   ([] if ok[head] else ["diverged"])
                   + less_accurate(o.values, self.reference[item[0]], [metric]))
        o.exact = {"heads": {h: facts(m) for h, m in models.items()},
                   "accuracy": o.values}
        return o


WORKLOADS = {
    w.name: w
    for w in (TabletopLibrary(), CliJitter(), FieldsSurface())
}
