"""Command-line pipeline: synth, align, calibrate, reconstruct, fields, eval.

Every stage is a standalone subcommand reading and writing auditable
artifacts; ``run`` chains them. Exit codes: 0 ok, 2 input error,
3 degenerate geometry, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .alignment import align_global
from .calibration import CalibrationConfig, CalibrationResult, calibrate
from .errors import (
    DegenerateGeometry,
    InputError,
    JCRError,
    NonConvergence,
    UncalibratedInput,
)
from .fields import (
    FieldModel,
    TrainConfig,
    query,
    train_color,
    train_occupancy,
    train_segmentation,
)
from .geometry import Pose
from .reconstruction import LabeledPointCloud, reconstruct, truth_errors
from .synth import (
    CameraConfig,
    HiddenParams,
    NoiseProfile,
    TrajectoryConfig,
    generate_dataset,
    tabletop_scene,
)

log = logging.getLogger("jcr")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NONCONVERGED = 4


def _setup_logging():
    level = os.environ.get("JCR_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _write_artifact(path, payload, config, seed):
    """Every artifact embeds the config and seed that produced it."""
    payload = dict(payload)
    payload["_provenance"] = {"config": config, "seed": seed}
    io.save_json(path, payload)


# ---------------------------------------------------------------------------
# Stage implementations (shared between subcommands and `run`)


def _stage_synth(cfg, out_dir, seed):
    traj = TrajectoryConfig(num_poses=int(cfg.get("num_poses", 10)))
    if "hidden" in cfg:
        h = cfg["hidden"]
        if h.keys() != {"calib", "scale"}:
            raise InputError("manifest key synth.hidden: needs calib and scale")
        hidden = HiddenParams(
            Pose.from_matrix(np.array(h["calib"])), float(h["scale"])
        )
    else:
        hidden = HiddenParams.random(np.random.default_rng(seed))
    noise = NoiseProfile(**cfg.get("noise", {}))
    camera = CameraConfig(**cfg.get("camera", {}))
    out_dir.mkdir(parents=True, exist_ok=True)  # once every setting is checked
    ds = generate_dataset(
        tabletop_scene(), traj, hidden, noise, seed=seed, camera=camera
    )
    io.save_poses(out_dir / "ee_poses.json", ds.ee_poses)
    io.save_poses(out_dir / "camera_poses.json", ds.camera_poses)
    io.save_pair_set(out_dir / "pointmaps", ds.pairs, ds.graph)
    np.savez_compressed(
        out_dir / "labels.npz",
        colors=np.stack(ds.color_images),
        segmentation=np.stack(ds.segmentation_images),
    )
    gt = ds.ground_truth
    _write_artifact(
        out_dir / "ground_truth.json",
        {
            "calib": gt.calib.matrix().reshape(-1).tolist(),
            "scale": gt.scale,
            "object_heights": {str(k): v for k, v in gt.object_heights.items()},
        },
        cfg,
        seed,
    )
    return ds


def _stage_align(pairs, graph, out_dir, seed):
    result = align_global(pairs, graph)
    out_dir.mkdir(parents=True, exist_ok=True)
    poses = [p.matrix().reshape(-1).tolist() for p in result.poses]
    _write_artifact(
        out_dir / "alignment.json",
        {
            "poses_camera_to_global": poses,
            "sigmas": result.sigmas.tolist(),
            "objective": result.objective,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "edges": [list(e) for e in result.graph.edges],
        },
        {},
        seed,
    )
    np.savez_compressed(
        out_dir / "alignment_maps.npz",
        **{f"pointmap_{v}": pm for v, pm in enumerate(result.pointmaps)},
        **{f"confidence_{v}": c for v, c in enumerate(result.confidences)},
    )
    return result


def _stage_calibrate(ee_poses, camera_poses, cfg, out_dir, seed):
    result = calibrate(ee_poses, camera_poses, CalibrationConfig(**cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_artifact(out_dir / "calibration.json", result.to_dict(), cfg, seed)
    return result


def _stage_reconstruct(align_result, ee_poses, calib, out_dir, seed,
                       color_images=None, seg_images=None, force=False):
    cloud, threshold = reconstruct(
        align_result, ee_poses, calib, color_images, seg_images, force=force
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    io.save_ply(
        out_dir / "cloud.ply", cloud.points, cloud.colors, cloud.segmentation
    )
    _write_artifact(
        out_dir / "reconstruct.json",
        {"num_points": len(cloud), "confidence_threshold": threshold},
        {},
        seed,
    )
    return cloud


def _stage_fields(cloud, train_cfg, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    models = {"occupancy": train_occupancy(cloud, train_cfg)}
    if cloud.segmentation is not None and len(np.unique(cloud.segmentation)) > 1:
        models["segmentation"] = train_segmentation(cloud, train_cfg)
    if cloud.colors is not None:
        models["color"] = train_color(cloud, train_cfg)
    _require_finite_loss(*models.values())
    for name, model in models.items():
        io.save_json(out_dir / f"field_{name}.json", model.to_dict())
    return models


def _require_finite_loss(*models):
    """Raise NonConvergence, naming the heads, if any model's final training
    loss is not finite: such weights are not worth saving."""
    diverged = [m.head for m in models if not math.isfinite(m.final_loss)]
    if diverged:
        raise NonConvergence(f"field training diverged (final loss not finite) "
                             f"for head(s): {', '.join(diverged)}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args):
    cfg = _load_manifest(args.manifest).get("synth", {}) if args.manifest else {}
    _stage_synth(cfg, Path(args.out), args.seed)
    return EXIT_OK


def cmd_align(args):
    pairs, graph = io.load_pair_set(args.pointmaps)
    _stage_align(pairs, graph, Path(args.out), args.seed)
    return EXIT_OK


def cmd_calibrate(args):
    ee = io.load_poses(args.ee_poses)
    cam = io.load_poses(args.camera_poses)
    result = _stage_calibrate(ee, cam, {}, Path(args.out), args.seed)
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_reconstruct(args):
    align_dir = Path(args.alignment)
    align_result = _load_alignment(align_dir)
    ee = io.load_poses(args.ee_poses)
    calib = CalibrationResult.from_dict(io.load_json(args.calibration))
    colors, segs = _load_labels(args.labels) if args.labels else (None, None)
    _stage_reconstruct(
        align_result, ee, calib, Path(args.out), args.seed,
        color_images=colors, seg_images=segs,
        force=args.force_uncalibrated,
    )
    return EXIT_OK


def cmd_train_field(args):
    points, colors, labels = io.load_ply(args.cloud)
    cloud = LabeledPointCloud(
        points=points,
        frame="robot_base",
        views=np.zeros(len(points), dtype=int),
        pixels=np.zeros((len(points), 2), dtype=int),
        colors=colors,
        segmentation=labels,
    )
    trainer = {
        "occupancy": train_occupancy,
        "segmentation": train_segmentation,
        "color": train_color,
    }[args.kind]
    model = trainer(cloud, TrainConfig(seed=args.seed))
    _require_finite_loss(model)
    io.save_json(args.out, model.to_dict())
    return EXIT_OK


def cmd_query(args):
    model = FieldModel.from_dict(io.load_json(args.model))
    try:
        pts = np.loadtxt(args.points, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"{args.points}: not a CSV of numbers: {exc}") from exc
    # savetxt writes a 1-D result (occupancy) as one column.
    np.savetxt(args.out, query(model, pts), delimiter=",", fmt="%.8g")
    return EXIT_OK


def cmd_eval(args):
    if args.cloud and not args.ground_truth:
        raise InputError("--cloud needs --ground-truth, whose object_heights "
                         "the cloud's heights are compared with")
    calib = CalibrationResult.from_dict(io.load_json(args.calibration))
    report = {
        "converged": calib.converged,
        "mean_residual_t": calib.mean_residual_t,
        "max_residual_t": float(np.max(calib.residuals_t)),
        "mean_residual_r": calib.mean_residual_r,
        "max_residual_r": float(np.max(calib.residuals_r)),
        "num_pairs": calib.num_pairs,
    }
    if args.ground_truth:
        gt = _load_ground_truth(args.ground_truth)
        pts = labels = heights = None
        if args.cloud:
            if not gt.get("object_heights"):
                raise InputError(f"{args.ground_truth}: no object_heights to "
                                 f"compare the heights in --cloud with")
            pts, _, labels = io.load_ply(args.cloud)
            heights = gt["object_heights"]
        errors = truth_errors(
            calib, Pose.from_matrix(np.array(gt["calib"])), gt["scale"],
            pts, labels, heights,
        )
        report["rotation_error_deg"] = errors["rot_err_deg"]
        report["translation_error_m"] = errors["trans_err_mm"] / 1e3
        report["scale_error_percent"] = errors["scale_err_pct"]
        if "heights" in errors:
            report["object_heights"] = errors["heights"]
    _print_report(report)
    if args.out:
        io.save_json(args.out, report)
    return EXIT_OK


def _print_report(report, indent=""):
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_report(value, indent + "  ")
        elif isinstance(value, float):
            print(f"{indent}{key:<24} {value:.6g}")
        else:
            print(f"{indent}{key:<24} {value}")


def _load_alignment(align_dir):
    """AlignmentResult from ``jcr align``'s output directory; raises
    InputError for a missing key, a value of the wrong JSON type, an edge
    outside the views or a pointmap that does not match its confidence
    map."""
    from .alignment import AlignmentResult, PairGraph

    path = align_dir / "alignment.json"
    meta = io.load_json(path)
    keys = ("poses_camera_to_global", "sigmas", "objective", "converged",
            "edges")
    if not isinstance(meta, dict) or not all(k in meta for k in keys):
        raise InputError(f"{path}: needs the keys {', '.join(keys)}")
    matrices, sigmas, objective, converged, edges = (meta[k] for k in keys)
    if not (isinstance(matrices, list) and all(map(_MATRIX[1], matrices))
            and isinstance(edges, list) and all(
                isinstance(e, list) and all(map(io.is_int, e)) for e in edges)
            and isinstance(sigmas, list) and len(sigmas) == len(edges)
            and all(map(io.is_number, sigmas)) and io.is_number(objective)
            and isinstance(converged, bool)):
        raise InputError(
            f"{path}: needs poses as 16 numbers each, edges as lists of "
            "integers, one number per edge in sigmas, a number objective and "
            "converged true or false")
    poses = [Pose.from_matrix(np.array(m, dtype=float)) for m in matrices]
    graph = PairGraph(len(poses), tuple(map(tuple, edges)))
    if not poses:
        raise InputError(f"{path}: no poses")
    names = [f"{kind}_{v}" for v in range(len(poses))
             for kind in ("pointmap", "confidence")]
    maps = io.load_npz(align_dir / "alignment_maps.npz", names)
    pointmaps = [maps[f"pointmap_{v}"] for v in range(len(poses))]
    confidences = [maps[f"confidence_{v}"] for v in range(len(poses))]
    for v, (pm, conf) in enumerate(zip(pointmaps, confidences)):
        if (pm.shape != conf.shape + (3,) or conf.ndim != 2
                or pm.dtype.kind != "f" or conf.dtype.kind != "f"):
            raise InputError(f"alignment maps of view {v}: pointmap {pm.shape} "
                             f"{pm.dtype} and confidence {conf.shape} {conf.dtype}")
    return AlignmentResult(
        poses=poses,
        sigmas=np.array(sigmas, dtype=float),
        pointmaps=pointmaps,
        confidences=confidences,
        objective=float(objective),
        objective_trace=np.array([]),
        converged=converged,
        # Absent from alignment.json files written before it was recorded.
        stop_reason=meta.get("stop_reason"),
        graph=graph,
    )


def _load_labels(path):
    """Per-view color (H, W, 3) and segmentation (H, W) images from the
    ``labels.npz`` that ``jcr synth`` writes."""
    data = io.load_npz(path, ("colors", "segmentation"))
    colors, segs = data["colors"], data["segmentation"]
    if (colors.ndim != 4 or segs.ndim != 3 or colors.dtype.kind not in "fiu"
            or segs.dtype.kind not in "iu"):
        raise InputError(f"{path}: expected numeric colors (N, H, W, 3) and "
                         "integer segmentation (N, H, W)")
    return list(colors), list(segs)


def _load_ground_truth(path):
    """``synth/ground_truth.json``: calib as 16 numbers, a positive scale
    and, optionally, object_heights mapping class ids to numbers."""
    gt = io.load_json(path)
    if not (isinstance(gt, dict) and _MATRIX[1](gt.get("calib"))
            and io.is_number(gt.get("scale")) and gt["scale"] > 0):
        raise InputError(f"{path}: ground truth needs calib as 16 numbers "
                         "and a positive scale")
    heights = gt.get("object_heights")
    if heights is not None and not (isinstance(heights, dict) and all(
            k.isdecimal() and io.is_number(h) for k, h in heights.items())):
        raise InputError(f"{path}: object_heights must map class ids to numbers")
    return gt


_INT = ("an integer", io.is_int)
_SEED = ("a non-negative integer", lambda v: io.is_int(v) and v >= 0)
_NUMBER = ("a finite number", io.is_number)
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_PATH = ("a path", lambda v: isinstance(v, str))
_MATRIX = ("16 numbers (a 4x4 matrix)", lambda v: (
    isinstance(v, list) and len(v) == 16 and all(map(io.is_number, v))))

# Every key that `jcr run` reads from a manifest, and what its value must
# be; a dict is an object with keys of its own.
MANIFEST_KEYS = {
    "seed": _SEED,
    "out": _PATH,
    "ee_poses": _PATH,
    "pointmaps": _PATH,
    "labels": _PATH,
    "synth": {
        "num_poses": _INT,
        "noise": dict.fromkeys(
            ("sigma_rot", "sigma_trans", "sigma_point", "dropout",
             "pair_scale_jitter"), _NUMBER),
        "camera": {"width": _INT, "height": _INT, "fov_deg": _NUMBER},
        "hidden": {"calib": _MATRIX, "scale": _NUMBER},
    },
    "calibrate": {"all_pairs": _BOOL},
    "fields": {"epochs": _INT, "hidden_size": _INT},
}


def _check_manifest(block, keys=MANIFEST_KEYS, where=None):
    """Raise InputError naming the first key that is not in ``keys`` or
    whose value is not what ``keys`` asks for."""
    if not isinstance(block, dict):
        raise InputError(f"manifest {where or 'file'}: expected an object")
    for key, value in block.items():
        path = f"{where}.{key}" if where else key
        if key not in keys:
            raise InputError(f"manifest key {path}: not read by jcr")
        want = keys[key]
        if isinstance(want, dict):
            _check_manifest(value, want, path)
        elif not want[1](value):
            raise InputError(
                f"manifest key {path}: expected {want[0]}, got {value!r}"
            )


def _load_manifest(path):
    manifest = io.load_json(path)
    _check_manifest(manifest)
    return manifest


def cmd_run(args):
    """Full pipeline: (synth|load) -> align -> calibrate -> reconstruct -> fields."""
    manifest = _load_manifest(args.manifest) if args.manifest else {}
    out = Path(args.out or manifest.get("out", "jcr_out"))
    seed = args.seed if args.seed is not None else int(manifest.get("seed", 0))
    stage = "input"
    try:
        inputs = [k for k in ("ee_poses", "pointmaps", "labels")
                  if k in manifest]
        if "synth" in manifest and inputs:
            raise InputError(f"manifest keys synth and {', '.join(inputs)}: "
                             "a run synthesizes its inputs or reads them, not both")
        train_cfg = TrainConfig(seed=seed, **manifest.get("fields", {}))
        if not inputs:
            stage = "synth"
            ds = _stage_synth(manifest.get("synth", {}), out / "synth", seed)
            ee_poses = ds.ee_poses
            pairs, graph = ds.pairs, ds.graph
            colors = ds.color_images
            segs = ds.segmentation_images
        else:
            for key in ("ee_poses", "pointmaps"):
                if key not in manifest:
                    raise InputError(
                        f"manifest key {key}: needed in a run without synth "
                        f"that names {', '.join(inputs)}")
            ee_poses = io.load_poses(manifest["ee_poses"])
            pairs, graph = io.load_pair_set(manifest["pointmaps"])
            colors, segs = (_load_labels(manifest["labels"])
                            if manifest.get("labels") else (None, None))

        stage = "align"
        align_result = _stage_align(pairs, graph, out / "align", seed)
        stage = "calibrate"
        camera_poses = [p.inverse() for p in align_result.poses]
        calib = _stage_calibrate(
            ee_poses, camera_poses, manifest.get("calibrate", {}),
            out / "calibrate", seed,
        )
        stage = "reconstruct"
        cloud = _stage_reconstruct(
            align_result, ee_poses, calib, out / "reconstruct", seed,
            color_images=colors, seg_images=segs,
            force=args.force_uncalibrated,
        )
        stage = "train-field"
        _stage_fields(cloud, train_cfg, out / "fields")
    except JCRError as exc:
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    if not calib.converged:
        print("calibration did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _exit_code_for(exc):
    if isinstance(exc, DegenerateGeometry):
        return EXIT_DEGENERATE
    if isinstance(exc, (NonConvergence, UncalibratedInput)):
        return EXIT_NONCONVERGED
    return EXIT_INPUT


# ---------------------------------------------------------------------------
# Argument parsing


def _seed(text):
    """``--seed``: a non-negative integer, or a usage error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jcr",
        description="Joint hand-eye calibration and scene representation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, seeded=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if seeded:
            p.add_argument("--seed", type=_seed, default=0)
        return p

    p = add("synth", cmd_synth, help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="reads its synth block, as jcr run does")

    p = add("align", cmd_align, help="globally align pairwise pointmaps")
    p.add_argument("--pointmaps", required=True, help="pair manifest JSON")
    p.add_argument("--out", required=True)

    p = add("calibrate", cmd_calibrate, help="solve hand-eye + scale")
    p.add_argument("--ee-poses", required=True)
    p.add_argument("--camera-poses", required=True)
    p.add_argument("--out", required=True)

    p = add("reconstruct", cmd_reconstruct, help="build metric base-frame cloud")
    p.add_argument("--alignment", required=True, help="align output directory")
    p.add_argument("--calibration", required=True)
    p.add_argument("--ee-poses", required=True)
    p.add_argument("--labels")
    p.add_argument("--out", required=True)
    p.add_argument("--force-uncalibrated", action="store_true")

    p = add("train-field", cmd_train_field, help="train an implicit field")
    p.add_argument("--cloud", required=True, help="PLY point cloud")
    p.add_argument(
        "--kind", choices=["occupancy", "segmentation", "color"], required=True
    )
    p.add_argument("--out", required=True)

    p = add("query", cmd_query, seeded=False,
            help="query a trained field at CSV points")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True, help="CSV of x,y,z rows")
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, seeded=False, help="report calibration quality")
    p.add_argument("--calibration", required=True)
    p.add_argument("--ground-truth")
    p.add_argument("--cloud", help="PLY with labels, for height errors; "
                   "needs --ground-truth with object_heights")
    p.add_argument("--out")

    p = sub.add_parser("run", help="run the full pipeline from a manifest")
    p.set_defaults(fn=cmd_run)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--force-uncalibrated", action="store_true")

    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except JCRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
