#!/usr/bin/env python3
"""Sweep sensor-noise levels and report calibration and height accuracy.

For each noise multiplier the full pipeline (align -> calibrate ->
reconstruct) runs over several random hidden calibrations, and the
script prints per-level medians of the rotation, translation, and scale
errors plus the worst relative object-height error.

Example:
    python3 scripts/noise_sweep.py --seeds 5 --levels 0 0.5 1 2
"""

import argparse
import sys

import numpy as np

from jcr.alignment import align_global
from jcr.calibration import CalibrationConfig, calibrate
from jcr.errors import DegenerateGeometry
from jcr.reconstruction import reconstruct, truth_errors
from jcr.synth import (
    HiddenParams,
    NoiseProfile,
    TrajectoryConfig,
    generate_dataset,
    tabletop_scene,
)


def run_once(seed, level, num_poses):
    """One pipeline run; returns an error dict or None when not converged."""
    rng = np.random.default_rng(seed)
    hidden = HiddenParams.random(rng)
    base = NoiseProfile()
    noise = (
        NoiseProfile.zero()
        if level == 0.0
        else NoiseProfile(
            sigma_rot=level * base.sigma_rot,
            sigma_trans=level * base.sigma_trans,
            sigma_point=level * base.sigma_point,
        )
    )
    ds = generate_dataset(
        tabletop_scene(),
        TrajectoryConfig(num_poses=num_poses),
        hidden,
        noise,
        seed=seed,
    )
    aligned = align_global(ds.pairs, ds.graph)
    try:
        calib = calibrate(
            ds.ee_poses, [p.inverse() for p in aligned.poses],
            CalibrationConfig(all_pairs=True),
        )
    except DegenerateGeometry:
        return None
    if not calib.converged:
        return None

    cloud, _ = reconstruct(
        aligned, ds.ee_poses, calib, ds.color_images, ds.segmentation_images
    )
    gt = ds.ground_truth
    errors = truth_errors(
        calib, gt.calib, gt.scale, cloud.points, cloud.segmentation,
        gt.object_heights,
    )
    del errors["heights"]
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5,
                    help="runs per noise level")
    ap.add_argument("--levels", type=float, nargs="+",
                    default=[0.0, 0.5, 1.0, 2.0],
                    help="multipliers of the default noise profile")
    ap.add_argument("--num-poses", type=int, default=10)
    args = ap.parse_args(argv)

    header = (
        f"{'level':>6} {'ok':>5} {'rot[deg]':>10} {'trans[mm]':>10} "
        f"{'scale[%]':>9} {'height[%]':>10}"
    )
    print(header)
    print("-" * len(header))
    for level in args.levels:
        results = []
        for i in range(args.seeds):
            r = run_once(2000 + i, level, args.num_poses)
            if r is not None:
                results.append(r)
        if not results:
            print(f"{level:>6.2f}  none converged")
            continue
        med = {k: float(np.median([r[k] for r in results])) for k in results[0]}
        print(
            f"{level:>6.2f} {len(results):>2}/{args.seeds:<2} "
            f"{med['rot_err_deg']:>10.4f} {med['trans_err_mm']:>10.3f} "
            f"{med['scale_err_pct']:>9.4f} {med['height_err_pct']:>10.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
