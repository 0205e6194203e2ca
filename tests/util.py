"""Shared helpers for the test suite."""

import dataclasses

import numpy as np

from jcr.geometry import Pose, exp_map, random_rotation
from jcr.synth import (
    HiddenParams,
    NoiseProfile,
    TrajectoryConfig,
    generate_dataset,
    tabletop_scene,
)


def pose_dataset(seed, num_poses=10, noise=None, hidden=None,
                 with_pointmaps=False, camera=None):
    """Synthetic dataset with a random hidden calibration."""
    rng = np.random.default_rng(seed)
    hidden = hidden or HiddenParams.random(rng)
    noise = noise or NoiseProfile.zero()
    return generate_dataset(
        tabletop_scene(),
        TrajectoryConfig(num_poses=num_poses),
        hidden,
        noise,
        seed=seed,
        camera=camera,
        with_pointmaps=with_pointmaps,
    )


def zero_confidence_of_view(pairs, view, maps=("self", "other")):
    """``pairs`` with the confidence maps named in ``maps`` (``"self"``,
    ``"other"``) set to zero on every edge touching ``view``."""
    return [p if view not in (p.n, p.m) else dataclasses.replace(p, **{
        f"confidence_{k}": np.zeros_like(getattr(p, f"confidence_{k}"))
        for k in maps}) for p in pairs]


def split_confidence_of_view(pairs, view, keep=0):
    """``pairs`` with every self-map confidence zero on the bottom half of
    the image and, on the edges touching ``view``, every other-map
    confidence zero on the top half. Terms of nonzero confidence still join
    the view's pose to view 0's, but no pixel of an edge that touches it
    has both a self-map and an other-map confidence, except that such an
    edge keeps both at the first ``keep`` pixels of the bottom half's first
    row where both are positive: points on one line."""
    out = []
    for p in pairs:
        top = np.arange(p.height) < p.height // 2
        conf_self = np.where(top[:, None], p.confidence_self, 0.0)
        conf_other = p.confidence_other
        if view in (p.n, p.m):
            conf_other = np.where(top[:, None], 0.0, conf_other)
            row = p.height // 2
            both = (p.confidence_self[row] > 0) & (p.confidence_other[row] > 0)
            cols = np.flatnonzero(both)[:keep]
            conf_self[row, cols] = p.confidence_self[row, cols]
            conf_other[row, cols] = p.confidence_other[row, cols]
        out.append(dataclasses.replace(p, confidence_self=conf_self,
                                       confidence_other=conf_other))
    return out


def connected(graph):
    """Whether the edges of ``graph`` join every view to view 0."""
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for e in graph.edges:
            if v in e:
                for nb in set(e) - seen:
                    seen.add(nb)
                    stack.append(nb)
    return len(seen) == graph.num_views


def consistent_motion_pairs(rng, num_pairs, calib: Pose, scale,
                            rot_scale=0.8, trans_scale=0.3):
    """Motion pairs satisfying T_E X = X T_P(scale) exactly.

    Camera motions are drawn at random; the matching end-effector motion
    is X T_P(scale) X^-1.
    """
    from jcr.calibration import MotionPair

    pairs = []
    for _ in range(num_pairs):
        R_p = random_rotation(rng, max_angle=rot_scale * np.pi)
        t_p = rng.uniform(-trans_scale, trans_scale, size=3)
        T_P = Pose(R_p, t_p)
        T_E = calib.compose(T_P.scaled_translation(scale)).compose(
            calib.inverse()
        )
        pairs.append(MotionPair(T_E=T_E, T_P=T_P))
    return pairs


def rotation_error(Ra, Rb):
    """Angle between two rotations, radians."""
    from jcr.geometry import rotation_angle

    return rotation_angle(Ra @ Rb.T)


def is_rotation(R, tol=1e-9):
    R = np.asarray(R)
    return (
        R.shape == (3, 3)
        and np.linalg.norm(R.T @ R - np.eye(3)) < tol
        and abs(np.linalg.det(R) - 1.0) < tol
    )


def small_rotation(rng, max_deg=10.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_map(axis * np.deg2rad(rng.uniform(0, max_deg)))
