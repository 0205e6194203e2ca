"""Marker-free hand-eye calibration with joint metric-scale recovery.

Inputs are index-aligned pose lists:
    * end-effector poses E_i mapping robot-base coordinates into the
      end-effector frame (so base points are recovered via E^-1),
    * camera poses P_n mapping the shared model frame into each camera
      frame, in unscaled model units.

With relative motions T_E = E_{i+1} E_i^-1 and T_P = P_{n+1} P_n^-1 the
estimate X (camera -> end-effector) and scale lam satisfy the classical
hand-eye equation T_E X = X T_P(lam), where T_P(lam) keeps the rotation
and multiplies the translation by lam.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMatrix,
    DegenerateMotion,
    InputError,
    LengthMismatch,
    RankDeficientC,
    ScaleAtBound,
    TooFewPoses,
)
from .geometry import Pose, inv_sqrt_psd, log_map, project_to_rotation
from .io import is_int, is_number

log = logging.getLogger(__name__)

TAU_T = 0.1   # meters, convergence gate on mean translation residual
TAU_R = 0.15  # Frobenius, convergence gate on mean rotation residual
RANK_TOL = 1e-8  # singular values <= RANK_TOL * max(largest, 1) count as 0
SCALE_RANGE = (1e-3, 1e3)  # meters per model unit; outside it is a failure


@dataclass(frozen=True)
class MotionPair:
    """Relative end-effector motion (meters) and camera motion (model units)."""

    T_E: Pose
    T_P: Pose


@dataclass(frozen=True)
class CalibrationConfig:
    all_pairs: bool = False  # use all (i, j) motions instead of consecutive


@dataclass
class CalibrationResult:
    rotation: np.ndarray        # camera -> end-effector
    translation: np.ndarray     # meters
    scale: float                # meters per model unit
    residuals_t: np.ndarray     # per pair, L2 norm of translation block
    residuals_r: np.ndarray     # per pair, Frobenius norm of rotation block
    converged: bool
    num_pairs: int

    @property
    def pose(self) -> Pose:
        return Pose(self.rotation, self.translation)

    @property
    def mean_residual_t(self):
        return float(np.mean(self.residuals_t))

    @property
    def mean_residual_r(self):
        return float(np.mean(self.residuals_r))

    def to_dict(self):
        return {
            "rotation": self.rotation.reshape(-1).tolist(),
            "translation": self.translation.tolist(),
            "scale": self.scale,
            "residuals_t": np.asarray(self.residuals_t).tolist(),
            "residuals_r": np.asarray(self.residuals_r).tolist(),
            "converged": bool(self.converged),
            "num_pairs": self.num_pairs,
        }

    @staticmethod
    def from_dict(d):
        """Inverse of ``to_dict``. Raises ``InputError`` for a missing key,
        a num_pairs that is not a positive integer, a converged flag that is
        not a JSON boolean, a scale outside SCALE_RANGE, an array that is not
        a list of that many finite numbers or a rotation that is not
        orthonormal with determinant +1 within 1e-6. Other keys, such as the
        ``tau_t`` and ``tau_r`` of older files, are ignored."""
        try:
            n, scale, converged = d["num_pairs"], d["scale"], d["converged"]
            sizes = {"rotation": 9, "translation": 3, "residuals_t": n,
                     "residuals_r": n}
            arrays = {k: d[k] for k in sizes}
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed calibration: {exc!r}") from exc
        lo, hi = SCALE_RANGE
        if not (is_int(n) and n >= 1 and isinstance(converged, bool)
                and is_number(scale) and lo < scale < hi):
            raise InputError(
                "calibration needs a positive integer num_pairs, converged "
                f"true or false and a scale in ({lo:g}, {hi:g}), not {n!r}, "
                f"{converged!r} and {scale!r}")
        for name, a in arrays.items():
            if not (isinstance(a, list) and len(a) == sizes[name]
                    and all(map(is_number, a))):
                raise InputError(f"calibration {name}: expected {sizes[name]} "
                                 "finite numbers")
            arrays[name] = np.array(a, dtype=float)
        R = arrays["rotation"] = arrays["rotation"].reshape(3, 3)
        if not (np.abs(R @ R.T - np.eye(3)).max() <= 1e-6
                and abs(np.linalg.det(R) - 1.0) <= 1e-6):
            raise InputError("calibration rotation is not orthonormal with "
                             "determinant +1")
        return CalibrationResult(**arrays, scale=float(scale),
                                 converged=converged, num_pairs=n)


def motion_pairs(end_effector, camera, all_pairs=False):
    """Relative motions from index-aligned pose lists.

    Consecutive (i, i+1) pairs by default; ``all_pairs`` adds every (i, j)
    with i < j for robustness experiments. Raises InputError for a pose
    with a NaN or infinite entry.
    """
    if len(end_effector) != len(camera):
        raise LengthMismatch(
            f"{len(end_effector)} end-effector poses vs {len(camera)} camera poses"
        )
    n = len(end_effector)
    if n < 3:
        raise TooFewPoses(f"need at least 3 poses, got {n}")
    for name, poses in (("end-effector", end_effector), ("camera", camera)):
        for i, p in enumerate(poses):
            if not (np.isfinite(p.rotation).all()
                    and np.isfinite(p.translation).all()):
                raise InputError(f"{name} pose {i} has non-finite entries")
    if all_pairs:
        index_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        index_pairs = [(i, i + 1) for i in range(n - 1)]
    pairs = []
    for i, j in index_pairs:
        T_E = end_effector[j].compose(end_effector[i].inverse())
        T_P = camera[j].compose(camera[i].inverse())
        pairs.append(MotionPair(T_E=T_E, T_P=T_P))
    return pairs


def solve_rotation(pairs):
    """Best-fit camera-to-end-effector rotation from motion pairs.

    The rotation axes satisfy alpha_i = R beta_i with alpha = LogMap of the
    end-effector rotation and beta = LogMap of the camera rotation; the
    least-squares rotation is (M^T M)^{-1/2} M^T with M = sum beta alpha^T.
    Requires at least two non-parallel rotation axes.
    """
    M = np.zeros((3, 3))
    for p in pairs:
        alpha = log_map(p.T_E.rotation)
        beta = log_map(p.T_P.rotation)
        M += np.outer(beta, alpha)
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[2] <= RANK_TOL * max(svals[0], 1.0):
        raise DegenerateMotion(
            "rotation axes span fewer than 3 directions "
            f"(singular values {svals}); vary the trajectory axes"
        )
    try:
        R = inv_sqrt_psd(M.T @ M) @ M.T
    except DegenerateMatrix as exc:
        raise DegenerateMotion(str(exc)) from exc
    if np.linalg.det(R) < 0:
        # With det M < 0 the polar factor above is a reflection, whose
        # singular values are all 1; projecting it would flip an arbitrary
        # axis. The Kabsch projection of M^T flips M's least-determined one.
        R = project_to_rotation(M.T)
    return R


def _stack_translation_system(pairs, R):
    """C (3k x 3), a (3k,), b (3k,) with C t = a - lam * b per pair."""
    C_blocks, a_parts, b_parts = [], [], []
    for p in pairs:
        C_blocks.append(np.eye(3) - p.T_E.rotation)
        a_parts.append(p.T_E.translation)
        b_parts.append(R @ p.T_P.translation)
    return np.vstack(C_blocks), np.concatenate(a_parts), np.concatenate(b_parts)


def solve_translation_scale(pairs, R):
    """Joint translation + scale by one linear least-squares solve.

    Per pair the translation block of T_E X = X T_P(lam) reads
    (I - R_E) t + lam R t_P = t_E, linear in (t, lam) (Andreff, Horaud &
    Espiau, IJRR 2001); stacking gives [C | b] [t; lam] = a.

    Raises RankDeficientC when C is rank deficient, and ScaleAtBound when
    b lies in the span of C (the residual is flat in lam) or lam falls
    outside SCALE_RANGE.
    """
    C, a_vec, b_vec = _stack_translation_system(pairs, R)
    svals = np.linalg.svd(C, compute_uv=False)
    if svals[2] <= RANK_TOL * max(svals[0], 1.0):
        raise RankDeficientC(
            "stacked (I - R_E) blocks are rank deficient "
            "(rotation axes share a direction); translation is unobservable"
        )
    b_off_span = b_vec - C @ np.linalg.lstsq(C, b_vec, rcond=None)[0]
    if np.linalg.norm(b_off_span) <= 1e-8 * np.linalg.norm(b_vec):
        raise ScaleAtBound(
            "residual is flat in the scale factor (camera translations "
            "carry no scale information); scale is unidentifiable"
        )
    sol = np.linalg.lstsq(np.column_stack([C, b_vec]), a_vec, rcond=None)[0]
    t, lam = sol[:3], float(sol[3])
    lo, hi = SCALE_RANGE
    if not lo < lam < hi:
        raise ScaleAtBound(f"scale {lam:.4g} outside ({lo:g}, {hi:g})")
    return t, lam


def residuals(pairs, R, t, lam):
    """Per-pair consistency residuals of the hand-eye equation.

    delta = T_E X - X T_P(lam) as a 4x4 difference; returns (delta_t,
    delta_R) with delta_t the L2 norm of the translation block and
    delta_R the Frobenius norm of the rotation block.
    """
    X = np.eye(4)
    X[:3, :3] = R
    X[:3, 3] = t
    out = []
    for p in pairs:
        Tp = p.T_P.scaled_translation(lam).matrix()
        delta = p.T_E.matrix() @ X - X @ Tp
        out.append(
            (
                float(np.linalg.norm(delta[:3, 3])),
                float(np.linalg.norm(delta[:3, :3])),
            )
        )
    return out


def calibrate(end_effector, camera, config: CalibrationConfig | None = None):
    """Full hand-eye solve: motions -> rotation -> (translation, scale) -> residuals."""
    config = config or CalibrationConfig()
    pairs = motion_pairs(end_effector, camera, all_pairs=config.all_pairs)
    R = solve_rotation(pairs)
    t, lam = solve_translation_scale(pairs, R)
    res = residuals(pairs, R, t, lam)
    res_t = np.array([r[0] for r in res])
    res_r = np.array([r[1] for r in res])
    converged = bool(res_t.mean() < TAU_T and res_r.mean() < TAU_R)
    log.info(
        "calibrated %d pairs: scale=%.6g mean_dt=%.4g mean_dR=%.4g converged=%s",
        len(pairs), lam, res_t.mean(), res_r.mean(), converged,
    )
    return CalibrationResult(
        rotation=R,
        translation=np.asarray(t, dtype=float),
        scale=lam,
        residuals_t=res_t,
        residuals_r=res_r,
        converged=converged,
        num_pairs=len(pairs),
    )
