"""SO(3)/SE(3) primitives used throughout the calibration pipeline.

Conventions:
    * A rotation matrix R acts on column vectors, p_out = R @ p.
    * A ``Pose`` (R, t) maps p_out = R @ p + t.  Which frames the map
      connects is documented at the call sites; composition is ``A @ B``
      meaning "apply B first".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrix, InputError

# Frames of a LabeledPointCloud.
ROBOT_BASE = "robot_base"
CAMERA_MODEL = "camera_model"

_EPS_ANGLE_ZERO = 1e-8
_EPS_ANGLE_PI = 1e-6
# inv_sqrt_psd refuses a matrix whose smallest eigenvalue is at or below this.
_EPS_EIG_MIN = 1e-12
# Pose.from_matrix refuses a bottom row further than this from (0, 0, 0, 1).
_EPS_BOTTOM_ROW = 1e-9


def skew(v):
    """Cross-product matrix: skew(v) @ u == np.cross(v, u); maps (..., 3)
    vectors to (..., 3, 3) matrices."""
    v = np.asarray(v, dtype=float)
    K = np.zeros(v.shape + (3,))
    K[..., 0, 1], K[..., 0, 2] = -v[..., 2], v[..., 1]
    K[..., 1, 0], K[..., 1, 2] = v[..., 2], -v[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -v[..., 1], v[..., 0]
    return K


def project_to_rotation(M):
    """Nearest rotation matrix (polar decomposition via SVD, det +1)."""
    U, _, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return R


def exp_map(v):
    """Rodrigues' formula: axis-angle vectors (..., 3) -> rotation matrices
    (..., 3, 3). Each matrix of a stack equals the one-vector result bit
    for bit."""
    v = np.asarray(v, dtype=float)
    # The angle from a 1x3 by 3x1 product, the dot np.linalg.norm takes for
    # one vector; einsum and norm(axis=-1) round differently in some rows.
    theta = np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])
    # Below _EPS_ANGLE_ZERO: second-order Taylor, exact to machine
    # precision at these angles.
    small = theta < _EPS_ANGLE_ZERO
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(theta) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(theta)) / (safe * safe))
    K = skew(v)
    return np.eye(3) + a[..., None, None] * K + b[..., None, None] * (K @ K)


def log_map(R):
    """Axis-angle 3-vector of a rotation matrix (angle in [0, pi]).

    The generic formula divides by sin(angle), so the angle ~ 0 and
    angle ~ pi neighbourhoods get dedicated branches.
    """
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    cos_w = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    off = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    # atan2 of (sin, cos) is far better conditioned near the ends of the
    # angle range than arccos of the trace alone.
    sin_w = 0.5 * np.linalg.norm(off)
    w = np.arctan2(sin_w, cos_w)
    if w < _EPS_ANGLE_ZERO:
        return 0.5 * off
    if np.pi - w < _EPS_ANGLE_PI:
        # Near pi the off-diagonal differences vanish. The symmetric part
        # (R + R^T)/2 = cos(w) I + (1 - cos(w)) a a^T exposes the axis.
        aaT = ((R + R.T) / 2.0 - cos_w * np.eye(3)) / (1.0 - cos_w)
        axis = np.sqrt(np.clip(np.diag(aaT), 0.0, None))
        k = int(np.argmax(axis))
        for j in range(3):
            if j != k and aaT[k, j] < 0:
                axis[j] = -axis[j]
        axis /= np.linalg.norm(axis)
        # The residual antisymmetric part still carries sin(w) > 0 sign.
        if np.dot(axis, off) < 0:
            axis = -axis
        return w * axis
    return (w / (2.0 * np.sin(w))) * off


def inv_sqrt_psd(A):
    """Inverse matrix square root of a symmetric positive-definite matrix.

    Uses a symmetric eigendecomposition; raises DegenerateMatrix when the
    smallest eigenvalue is at or below _EPS_EIG_MIN (upstream this signals
    insufficient rotation diversity).
    """
    A = np.asarray(A, dtype=float)
    A = (A + A.T) / 2.0
    evals, evecs = np.linalg.eigh(A)
    if evals.min() <= _EPS_EIG_MIN:
        raise DegenerateMatrix(
            f"smallest eigenvalue {evals.min():.3e} <= {_EPS_EIG_MIN:.1e}"
        )
    return (evecs / np.sqrt(evals)) @ evecs.T


@dataclass(frozen=True)
class Pose:
    """Rigid transform: p_out = rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "rotation", np.asarray(self.rotation, dtype=float)
        )
        object.__setattr__(
            self,
            "translation",
            np.asarray(self.translation, dtype=float).reshape(3),
        )

    @staticmethod
    def identity():
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_matrix(M):
        """Build from a row-major 4x4 homogeneous matrix, re-orthonormalizing R.

        Serialized matrices accumulate rounding error, so ingestion goes
        through a polar projection. Raises InputError for a matrix with NaN
        or infinite entries, or with a bottom row off (0, 0, 0, 1), such as
        a column-major one.
        """
        M = np.asarray(M, dtype=float).reshape(4, 4)
        if not np.isfinite(M).all():
            raise InputError("pose matrix has non-finite entries")
        if np.abs(M[3] - [0.0, 0.0, 0.0, 1.0]).max() > _EPS_BOTTOM_ROW:
            raise InputError(
                f"pose matrix bottom row is {M[3].tolist()}, not (0, 0, 0, 1); "
                "is the matrix column-major?"
            )
        return Pose(project_to_rotation(M[:3, :3]), M[:3, 3])

    def matrix(self):
        M = np.eye(4)
        M[:3, :3] = self.rotation
        M[:3, 3] = self.translation
        return M

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self.compose(other))(p) == self(other(p))."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(Rt, -Rt @ self.translation)

    def apply(self, points):
        """Apply to one 3-vector or an (N, 3) array."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def scaled_translation(self, scale) -> "Pose":
        """Same rotation, translation multiplied by ``scale``."""
        return Pose(self.rotation, scale * self.translation)


def random_rotation(rng, max_angle=np.pi):
    """Uniform random axis, angle uniform in (0, max_angle)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_map(axis * rng.uniform(0.0, max_angle))


def rotation_angle(R):
    """Rotation angle in [0, pi]."""
    return float(np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)))
