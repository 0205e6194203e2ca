"""Hand-eye solve: motions, rotation, translation + scale, residuals."""

import numpy as np
import pytest

from jcr import calibration
from jcr.calibration import (
    CalibrationResult,
    MotionPair,
    calibrate,
    motion_pairs,
    residuals,
    solve_rotation,
    solve_translation_scale,
)
from jcr.errors import (
    DegenerateMotion,
    InputError,
    LengthMismatch,
    RankDeficientC,
    ScaleAtBound,
    TooFewPoses,
)
from jcr.geometry import Pose, exp_map, log_map, random_rotation
from jcr.synth import single_axis_trajectory

from util import consistent_motion_pairs, pose_dataset, rotation_error


class TestMotionPairs:
    def test_identical_poses_give_identity_motion(self):
        rng = np.random.default_rng(0)
        P = Pose(random_rotation(rng), rng.normal(size=3))
        Q = Pose(random_rotation(rng), rng.normal(size=3))
        pairs = motion_pairs([P, P, Q], [P, P, Q])
        assert np.allclose(pairs[0].T_E.matrix(), np.eye(4), atol=1e-12)

    def test_matches_hand_computed_relative(self):
        rng = np.random.default_rng(1)
        ee = [Pose(random_rotation(rng), rng.normal(size=3)) for _ in range(3)]
        cam = [Pose(random_rotation(rng), rng.normal(size=3)) for _ in range(3)]
        pairs = motion_pairs(ee, cam)
        for i, p in enumerate(pairs):
            expect = ee[i + 1].matrix() @ np.linalg.inv(ee[i].matrix())
            assert np.abs(p.T_E.matrix() - expect).max() < 1e-9
            expect = cam[i + 1].matrix() @ np.linalg.inv(cam[i].matrix())
            assert np.abs(p.T_P.matrix() - expect).max() < 1e-9

    def test_length_mismatch(self):
        I = Pose.identity()
        with pytest.raises(LengthMismatch):
            motion_pairs([I, I], [I, I, I])

    def test_too_few_poses(self):
        I = Pose.identity()
        with pytest.raises(TooFewPoses):
            motion_pairs([I, I], [I, I])

    def test_all_pairs_count(self):
        rng = np.random.default_rng(2)
        poses = [Pose(random_rotation(rng), rng.normal(size=3)) for _ in range(5)]
        assert len(motion_pairs(poses, poses, all_pairs=True)) == 10
        assert len(motion_pairs(poses, poses)) == 4

    @pytest.mark.parametrize("part", ["rotation", "translation"])
    @pytest.mark.parametrize("side", ["end-effector", "camera"])
    def test_non_finite_pose_is_input_error(self, side, part):
        """A NaN pose is bad input (exit 2), not degenerate motion (exit 3)."""
        ds = pose_dataset(seed=3, num_poses=5)
        ee, cam = list(ds.ee_poses), list(ds.camera_poses)
        poses = ee if side == "end-effector" else cam
        rotation, translation = poses[2].rotation.copy(), poses[2].translation.copy()
        (rotation if part == "rotation" else translation)[0] = np.nan
        poses[2] = Pose(rotation, translation)
        with pytest.raises(InputError, match=f"{side} pose 2"):
            calibrate(ee, cam)


class TestSolveRotation:
    def test_identity_calibration(self):
        rng = np.random.default_rng(3)
        pairs = consistent_motion_pairs(rng, 10, Pose.identity(), 1.0)
        R = solve_rotation(pairs)
        assert np.abs(R - np.eye(3)).max() < 1e-9

    def test_random_ground_truth_recovery(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            X = Pose(random_rotation(rng), rng.uniform(-0.1, 0.1, 3))
            pairs = consistent_motion_pairs(rng, 20, X, 0.7)
            R = solve_rotation(pairs)
            assert rotation_error(R, X.rotation) < 1e-6

    def test_shared_axis_raises(self):
        rng = np.random.default_rng(5)
        axis = np.array([0.3, -0.5, 0.8])
        axis /= np.linalg.norm(axis)
        pairs = []
        for _ in range(10):
            R = exp_map(axis * rng.uniform(0.1, 1.0))
            T = Pose(R, rng.normal(size=3))
            pairs.append(MotionPair(T_E=T, T_P=T))
        with pytest.raises(DegenerateMotion):
            solve_rotation(pairs)

    def test_negative_determinant_recovers_rotation(self):
        """Axes beta_k = m_k Q e_k and alpha_k = R beta_k, the last negated,
        give det M < 0; the fit then flips M's least-determined axis and
        keeps R, instead of flipping an arbitrary one."""
        rng = np.random.default_rng(9)
        for _ in range(5):
            R, Q = random_rotation(rng), random_rotation(rng)
            pairs = []
            for k, (m, sign) in enumerate(((0.9, 1), (0.5, 1), (0.1, -1))):
                beta = m * Q[:, k]
                pairs.append(MotionPair(
                    T_E=Pose(exp_map(sign * R @ beta), np.zeros(3)),
                    T_P=Pose(exp_map(beta), np.zeros(3)),
                ))
            M = sum(np.outer(log_map(p.T_P.rotation), log_map(p.T_E.rotation))
                    for p in pairs)
            assert np.linalg.det(M) < 0
            assert rotation_error(solve_rotation(pairs), R) < 1e-6


class TestSolveTranslationScale:
    def test_known_scale_and_translation(self):
        rng = np.random.default_rng(6)
        X = Pose(random_rotation(rng), np.array([0.03, -0.02, 0.10]))
        pairs = consistent_motion_pairs(rng, 15, X, 0.5)
        t, lam = solve_translation_scale(pairs, X.rotation)
        assert abs(lam - 0.5) / 0.5 < 1e-10
        assert np.linalg.norm(t - X.translation) < 1e-10

    def test_closed_form_beats_random_sampling(self):
        rng = np.random.default_rng(7)
        X = Pose(random_rotation(rng), rng.uniform(-0.1, 0.1, 3))
        lam_true = 1.3
        pairs = consistent_motion_pairs(rng, 12, X, lam_true)
        # Perturb the pairs so the optimum is not exactly zero residual.
        noisy = [
            MotionPair(
                T_E=Pose(p.T_E.rotation, p.T_E.translation + rng.normal(0, 1e-3, 3)),
                T_P=p.T_P,
            )
            for p in pairs
        ]
        def cost(t, lam):
            res = residuals(noisy, X.rotation, t, lam)
            return sum(r[0] ** 2 for r in res)

        t_star = _t_star_at(noisy, X.rotation, lam_true)
        base = cost(t_star, lam_true)
        for _ in range(1000):
            trial = cost(t_star + rng.uniform(-0.05, 0.05, 3), lam_true)
            assert trial >= base - 1e-9

    def test_zero_camera_translation_unidentifiable(self):
        rng = np.random.default_rng(8)
        pairs = []
        for _ in range(8):
            R_p = random_rotation(rng, max_angle=1.0)
            T_P = Pose(R_p, np.zeros(3))
            T_E = Pose(R_p, (np.eye(3) - R_p) @ np.array([0.1, 0.2, 0.3]))
            pairs.append(MotionPair(T_E=T_E, T_P=T_P))
        with pytest.raises(ScaleAtBound):
            solve_translation_scale(pairs, np.eye(3))
        # The same failure reads as a rank deficiency of the joint system.
        with pytest.raises(RankDeficientC):
            solve_translation_scale(pairs, np.eye(3))

    def test_camera_orbiting_a_point_unidentifiable(self):
        # The camera rotates about a fixed point c off its centre, so its
        # translations (I - R_p) c are nonzero but lie in the span of C
        # and carry no scale information.
        rng = np.random.default_rng(13)
        c = np.array([0.4, -0.3, 0.5])
        pairs = []
        for _ in range(8):
            R_p = random_rotation(rng, max_angle=1.0)
            T_P = Pose(R_p, (np.eye(3) - R_p) @ c)
            T_E = Pose(R_p, (np.eye(3) - R_p) @ np.array([0.1, 0.2, 0.3]))
            pairs.append(MotionPair(T_E=T_E, T_P=T_P))
        with pytest.raises(ScaleAtBound, match="flat"):
            solve_translation_scale(pairs, np.eye(3))

    def test_scale_outside_search_range(self):
        rng = np.random.default_rng(9)
        X = Pose(random_rotation(rng), rng.uniform(-0.1, 0.1, 3))
        for lam_true in (5e3, 2e-4, -0.5):
            pairs = consistent_motion_pairs(rng, 12, X, lam_true)
            with pytest.raises(ScaleAtBound):
                solve_translation_scale(pairs, X.rotation)

    def test_shared_ee_axis_rank_deficient(self):
        rng = np.random.default_rng(10)
        axis = np.array([0.0, 0.0, 1.0])
        pairs = []
        for _ in range(8):
            R_e = exp_map(axis * rng.uniform(0.2, 1.0))
            pairs.append(
                MotionPair(
                    T_E=Pose(R_e, rng.normal(size=3)),
                    T_P=Pose(random_rotation(rng), rng.normal(size=3)),
                )
            )
        with pytest.raises(RankDeficientC):
            solve_translation_scale(pairs, np.eye(3))


def _t_star_at(pairs, R, lam):
    C_blocks, d_parts = [], []
    for p in pairs:
        C_blocks.append(np.eye(3) - p.T_E.rotation)
        d_parts.append(p.T_E.translation - lam * (R @ p.T_P.translation))
    C = np.vstack(C_blocks)
    d = np.concatenate(d_parts)
    return np.linalg.lstsq(C, d, rcond=None)[0]


class TestResiduals:
    def test_noiseless_near_zero(self):
        rng = np.random.default_rng(11)
        X = Pose(random_rotation(rng), rng.uniform(-0.1, 0.1, 3))
        pairs = consistent_motion_pairs(rng, 10, X, 0.8)
        for dt, dr in residuals(pairs, X.rotation, X.translation, 0.8):
            assert dt < 1e-9
            assert dr < 1e-9

    def test_translation_perturbation_increases_residual(self):
        rng = np.random.default_rng(12)
        X = Pose(random_rotation(rng), rng.uniform(-0.1, 0.1, 3))
        pairs = consistent_motion_pairs(rng, 10, X, 0.8)
        base = np.mean(
            [r[0] for r in residuals(pairs, X.rotation, X.translation, 0.8)]
        )
        bumped = np.mean(
            [
                r[0]
                for r in residuals(
                    pairs, X.rotation, X.translation + [0.01, 0, 0], 0.8
                )
            ]
        )
        assert bumped > base


class TestCalibrate:
    def test_noiseless_end_to_end(self):
        ds = pose_dataset(seed=21, num_poses=10)
        result = calibrate(ds.ee_poses, ds.camera_poses)
        gt = ds.ground_truth
        assert result.converged
        assert rotation_error(result.rotation, gt.calib.rotation) < 1e-5
        assert np.linalg.norm(result.translation - gt.calib.translation) < 1e-10
        assert abs(result.scale - gt.scale) / gt.scale < 1e-10

    def test_noisy_plausibility(self):
        from jcr.synth import NoiseProfile

        ds = pose_dataset(seed=22, num_poses=10, noise=NoiseProfile(sigma_point=0.0))
        result = calibrate(ds.ee_poses, ds.camera_poses)
        assert result.converged
        assert result.mean_residual_t < 0.1
        assert result.mean_residual_r < 0.15

    def test_single_axis_trajectory_degenerate(self):
        poses = single_axis_trajectory(10)
        with pytest.raises(DegenerateMotion):
            calibrate(poses, poses)

    def test_result_round_trip(self):
        ds = pose_dataset(seed=23, num_poses=8)
        result = calibrate(ds.ee_poses, ds.camera_poses)
        back = CalibrationResult.from_dict(result.to_dict())
        assert np.allclose(back.rotation, result.rotation)
        assert np.allclose(back.translation, result.translation)
        assert back.scale == result.scale
        assert back.converged == result.converged

    def test_convergence_flag_respects_thresholds(self, monkeypatch):
        ds = pose_dataset(seed=24, num_poses=10)
        reached = calibrate(ds.ee_poses, ds.camera_poses)
        dt, dr = reached.mean_residual_t, reached.mean_residual_r
        assert dt > 0 and dr > 0

        def at(factor):
            monkeypatch.setattr(calibration, "TAU_T", factor * dt)
            monkeypatch.setattr(calibration, "TAU_R", factor * dr)
            return calibrate(ds.ee_poses, ds.camera_poses).converged

        assert not at(0.5)
        assert at(2.0)
