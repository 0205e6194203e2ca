"""Rotation / rigid-transform primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcr.errors import DegenerateMatrix
from jcr.geometry import (
    _EPS_ANGLE_ZERO,
    Pose,
    exp_map,
    inv_sqrt_psd,
    log_map,
    project_to_rotation,
    random_rotation,
    rotation_angle,
    skew,
)

from util import is_rotation


def axis_angle_vectors(max_norm=np.pi - 1e-3):
    return st.builds(
        lambda seed, frac: _seeded_vector(seed, frac, max_norm),
        st.integers(0, 2**32 - 1),
        st.floats(1e-6, 1.0),
    )


def _seeded_vector(seed, frac, max_norm):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * frac * max_norm


class TestLogMap:
    def test_identity_is_zero(self):
        assert np.allclose(log_map(np.eye(3)), np.zeros(3))

    def test_quarter_turn_about_z(self):
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(log_map(R), [0.0, 0.0, np.pi / 2], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(axis_angle_vectors())
    def test_round_trip(self, v):
        assert np.linalg.norm(log_map(exp_map(v)) - v) < 1e-9

    def test_near_pi_branch(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            v = axis * (np.pi - 1e-8)
            w = log_map(exp_map(v))
            # The axis is only defined up to sign exactly at pi.
            err = min(np.linalg.norm(w - v), np.linalg.norm(w + v))
            assert err < 1e-6

    def test_exactly_pi(self):
        v = np.array([np.pi, 0.0, 0.0])
        w = log_map(exp_map(v))
        assert min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < 1e-9


class TestExpMap:
    def test_zero_is_identity(self):
        assert np.allclose(exp_map(np.zeros(3)), np.eye(3))

    def test_half_turn_about_x(self):
        assert np.allclose(
            exp_map([np.pi, 0.0, 0.0]), np.diag([1.0, -1.0, -1.0]), atol=1e-12
        )

    def test_tiny_angle_first_order(self):
        v = np.array([1e-12, -2e-13, 5e-13])
        R = exp_map(v)
        assert np.abs(R - (np.eye(3) + skew(v))).max() < 1e-20

    @settings(max_examples=100, deadline=None)
    @given(axis_angle_vectors())
    def test_output_is_rotation(self, v):
        assert is_rotation(exp_map(v))

    @pytest.mark.parametrize("scale", [0.0, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3,
                                       1e-1, 1.0, 3.0, 10.0])
    def test_stack_rows_equal_single_calls(self, scale):
        rng = np.random.default_rng(12)
        vs = rng.normal(size=(500, 3)) * scale
        stacked = exp_map(vs)
        assert stacked.shape == (500, 3, 3)
        for v, R in zip(vs, stacked):
            assert np.array_equal(R, exp_map(v))

    def test_stack_straddles_small_angle_branch(self):
        rng = np.random.default_rng(13)
        axes = rng.normal(size=(40, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        vs = axes * np.geomspace(1e-10, 1e-6, 40)[:, None]
        assert (np.linalg.norm(vs, axis=1) < _EPS_ANGLE_ZERO).any()
        assert (np.linalg.norm(vs, axis=1) >= _EPS_ANGLE_ZERO).any()
        for v, R in zip(vs, exp_map(vs)):
            assert np.array_equal(R, exp_map(v))

    def test_one_vector_matches_rodrigues(self):
        # Rodrigues with the angle from np.linalg.norm of the one vector:
        # alignment iterates and synth data depend on these bits.
        rng = np.random.default_rng(15)
        for scale in (1e-9, 1e-3, 1.0, 3.0):
            for v in rng.normal(size=(200, 3)) * scale:
                theta = np.linalg.norm(v)
                K = skew(v)
                if theta < _EPS_ANGLE_ZERO:
                    expect = np.eye(3) + K + 0.5 * (K @ K)
                else:
                    expect = (np.eye(3) + (np.sin(theta) / theta) * K
                              + ((1.0 - np.cos(theta)) / (theta * theta))
                              * (K @ K))
                assert np.array_equal(exp_map(v), expect)

    def test_stack_shapes(self):
        assert exp_map(np.zeros(3)).shape == (3, 3)
        assert exp_map(np.zeros((4, 3))).shape == (4, 3, 3)
        assert exp_map(np.zeros((0, 3))).shape == (0, 3, 3)
        assert np.array_equal(exp_map(np.zeros((2, 3))), np.stack([np.eye(3)] * 2))


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        S = inv_sqrt_psd(np.diag([4.0, 9.0, 16.0]))
        assert np.allclose(S, np.diag([0.5, 1.0 / 3.0, 0.25]))

    def test_random_spd_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            B = rng.normal(size=(3, 3))
            A = B @ B.T + 0.1 * np.eye(3)
            S = inv_sqrt_psd(A)
            assert np.linalg.norm(S @ A @ S - np.eye(3)) < 1e-10

    def test_singular_raises(self):
        with pytest.raises(DegenerateMatrix):
            inv_sqrt_psd(np.diag([1.0, 1.0, 0.0]))


class TestPose:
    def test_relative_transform_of_pose_with_itself(self):
        rng = np.random.default_rng(0)
        P = Pose(random_rotation(rng), rng.normal(size=3))
        T = P.compose(P.inverse())
        assert np.allclose(T.matrix(), np.eye(4), atol=1e-12)

    def test_relative_transform_from_identity(self):
        rng = np.random.default_rng(1)
        B = Pose(random_rotation(rng), rng.normal(size=3))
        T = B.compose(Pose.identity().inverse())
        assert np.allclose(T.matrix(), B.matrix())

    def test_relative_transform_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = Pose(random_rotation(rng), rng.normal(size=3))
            B = Pose(random_rotation(rng), rng.normal(size=3))
            T = B.compose(A.inverse())
            assert np.abs(T.compose(A).matrix() - B.matrix()).max() < 1e-9

    def test_inverse(self):
        rng = np.random.default_rng(4)
        P = Pose(random_rotation(rng), rng.normal(size=3))
        assert np.allclose(P.compose(P.inverse()).matrix(), np.eye(4), atol=1e-12)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(5)
        P = Pose(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        hom = np.column_stack([pts, np.ones(10)])
        expect = (P.matrix() @ hom.T).T[:, :3]
        assert np.allclose(P.apply(pts), expect)
        assert np.allclose(P.apply(pts[0]), expect[0])

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(6)
        P = Pose(random_rotation(rng), rng.normal(size=3))
        Q = Pose.from_matrix(P.matrix())
        assert np.allclose(P.matrix(), Q.matrix(), atol=1e-12)

    def test_scaled_translation(self):
        rng = np.random.default_rng(8)
        P = Pose(random_rotation(rng), rng.normal(size=3))
        Q = P.scaled_translation(2.5)
        assert np.allclose(Q.rotation, P.rotation)
        assert np.allclose(Q.translation, 2.5 * P.translation)


class TestProjection:
    def test_rotation_is_fixed_point(self):
        rng = np.random.default_rng(9)
        R = random_rotation(rng)
        assert np.allclose(project_to_rotation(R), R, atol=1e-12)

    def test_projects_to_rotation(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            M = rng.normal(size=(3, 3))
            assert is_rotation(project_to_rotation(M))

    def test_rotation_angle(self):
        assert rotation_angle(np.eye(3)) == 0.0
        assert abs(rotation_angle(exp_map([0.3, 0.0, 0.0])) - 0.3) < 1e-12


def test_skew_matches_cross():
    rng = np.random.default_rng(11)
    v, u = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(skew(v) @ u, np.cross(v, u))


def test_skew_of_stack_equals_rows():
    rng = np.random.default_rng(14)
    vs = rng.normal(size=(5, 3))
    assert np.array_equal(skew(vs), np.stack([skew(v) for v in vs]))
