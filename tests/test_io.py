"""Serialization round trips for poses, pointmap containers, and PLY."""

import json

import numpy as np
import pytest

from jcr import io
from jcr.alignment import PairGraph, PairwisePrediction
from jcr.errors import InputError
from jcr.geometry import Pose, random_rotation


def _random_pair(rng, n=0, m=1, h=4, w=6):
    return PairwisePrediction(
        n=n,
        m=m,
        pointmap_self=rng.normal(size=(h, w, 3)),
        pointmap_other=rng.normal(size=(h, w, 3)),
        confidence_self=rng.uniform(0.5, 3.0, size=(h, w)),
        confidence_other=rng.uniform(0.5, 3.0, size=(h, w)),
    )


class TestPoses:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        poses = [
            Pose(random_rotation(rng), rng.normal(size=3), frame="end_effector")
            for _ in range(5)
        ]
        path = tmp_path / "poses.json"
        io.save_poses(path, poses)
        back = io.load_poses(path)
        assert len(back) == 5
        for a, b in zip(poses, back):
            assert np.abs(a.matrix() - b.matrix()).max() < 1e-9
            assert b.frame == "end_effector"

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"frame": "x", "matrix": [1, 2, 3]}]))
        with pytest.raises(InputError):
            io.load_poses(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError):
            io.load_poses(tmp_path / "missing.json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_matrix(self, tmp_path, bad):
        m = np.eye(4).reshape(-1).tolist()
        m[5] = bad
        path = tmp_path / "nan.json"
        path.write_text(json.dumps([{"frame": "x", "matrix": m}]))
        with pytest.raises(InputError, match="non-finite"):
            io.load_poses(path)

    @pytest.mark.parametrize(
        "data", [{"matrix": [0] * 16}, [[0] * 16], "poses", 3]
    )
    def test_not_a_list_of_objects(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InputError, match="list of pose objects"):
            io.load_poses(path)


class TestPairContainers:
    def test_pair_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pair = _random_pair(rng, n=2, m=7)
        path = tmp_path / "pair.jcrpm"
        io.save_pair(path, pair)
        back = io.load_pair(path)
        assert back.n == 2 and back.m == 7
        # float32 storage
        assert np.abs(back.pointmap_self - pair.pointmap_self).max() < 1e-6
        assert np.abs(back.confidence_other - pair.confidence_other).max() < 1e-6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.jcrpm"
        path.write_bytes(b"NOTPM1" + b"\x00" * 64)
        with pytest.raises(InputError):
            io.load_pair(path)

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "pair.jcrpm"
        io.save_pair(path, _random_pair(rng))
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00\x00")
        with pytest.raises(InputError):
            io.load_pair(path)

    def test_pair_set_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pairs = [_random_pair(rng, 0, 1), _random_pair(rng, 1, 2)]
        graph = PairGraph(3, ((0, 1), (1, 2)))
        manifest = io.save_pair_set(tmp_path / "set", pairs, graph)
        back_pairs, back_graph = io.load_pair_set(manifest)
        assert back_graph.num_views == 3
        assert back_graph.edges == ((0, 1), (1, 2))
        assert len(back_pairs) == 2

    @pytest.mark.parametrize("manifest", [{"num_views": 3}, [], "pairs"])
    def test_manifest_without_pairs(self, tmp_path, manifest):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(InputError, match='"pairs"'):
            io.load_pair_set(path)


class TestPly:
    def test_full_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 3))
        colors = rng.uniform(0, 1, size=(50, 3))
        labels = rng.integers(-1, 3, size=50)
        path = tmp_path / "cloud.ply"
        io.save_ply(path, pts, colors, labels)
        bp, bc, bl = io.load_ply(path)
        assert np.abs(bp - pts).max() < 1e-6
        assert np.abs(bc - colors).max() <= 0.5 / 255 + 1e-9
        assert np.array_equal(bl, labels)

    def test_points_only(self, tmp_path):
        pts = np.zeros((3, 3))
        path = tmp_path / "bare.ply"
        io.save_ply(path, pts)
        bp, bc, bl = io.load_ply(path)
        assert bc is None and bl is None
        assert bp.shape == (3, 3)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"not a ply at all")
        with pytest.raises(InputError):
            io.load_ply(path)


class TestJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        io.save_json(path, {"a": [1, 2], "b": "c"})
        assert io.load_json(path) == {"a": [1, 2], "b": "c"}

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InputError):
            io.load_json(path)
