"""Serialization round trips for poses, pointmap containers, and PLY."""

import base64
import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jcr import cli, io
from jcr.alignment import PairGraph, PairwisePrediction
from jcr.calibration import CalibrationResult
from jcr.errors import InputError, JCRError
from jcr.fields import FieldModel, PositionalEncoding, TrainConfig, query
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
            Pose(random_rotation(rng), rng.normal(size=3)) for _ in range(5)
        ]
        path = tmp_path / "poses.json"
        io.save_poses(path, poses)
        back = io.load_poses(path)
        assert len(back) == 5
        for a, b in zip(poses, back):
            assert np.abs(a.matrix() - b.matrix()).max() < 1e-9

    def test_entries_hold_only_the_matrix(self, tmp_path):
        path = tmp_path / "poses.json"
        io.save_poses(path, [Pose.identity()] * 2)
        assert [set(e) for e in json.loads(path.read_text())] == [{"matrix"}] * 2

    def test_frame_tagged_file_loads_the_same(self, tmp_path):
        """Files whose entries also carry a "frame" string, as older
        versions wrote, load to the same matrices bit for bit."""
        rng = np.random.default_rng(3)
        poses = [Pose(random_rotation(rng), rng.normal(size=3)) for _ in range(4)]
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        io.save_poses(new, poses)
        old.write_text(json.dumps([
            {"frame": "end_effector", "matrix": p.matrix().reshape(-1).tolist()}
            for p in poses
        ]))
        for a, b in zip(io.load_poses(new), io.load_poses(old)):
            assert np.array_equal(a.matrix(), b.matrix())

    def test_column_major_matrix(self, tmp_path):
        rng = np.random.default_rng(4)
        P = Pose(random_rotation(rng), rng.normal(size=3))
        path = tmp_path / "transposed.json"
        path.write_text(json.dumps([{"matrix": P.matrix().T.reshape(-1).tolist()}]))
        with pytest.raises(InputError, match="column-major"):
            io.load_poses(path)

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

    @pytest.mark.parametrize("matrix", [5, ["a"] * 16, [[0] * 4] * 4])
    def test_matrix_not_16_numbers(self, tmp_path, matrix):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"frame": "x", "matrix": matrix}]))
        with pytest.raises(InputError, match="16-number matrix"):
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

    def test_manifest_without_num_views(self, tmp_path):
        rng = np.random.default_rng(5)
        manifest = io.save_pair_set(
            tmp_path, [_random_pair(rng)], PairGraph(2, ((0, 1),))
        )
        data = json.loads(manifest.read_text())
        del data["num_views"]
        manifest.write_text(json.dumps(data))
        with pytest.raises(InputError, match='"num_views"'):
            io.load_pair_set(manifest)

    def test_pair_entry_without_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"num_views": 2, "pairs": [{"n": 0, "m": 1}]}))
        with pytest.raises(InputError, match='"file"'):
            io.load_pair_set(path)

    def test_pair_outside_num_views(self, tmp_path):
        rng = np.random.default_rng(5)
        manifest = io.save_pair_set(
            tmp_path, [_random_pair(rng, 0, 2)], PairGraph(3, ((0, 2),))
        )
        data = json.loads(manifest.read_text())
        data["num_views"] = 2
        manifest.write_text(json.dumps(data))
        with pytest.raises(InputError, match="outside 2 views"):
            io.load_pair_set(manifest)

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.jcrpm"
        path.write_bytes(io.PM_MAGIC + b"\x01" * 15)
        with pytest.raises(InputError, match="header truncated"):
            io.load_pair(path)

    @pytest.mark.parametrize("w, h", [(-2, 3), (3, -1), (0, 3), (3, 0)])
    def test_bad_dimensions(self, tmp_path, w, h):
        path = tmp_path / "dims.jcrpm"
        path.write_bytes(io.PM_MAGIC + struct.pack("<4i", w, h, 0, 1) + b"\x00" * 64)
        with pytest.raises(InputError, match="bad dimensions"):
            io.load_pair(path)

    def test_truncated_body(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "pair.jcrpm"
        io.save_pair(path, _random_pair(rng))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(InputError, match="truncated"):
            io.load_pair(path)


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

    def test_ascii_format_rejected(self, tmp_path):
        path = tmp_path / "ascii.ply"
        header = "\n".join([
            "ply", "format ascii 1.0", "element vertex 2",
            "property float x", "property float y", "property float z",
            "end_header",
        ])
        path.write_bytes(header.encode("ascii") + b"\n1 2 3\n4 5 6\n" + b" " * 12)
        with pytest.raises(InputError, match="binary little-endian"):
            io.load_ply(path)

    def test_unsupported_property_type(self, tmp_path):
        path = tmp_path / "double.ply"
        header = "\n".join([
            "ply", "format binary_little_endian 1.0", "element vertex 1",
            "property double x", "property double y", "property double z",
            "end_header",
        ])
        path.write_bytes(header.encode("ascii") + b"\n" + b"\x00" * 24)
        with pytest.raises(InputError, match="unsupported PLY property"):
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

    def test_nesting_too_deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(InputError):
            io.load_json(path)


# ---------------------------------------------------------------------------
# Fuzzing: whatever the bytes or JSON, the loaders raise JCRError or succeed.

_FUZZ = settings(
    derandomize=True, deadline=None, max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
_matrix = _json | st.lists(
    st.integers() | st.floats() | st.text(max_size=3), min_size=16, max_size=16
)
_poses = st.lists(
    st.fixed_dictionaries({}, optional={"frame": _json, "matrix": _matrix}),
    max_size=3,
)
_pair_files = ("good.jcrpm", "junk.jcrpm", "missing.jcrpm", "", ".")
_manifest = st.fixed_dictionaries(
    {"pairs": st.lists(
        st.fixed_dictionaries({}, optional={
            "file": st.sampled_from(_pair_files) | _json,
            "n": _json,
        }) | _json,
        max_size=3,
    )},
    optional={"num_views": st.integers(-1, 3) | _json},
)
_pm_header = st.builds(
    lambda dims, ids, body: (
        io.PM_MAGIC + struct.pack("<4i", *dims, *ids) + bytes(body)
    ),
    st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
    st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
    st.integers(0, 300),
)
_pm_bytes = st.binary() | st.binary(max_size=24).map(io.PM_MAGIC.__add__) | _pm_header
_ply_line = st.sampled_from([
    "format ascii 1.0", "element vertex 2",
    "element vertex -1", "element face 1", "element vertex",
    "property float x", "property float y", "property float z",
    "property uchar red", "property uchar green", "property uchar blue",
    "property int label", "property double x", "property list uchar int f",
    "property float", "comment hi",
]) | st.text(max_size=12)
_ply_bytes = st.binary() | st.builds(
    lambda lines, body: (
        "\n".join(["ply", "format binary_little_endian 1.0", *lines, "end_header"])
        .encode("utf-8") + b"\n" + body
    ),
    st.lists(_ply_line, max_size=8),
    st.binary(max_size=64),
)


def _only_jcr_errors(loader, path):
    try:
        loader(path)
    except JCRError:
        pass


class TestLoaderFuzz:
    @_FUZZ
    @given(data=st.binary() | _json.map(lambda v: json.dumps(v).encode()))
    def test_json_loaders(self, tmp_path, data):
        path = tmp_path / "fuzz.json"
        path.write_bytes(data)
        for loader in (io.load_json, io.load_poses, io.load_pair_set):
            _only_jcr_errors(loader, path)

    @_FUZZ
    @given(poses=_poses)
    def test_pose_lists(self, tmp_path, poses):
        path = tmp_path / "poses.json"
        path.write_text(json.dumps(poses))
        _only_jcr_errors(io.load_poses, path)

    @_FUZZ
    @given(manifest=_manifest)
    def test_pair_manifests(self, tmp_path, manifest):
        io.save_pair(tmp_path / "good.jcrpm", _random_pair(np.random.default_rng(7)))
        (tmp_path / "junk.jcrpm").write_bytes(io.PM_MAGIC + b"\x07" * 30)
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(manifest))
        _only_jcr_errors(io.load_pair_set, path)

    @_FUZZ
    @given(data=_pm_bytes)
    def test_pair_containers(self, tmp_path, data):
        path = tmp_path / "fuzz.jcrpm"
        path.write_bytes(data)
        _only_jcr_errors(io.load_pair, path)

    @_FUZZ
    @given(data=_ply_bytes)
    def test_ply(self, tmp_path, data):
        path = tmp_path / "fuzz.ply"
        path.write_bytes(data)
        _only_jcr_errors(io.load_ply, path)


def _model_dict(head):
    """A valid serialized field model with small random weights."""
    rng = np.random.default_rng(5)
    seg = head == "segmentation"
    out = 1 if head == "occupancy" else 3
    return FieldModel(
        head=head,
        W1=rng.normal(size=(PositionalEncoding.output_dim, 4)),
        b1=rng.normal(size=4),
        W2=rng.normal(size=(4, out)), b2=rng.normal(size=out),
        norm_center=np.zeros(3), norm_half=np.ones(3),
        num_classes=out if seg else 1,
        class_values=np.array([2, 5, 7]) if seg else None,
        train_config=TrainConfig(),
    ).to_dict()


_HEADS = ("occupancy", "segmentation", "color")
_MODEL_DICTS = {head: _model_dict(head) for head in _HEADS}
# Paths into a model dict; () replaces the whole dict.
_MODEL_PATHS = [
    (), ("head",), ("encoding",), ("encoding", "num_frequencies"),
    ("encoding", "include_raw"), ("encoding", "extra"), ("shapes",),
    ("shapes", "W1"), ("shapes", "W2"), ("weights",), ("weights", "W1"),
    ("weights", "b1"), ("weights", "W2"), ("weights", "b2"), ("norm_center",),
    ("norm_half",), ("num_classes",), ("class_values",), ("final_loss",),
    ("initial_loss",), ("train_config",), ("train_config", "neg_bounds"),
    ("train_config", "hidden_size"),
]
_DELETE = object()
_model_value = (
    st.just(_DELETE) | _json | st.sampled_from(_HEADS)
    | st.lists(st.integers(-2, 40), max_size=3)
    | st.lists(st.floats(), min_size=3, max_size=3)
    | st.binary(max_size=64).map(lambda b: base64.b64encode(b).decode())
)
_model_edits = st.lists(
    st.tuples(st.sampled_from(_MODEL_PATHS), _model_value), min_size=1, max_size=3
)


def _edited(d, edits):
    root = {"": copy.deepcopy(d)}
    for path, value in edits:
        parent, keys = root, ("",) + path
        for key in keys[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value is _DELETE:
            parent.pop(keys[-1], None)
        else:
            parent[keys[-1]] = value
    return root.get("")


class TestModelFuzz:
    @_FUZZ
    @given(head=st.sampled_from(_HEADS), edits=_model_edits)
    def test_field_model_dicts(self, head, edits):
        d = _edited(_MODEL_DICTS[head], edits)
        try:
            query(FieldModel.from_dict(d), np.array([[0.0, 0.1, -0.2], [3, 0, 0]]))
        except JCRError:
            pass

    @pytest.mark.parametrize("head", _HEADS)
    def test_unedited_dict_queries(self, head):
        out = query(FieldModel.from_dict(_MODEL_DICTS[head]), np.zeros((2, 3)))
        assert len(out) == 2 and np.isfinite(out).all()


_CALIB_DICT = CalibrationResult(
    rotation=random_rotation(np.random.default_rng(6)),
    translation=np.array([0.05, -0.02, 0.1]), scale=0.8,
    residuals_t=np.array([0.01, 0.02, 0.015]),
    residuals_r=np.array([0.03, 0.01, 0.02]), converged=True, num_pairs=3,
).to_dict()
_calib_value = (
    st.just(_DELETE) | _json
    | st.lists(st.floats() | st.integers(-3, 3), max_size=10)
)
_calib_edits = st.lists(
    st.tuples(st.sampled_from([()] + [(k,) for k in _CALIB_DICT]), _calib_value),
    min_size=1, max_size=3,
)


class TestCalibrationFuzz:
    @_FUZZ
    @given(edits=_calib_edits)
    def test_calibration_dicts(self, edits):
        try:
            calib = CalibrationResult.from_dict(_edited(_CALIB_DICT, edits))
        except JCRError:
            return
        assert calib.rotation.shape == (3, 3) and calib.translation.shape == (3,)
        assert len(calib.residuals_t) == len(calib.residuals_r) == calib.num_pairs
        assert np.isfinite(calib.mean_residual_t) and np.isfinite(calib.scale)

    def test_unedited_dict_round_trips(self):
        calib = CalibrationResult.from_dict(_CALIB_DICT)
        assert calib.to_dict() == _CALIB_DICT


_EYE = np.eye(4).reshape(-1).tolist()
_ALIGN_META = {"poses_camera_to_global": [_EYE] * 2, "sigmas": [1.0, 0.9],
               "objective": 0.5, "converged": True, "edges": [[0, 1], [1, 0]]}


def _align_dir(path, meta):
    np.savez(path / "alignment_maps.npz",
             **{f"pointmap_{v}": np.zeros((2, 3, 3)) for v in range(2)},
             **{f"confidence_{v}": np.ones((2, 3)) for v in range(2)})
    (path / "alignment.json").write_text(json.dumps(meta))
    return path


class TestReadersCheckTypes:
    """The artifact readers refuse a flag that is not a JSON boolean, an
    integer given as a fraction or a boolean and a number given as a string
    or a boolean, instead of coercing them; a calibration's scale must lie
    in SCALE_RANGE and its rotation be one."""

    @pytest.mark.parametrize("key, value", [
        ("converged", "false"), ("converged", 0), ("num_pairs", 3.5),
        ("num_pairs", 3.0), ("scale", "1.5"), ("scale", True), ("scale", -2),
        ("scale", 0), ("scale", 2e3), ("rotation", [2.0] * 9),
        ("rotation", np.diag([1.0, 1.0, -1.0]).reshape(-1).tolist()),
        ("translation", ["0.1", "0.2", "0.3"]),
        ("residuals_t", [0.01, 0.02, True]),
    ])
    def test_calibration(self, key, value):
        with pytest.raises(InputError):
            CalibrationResult.from_dict(dict(_CALIB_DICT, **{key: value}))

    @pytest.mark.parametrize("key, value", [
        ("converged", "no"), ("converged", 1), ("objective", "12"),
        ("sigmas", ["1.0", "0.9"]), ("sigmas", [1.0]),
        ("poses_camera_to_global", [[str(x) for x in _EYE]] * 2),
        ("edges", [[0, 1], [True, 0]]), ("edges", [[0, 1.0], [1, 0]]),
    ])
    def test_alignment(self, tmp_path, key, value):
        with pytest.raises(InputError):
            cli._load_alignment(_align_dir(tmp_path,
                                           dict(_ALIGN_META, **{key: value})))

    @pytest.mark.parametrize("key, value", [
        ("num_classes", 1.7), ("num_classes", 1.0), ("num_classes", True),
        ("initial_loss", True), ("final_loss", "0.5"),
    ])
    def test_field_model(self, key, value):
        with pytest.raises(InputError):
            FieldModel.from_dict(dict(_MODEL_DICTS["occupancy"], **{key: value}))

    @pytest.mark.parametrize("matrix", [
        [str(x) for x in _EYE], [bool(x) for x in _EYE], _EYE[:15] + ["1"],
    ], ids=["strings", "booleans", "one-string"])
    def test_pose_list(self, tmp_path, matrix):
        path = tmp_path / "poses.json"
        path.write_text(json.dumps([{"matrix": matrix}]))
        with pytest.raises(InputError, match="16-number matrix"):
            io.load_poses(path)

    def test_unedited_files_read(self, tmp_path):
        result = cli._load_alignment(_align_dir(tmp_path, _ALIGN_META))
        assert result.converged is True and result.objective == 0.5
        assert np.array_equal(result.sigmas, [1.0, 0.9])
        path = tmp_path / "poses.json"
        path.write_text(json.dumps([{"matrix": _EYE}]))
        assert np.array_equal(io.load_poses(path)[0].matrix(), np.eye(4))
        model = _MODEL_DICTS["occupancy"]
        loaded = FieldModel.from_dict(dict(model, final_loss=float("nan")))
        assert np.isnan(loaded.final_loss)
