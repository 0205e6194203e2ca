"""File formats: pose lists, pairwise pointmap containers, PLY clouds.

Formats:
    * Pose list: JSON array of {"matrix": [16 floats]}, a row-major 4x4
      with bottom row (0, 0, 0, 1). Other keys, such as the "frame" of
      older files, are ignored.
    * Pointmap container ("JCRPM1"): per-pair binary file with a header of
      magic bytes plus W, H, n, m as little-endian int32, followed by four
      float32 arrays in row-major order (pointmap_self, pointmap_other,
      confidence_self, confidence_other). A sidecar JSON manifest lists
      the pair files and the view count.
    * PLY: binary little-endian, x/y/z float32, red/green/blue uchar,
      optional label int32.
    * Array archives: NumPy ``.npz`` (label images, alignment pointmaps),
      read without pickled objects.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import zipfile
from pathlib import Path

import numpy as np

from .alignment import PairGraph, PairwisePrediction
from .errors import InputError
from .geometry import Pose

PM_MAGIC = b"JCRPM1"


# ---------------------------------------------------------------------------
# Pose lists


def save_poses(path, poses):
    data = [{"matrix": p.matrix().reshape(-1).tolist()} for p in poses]
    Path(path).write_text(json.dumps(data, indent=1))


def load_poses(path):
    data = load_json(path)
    if not isinstance(data, list) or not all(isinstance(e, dict) for e in data):
        raise InputError(f"{path}: expected a JSON list of pose objects")
    poses = []
    for i, entry in enumerate(data):
        m = entry.get("matrix")
        if not (isinstance(m, list) and len(m) == 16 and all(map(is_real, m))):
            raise InputError(f"{path}: entry {i} lacks a 16-number matrix")
        poses.append(Pose.from_matrix(np.array(m, dtype=float)))
    return poses


# ---------------------------------------------------------------------------
# Pairwise pointmap containers


def save_pair(path, pair: PairwisePrediction):
    h, w = pair.pointmap_self.shape[:2]
    with open(path, "wb") as f:
        f.write(PM_MAGIC)
        f.write(struct.pack("<4i", w, h, pair.n, pair.m))
        for arr in (
            pair.pointmap_self,
            pair.pointmap_other,
            pair.confidence_self,
            pair.confidence_other,
        ):
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_pair(path):
    raw = _read_bytes(path)
    if raw[: len(PM_MAGIC)] != PM_MAGIC:
        raise InputError(f"{path}: bad magic, not a pointmap container")
    off = len(PM_MAGIC) + 16
    if len(raw) < off:
        raise InputError(f"{path}: header truncated ({len(raw)} of {off} bytes)")
    w, h, n, m = struct.unpack_from("<4i", raw, len(PM_MAGIC))
    if w <= 0 or h <= 0:
        raise InputError(f"{path}: bad dimensions {w}x{h}")
    body = 4 * 8 * w * h  # 3 + 3 + 1 + 1 float32 per pixel
    if len(raw) - off != body:
        raise InputError(
            f"{path}: truncated or trailing data ({len(raw) - off} body bytes "
            f"for {w}x{h}, expected {body})"
        )
    sizes = [(h, w, 3), (h, w, 3), (h, w), (h, w)]
    arrays = []
    for shape in sizes:
        count = int(np.prod(shape))
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
        arrays.append(arr.reshape(shape).astype(float))
        off += count * 4
    return PairwisePrediction(
        n=n,
        m=m,
        pointmap_self=arrays[0],
        pointmap_other=arrays[1],
        confidence_self=arrays[2],
        confidence_other=arrays[3],
    )


def save_pair_set(directory, pairs, graph: PairGraph):
    """All pairs as JCRPM1 files plus the JSON manifest; returns manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for pair in pairs:
        name = f"pair_{pair.n:03d}_{pair.m:03d}.jcrpm"
        save_pair(directory / name, pair)
        entries.append({"n": pair.n, "m": pair.m, "file": name})
    manifest = {"num_views": graph.num_views, "pairs": entries}
    path = directory / "pairs.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path


def load_pair_set(manifest_path):
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path)
    if not isinstance(manifest, dict) or "pairs" not in manifest:
        raise InputError(f'{manifest_path}: manifest lacks a "pairs" list')
    entries, num_views = manifest["pairs"], manifest.get("num_views")
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("file"), str) for e in entries
    ):
        raise InputError(f'{manifest_path}: "pairs" must list objects with a "file"')
    if type(num_views) is not int or num_views < 1:
        raise InputError(f'{manifest_path}: manifest lacks a positive "num_views"')
    pairs = [load_pair(manifest_path.parent / e["file"]) for e in entries]
    for p in pairs:
        if not (0 <= p.n < num_views and 0 <= p.m < num_views):
            raise InputError(
                f"{manifest_path}: pair ({p.n},{p.m}) outside {num_views} views"
            )
    return pairs, PairGraph(num_views, tuple((p.n, p.m) for p in pairs))


# ---------------------------------------------------------------------------
# PLY point clouds


def save_ply(path, points, colors=None, labels=None):
    points = np.asarray(points, dtype="<f4")
    n = len(points)
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
    ]
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    if colors is not None:
        header += [
            "property uchar red",
            "property uchar green",
            "property uchar blue",
        ]
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    if labels is not None:
        header.append("property int label")
        fields.append(("label", "<i4"))
    header.append("end_header")
    rec = np.empty(n, dtype=np.dtype(fields))
    rec["x"], rec["y"], rec["z"] = points[:, 0], points[:, 1], points[:, 2]
    if colors is not None:
        c = np.clip(np.asarray(colors, dtype=float), 0.0, 1.0)
        c = np.round(c * 255).astype("u1")
        rec["red"], rec["green"], rec["blue"] = c[:, 0], c[:, 1], c[:, 2]
    if labels is not None:
        rec["label"] = np.asarray(labels, dtype="<i4")
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(rec.tobytes())


def load_ply(path):
    """Read back the subset of PLY this package writes.

    Returns (points, colors or None, labels or None).
    """
    raw = _read_bytes(path)
    end = raw.find(b"end_header\n")
    if end < 0:
        raise InputError(f"{path}: missing PLY header terminator")
    try:
        header = raw[:end].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: PLY header is not ASCII") from exc
    body = raw[end + len(b"end_header\n") :]
    formats = [line.split() for line in header if line.split()[:1] == ["format"]]
    if formats != [["format", "binary_little_endian", "1.0"]]:
        raise InputError(f"{path}: only binary little-endian PLY 1.0 is read")
    n = None
    fields = []
    type_map = {"float": "<f4", "uchar": "u1", "int": "<i4"}
    for line in header:
        parts = line.split()
        if parts[:1] == ["element"]:
            if parts[1:2] != ["vertex"] or len(parts) != 3 or not parts[2].isdigit():
                raise InputError(f"{path}: unsupported PLY element {line!r}")
            n = int(parts[2])
        elif parts[:1] == ["property"]:
            if len(parts) != 3 or parts[1] not in type_map:
                raise InputError(f"{path}: unsupported PLY property {line!r}")
            fields.append((parts[2], type_map[parts[1]]))
    if n is None:
        raise InputError(f"{path}: no vertex element")
    names = [name for name, _ in fields]
    if len(set(names)) != len(names) or not {"x", "y", "z"} <= set(names):
        raise InputError(f"{path}: PLY needs x, y, z properties, each once")
    if 0 < len({"red", "green", "blue"} & set(names)) < 3:
        raise InputError(f"{path}: PLY colors need red, green and blue")
    dtype = np.dtype(fields)
    if len(body) < n * dtype.itemsize:
        raise InputError(f"{path}: truncated PLY body")
    rec = np.frombuffer(body, dtype=dtype, count=n)
    points = np.column_stack([rec["x"], rec["y"], rec["z"]]).astype(float)
    colors = None
    labels = None
    if "red" in names:
        colors = (
            np.column_stack([rec["red"], rec["green"], rec["blue"]]).astype(float)
            / 255.0
        )
    if "label" in names:
        labels = rec["label"].astype(int)
    return points, colors, labels


# ---------------------------------------------------------------------------
# NumPy array archives


def load_npz(path, keys):
    """The arrays ``keys`` of an ``.npz`` archive, as a dict. Raises
    InputError for a file that is not an ``.npz`` archive, an archive that
    lacks one of the keys or an array that holds pickled objects."""
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            return {key: data[key] for key in keys}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON helpers


def is_int(v):
    """A JSON integer, not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_real(v):
    """A JSON number that fits a float, NaN and infinities included."""
    return isinstance(v, float) or (is_int(v) and abs(v) <= sys.float_info.max)


def is_number(v):
    """A finite JSON number."""
    return is_real(v) and math.isfinite(v)


def save_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True))


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    # ValueError: bad JSON or UTF-8; RecursionError: nesting too deep.
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_bytes(path):
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
