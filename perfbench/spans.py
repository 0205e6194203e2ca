"""Spans around the public calls into each jcr module.

``Tracer.install`` replaces the public functions named in ``TARGETS`` with
wrappers that record one span per call: name, layer, start, end and the
span that was open when the call began. The wrapper is bound wherever jcr
binds the original function object (the package exports, ``jcr.cli``'s
imports, the defining module), so calls that the library makes to itself,
such as ``calibrate`` looking up ``solve_rotation``, are traced as well.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

At the same boundaries the wrappers record counts taken from the call's
arguments and result (iterations, pairs, points, bytes, FLOPs), so ratios
are measured where the work happens. A name that the package no longer
has is listed in ``Tracer.absent`` instead of failing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time

IO_NAMES = (
    "save_poses", "load_poses", "save_pair", "load_pair", "save_pair_set",
    "load_pair_set", "save_ply", "load_ply", "save_json", "load_json",
)

# layer -> public names, as "module:function" or "module:Class.method".
TARGETS = {
    "synth": ("jcr.synth:generate_dataset", "jcr.synth:sample_surface"),
    "alignment": ("jcr.alignment:align_global",),
    "calibration": (
        "jcr.calibration:calibrate",
        "jcr.calibration:motion_pairs",
        "jcr.calibration:solve_rotation",
        "jcr.calibration:solve_translation_scale",
        "jcr.calibration:residuals",
    ),
    # extract_point_cloud lives in jcr.alignment but is the first step of
    # the reconstruct stage in both the library path and `jcr run`.
    "reconstruction": (
        "jcr.alignment:extract_point_cloud",
        "jcr.reconstruction:adaptive_confidence_threshold",
        "jcr.reconstruction:join_pixel_labels",
        "jcr.reconstruction:transform_to_base",
    ),
    "fields": (
        "jcr.fields:train_occupancy",
        "jcr.fields:train_segmentation",
        "jcr.fields:train_color",
        "jcr.fields:query",
        "jcr.fields:PositionalEncoding.encode",
    ),
    "io": tuple(f"jcr.io:{name}" for name in IO_NAMES),
    "cli": ("jcr.cli:main",),
}

TRAIN_HEADS = {
    "train_occupancy": "occupancy",
    "train_segmentation": "segmentation",
    "train_color": "color",
}
READ_KEYS = ("fields.query_s", "fields.encode_s", "fields.query_flops_per_pt")

# Per-layer metrics, in report order. Each is the median over the traced
# scenes of its per-scene value unless noted in ``layer_metrics``.
PER_LAYER = (
    ("synth.generate_s", "s"),
    ("alignment.align_s", "s"),
    ("alignment.iters", "count"),
    ("alignment.ms_per_iter", "ms"),
    ("alignment.terms", "count"),
    ("alignment.objective_final", "model_units"),
    ("alignment.converged_frac", "fraction"),
    ("calibration.calibrate_s", "s"),
    ("calibration.motion_pairs_s", "s"),
    ("calibration.solve_rotation_s", "s"),
    ("calibration.solve_translation_scale_s", "s"),
    ("calibration.residuals_s", "s"),
    ("calibration.pairs", "count"),
    ("calibration.mean_residual_t", "m"),
    ("calibration.mean_residual_r", "frobenius"),
    ("reconstruction.s", "s"),
    ("reconstruction.points", "count"),
    ("reconstruction.points_per_s", "1/s"),
    ("fields.occupancy_s", "s"),
    ("fields.segmentation_s", "s"),
    ("fields.color_s", "s"),
    ("fields.train_gflop_per_s", "GFLOP/s"),
    ("fields.final_loss.occupancy", "loss"),
    ("fields.final_loss.segmentation", "loss"),
    ("fields.final_loss.color", "loss"),
    ("fields.nonfinite_heads", "count"),
    ("fields.encode_s", "s"),
    ("fields.query_s", "s"),
    ("fields.query_flops_per_pt", "FLOP"),
    ("io.load_s", "s"),
    ("io.save_s", "s"),
    ("io.bytes_read", "B"),
    ("io.bytes_written", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.absent_names", "count"),
)


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "counts")

    def __init__(self, name, layer, parent, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = {}

    @property
    def seconds(self):
        return self.end - self.start

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


def _file_size(path):
    try:
        return os.path.getsize(os.fspath(path)) if os.path.isfile(path) else 0
    except TypeError:
        return 0


def facts(result):
    """The counts and final values a jcr result carries.

    The spans record them, and the workload checks require them to repeat
    bit for bit. Results are told apart by what they carry: an alignment
    its objective trace, a calibration its pair count, a field model its
    final loss, a labeled point cloud its points.
    """
    if hasattr(result, "objective_trace"):
        return {
            "iters": len(result.objective_trace) - 1,
            "objective": float(result.objective),
            "converged": bool(result.converged),
        }
    if hasattr(result, "num_pairs"):
        return {
            "pairs": result.num_pairs,
            "mean_residual_t": result.mean_residual_t,
            "mean_residual_r": result.mean_residual_r,
        }
    if hasattr(result, "final_loss"):
        return {"final_loss": float(result.final_loss)}
    if hasattr(result, "segmentation"):
        return {"points": len(result)}
    return {}


def _counts(name, args, result):
    """Counts recorded at a boundary, from the call's arguments and result."""
    counts = facts(result)
    if name == "align_global":
        counts["terms"] = sum(2 * p.height * p.width for p in args[0])
    elif name in TRAIN_HEADS:
        (d_in, hidden), (_, d_out) = result.W1.shape, result.W2.shape
        n = len(getattr(args[0], "points", args[0]))
        cfg = result.train_config
        if name == "train_occupancy":
            n += max(int(n * cfg.negatives_per_positive), 1)
        # Matrix-multiply FLOPs of one forward and backward pass per sample:
        # forward 2(in*H + H*out); backward dW2, dA and dW1 add
        # 4*H*out + 2*in*H (no gradient flows into the fixed encoding).
        per_sample = 4 * d_in * hidden + 6 * hidden * d_out
        counts["flops"] = float(per_sample) * n * cfg.epochs
    elif name == "query":
        (d_in, hidden), (_, d_out) = args[0].W1.shape, args[0].W2.shape
        counts["flops_per_pt"] = 2 * (d_in * hidden + hidden * d_out)
    elif name in IO_NAMES:
        path = result if name == "save_pair_set" else args[0]
        key = "bytes_written" if name.startswith("save") else "bytes_read"
        counts[key] = _file_size(path)
    return counts


class Tracer:
    """Installs span-recording wrappers and records spans into lists."""

    def __init__(self):
        self.absent = []
        self.recording = False
        self._stack = []
        self._bucket = None
        self._patched = []

    # -- installation ------------------------------------------------------

    def install(self):
        jcr_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "jcr" or n.startswith("jcr."))
        ]
        for layer, targets in TARGETS.items():
            for target in targets:
                module_name, attr = target.split(":")
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    owner = None
                *cls_path, fn_name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, fn_name, None)
                if original is None:
                    if target not in self.absent:
                        self.absent.append(target)
                    continue
                wrapper = self._wrap(original, fn_name, layer)
                homes = [owner] if cls_path else [
                    m for m in jcr_modules if vars(m).get(fn_name) is original
                ]
                for home in homes:
                    self._patched.append((home, fn_name, original))
                    setattr(home, fn_name, wrapper)

    def uninstall(self):
        for home, fn_name, original in reversed(self._patched):
            setattr(home, fn_name, original)
        self._patched = []

    def _wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, layer, parent, time.perf_counter())
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer._bucket.append(span)
            span.counts = _counts(name, args, result)
            return result

        return wrapper

    # -- recording ---------------------------------------------------------

    def start(self, bucket):
        """Record spans into ``bucket`` (a list) until ``stop``."""
        self._bucket = bucket
        self._stack = []
        self.recording = True

    def stop(self):
        self.recording = False
        self._bucket = None


def _outermost(spans, layer):
    """Spans of ``layer`` that are not nested in another span of it."""
    return [
        s for s in spans
        if s.layer == layer and not any(a.layer == layer for a in s.ancestors())
    ]


def _sum_seconds(spans):
    return sum(s.seconds for s in spans)


def _sum_count(spans, key):
    return sum(s.counts.get(key, 0) for s in spans)


def scene_values(spans):
    """Per-layer values of one traced scene."""
    v = {}
    align = [s for s in spans if s.name == "align_global"]
    v["alignment.align_s"] = _sum_seconds(align)
    v["alignment.iters"] = _sum_count(align, "iters")
    v["alignment.ms_per_iter"] = (
        1e3 * v["alignment.align_s"] / v["alignment.iters"]
        if v["alignment.iters"] else 0.0
    )
    v["alignment.terms"] = _sum_count(align, "terms")
    v["alignment.objective_final"] = _sum_count(align, "objective")

    for name in ("calibrate", "motion_pairs", "solve_rotation",
                 "solve_translation_scale", "residuals"):
        v[f"calibration.{name}_s"] = _sum_seconds(
            [s for s in spans if s.name == name]
        )
    calib = [s for s in spans if s.name == "calibrate"]
    v["calibration.pairs"] = _sum_count(calib, "pairs")
    v["calibration.mean_residual_t"] = _sum_count(calib, "mean_residual_t")
    v["calibration.mean_residual_r"] = _sum_count(calib, "mean_residual_r")

    recon = _outermost(spans, "reconstruction")
    v["reconstruction.s"] = _sum_seconds(recon)
    v["reconstruction.points"] = _sum_count(
        [s for s in spans if s.name == "transform_to_base"], "points"
    )
    v["reconstruction.points_per_s"] = (
        v["reconstruction.points"] / v["reconstruction.s"]
        if v["reconstruction.s"] else 0.0
    )

    for fn_name, head in TRAIN_HEADS.items():
        v[f"fields.{head}_s"] = _sum_seconds(
            [s for s in spans if s.name == fn_name]
        )
    queries = [s for s in spans if s.name == "query"]
    v["fields.query_s"] = _sum_seconds(queries)
    v["fields.encode_s"] = _sum_seconds([
        s for s in spans
        if s.name == "encode" and any(a.name == "query" for a in s.ancestors())
    ])
    v["fields.query_flops_per_pt"] = max(
        (s.counts.get("flops_per_pt", 0) for s in queries), default=0
    )

    io_spans = _outermost(spans, "io")
    v["io.load_s"] = _sum_seconds([s for s in io_spans if s.name.startswith("load")])
    v["io.save_s"] = _sum_seconds([s for s in io_spans if s.name.startswith("save")])
    every_io = [s for s in spans if s.layer == "io"]
    v["io.bytes_read"] = _sum_count(every_io, "bytes_read")
    v["io.bytes_written"] = _sum_count(every_io, "bytes_written")

    cli_self = 0.0
    for main in (s for s in spans if s.name == "main" and s.layer == "cli"):
        children = [s for s in spans if s.parent is main]
        cli_self += main.seconds - _sum_seconds(children)
    v["cli.self_s"] = cli_self
    return v


def layer_metrics(setup_buckets, scene_buckets, overhead_s, absent):
    """Per-layer metrics of a traced run.

    ``setup_buckets`` holds the spans of each set-up repetition and
    ``scene_buckets`` those of each traced scene.
    """
    per_scene = [scene_values(b) for b in scene_buckets]
    out = {
        key: float(statistics.median(s[key] for s in per_scene))
        for key in per_scene[0]
    }
    # The read side runs on some scenes only; its medians are over those.
    reads = [s for s in per_scene if s["fields.query_s"]] or per_scene
    for key in READ_KEYS:
        out[key] = float(statistics.median(s[key] for s in reads))
    out["synth.generate_s"] = float(statistics.median(
        _sum_seconds(_outermost(b, "synth")) for b in setup_buckets
    ))
    align = [s for b in scene_buckets for s in b if s.name == "align_global"]
    out["alignment.converged_frac"] = (
        _sum_count(align, "converged") / len(align) if align else 0.0
    )
    train = [s for b in scene_buckets for s in b if s.name in TRAIN_HEADS]
    train_s = _sum_seconds(train)
    out["fields.train_gflop_per_s"] = (
        _sum_count(train, "flops") / train_s / 1e9 if train_s else 0.0
    )
    nonfinite = 0
    for fn_name, head in TRAIN_HEADS.items():
        losses = [s.counts["final_loss"] for s in train if s.name == fn_name]
        finite = [x for x in losses if math.isfinite(x)]
        nonfinite += len(losses) - len(finite)
        # A diverged head's loss is NaN; it is counted apart so that the
        # median stays a number.
        out[f"fields.final_loss.{head}"] = (
            float(statistics.median(finite)) if finite else 0.0
        )
    out["fields.nonfinite_heads"] = float(nonfinite)
    out["trace.overhead_s"] = float(overhead_s)
    out["trace.absent_names"] = float(len(absent))
    return {name: out[name] for name, _ in PER_LAYER}
