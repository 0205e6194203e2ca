#!/usr/bin/env python3
"""Benchmark for jcr: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload tabletop-10v --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root; it imports jcr from ``src/``. The run sets
its inputs up several times (``setup_s`` is the median), then runs the
workload's scene panel, in an order drawn from ``--seed``, once through and
then further, in whole rounds or (where the workload allows) scene by
scene, while the next step is expected to end within ``--seconds``. A fixed
reference kernel (hostref.py) is timed before and after each scene, and
the gated scene metric is the median ratio of scene time to reference
time. Every output is
checked against the synthetic ground truth. With ``--trace 1``
each scene runs untraced and traced, back to back, and the run reports
per-layer metrics instead (see spans.py).

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the full report, including metrics a workload cannot produce, shown
as n/a. README.md lists the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WHY = {w["name"]: w["why"] for w in
       json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
WORKLOAD_NAMES = tuple(WHY)
BLAS_THREADS = 1  # one thread: the least contention and the steadiest timings
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up runs at least SETUP_REPS times and for at least SETUP_MIN_S, so
# that set-ups of a few milliseconds still give a steady median.
SETUP_REPS = 5
SETUP_MIN_S = 2.0
# setup_s is given in seconds on a machine where the reference kernel
# takes REF_NOMINAL_S, for the same reason as scene_ref_p50 below.
REF_NOMINAL_S = 0.04

# (name, unit, better) of the metrics the final JSON line carries.
# scene_ref_p50 is the median scene time in units of the reference kernel
# timed around each scene (hostref.py), so that the machine's speed of the
# moment cancels out; scene_s_p50, the same median in seconds, is
# in the report.
END_TO_END = (
    ("scene_ref_p50", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Reported on the workloads that produce them; medians over scenes (or
# heads, for the field scores).
ACCURACY = (
    ("rot_err_deg", "deg", "lower"),
    ("trans_err_mm", "mm", "lower"),
    ("scale_err_pct", "%", "lower"),
    ("height_err_pct", "%", "lower"),
    ("occ_acc", "fraction", "higher"),
    ("seg_acc", "fraction", "higher"),
    ("color_mae", "rgb", "lower"),
)


def tail(values):
    """The highest sample with at least ten samples beyond it, and its label.

    None when there are fewer than eleven samples. Below 21 samples the
    sample found sits at or below the median, and the label says so.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None, f"n={n}: no sample has ten samples beyond it"
    k = n - 11
    label = f"p{100.0 * (k + 1) / n:.1f} of n={n}"
    return xs[k], label + (" (n<21, so at or below p50)" if n < 21 else "")


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    import numpy

    nproc = len(os.sched_getaffinity(0))
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"BLAS threads {BLAS_THREADS} (nproc {nproc}), cpu {cpu}")


class Row:
    """One timed scene, the reference time around it, and its outcome."""

    def __init__(self, key, scene_s, outcome, read_s=None, read_points=0,
                 spans=None, ref_s=None):
        self.key = key
        self.ref_s = ref_s
        self.scene_s = scene_s
        self.outcome = outcome
        self.read_s = read_s
        self.read_points = read_points
        self.spans = spans


def run_scene(wl, item, tracer=None, read=False):
    """Time one scene between two runs of the reference kernel (and, if
    ``read``, its read side after them), then check the scene."""
    from hostref import reference_s
    from jcr.errors import JCRError
    from workloads import Outcome

    ref_before = reference_s()
    spans = []
    if tracer:
        tracer.start(spans)
    t0 = time.perf_counter()
    try:
        out = wl.scene(item)
    except JCRError as exc:
        out = exc
    scene_s = time.perf_counter() - t0
    ref_s = (ref_before + reference_s()) / 2
    read_s = read_out = None
    if read and not isinstance(out, JCRError):
        t0 = time.perf_counter()
        read_out = wl.read(item, out)
        read_s = time.perf_counter() - t0
    if tracer:
        tracer.stop()
    if isinstance(out, JCRError):
        outcome = Outcome(attempted=wl.units,
                          failures=[f"seed {item[0]}: {out!r}"] * wl.units)
    elif hasattr(wl, "read"):
        outcome = wl.check(item, out, read_out)
    else:
        outcome = wl.check(item, out)
    return Row(item[0], scene_s, outcome, read_s,
               0 if read_out is None else len(read_out), spans, ref_s)


def run_round(wl, items, tracer, plain, traced):
    """One pass over ``items``; with a tracer, an untraced and a traced pass
    interleaved scene by scene.

    Which of the two runs first alternates, so warm-up favours neither.
    A workload with a read side runs it on the first scene of each pass.
    """
    reads = hasattr(wl, "read")
    for item in items:
        if tracer is None:
            plain.append(run_scene(wl, item, read=reads and not plain))
            continue
        for use in ((None, tracer) if len(plain) % 2 == 0 else (tracer, None)):
            if use is None:
                plain.append(run_scene(wl, item, read=reads and not plain))
                continue
            tracer.install()
            try:
                traced.append(run_scene(wl, item, tracer,
                                        read=reads and not traced))
            finally:
                tracer.uninstall()


def fingerprint(rows):
    exact = sorted((r.key, repr(r.outcome.exact)) for r in rows)
    return hashlib.sha256(repr(exact).encode()).hexdigest()[:16]


def mismatches(rows):
    """Repeats of a scene whose exact results differ from its first run."""
    first, bad = {}, []
    for i, r in enumerate(rows):
        exact = first.setdefault(r.key, repr(r.outcome.exact))
        if repr(r.outcome.exact) != exact:
            bad.append(f"scene {i + 1} (seed {r.key})")
    return bad


def run_workload(name, seed, seconds, trace):
    from spans import PER_LAYER, Tracer, layer_metrics
    from hostref import reference_s
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    tracer = Tracer() if trace else None
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench_work"))
    try:
        if tracer:
            tracer.install()
        setup_times, setup_spans = [], []
        setup_ref_s = reference_s()
        while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
            spans = []
            if tracer:
                tracer.start(spans)
            t0 = time.perf_counter()
            items = wl.setup(workdir)
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.stop()
            setup_spans.append(spans)
        setup_ref_s = (setup_ref_s + reference_s()) / 2
        if tracer:
            tracer.uninstall()
        order = random.Random(seed).sample(items, len(items))

        # One whole round, then more steps while the next is expected (from
        # the mean scene so far, checks included, reads not) to end within
        # the time. A step is a whole round, so that every scene of the
        # panel is timed equally often, unless the workload's scenes all
        # take the same time; then it is one scene, in run order.
        untraced, traced = [], []
        start = time.perf_counter()
        run_round(wl, order, tracer, untraced, traced)
        done = len(order)
        step = len(order) if getattr(wl, "whole_rounds", True) else 1
        while True:
            elapsed = time.perf_counter() - start
            reads_s = sum(r.read_s or 0.0 for r in untraced + traced)
            if elapsed + step * (elapsed - reads_s) / done > seconds:
                break
            run_round(wl, [order[(done + i) % len(order)] for i in range(step)],
                      tracer, untraced, traced)
            done += step
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = untraced + traced
    first_round = rows[:len(order)]
    # Failures are counted over the first round, one run of each panel
    # scene, so that the count does not grow with the number of repeats
    # the machine's speed allows; every repeat must reproduce its scene's
    # first run exactly (see ``mismatches``).
    attempted = sum(r.outcome.attempted for r in first_round)
    failed = sum(r.outcome.failed for r in first_round)
    wrong = [f"seed {r.key}: {w}" for r in rows for w in r.outcome.wrong]
    diverged = mismatches(rows)
    correct = not wrong and not diverged

    times = [r.scene_s for r in untraced]
    tail_s, tail_label = tail(times)
    e2e = {
        "scene_ref_p50": statistics.median(r.scene_s / r.ref_s for r in untraced),
        "setup_s": statistics.median(setup_times) * REF_NOMINAL_S / setup_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counted = f"n={len(times)} scenes, {done / len(order):.3g} round(s) of the panel"
    notes = {"scene_ref_p50": f"{counted}; each scene over the mean of the "
                              "reference kernel runs around it",
             "setup_s": f"median of {len(setup_times)} set-ups, scaled to a "
                        f"reference kernel time of {REF_NOMINAL_S:g} s",
             "peak_rss_mb": "peak resident set of this process"}
    report = [
        f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={trace}",
        f"why: {WHY[name]}",
        f"env: {environment()}",
        f"panel: scene seeds {' '.join(str(k) for k, _ in items)}; run order "
        f"{' '.join(str(k) for k, _ in order)}"
        + ("; each round an untraced and a traced pass, interleaved"
           if trace else ""),
        f"{'metric':<18} {'value':>12} {'unit':<9} {'better':<7} note",
    ]

    def line(metric, value, unit, better, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        report.append(f"{metric:<18} {shown:>12} {unit:<9} {better:<7} {note}")

    line("scene_s_p50", statistics.median(times), "s", "lower", counted)
    line("scene_s_tail", tail_s, "s", "lower", tail_label)
    line("scene_ref_p50", e2e["scene_ref_p50"], "ref", "lower",
         notes["scene_ref_p50"])
    line("host_ref_s", statistics.median(r.ref_s for r in untraced), "s",
         "lower", "median time of the reference kernel; the machine's speed")
    reads = [r for r in untraced if r.read_s]
    line("query_pts_per_s",
         statistics.median(r.read_points / r.read_s for r in reads) if reads else None,
         "1/s", "higher", f"n={len(reads)}" if reads else "no query in this workload")
    line("fail_frac", failed / attempted, "fraction", "lower",
         f"{failed}/{attempted} {'heads' if wl.units > 1 else 'scenes'} of the "
         "first round failed")
    for metric, unit, better in ACCURACY:
        vals = [r.outcome.values[metric] for r in rows if metric in r.outcome.values]
        line(metric, statistics.median(vals) if vals else None, unit, better,
             f"median of {len(vals)}" if vals else "not produced by this workload")
    for metric, unit, better in END_TO_END[1:]:
        line(metric, e2e[metric], unit, better, notes[metric])
    line("setup_wall_s", statistics.median(setup_times), "s", "lower",
         f"the same median in seconds; reference kernel {setup_ref_s:.4g} s "
         "around the set-ups")
    for label, part in (("untraced", untraced), ("traced", traced)):
        if part:
            report.append(f"{label} scene s/reference s: " + " ".join(
                f"{r.key}:{r.scene_s:.3f}/{r.ref_s:.4f}" for r in part))
    for r in first_round:
        report.append(f"seed {r.key}: " + " ".join(
            f"{m}={v:.6g}" for m, v in sorted(r.outcome.values.items())))
    for key, expected in getattr(wl, "baseline", {}).items():
        got = next(r.outcome.values for r in first_round if r.key == key)
        shown = tuple(
            round(got.get(m, math.nan), digits) for m, digits in
            (("rot_err_deg", 2), ("trans_err_mm", 1), ("scale_err_pct", 2))
        )
        report.append(
            f"ROADMAP baseline seed {key}: expected {expected}, got {shown}: "
            + ("matches" if shown == expected else "DIFFERS"))
    failures = sorted({f for r in rows for f in r.outcome.failures})
    report.append(
        "checks: " + ("all outputs well formed" if not wrong else "; ".join(wrong))
    )
    report.append("failures: " + ("; ".join(failures) if failures else
                                  "none; every scene converged and kept "
                                  "within SLACK of its reference accuracy"))
    report.append(
        f"determinism: fingerprint {fingerprint(first_round)}; "
        + (f"{len(rows) - len(order)} repeat(s) compared, "
           + (f"MISMATCH {', '.join(diverged)}" if diverged else "all exact")
           if len(rows) > len(order) else "no repeats to compare")
    )

    if trace:
        # Untraced and traced passes alternate scene by scene, so the i-th
        # scenes of the two lists are the same scene, run back to back. Each
        # is scaled by its reference time, as setup_s is, so that the
        # machine's speed of the moment cancels out of the difference.
        overhead = REF_NOMINAL_S * statistics.median(
            t.scene_s / t.ref_s - u.scene_s / u.ref_s
            for u, t in zip(untraced, traced)
        )
        metrics = layer_metrics(
            setup_spans, [r.spans for r in traced], overhead, tracer.absent,
        )
        report.append(
            f"per-layer (median over the {len(traced)} traced scenes; "
            f"trace.overhead_s is the median traced-minus-untraced time of "
            f"{len(traced)} back-to-back pairs, scaled to a reference kernel "
            f"time of {REF_NOMINAL_S:g} s):")
        for metric, unit in PER_LAYER:
            report.append(f"  {metric:<38} {metrics[metric]:>14.6g} {unit}")
        report.append("absent names: " + (", ".join(tracer.absent) or "none"))
        units = dict(PER_LAYER)
    else:
        metrics = e2e
        units = {m: u for m, u, _ in END_TO_END}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return report, result


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jcr" / "__init__.py").is_file():
        print(f"perfbench: no jcr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # The thread count must be fixed before NumPy loads its BLAS.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    report, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
