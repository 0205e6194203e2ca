"""Global alignment of pairwise pointmap predictions.

Each pairwise prediction for an ordered pair (n, m) carries pointmaps for
both images expressed in camera n's frame, plus per-pixel confidences.
``align_global`` recovers per-view camera-to-global poses P_n, per-edge
scales sigma_e and per-view global pointmaps Xhat^n by minimizing

    sum_e sum_{i in e} sum_{w,h} C^{n,i}_{wh} || Xhat^i_{wh}
                                   - sigma_e P_n X^{n,i}_{wh} ||_2

with first-order gradient descent on a good closed-form initialization.
Line-search trials evaluate the objective only; the gradient is taken only
at accepted points. A trial stops at the first block whose running sum
reaches the current objective: every summand is >= 0, so the trial is
rejected whatever the later blocks add, and an accepted trial always runs
every block. Residual terms are grouped by target view i and stored
pixels last: r = Xhat^i - [A | b] [X; 1] with A = sigma_e R_n and
b = sigma_e t_n, the points X stored once with a row of ones below them.
Consecutive groups are packed into blocks of (T, 4, HW) points, up to
BLOCK_BYTES of residuals each, so that one batched matmul and one call of
each other NumPy operation cover a block; on a sparse graph of small maps
that is several groups per call, where the cost is call overhead and not
arithmetic. Every evaluation writes r and the smoothed norms into per-block
buffers, and [A | b] for all terms into one buffer, all allocated once per
descent. Poses and global pointmaps are stacks, (V, 3, 3), (V, 3) and
(V, 3, HW), until the descent ends, so a line-search trial is one
``exp_map`` of all V rotation steps and a few array operations. The
accepted trial is always the last one evaluated, so the gradient reads its
buffers and computes no residual again. With the moment matrix
M = (A X) w^T of the weighted residuals w and s = sum w, sigma folds into
the pose and scale gradients: -axial(M) for the rotation and
-(tr M + s . b) for log sigma; each is formed once over all terms and
summed per view or edge by one ``np.bincount``. The iterates are the same,
bit for bit, as with one group per call and every trial run to the end.
The result reports why the descent stopped (``stop_reason``).
Gauge: P_0 (view 0's pose) = identity and sigma of the first edge = 1.
A view's pose enters the objective only through the edges whose reference
view n it is, and only through their terms of nonzero confidence. The
initializer's spanning tree places a view only through such terms, so a
view that it cannot place is refused (``DisconnectedGraph``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DisconnectedGraph, EmptyCloud, InputError
from .geometry import Pose, exp_map, project_to_rotation

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairwisePrediction:
    """Foundation-model output for one ordered image pair (n, m).

    All arrays are (H, W, ...) row-major; both pointmaps live in camera
    n's frame and model units.
    """

    n: int
    m: int
    pointmap_self: np.ndarray    # (H, W, 3), view n in frame n
    pointmap_other: np.ndarray   # (H, W, 3), view m in frame n
    confidence_self: np.ndarray  # (H, W)
    confidence_other: np.ndarray  # (H, W)

    def __post_init__(self):
        hw = self.confidence_self.shape
        shapes = (self.pointmap_self.shape, self.pointmap_other.shape, hw,
                  self.confidence_other.shape)
        if len(hw) != 2 or shapes != (hw + (3,), hw + (3,), hw, hw):
            raise InputError(f"pair ({self.n},{self.m}): shapes {shapes}, expected "
                             "(H, W, 3) pointmaps and (H, W) confidences")
        if not all(np.isfinite(a).all() for a in (
            self.pointmap_self, self.pointmap_other,
            self.confidence_self, self.confidence_other,
        )):
            raise InputError(
                f"pair ({self.n},{self.m}): non-finite pointmap or confidence"
            )
        if (self.confidence_self < 0).any() or (self.confidence_other < 0).any():
            raise InputError(f"pair ({self.n},{self.m}): negative confidence")

    @property
    def height(self):
        return self.pointmap_self.shape[0]

    @property
    def width(self):
        return self.pointmap_self.shape[1]


@dataclass(frozen=True)
class PairGraph:
    num_views: int
    edges: tuple  # ordered (n, m) pairs

    def __post_init__(self):
        """Raises InputError for an edge that is not a pair of view indices
        in 0..num_views-1."""
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        for e in self.edges:
            if len(e) != 2 or not all(0 <= v < self.num_views for v in e):
                raise InputError(
                    f"pair graph edge {e} is not a pair of views "
                    f"0..{self.num_views - 1}")


# default_pair_graph: complete up to this many views, else a sliding
# window that pairs views less than PAIR_WINDOW apart.
COMPLETE_UP_TO = 12
PAIR_WINDOW = 5
# Largest descent step; halved (at most MAX_HALVINGS times) until a trial
# lowers the objective. The descent stops once a step lowers it by less than
# TOL, relatively, or after MAX_ITERS iterations.
STEP = 1e-2
MAX_HALVINGS = 40
TOL = 1e-6
MAX_ITERS = 2000
# Objective floor per residual term; noiseless problems stop here.
ABS_FLOOR_PER_TERM = 1e-16
# Target-view groups are packed into blocks of at most this many bytes of
# residuals (three rows per term), so that one NumPy call covers many small
# groups. One stack of all terms was as fast, but its multi-megabyte buffers
# did not fit the heap that set-up leaves free and raised tabletop-10v's
# peak RSS by 9%.
BLOCK_BYTES = 512 * 1024
# The L2 residual norm is smoothed as sqrt(|r|^2 + eps^2) - eps so the
# kink at exactly-zero residuals does not stall the descent.
NORM_EPS = 1e-8


def default_pair_graph(num_views):
    """Complete graph for small N, sliding window of fixed width beyond."""
    edges = []
    for n in range(num_views):
        for m in range(num_views):
            if n == m:
                continue
            if num_views <= COMPLETE_UP_TO or abs(n - m) < PAIR_WINDOW:
                edges.append((n, m))
    return PairGraph(num_views, tuple(edges))


@dataclass
class AlignmentResult:
    poses: list          # per-view Pose, camera -> global, model units
    sigmas: np.ndarray   # per-edge positive scales, ordered like graph.edges
    pointmaps: list      # per-view (H, W, 3) global pointmaps
    confidences: list    # per-view (H, W) confidence
    objective: float
    objective_trace: np.ndarray
    converged: bool
    stop_reason: str     # "floor", "tolerance", "line_search" or "budget"
    graph: PairGraph


def _weighted_umeyama(src, dst, w):
    """Similarity (s, R, t) with dst ~= s R src + t, confidence-weighted;
    None when nothing determines it: the weights sum to zero, or the
    weighted covariance has rank below 2 (Umeyama's condition), as for
    collinear points."""
    w = w.reshape(-1)
    wsum = w.sum()
    if wsum <= 0:
        return None
    mu_s = (w[:, None] * src).sum(0) / wsum
    mu_d = (w[:, None] * dst).sum(0) / wsum
    src_c = src - mu_s
    dst_c = dst - mu_d
    cov = (w[:, None] * dst_c).T @ src_c / wsum
    U, S, Vt = np.linalg.svd(cov)
    if S[1] <= 1e-8 * S[0]:
        return None
    d = np.sign(np.linalg.det(U @ Vt))
    D = np.diag([1.0, 1.0, d])
    R = U @ D @ Vt
    var_s = (w * (src_c**2).sum(1)).sum() / wsum
    s = float(np.trace(np.diag(S) @ D) / var_s)
    t = mu_d - s * (R @ mu_s)
    return s, R, t


def _initialize(preds, num_views):
    """Spanning-tree initialization of poses, scales, and global maps.

    For an edge (n, m) the prediction holds view m's pixels in frame n;
    corresponding them with view m's self-map (from the first edge that m
    is the reference view of) gives the frame-m -> frame-n similarity via
    weighted Umeyama, with the product of the two confidences as weights.
    The spanning tree skips an edge whose view m is no edge's reference
    view or whose fit nothing determines (``_weighted_umeyama``). This tree
    is the one test of which views are determined: a view it places is
    tied to a placed view by terms of nonzero confidence, and a view it
    does not place raises DisconnectedGraph. Returns rotations
    (V, 3, 3), translations (V, 3), per-edge scales, pointmaps (V, H, W, 3)
    and confidences (V, H, W).
    """
    self_maps = {}
    for p in preds:
        self_maps.setdefault(p.n, p)
    # sims[v] = (s, R, t) maps frame v into the global (frame-0) frame; the
    # tree grows along the edges of most confidence mass first.
    sims = {0: (1.0, np.eye(3), np.zeros(3))}
    candidates = sorted(preds, reverse=True, key=lambda p: float(
        p.confidence_self.sum() + p.confidence_other.sum()))
    grown = True
    while grown:
        grown = False
        for p in candidates:
            if (p.n in sims) == (p.m in sims):
                continue
            self_m = self_maps.get(p.m)
            if self_m is None:
                continue
            sim = _weighted_umeyama(  # m -> n
                self_m.pointmap_self.reshape(-1, 3),
                p.pointmap_other.reshape(-1, 3),
                self_m.confidence_self.reshape(-1)
                * p.confidence_other.reshape(-1))
            if sim is None:
                continue
            s, R, t = sim
            known, new = (p.n, p.m) if p.n in sims else (p.m, p.n)
            if new == p.n:  # global <- m <- n: invert the m -> n similarity
                s, R = 1.0 / s, R.T
                t = -s * (R @ t)
            s_k, R_k, t_k = sims[known]
            sims[new] = (s_k * s, R_k @ R, s_k * (R_k @ t) + t_k)
            grown = True
    unplaced = sorted(set(range(num_views)) - set(sims))
    if unplaced:
        raise DisconnectedGraph(
            f"nothing determines the pose of views {unplaced}: no edge joins "
            "them to view 0, they are no edge's reference view, or every edge "
            "that joins them to a placed view has zero self-map times "
            "other-map confidence, or has it only on collinear points")

    rotations = np.array([sims[v][1] for v in range(num_views)])
    # The model predicts sigma_e (R x + t), so with sigma_e ~ s_n the pose
    # translation is the similarity translation divided by the view scale.
    translations = np.array([sims[v][2] / sims[v][0] for v in range(num_views)])
    # Global pointmaps: confidence-weighted average of every edge's
    # prediction of the view (the squared-loss optimum given the poses);
    # confidences: the mean of the view's self-maps.
    shape = (num_views,) + preds[0].confidence_self.shape
    num, den = np.zeros(shape + (3,)), np.zeros(shape)
    conf_sum, conf_count = np.zeros(shape), np.zeros(num_views)
    for p in preds:
        s, R, t = sims[p.n]
        for view, pm, conf in (
            (p.n, p.pointmap_self, p.confidence_self),
            (p.m, p.pointmap_other, p.confidence_other),
        ):
            num[view] += conf[..., None] * (
                s * (pm.reshape(-1, 3) @ R.T) + t).reshape(pm.shape)
            den[view] += conf
        conf_sum[p.n] += p.confidence_self
        conf_count[p.n] += 1
    pointmaps = num / np.maximum(den, 1e-12)[..., None]
    confidences = conf_sum / conf_count[:, None, None]
    # Per-edge scale: the reference view's similarity scale (the model's
    # pair frame is view n's frame up to that scale).
    sigmas = np.array([sims[p.n][0] for p in preds])
    return rotations, translations, sigmas, pointmaps, confidences


class _Block(NamedTuple):
    """Consecutive target-view groups of residual terms, pixel axis last:
    points (T, 4, HW), each term's (3, HW) points with a row of ones below
    them, so that one matmul by [sigma R | sigma t] applies the translation
    too (1 * b, added last, rounds as a separate r += b did), and
    confidences (T, HW) of the T terms, their reference views (T,) and
    edges (T,), and per group (view, lo, hi), the group's rows lo:hi."""

    points: np.ndarray
    confidences: np.ndarray
    refs: np.ndarray
    edges: np.ndarray
    groups: tuple


def _terms(preds):
    """Residual terms grouped by target view and packed into blocks.

    Each edge contributes view n's self-map and view m's map, both in frame
    n. The terms that predict one view form its group; groups are sorted by
    view and packed, consecutively, into blocks of at most BLOCK_BYTES of
    residuals (a larger group is a block of its own), so that several small
    groups share each NumPy call while a block's buffers stay small enough
    for the heap that set-up leaves free. Every view has the same pixel
    count, so the terms of a block stack; they are written straight into the
    block's arrays.
    """
    by_view = {}
    for e, p in enumerate(preds):
        for view, pm, conf in (
            (p.n, p.pointmap_self, p.confidence_self),
            (p.m, p.pointmap_other, p.confidence_other),
        ):
            by_view.setdefault(view, []).append((e, p.n, pm, conf))
    hw = preds[0].height * preds[0].width
    term_bytes = 3 * hw * np.dtype(float).itemsize
    packed, size = [], 0
    for view in sorted(by_view):
        k = len(by_view[view])
        if not packed or (size + k) * term_bytes > BLOCK_BYTES:
            packed.append([])
            size = 0
        packed[-1].append(view)
        size += k
    blocks = []
    for views in packed:
        rows = [t for view in views for t in by_view[view]]
        points = np.empty((len(rows), 4, hw))
        points[:, 3] = 1.0
        confidences = np.empty((len(rows), hw))
        for k, (_, _, pm, conf) in enumerate(rows):
            points[k, :3] = pm.reshape(-1, 3).T
            confidences[k] = conf.reshape(-1)
        bounds = list(accumulate((len(by_view[v]) for v in views), initial=0))
        blocks.append(_Block(points, confidences,
                             np.array([n for _, n, _, _ in rows]),
                             np.array([e for e, _, _, _ in rows]),
                             tuple(zip(views, bounds[:-1], bounds[1:]))))
    return blocks


class _Evaluation:
    """Buffers of the latest objective evaluation.

    Allocated once per descent, next to ``_terms``: for each block the
    residuals r = Xhat - [A | b] [X; 1] as (T, 3, HW) and the smoothed norms
    q = sqrt(|r|^2 + eps^2) as (T, HW); over all terms, in block order,
    [A | b] = sigma [R | t] as (terms, 3, 4) and the gradient's moment
    matrices (terms, 3, 3) and weight sums (terms, 3); and the pointmap
    gradients as (V, 3, HW). ``objective`` overwrites them and keeps sigma;
    ``gradients`` reads them and computes no residual again. Each NumPy call
    covers a whole block or all terms, except three per group that keep the
    summation order of one group per call: the subtraction of Xhat, the
    objective's dot product and the pointmap gradient's sum over terms.
    ``evaluations`` and ``stopped_early`` count the ``objective`` calls and
    those that returned at their bound.
    """

    def __init__(self, blocks, num_views):
        self.blocks = blocks
        self.r = [np.empty_like(blk.points[:, :3]) for blk in blocks]
        self.q = [np.empty_like(blk.confidences) for blk in blocks]
        self.g_pm = np.zeros((num_views,) + self.r[0].shape[1:])
        self.refs = np.concatenate([blk.refs for blk in blocks])
        self.edges = np.concatenate([blk.edges for blk in blocks])
        bounds = list(accumulate((len(blk.refs) for blk in blocks), initial=0))
        self.rows = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.Ab = np.empty((bounds[-1], 3, 4))
        self.M = np.empty((bounds[-1], 3, 3))
        self.s = np.empty((bounds[-1], 3))
        # np.bincount bins of the per-term pose gradients in (V, 3).
        self.pose_bins = (3 * self.refs[:, None] + np.arange(3)).reshape(-1)
        self.sigmas = None
        self.evaluations = self.stopped_early = 0

    def objective(self, rotations, translations, log_sigmas, xhat,
                  bound=np.inf):
        """Objective sum C (sqrt(|r|^2 + eps^2) - eps) over all terms, with
        rotations (V, 3, 3), translations (V, 3) and the global pointmaps
        ``xhat`` as (V, 3, HW).

        Returns the running sum as soon as it reaches ``bound``, after the
        block that brings it there; the default bound runs every block.
        Every summand is >= 0, so the full sum is >= ``bound`` too and a
        trial that must lower the objective below ``bound`` is rejected as
        surely; one that runs every block has its exact sum. After an early
        return the later blocks' r and q are stale, so ``gradients`` is
        valid only after a call that did not stop early.
        """
        self.evaluations += 1
        self.sigmas = sigmas = np.exp(log_sigmas)
        Ab, eps = self.Ab, NORM_EPS
        sig = sigmas[self.edges]
        np.multiply(sig[:, None, None], rotations[self.refs], out=Ab[:, :, :3])
        np.multiply(sig[:, None], translations[self.refs], out=Ab[:, :, 3])
        obj = 0.0
        for blk, rows, r, q in zip(self.blocks, self.rows, self.r, self.q):
            np.matmul(Ab[rows], blk.points, out=r)
            for view, lo, hi in blk.groups:
                np.subtract(xhat[view], r[lo:hi], out=r[lo:hi])
            np.einsum("kip,kip->kp", r, r, out=q)
            q += eps**2
            np.sqrt(q, out=q)
            smooth = q - eps
            for _, lo, hi in blk.groups:
                obj += float(np.vdot(blk.confidences[lo:hi], smooth[lo:hi]))
            if obj >= bound and rows.stop < len(Ab):
                self.stopped_early += 1
                break
        return obj

    def gradients(self):
        """Gradients of the objective at the latest evaluated point w.r.t.
        (rotations, translations, log sigmas, pointmaps), the pointmap
        gradients as (V, 3, HW) in a buffer that the next call overwrites.
        Turns the buffers into the weighted residuals w in place, so it is
        valid once per evaluation, and only after one that ran every block.

        Rotation gradients are taken w.r.t. a left-multiplied axis-angle
        increment delta: R <- exp(delta) R. Per term, with Y_i = sigma R x_i,
        b = sigma t, w_i = c_i r_i / smooth_i (d obj / d r_i), s = sum_i w_i
        and the moment matrix M = sum_i Y_i w_i^T: d r_i / d delta =
        skew(Y_i), so the rotation gradient is -sum_i Y_i x w_i = -axial(M),
        the axial vector of M - M^T; d r_i / d t = -sigma I, so that
        gradient is -sigma s; and d r_i / d log sigma = -(Y_i + b), so that
        gradient is -(tr M + s . b). Every pixel of a view's group adds to
        that view's pointmap gradient (d r / d Xhat = I); the pose and scale
        gradients gather per term, never per pixel, with one np.bincount
        each over all terms in block order.
        """
        g_pm, Ab, M, s = self.g_pm, self.Ab, self.M, self.s
        for blk, rows, w, q in zip(self.blocks, self.rows, self.r, self.q):
            w *= np.divide(blk.confidences, q, out=q)[:, None, :]
            for view, lo, hi in blk.groups:
                w[lo:hi].sum(0, out=g_pm[view])
            w.sum(2, out=s[rows])
            xw = blk.points[:, :3] @ w.transpose(0, 2, 1)
            np.matmul(Ab[rows, :, :3], xw, out=M[rows])  # Y w^T, Y not formed
        num_views = len(g_pm)

        def per_view(x):  # sum the (terms, 3) rows x by reference view
            return np.bincount(self.pose_bins, x.reshape(-1),
                               minlength=3 * num_views).reshape(num_views, 3)

        g_rot = per_view(-np.stack(
            [M[:, 1, 2] - M[:, 2, 1], M[:, 2, 0] - M[:, 0, 2],
             M[:, 0, 1] - M[:, 1, 0]], axis=1))
        g_trn = per_view(-self.sigmas[self.edges][:, None] * s)
        g_sig = np.bincount(
            self.edges,
            -(np.trace(M, axis1=1, axis2=2) + (s * Ab[:, :, 3]).sum(1)),
            minlength=len(self.sigmas))
        return g_rot, g_trn, g_sig, g_pm


def _pixels_last(pointmaps):
    """Per-view (H, W, 3) maps of one size as one (V, 3, HW) array."""
    return np.stack([pm.reshape(-1, 3).T for pm in pointmaps])


def align_global(preds, graph: PairGraph | None = None):
    """Recover globally consistent poses, scales, and pointmaps.

    Each iteration takes the gradient at the current (accepted) point and
    halves the step until a trial lowers the objective; trials evaluate the
    objective only. ``stop_reason`` says why the loop ended: ``"floor"``
    (objective at the noiseless floor), ``"tolerance"`` (relative decrease
    below ``TOL``), ``"line_search"`` (no trial lowered the objective) or
    ``"budget"`` (``MAX_ITERS`` used up). ``converged`` is True when the
    descent stopped before its budget, for any of the first three reasons.

    Raises InputError for no predictions, fewer than 2 views, two
    predictions for one edge, an edge with a view outside the graph, a
    graph that lists an edge twice, a graph edge without a prediction, a
    prediction whose edge the graph does not list or a view whose
    pointmaps differ in size between edges, and
    DisconnectedGraph for a view that the initializer's spanning tree
    cannot place (``_initialize``): no edge joins it to view 0, it is no
    edge's reference view, or every edge that joins it to a placed view
    has zero self-map times other-map confidence, or has it only on
    collinear points. Nothing then determines its pose.
    """
    if not preds:
        raise InputError("no pairwise predictions")
    by_edge = {}
    for p in preds:
        if (p.n, p.m) in by_edge:
            raise InputError(f"two predictions for edge ({p.n},{p.m})")
        by_edge[(p.n, p.m)] = p
    if graph is None:
        num_views = max(max(p.n, p.m) for p in preds) + 1
        graph = PairGraph(num_views, tuple(by_edge))
    if graph.num_views < 2:
        raise InputError("need at least 2 views")
    if len(set(graph.edges)) != len(graph.edges):
        raise InputError("pair graph lists an edge more than once")
    missing = [e for e in graph.edges if e not in by_edge]
    if missing:
        raise InputError(f"graph edges without predictions: {missing[:5]}")
    unlisted = sorted(by_edge.keys() - set(graph.edges))
    if unlisted:
        raise InputError(f"predictions for edges the graph lacks: {unlisted[:5]}")
    preds = [by_edge[e] for e in graph.edges]
    sizes = {}
    for p in preds:
        for v in (p.n, p.m):
            size = sizes.setdefault(v, (p.height, p.width))
            if size != (p.height, p.width):
                raise InputError(
                    f"view {v} is {p.height}x{p.width} in edge ({p.n},{p.m}) "
                    f"but {size[0]}x{size[1]} in another edge")
    rotations, translations, sigmas, pointmaps, confidences = _initialize(
        preds, graph.num_views
    )
    # Gauge: view 0 pose = identity, first edge scale = 1. The initializer
    # anchors view 0; rescaling the global frame by 1/sigma_0 fixes the
    # scale gauge and leaves the pose parameters untouched.
    s0 = sigmas[0]
    sigmas = sigmas / s0
    log_sigmas = np.log(np.maximum(sigmas, 1e-12))

    n_terms = sum(2 * p.height * p.width for p in preds)
    floor = ABS_FLOOR_PER_TERM * n_terms
    ev = _Evaluation(_terms(preds), graph.num_views)
    shape = pointmaps.shape[1:]  # every view's: checked above, every view placed
    # (V, 3, HW) until the descent ends.
    pointmaps = _pixels_last(pointmaps / s0)
    # The line search writes its trial pointmaps here; an accepted trial
    # swaps buffers with the current point.
    trial_pm = np.empty_like(pointmaps)
    step = STEP
    obj = ev.objective(rotations, translations, log_sigmas, pointmaps)
    trace = [obj]
    stop_reason = "budget"
    for it in range(MAX_ITERS):
        if obj <= floor:
            stop_reason = "floor"
            break
        # The last evaluation is the current point: the initial one or the
        # trial accepted below (a rejected trial is followed by another
        # trial or by the line-search stop).
        g_rot, g_trn, g_sig, g_pm = ev.gradients()
        accepted = False
        for _ in range(MAX_HALVINGS):
            new_rot = exp_map(-step * g_rot) @ rotations
            new_trn = translations - step * g_trn
            new_ls = log_sigmas - step * g_sig
            # Gauge: view 0's pose and the first edge's scale stay pinned.
            new_rot[0], new_trn[0] = rotations[0], translations[0]
            new_ls[0] = log_sigmas[0]
            np.subtract(pointmaps, np.multiply(step, g_pm, out=trial_pm),
                        out=trial_pm)
            new_obj = ev.objective(new_rot, new_trn, new_ls, trial_pm,
                                   bound=obj)
            if new_obj < obj:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            stop_reason = "line_search"
            break
        last_rel = (obj - new_obj) / max(obj, 1e-300)
        rotations, translations = new_rot, new_trn
        log_sigmas = new_ls
        pointmaps, trial_pm = trial_pm, pointmaps
        obj = new_obj
        trace.append(obj)
        step = min(step * 1.5, STEP)
        if last_rel < TOL:
            stop_reason = "tolerance"
            break
    else:
        log.warning("alignment used up its budget of MAX_ITERS=%d", MAX_ITERS)
    log.info(
        "alignment stopped (%s) after %d iterations, objective %.6g, "
        "%d objective evaluations (%d stopped early)",
        stop_reason, len(trace) - 1, obj, ev.evaluations, ev.stopped_early,
    )

    # Re-orthonormalize after many small increments.
    poses = [
        Pose(project_to_rotation(R), t)
        for R, t in zip(rotations, translations)
    ]
    return AlignmentResult(
        poses=poses,
        sigmas=np.exp(log_sigmas),
        pointmaps=[np.ascontiguousarray(pm.T).reshape(shape)
                   for pm in pointmaps],
        confidences=list(confidences),
        objective=obj,
        objective_trace=np.array(trace),
        converged=stop_reason != "budget",
        stop_reason=stop_reason,
        graph=graph,
    )


def extract_point_cloud(result: AlignmentResult, threshold):
    """Confidence-filtered points with (view, pixel) provenance.

    Returns (points (N,3), views (N,), pixels (N,2) as (w, h) columns,
    confidences (N,)). Raises EmptyCloud when nothing passes.
    """
    if threshold < 0:
        raise InputError("threshold must be >= 0")
    pts, views, pixels, confs = [], [], [], []
    for v, (pm, conf) in enumerate(zip(result.pointmaps, result.confidences)):
        mask = conf >= threshold
        if not mask.any():
            continue
        hh, ww = np.nonzero(mask)
        pts.append(pm[mask])
        views.append(np.full(len(hh), v))
        pixels.append(np.column_stack([ww, hh]))
        confs.append(conf[mask])
    if not pts:
        raise EmptyCloud(f"no point exceeds confidence threshold {threshold}")
    return (
        np.concatenate(pts),
        np.concatenate(views),
        np.concatenate(pixels),
        np.concatenate(confs),
    )
