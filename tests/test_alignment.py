"""Global alignment of pairwise pointmaps."""

import dataclasses
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jcr import alignment
from jcr.alignment import (
    ABS_FLOOR_PER_TERM,
    MAX_HALVINGS,
    MAX_ITERS,
    NORM_EPS,
    PAIR_WINDOW,
    STEP,
    TOL,
    PairGraph,
    PairwisePrediction,
    _Evaluation,
    _initialize,
    _pixels_last,
    _terms,
    align_global,
    default_pair_graph,
    extract_point_cloud,
)
from jcr.errors import DisconnectedGraph, EmptyCloud, InputError
from jcr.geometry import exp_map, project_to_rotation, rotation_angle
from jcr.synth import CameraConfig, NoiseProfile

from test_io import _FUZZ
from util import (connected, pose_dataset, split_confidence_of_view,
                  zero_confidence_of_view)


def _model_relative_pose(ds, n):
    """Ground-truth camera n -> camera 0 pose in model units."""
    return ds.camera_poses[0].compose(ds.camera_poses[n].inverse())


def _assert_poses_recovered(ds, poses):
    """Every pose within 0.5 degrees and 1% of the truth."""
    for n, est in enumerate(poses):
        gt = _model_relative_pose(ds, n)
        assert np.degrees(
            rotation_angle(est.rotation @ gt.rotation.T)
        ) < 0.5
        t_gt = gt.translation
        denom = max(np.linalg.norm(t_gt), 1e-9)
        assert np.linalg.norm(est.translation - t_gt) / denom < 0.01


class TestPairwisePrediction:
    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            PairwisePrediction(
                n=0,
                m=1,
                pointmap_self=np.zeros((4, 4, 3)),
                pointmap_other=np.zeros((4, 5, 3)),
                confidence_self=np.zeros((4, 4)),
                confidence_other=np.zeros((4, 4)),
            )

    @pytest.mark.parametrize("shape", [(4, 5), (4, 5, 4), (4, 5, 3, 1)])
    @pytest.mark.parametrize("field", ["pointmap_self", "pointmap_other"])
    def test_pointmap_not_h_w_3(self, field, shape):
        arrays = dict(
            pointmap_self=np.zeros((4, 5, 3)),
            pointmap_other=np.zeros((4, 5, 3)),
            confidence_self=np.ones((4, 5)),
            confidence_other=np.ones((4, 5)),
        )
        arrays[field] = np.zeros(shape)
        with pytest.raises(InputError, match=r"\(H, W, 3\)"):
            PairwisePrediction(n=0, m=1, **arrays)

    def test_negative_confidence(self):
        with pytest.raises(InputError):
            PairwisePrediction(
                n=0,
                m=1,
                pointmap_self=np.zeros((4, 4, 3)),
                pointmap_other=np.zeros((4, 4, 3)),
                confidence_self=np.full((4, 4), -1.0),
                confidence_other=np.zeros((4, 4)),
            )

    @pytest.mark.parametrize("field", [
        "pointmap_self", "pointmap_other", "confidence_self", "confidence_other",
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, field, bad):
        arrays = dict(
            pointmap_self=np.zeros((4, 4, 3)),
            pointmap_other=np.zeros((4, 4, 3)),
            confidence_self=np.ones((4, 4)),
            confidence_other=np.ones((4, 4)),
        )
        arrays[field][1, 2] = bad
        with pytest.raises(InputError):
            PairwisePrediction(n=0, m=1, **arrays)


class TestPairGraph:
    @pytest.mark.parametrize("edge", [(0, 2), (-1, 0), (0, 1, 1)])
    def test_edge_outside_views_raises(self, edge):
        with pytest.raises(InputError, match=re.escape(str(edge))):
            PairGraph(2, ((0, 1), edge))

    def test_connected(self):
        g = PairGraph(3, ((0, 1), (1, 2)))
        assert connected(g)

    def test_disconnected(self):
        g = PairGraph(4, ((0, 1), (2, 3)))
        assert not connected(g)

    def test_default_complete_for_small(self):
        g = default_pair_graph(5)
        assert len(g.edges) == 5 * 4

    def test_default_windowed_for_large(self):
        g = default_pair_graph(20)
        assert all(abs(n - m) < 5 for n, m in g.edges)
        assert connected(g)


def _two_identical_views():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(6, 8, 3)) + np.array([0.0, 0.0, 3.0])
    conf = np.ones((6, 8))
    pairs = []
    for n, m in ((0, 1), (1, 0)):
        pairs.append(
            PairwisePrediction(
                n=n,
                m=m,
                pointmap_self=pts.copy(),
                pointmap_other=pts.copy(),
                confidence_self=conf.copy(),
                confidence_other=conf.copy(),
            )
        )
    return pairs


def _random_pair(n, m, height, width):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(height, width, 3)) + np.array([0.0, 0.0, 3.0])
    conf = np.ones((height, width))
    return PairwisePrediction(n=n, m=m, pointmap_self=pts,
                              pointmap_other=pts.copy(),
                              confidence_self=conf, confidence_other=conf.copy())


class TestAlignGlobal:
    def test_two_identical_views(self):
        result = align_global(_two_identical_views())
        assert rotation_angle(result.poses[1].rotation) < 1e-6
        assert np.linalg.norm(result.poses[1].translation) < 1e-6
        assert np.allclose(result.sigmas, 1.0, atol=1e-6)
        n_terms = 2 * 2 * 6 * 8
        assert result.objective / n_terms < 1e-8
        assert result.stop_reason == "floor"

    def test_four_view_noiseless_exact(self):
        ds = pose_dataset(seed=31, num_poses=4, with_pointmaps=True)
        result = align_global(ds.pairs, ds.graph)
        n_terms = sum(2 * p.height * p.width for p in ds.pairs)
        assert result.objective / n_terms < 1e-8
        assert len(result.poses) == 4
        _assert_poses_recovered(ds, result.poses)

    def test_zeroed_pair_matches_removed_pair(self):
        ds = pose_dataset(seed=32, num_poses=4, with_pointmaps=True)
        pairs = list(ds.pairs)
        # Zero out a non-gauge edge whose removal keeps the graph connected.
        victim = 5
        p = pairs[victim]
        zeroed = pairs.copy()
        zeroed[victim] = PairwisePrediction(
            n=p.n,
            m=p.m,
            pointmap_self=p.pointmap_self,
            pointmap_other=p.pointmap_other,
            confidence_self=np.zeros_like(p.confidence_self),
            confidence_other=np.zeros_like(p.confidence_other),
        )
        removed = pairs[:victim] + pairs[victim + 1 :]
        g_removed = PairGraph(4, tuple((q.n, q.m) for q in removed))
        assert connected(g_removed)
        res_a = align_global(zeroed)
        res_b = align_global(removed, g_removed)
        for pa, pb in zip(res_a.poses, res_b.poses):
            assert np.abs(pa.matrix() - pb.matrix()).max() < 1e-6

    def test_objective_trace_non_increasing(self):
        ds = pose_dataset(
            seed=33, num_poses=5, with_pointmaps=True, noise=NoiseProfile()
        )
        result = align_global(ds.pairs, ds.graph)
        trace = result.objective_trace
        assert (np.diff(trace) <= 1e-12).all()

    # Module constants to set for the run.
    @pytest.mark.parametrize("config, reason", [
        ({}, "tolerance"),
        ({"MAX_ITERS": 2}, "budget"),
        ({"MAX_HALVINGS": 0}, "line_search"),
    ])
    def test_stop_reason(self, config, reason, caplog, monkeypatch):
        ds = pose_dataset(
            seed=37, num_poses=4, with_pointmaps=True, noise=NoiseProfile(),
            camera=CameraConfig(width=16, height=12),
        )
        for name, value in config.items():
            monkeypatch.setattr(alignment, name, value)
        with caplog.at_level(logging.INFO, logger="jcr.alignment"):
            result = align_global(ds.pairs, ds.graph)
        assert result.stop_reason == reason
        assert result.converged == (reason != "budget")
        assert f"alignment stopped ({reason})" in caplog.text

    def test_duplicate_edge_prediction_raises(self):
        ds = pose_dataset(seed=35, num_poses=3, with_pointmaps=True)
        with pytest.raises(InputError, match="two predictions"):
            align_global(ds.pairs + [ds.pairs[-1]], ds.graph)

    def test_disconnected_graph_raises(self):
        ds = pose_dataset(seed=34, num_poses=4, with_pointmaps=True)
        sub = [p for p in ds.pairs if {p.n, p.m} <= {0, 1} or {p.n, p.m} <= {2, 3}]
        graph = PairGraph(4, tuple((p.n, p.m) for p in sub))
        with pytest.raises(DisconnectedGraph):
            align_global(sub, graph)

    def test_view_that_is_no_reference_view_raises(self):
        # Without the edges (3, m) view 3 is only ever a target view: the
        # graph stays connected, but no edge determines view 3's pose.
        ds = pose_dataset(seed=31, num_poses=4, with_pointmaps=True)
        sub = [p for p in ds.pairs if p.n != 3]
        graph = PairGraph(4, tuple((p.n, p.m) for p in sub))
        assert connected(graph)
        with pytest.raises(DisconnectedGraph, match=r"views \[3\]"):
            align_global(sub, graph)

    @pytest.mark.parametrize("maps", [("self", "other"), ("other",)])
    def test_view_without_confidence_raises(self, maps):
        # View 3 is a reference view, but every edge touching it has zero
        # confidence, or zero confidence on the other maps only: its self-maps
        # then tie its pose to its own global pointmap, which the objective
        # moves with it.
        ds = pose_dataset(seed=31, num_poses=4, with_pointmaps=True)
        with pytest.raises(DisconnectedGraph, match=r"views \[3\]: .* zero"):
            align_global(zero_confidence_of_view(ds.pairs, 3, maps), ds.graph)

    def test_view_without_initializer_weight_raises(self):
        # The terms still join view 1's pose to view 0's, but every edge
        # touching view 1 gives the initializer's Umeyama fit zero weight,
        # which used to place view 1 at the identity and report convergence.
        ds = pose_dataset(seed=3, num_poses=3, with_pointmaps=True,
                          camera=CameraConfig(width=16, height=12))
        with pytest.raises(DisconnectedGraph, match=r"views \[1\]: "):
            align_global(split_confidence_of_view(ds.pairs, 1), ds.graph)

    @pytest.mark.parametrize("keep", [1, 2])
    def test_view_placed_by_collinear_points_raises(self, keep):
        # Every edge touching view 1 gives the initializer's Umeyama fit
        # weight at only `keep` points of one row, which lie on a line, so
        # that they determine no rotation.
        ds = pose_dataset(seed=3, num_poses=3, with_pointmaps=True,
                          camera=CameraConfig(width=16, height=12))
        with pytest.raises(DisconnectedGraph, match=r"views \[1\]: "):
            align_global(split_confidence_of_view(ds.pairs, 1, keep=keep),
                         ds.graph)

    def test_missing_edge_prediction_raises(self):
        ds = pose_dataset(seed=35, num_poses=4, with_pointmaps=True)
        with pytest.raises(InputError):
            align_global(ds.pairs[:-1], ds.graph)

    def test_prediction_of_unlisted_edge_raises(self):
        """A prediction whose edge the graph does not list is refused, not
        left out of the objective."""
        ds = pose_dataset(seed=35, num_poses=4, with_pointmaps=True)
        last = ds.pairs[-1]
        graph = PairGraph(4, tuple((p.n, p.m) for p in ds.pairs[:-1]))
        with pytest.raises(InputError, match=re.escape(
                f"graph lacks: [({last.n}, {last.m})]")):
            align_global(ds.pairs, graph)

    def test_budget_is_not_converged(self, monkeypatch):
        """A descent stopped by its budget is not converged, however little
        its last step moved the objective: the seed-37 scene of
        ``test_stop_reason`` reaches tolerance at iteration 275."""
        ds = pose_dataset(
            seed=37, num_poses=4, with_pointmaps=True, noise=NoiseProfile(),
            camera=CameraConfig(width=16, height=12),
        )
        monkeypatch.setattr(alignment, "MAX_ITERS", 274)
        result = align_global(ds.pairs, ds.graph)
        before, last = result.objective_trace[-2:]
        assert result.stop_reason == "budget"
        assert (before - last) / before < 100 * TOL
        assert not result.converged

    def test_single_view_raises(self):
        with pytest.raises(InputError):
            align_global([], PairGraph(1, ()))

    def test_no_predictions_raises(self):
        with pytest.raises(InputError, match="no pairwise predictions"):
            align_global([])

    def test_graph_edge_outside_views_raises(self):
        with pytest.raises(InputError, match=r"\(1, 5\)"):
            align_global(_two_identical_views(),
                         PairGraph(3, ((0, 1), (1, 0), (1, 5))))

    def test_prediction_of_negative_view_raises(self):
        preds = _two_identical_views() + [_random_pair(-1, 0, 6, 8)]
        with pytest.raises(InputError, match=r"\(-1, 0\)"):
            align_global(preds)

    def test_view_of_two_sizes_raises(self):
        preds = [_random_pair(0, 1, 4, 5), _random_pair(1, 2, 3, 5)]
        with pytest.raises(InputError, match=r"view 1 is 3x5 in edge \(1,2\)"):
            align_global(preds)

    def test_repeated_graph_edge_raises(self):
        ds = pose_dataset(seed=35, num_poses=3, with_pointmaps=True)
        graph = PairGraph(3, ds.graph.edges + ds.graph.edges[-1:])
        with pytest.raises(InputError, match="more than once"):
            align_global(ds.pairs, graph)


def _keep_confidence(conf, region, strip):
    """``conf`` zero outside ``region`` (``"whole"``, the ``"top"`` or
    ``"bottom"`` half, or ``"none"``), except at the first ``strip`` pixels
    of the bottom half's first row."""
    half = len(conf) // 2
    keep = np.zeros(conf.shape, bool)
    keep[{"whole": slice(None), "top": slice(half), "bottom": slice(half, None),
          "none": slice(0)}[region]] = True
    keep[half, :strip] = True
    return np.where(keep, conf, 0.0)


# One edge's edit: whether the edge is kept, and (region, strip) of
# ``_keep_confidence`` for its self map and for its other map.
_MAP_EDIT = st.tuples(st.sampled_from(["whole", "top", "bottom", "none"]),
                      st.integers(0, 8))
_EDGE_EDIT = st.tuples(st.booleans(), _MAP_EDIT, _MAP_EDIT)


def _split_view_1(k):
    """The 3-view scene's edits that ``split_confidence_of_view(pairs, 1,
    keep=k)`` makes, padded to 12 edges: the edges touching view 1 have
    both confidences only at k points of one row, which lie on a line."""
    touching = (True, ("top", k), ("bottom", 0))
    other = (True, ("top", 0), ("whole", 0))
    return [touching, other, touching, touching, other, touching] + [other] * 6


class TestEdgeSubsets:
    """On any subset of the edges of a noiseless scene (the seed-31 4-view
    scene, or the seed-3 3-view 16x12 one, which reads the first six
    edits), with each kept edge's self and other confidence maps whole,
    zeroed, half-zeroed or reduced to a strip of one row, ``align_global``
    either refuses the input or recovers every pose: it never returns a
    pose that nothing determines."""

    @pytest.fixture(scope="class")
    def scenes(self):
        return (pose_dataset(seed=31, num_poses=4, with_pointmaps=True),
                pose_dataset(seed=3, num_poses=3, with_pointmaps=True,
                             camera=CameraConfig(width=16, height=12)))

    @_FUZZ
    @given(three_views=st.booleans(),
           edits=st.lists(_EDGE_EDIT, min_size=12, max_size=12))
    @example(three_views=True, edits=_split_view_1(1))
    @example(three_views=True, edits=_split_view_1(2))
    @example(three_views=True, edits=_split_view_1(3))
    def test_refused_or_recovered(self, scenes, three_views, edits):
        scene = scenes[three_views]
        sub = [dataclasses.replace(
            p, confidence_self=_keep_confidence(p.confidence_self, *self_map),
            confidence_other=_keep_confidence(p.confidence_other, *other_map))
            for p, (kept, self_map, other_map) in zip(scene.pairs, edits)
            if kept]
        try:
            result = align_global(sub, PairGraph(
                scene.graph.num_views, tuple((p.n, p.m) for p in sub)))
        except (InputError, DisconnectedGraph):
            return
        _assert_poses_recovered(scene, result.poses)


class TestObjectiveGradients:
    """``_Evaluation.gradients`` against central differences of
    ``_Evaluation.objective``, at a point given as rotations (V, 3, 3),
    translations (V, 3), log sigmas and pointmaps (V, 3, HW)."""

    H = 1e-6

    @pytest.fixture(scope="class")
    def problem(self):
        ds = pose_dataset(
            seed=38, num_poses=3, with_pointmaps=True, noise=NoiseProfile(),
            camera=CameraConfig(width=8, height=6),
        )
        preds = [next(p for p in ds.pairs if (p.n, p.m) == e)
                 for e in ds.graph.edges]
        rot, trn, sigmas, pms, _ = _initialize(preds, ds.graph.num_views)
        rng = np.random.default_rng(0)
        # Move off the initializer's point so no block sits at its optimum.
        rot = [exp_map(rng.normal(scale=0.02, size=3)) @ R for R in rot]
        trn = [t + rng.normal(scale=0.02, size=3) for t in trn]
        log_sigmas = np.log(sigmas) + rng.normal(scale=0.05, size=len(sigmas))
        pms = [pm + rng.normal(scale=0.01, size=pm.shape) for pm in pms]
        point = (np.array(rot), np.array(trn), log_sigmas, _pixels_last(pms))
        return preds, _terms(preds), point

    def _fd(self, problem, perturb):
        """Central difference of the objective along ``perturb(point, h)``."""
        _, terms, point = problem
        vals = []
        for h in (self.H, -self.H):
            moved = [a.copy() for a in point]
            perturb(moved, h)
            vals.append(_Evaluation(terms, len(moved[0])).objective(*moved))
        return (vals[0] - vals[1]) / (2 * self.H)

    def _check(self, analytic, numeric):
        assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(numeric))

    def test_objective_is_direct_sum(self, problem):
        preds, terms, point = problem
        rot, trn, log_sigmas, xhat = point
        eps = 1e-8
        direct = 0.0
        for e, p in enumerate(preds):
            sigma = np.exp(log_sigmas[e])
            for view, pm, conf in ((p.n, p.pointmap_self, p.confidence_self),
                                   (p.m, p.pointmap_other, p.confidence_other)):
                for k, (x, c) in enumerate(zip(pm.reshape(-1, 3),
                                               conf.reshape(-1))):
                    r = xhat[view][:, k] - sigma * (rot[p.n] @ x + trn[p.n])
                    direct += c * (np.sqrt(r @ r + eps**2) - eps)
        obj = _Evaluation(terms, len(rot)).objective(*point)
        assert obj == pytest.approx(direct, rel=1e-12)

    def test_gradients_match_finite_differences(self, problem):
        _, terms, point = problem
        rot, _, log_sigmas, xhat = point
        ev = _Evaluation(terms, len(rot))
        ev.objective(*point)
        g_rot, g_trn, g_sig, g_pm = ev.gradients()
        for v in range(len(rot)):
            for k in range(3):
                delta = np.eye(3)[k]

                def turn(a, h, v=v, delta=delta):
                    a[0][v] = exp_map(h * delta) @ a[0][v]

                def shift(a, h, v=v, delta=delta):
                    a[1][v] = a[1][v] + h * delta

                self._check(g_rot[v][k], self._fd(problem, turn))
                self._check(g_trn[v][k], self._fd(problem, shift))
        for e in range(len(log_sigmas)):
            def rescale(a, h, e=e):
                a[2][e] += h

            self._check(g_sig[e], self._fd(problem, rescale))
        rng = np.random.default_rng(1)
        for _ in range(6):
            v = int(rng.integers(len(xhat)))
            idx = tuple(int(rng.integers(d)) for d in xhat[v].shape)

            def nudge(a, h, v=v, idx=idx):
                a[3][v][idx] += h

            self._check(g_pm[v][idx], self._fd(problem, nudge))


class TestObjectiveGradientsUneven(TestObjectiveGradients):
    """The same checks on a 6-view graph with pair dropout, where the views
    are targets of different numbers of residual terms."""

    @pytest.fixture(scope="class")
    def problem(self):
        ds = pose_dataset(
            seed=40, num_poses=6, with_pointmaps=True,
            noise=NoiseProfile(dropout=0.3),
            camera=CameraConfig(width=8, height=6),
        )
        preds = [next(p for p in ds.pairs if (p.n, p.m) == e)
                 for e in ds.graph.edges]
        rot, trn, sigmas, pms, _ = _initialize(preds, ds.graph.num_views)
        rng = np.random.default_rng(2)
        rot = [exp_map(rng.normal(scale=0.02, size=3)) @ R for R in rot]
        trn = [t + rng.normal(scale=0.02, size=3) for t in trn]
        log_sigmas = np.log(sigmas) + rng.normal(scale=0.05, size=len(sigmas))
        pms = [pm + rng.normal(scale=0.01, size=pm.shape) for pm in pms]
        point = (np.array(rot), np.array(trn), log_sigmas, _pixels_last(pms))
        return preds, _terms(preds), point

    def test_target_views_have_uneven_term_counts(self, problem):
        preds = problem[0]
        counts = np.bincount([p.n for p in preds] + [p.m for p in preds])
        assert len(counts) == 6 and len(set(counts)) > 1


# Reference descent: the loop, objective and gradients as they were before
# the gradient reused the accepted trial's buffers and before the terms were
# packed into blocks. Every call computes its residuals afresh, one target-view
# group at a time; poses and pointmaps stay per-view lists, the pointmaps
# (H, W, 3), converted to (3, HW) on every evaluation; each trial step calls
# exp_map once per view. It starts from the initializer as it was before the
# tree growth composed one similarity per step and the accumulation moved to
# stacked arrays: per-view lists, one composition spelled out per direction.


def _ref_umeyama(src, dst, w):
    w = w.reshape(-1)
    wsum = w.sum()
    if wsum <= 0:
        return 1.0, np.eye(3), np.zeros(3)
    mu_s = (w[:, None] * src).sum(0) / wsum
    mu_d = (w[:, None] * dst).sum(0) / wsum
    src_c = src - mu_s
    dst_c = dst - mu_d
    cov = (w[:, None] * dst_c).T @ src_c / wsum
    U, S, Vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(U @ Vt))
    D = np.diag([1.0, 1.0, d])
    R = U @ D @ Vt
    var_s = (w * (src_c**2).sum(1)).sum() / wsum
    s = float(np.trace(np.diag(S) @ D) / var_s) if var_s > 0 else 1.0
    t = mu_d - s * (R @ mu_s)
    return s, R, t


def _ref_initialize(preds, graph):
    by_ref = {}
    for p in preds:
        by_ref.setdefault(p.n, []).append(p)
    num_views = graph.num_views

    def edge_weight(p):
        return float(p.confidence_self.sum() + p.confidence_other.sum())

    sims = {0: (1.0, np.eye(3), np.zeros(3))}
    candidates = sorted(preds, key=edge_weight, reverse=True)
    changed = True
    while changed:
        changed = False
        for p in candidates:
            known, new = None, None
            if p.n in sims and p.m not in sims:
                known, new = p.n, p.m
            elif p.m in sims and p.n not in sims:
                known, new = p.m, p.n
            else:
                continue
            if p.m not in by_ref:
                continue
            self_m = by_ref[p.m][0]
            src = self_m.pointmap_self.reshape(-1, 3)
            dst = p.pointmap_other.reshape(-1, 3)
            w = (
                self_m.confidence_self.reshape(-1)
                * p.confidence_other.reshape(-1)
            )
            s_rel, R_rel, t_rel = _ref_umeyama(src, dst, w)
            s_k, R_k, t_k = sims[known]
            if new == p.m:
                sims[new] = (
                    s_k * s_rel,
                    R_k @ R_rel,
                    s_k * (R_k @ t_rel) + t_k,
                )
            else:
                s_inv = 1.0 / s_rel
                R_inv = R_rel.T
                t_inv = -s_inv * (R_inv @ t_rel)
                sims[new] = (
                    s_k * s_inv,
                    R_k @ R_inv,
                    s_k * (R_k @ t_inv) + t_k,
                )
            changed = True
    for v in range(num_views):
        sims.setdefault(v, (1.0, np.eye(3), np.zeros(3)))

    rotations = [sims[v][1] for v in range(num_views)]
    translations = [sims[v][2] / sims[v][0] for v in range(num_views)]
    num = [None] * num_views
    den = [None] * num_views
    conf_acc = [[] for _ in range(num_views)]
    for p in preds:
        s, R, t = sims[p.n]
        for view, pm, conf in (
            (p.n, p.pointmap_self, p.confidence_self),
            (p.m, p.pointmap_other, p.confidence_other),
        ):
            pred = (s * (pm.reshape(-1, 3) @ R.T) + t).reshape(pm.shape)
            if num[view] is None:
                num[view] = np.zeros_like(pred)
                den[view] = np.zeros(pm.shape[:2])
            num[view] += conf[..., None] * pred
            den[view] += conf
            if view == p.n:
                conf_acc[view].append(conf)
    pointmaps, confidences = [], []
    for v in range(num_views):
        safe = np.maximum(den[v], 1e-12)[..., None]
        pointmaps.append(num[v] / safe)
        if conf_acc[v]:
            confidences.append(np.mean(conf_acc[v], axis=0))
        else:
            donor = next(p for p in preds if p.m == v)
            confidences.append(donor.confidence_other.copy())
    sigmas = np.array([sims[p.n][0] for p in preds])
    return rotations, translations, sigmas, pointmaps, confidences


def _ref_terms(preds):
    by_view = {}
    for e, p in enumerate(preds):
        for view, pm, conf in (
            (p.n, p.pointmap_self, p.confidence_self),
            (p.m, p.pointmap_other, p.confidence_other),
        ):
            by_view.setdefault(view, []).append(
                (e, p.n, pm.reshape(-1, 3).T, conf.reshape(-1))
            )
    groups = []
    for view in sorted(by_view):
        edges, refs, pts, confs = zip(*by_view[view])
        groups.append((view, np.ascontiguousarray(np.stack(pts)),
                       np.stack(confs),
                       np.array(refs), np.array(edges)))
    return groups


def _ref_group_residuals(group, rotations, translations, sigmas, xhat):
    _, x, _, refs, edges = group
    sig = sigmas[edges]
    A = sig[:, None, None] * rotations[refs]
    b = sig[:, None] * translations[refs]
    r = A @ x
    r += b[:, :, None]
    np.subtract(xhat, r, out=r)
    return A, b, r


def _ref_smoothed_norms(r, norm_eps):
    q = np.einsum("kip,kip->kp", r, r)
    q += norm_eps**2
    return np.sqrt(q, out=q)


def _ref_pixels_last(pointmaps):
    return [np.ascontiguousarray(pm.reshape(-1, 3).T) for pm in pointmaps]


def _ref_objective(terms, rotations, translations, log_sigmas, pointmaps,
                   norm_eps):
    rotations, translations = np.asarray(rotations), np.asarray(translations)
    sigmas = np.exp(log_sigmas)
    xhat = _ref_pixels_last(pointmaps)
    obj = 0.0
    for group in terms:
        _, _, r = _ref_group_residuals(group, rotations, translations, sigmas,
                                       xhat[group[0]])
        q = _ref_smoothed_norms(r, norm_eps)
        q -= norm_eps
        obj += float(np.vdot(group[2], q))
    return obj


def _ref_gradients(terms, rotations, translations, log_sigmas, pointmaps,
                   norm_eps):
    rotations, translations = np.asarray(rotations), np.asarray(translations)
    sigmas = np.exp(log_sigmas)
    xhat = _ref_pixels_last(pointmaps)
    g_rot = np.zeros((len(rotations), 3))
    g_trn = np.zeros((len(rotations), 3))
    g_sig = np.zeros_like(log_sigmas)
    g_pm = [np.zeros_like(pm) for pm in pointmaps]
    for group in terms:
        view, x, c, refs, edges = group
        A, b, w = _ref_group_residuals(group, rotations, translations, sigmas,
                                       xhat[view])
        w *= (c / _ref_smoothed_norms(w, norm_eps))[:, None, :]
        g_pm[view] = w.sum(0).T.reshape(pointmaps[view].shape)
        s = w.sum(2)
        M = A @ (x @ w.transpose(0, 2, 1))
        np.add.at(g_rot, refs, -np.stack(
            [M[:, 1, 2] - M[:, 2, 1], M[:, 2, 0] - M[:, 0, 2],
             M[:, 0, 1] - M[:, 1, 0]], axis=1))
        np.add.at(g_trn, refs, -sigmas[edges][:, None] * s)
        np.add.at(g_sig, edges,
                  -(np.trace(M, axis1=1, axis2=2) + (s * b).sum(1)))
    return g_rot, g_trn, g_sig, g_pm


def _reference_descent(preds, graph):
    """Returns (objective trace, rotations, translations, sigmas,
    pointmaps, number of rejected trials)."""
    rotations, translations, sigmas, pointmaps, _ = _ref_initialize(preds,
                                                                    graph)
    s0 = sigmas[0]
    sigmas = sigmas / s0
    pointmaps = [pm / s0 for pm in pointmaps]
    log_sigmas = np.log(np.maximum(sigmas, 1e-12))
    floor = ABS_FLOOR_PER_TERM * sum(2 * p.height * p.width for p in preds)
    terms = _ref_terms(preds)
    step = STEP
    obj = _ref_objective(terms, rotations, translations, log_sigmas,
                         pointmaps, NORM_EPS)
    trace = [obj]
    rejected = 0
    for _ in range(MAX_ITERS):
        if obj <= floor:
            break
        g_rot, g_trn, g_sig, g_pm = _ref_gradients(
            terms, rotations, translations, log_sigmas, pointmaps, NORM_EPS
        )
        accepted = False
        for _ in range(MAX_HALVINGS):
            new_rot = list(rotations)
            new_trn = list(translations)
            for v in range(1, graph.num_views):
                new_rot[v] = exp_map(-step * g_rot[v]) @ rotations[v]
                new_trn[v] = translations[v] - step * g_trn[v]
            new_ls = log_sigmas - step * g_sig
            new_ls[0] = log_sigmas[0]
            new_pm = [pm - step * g for pm, g in zip(pointmaps, g_pm)]
            new_obj = _ref_objective(terms, new_rot, new_trn, new_ls, new_pm,
                                     NORM_EPS)
            if new_obj < obj:
                accepted = True
                break
            rejected += 1
            step /= 2.0
        if not accepted:
            break
        last_rel = (obj - new_obj) / max(obj, 1e-300)
        rotations, translations = new_rot, new_trn
        log_sigmas, pointmaps = new_ls, new_pm
        obj = new_obj
        trace.append(obj)
        step = min(step * 1.5, STEP)
        if last_rel < TOL:
            break
    return (np.array(trace), rotations, translations, np.exp(log_sigmas),
            pointmaps, rejected)


class TestSameIterates:
    """``_initialize`` gives the reference initializer's outputs and
    ``align_global`` takes the same iterates as the reference descent, bit
    for bit: on the 10-view tabletop scene of the benchmark's seed 1000,
    whose blocks hold one target-view group each; on a 6-view graph with
    pair dropout, whose groups hold different numbers of terms; and on a
    16-view sliding-window graph with pair dropout, whose blocks hold
    several groups of different sizes."""

    @pytest.fixture(scope="class",
                    params=["tabletop-1000", "dropout-6v", "window-16v"])
    def scene(self, request):
        """The dataset and its predictions in graph order."""
        if request.param == "tabletop-1000":
            ds = pose_dataset(
                seed=1000, num_poses=10, with_pointmaps=True,
                noise=NoiseProfile(), camera=CameraConfig(width=32, height=24),
            )
        elif request.param == "dropout-6v":
            ds = pose_dataset(
                seed=40, num_poses=6, with_pointmaps=True,
                noise=NoiseProfile(dropout=0.3),
                camera=CameraConfig(width=16, height=12),
            )
            counts = np.bincount([v for e in ds.graph.edges for v in e])
            assert len(set(counts)) > 1
        else:
            ds = pose_dataset(
                seed=1001, num_poses=16, with_pointmaps=True,
                noise=NoiseProfile(dropout=0.2),
                camera=CameraConfig(width=16, height=12),
            )
            assert all(abs(n - m) < PAIR_WINDOW for n, m in ds.graph.edges)
        preds = [next(p for p in ds.pairs if (p.n, p.m) == e)
                 for e in ds.graph.edges]
        blocks = _terms(preds)
        if request.param == "tabletop-1000":
            assert all(len(blk.groups) == 1 for blk in blocks)
        elif request.param == "window-16v":
            assert any(len({hi - lo for _, lo, hi in blk.groups}) > 1
                       for blk in blocks)
        return ds, preds

    @pytest.fixture(scope="class")
    def runs(self, scene):
        ds, preds = scene
        return _reference_descent(preds, ds.graph), align_global(
            ds.pairs, ds.graph)

    def test_initializer(self, scene):
        ds, preds = scene
        ref = _ref_initialize(preds, ds.graph)
        outputs = _initialize(preds, ds.graph.num_views)
        for ref_out, out in zip(ref, outputs, strict=True):
            assert np.array_equal(np.array(ref_out), out)

    def test_objective_trace(self, runs):
        ref, result = runs
        assert np.array_equal(result.objective_trace, ref[0])
        assert result.objective == ref[0][-1]

    def test_poses(self, runs):
        (_, rotations, translations, *_), result = runs
        for pose, R, t in zip(result.poses, rotations, translations,
                              strict=True):
            assert np.array_equal(pose.rotation, project_to_rotation(R))
            assert np.array_equal(pose.translation, t)

    def test_sigmas(self, runs):
        ref, result = runs
        assert np.array_equal(result.sigmas, ref[3])

    def test_pointmaps(self, runs):
        ref, result = runs
        for pm, ref_pm in zip(result.pointmaps, ref[4], strict=True):
            assert np.array_equal(pm, ref_pm)

    def test_line_search_rejects_a_trial(self, runs):
        # A gradient that read a rejected trial's residuals would show here.
        ref, _ = runs
        assert ref[5] > 0


def _tabletop_1000():
    """The benchmark's 10-view tabletop scene of seed 1000, with its
    predictions in graph order."""
    ds = pose_dataset(
        seed=1000, num_poses=10, with_pointmaps=True,
        noise=NoiseProfile(), camera=CameraConfig(width=32, height=24),
    )
    preds = [next(p for p in ds.pairs if (p.n, p.m) == e)
             for e in ds.graph.edges]
    return ds, preds


class TestEarlyStop:
    """Line-search trials stop at the first block whose running sum reaches
    the current objective; accepted trials run every block."""

    @pytest.fixture(scope="class")
    def problem(self):
        ds, preds = _tabletop_1000()
        rot, trn, sigmas, pms, _ = _initialize(preds, ds.graph.num_views)
        point = (np.array(rot), np.array(trn), np.log(sigmas), _pixels_last(pms))
        return ds.graph.num_views, _terms(preds), point

    def test_bound_below_first_block_returns_its_sum(self, problem):
        num_views, blocks, point = problem
        assert len(blocks) > 1
        first = _Evaluation(blocks[:1], num_views).objective(*point)
        ev = _Evaluation(blocks, num_views)
        assert ev.objective(*point, bound=first / 2) == first
        assert (ev.evaluations, ev.stopped_early) == (1, 1)

    def test_no_bound_equals_objective(self, problem):
        num_views, blocks, point = problem
        full = _Evaluation(blocks, num_views).objective(*point)
        ev = _Evaluation(blocks, num_views)
        assert ev.objective(*point) == full
        # A bound that the running sum reaches only at the last block.
        assert ev.objective(*point, bound=full) == full
        assert (ev.evaluations, ev.stopped_early) == (2, 0)

    def test_only_rejected_trials_stop_early(self, monkeypatch):
        # A trial that stopped early and was accepted would leave the later
        # blocks' buffers stale for the gradient. Every call must return its
        # full sum or a partial sum that has reached its bound.
        ds, _ = _tabletop_1000()
        full_objective = _Evaluation.objective
        calls = []

        def spy(self, *point, bound=np.inf):
            value = full_objective(self, *point, bound=bound)
            fresh = _Evaluation(self.blocks, len(self.g_pm))
            calls.append((bound, value, full_objective(fresh, *point)))
            return value

        monkeypatch.setattr(_Evaluation, "objective", spy)
        trace = align_global(ds.pairs, ds.graph).objective_trace
        # The first call evaluates the start; each trial is bounded by the
        # objective at the current point.
        assert calls[0][0] == np.inf
        assert all(bound in trace for bound, _, _ in calls[1:])
        assert all(value == full or value >= bound
                   for bound, value, full in calls)
        assert any(value < full for _, value, full in calls)

    def test_log_reports_evaluations(self, caplog, monkeypatch):
        ds, _ = _tabletop_1000()
        full_objective = _Evaluation.objective
        evaluations = []

        def spy(self, *point, bound=np.inf):
            value = full_objective(self, *point, bound=bound)
            evaluations.append(self.stopped_early)
            return value

        monkeypatch.setattr(_Evaluation, "objective", spy)
        with caplog.at_level(logging.INFO, logger="jcr.alignment"):
            align_global(ds.pairs, ds.graph)
        found = re.search(r"(\d+) objective evaluations \((\d+) stopped "
                          r"early\)", caplog.text)
        assert found
        assert int(found[1]) == len(evaluations)
        assert int(found[2]) == evaluations[-1] > 0


@pytest.fixture(scope="module")
def result():
    ds = pose_dataset(seed=36, num_poses=4, with_pointmaps=True)
    return align_global(ds.pairs, ds.graph)


class TestExtractPointCloud:
    def test_zero_threshold_keeps_everything(self, result):
        pts, views, pixels, confs = extract_point_cloud(result, 0.0)
        total = sum(c.size for c in result.confidences)
        assert len(pts) == total

    def test_above_max_raises_empty(self, result):
        top = max(c.max() for c in result.confidences)
        with pytest.raises(EmptyCloud):
            extract_point_cloud(result, top + 1.0)

    def test_median_threshold_counts(self, result):
        allc = np.concatenate([c.reshape(-1) for c in result.confidences])
        med = float(np.median(allc))
        pts, views, pixels, confs = extract_point_cloud(result, med)
        assert len(pts) == int((allc >= med).sum())
        assert (confs >= med).all()

    def test_provenance_indexes_back(self, result):
        pts, views, pixels, confs = extract_point_cloud(result, 0.0)
        for i in range(0, len(pts), 997):
            v = views[i]
            w, h = pixels[i]
            assert np.allclose(result.pointmaps[v][h, w], pts[i])

    def test_negative_threshold_raises(self, result):
        with pytest.raises(InputError):
            extract_point_cloud(result, -0.5)
