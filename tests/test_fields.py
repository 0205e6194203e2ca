"""Implicit occupancy / segmentation / color fields."""

import copy
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from jcr import fields
from jcr.errors import DegenerateBounds, EmptyCloud, InputError, SingleClass
from jcr.fields import (
    MAX_FREQUENCIES,
    QUERY_CHUNK,
    FieldModel,
    PositionalEncoding,
    TrainConfig,
    _init_params,
    _norm_box,
    gradient_check,
    query,
    train_color,
    train_occupancy,
    train_segmentation,
)
from jcr.synth import sample_surface, tabletop_scene

FAST = TrainConfig(epochs=60, hidden_size=64, seed=0)


class _Cloud:
    """Minimal duck-typed stand-in for a labeled point cloud."""

    def __init__(self, points, colors=None, segmentation=None):
        self.points = np.asarray(points, dtype=float)
        self.colors = colors if colors is None else np.asarray(colors, float)
        self.segmentation = segmentation

    def __len__(self):
        return len(self.points)


class TestPositionalEncoding:
    def test_origin_single_frequency(self):
        enc = PositionalEncoding(num_frequencies=1, include_raw=True)
        got = enc.encode(np.zeros(3))[0]
        assert np.allclose(got, [0, 0, 0, 0, 0, 0, 1, 1, 1])

    def test_output_length(self):
        for L in (1, 4, 6):
            enc = PositionalEncoding(num_frequencies=L)
            assert enc.output_dim == 3 + 6 * L
            x = np.random.default_rng(0).uniform(-1, 1, size=(5, 3))
            assert enc.encode(x).shape == (5, 3 + 6 * L)

    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=3)
        enc = PositionalEncoding(num_frequencies=3)
        got = enc.encode(x)[0]
        expect = list(x)
        for k in range(3):
            expect += list(np.sin(2.0**k * np.pi * x))
            expect += list(np.cos(2.0**k * np.pi * x))
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("L", range(11))
    def test_matches_per_frequency_libm(self, L):
        """The angle-doubling recurrence stays within 1e-13 of np.sin and
        np.cos at every frequency up to L = 10, random points and exact
        fractions of pi alike."""
        enc = PositionalEncoding(num_frequencies=L)
        x = _encoder_points()
        assert np.abs(enc.encode(x) - _libm_encode(x, L)).max() <= 1e-13

    @pytest.mark.parametrize("L", [6, 10])
    def test_float32_out_rounds_libm(self, L):
        """Rounded once to float32, all but a few values in 1e5 equal the
        libm features rounded to float32, and none is more than an ulp off.
        Random points only: at exact fractions of pi, both forms give a
        rounding residue of ~1e-16 for a sine or cosine that is 0 in exact
        arithmetic, equal to 1e-13 but not in float32's relative ulps."""
        x = np.random.default_rng(17).uniform(-1, 1, (20000, 3))
        out = np.full((len(x), 3 + 6 * L), np.nan, np.float32)
        got = PositionalEncoding(num_frequencies=L).encode(x, out=out)
        assert got is out
        want = _libm_encode(x, L).astype(np.float32)
        off = got != want
        assert off.mean() <= 1e-5
        ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
        assert (np.abs(got - want)[off] <= ulp[off]).all()

    def test_frequency_limit(self):
        PositionalEncoding(num_frequencies=MAX_FREQUENCIES)
        with pytest.raises(InputError):
            PositionalEncoding(num_frequencies=MAX_FREQUENCIES + 1)

    @pytest.mark.parametrize("L, include_raw", [
        (L, raw) for L in range(MAX_FREQUENCIES + 1) for raw in (True, False)
        if raw or L])
    def test_matches_row_major_form(self, L, include_raw):
        """The coordinate-major encoding gives the row-major form's bits: in
        float64 without ``out``, and rounded once into a float32 ``out``
        that is a column slice, on one row and on QUERY_CHUNK + 1 rows."""
        enc = PositionalEncoding(L, include_raw)
        points = _encoder_points(QUERY_CHUNK - 7)
        for x in (points[:1], points):
            want = _row_major_encode(x, L, include_raw)
            got = enc.encode(x)
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
            feat = np.full((len(x), enc.output_dim + 1), 7.0, np.float32)
            out = feat[:, :-1]
            assert enc.encode(x, out=out) is out
            assert np.array_equal(out, want.astype(np.float32))
            assert (feat[:, -1] == 7.0).all()


def _row_major_encode(x, num_frequencies, include_raw=True):
    """The angle-doubling encoding formed row-major, one (N, 3) block of
    sines and one of cosines per frequency, in float64."""
    cols = [x] if include_raw else []
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
    for k in range(num_frequencies):
        if k:
            s, c = s * c + s * c, (c + s) * (c - s)
        cols += [s, c]
    return np.hstack(cols)


def _encoder_points(n=1000):
    """Uniform points in [-1, 1]^3, then rows of 0, +-1, +-1/2, +-1/4, 1/3."""
    special = np.array([0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 1.0 / 3.0])
    rows = np.stack([special, np.roll(special, 1), np.roll(special, 2)], axis=1)
    return np.vstack([np.random.default_rng(16).uniform(-1, 1, (n, 3)), rows])


def _libm_encode(x, num_frequencies=6):
    """The per-frequency encoding in float64: the coordinates, then np.sin
    and np.cos of 2^k pi x for k = 0..L-1."""
    cols = [x]
    for k in range(num_frequencies):
        ang = (2.0**k) * np.pi * x
        cols += [np.sin(ang), np.cos(ang)]
    return np.hstack(cols)


class TestGradientCheck:
    @pytest.mark.parametrize("head", ["occupancy", "segmentation", "color"])
    def test_fitted_readout_is_stationary(self, head):
        """The finite-difference gradient of the penalized loss at the
        fitted float32 readout is below 1e-4 of its size at a zero readout,
        on three seeds."""
        for seed in range(3):
            assert gradient_check(head, seed=seed) < 1e-4

    def test_unknown_head_rejected(self):
        with pytest.raises(InputError):
            gradient_check("density")


def _box_surface(rng, n=1500, center=(0.0, 0.0, 0.0), size=0.2):
    pts = rng.uniform(-size / 2, size / 2, size=(n, 3))
    axes = rng.integers(0, 3, n)
    signs = rng.choice([-1.0, 1.0], n)
    pts[np.arange(n), axes] = signs * size / 2
    return pts + np.asarray(center)


@pytest.fixture(scope="module")
def box_model():
    """Occupancy field trained on a box surface, shared across tests."""
    rng = np.random.default_rng(2)
    pts = _box_surface(rng, 2000)
    cfg = TrainConfig(epochs=200, hidden_size=128, seed=0)
    return train_occupancy(_Cloud(pts[:1600]), cfg), pts


class TestOccupancy:
    def test_box_surface_accuracy(self, box_model):
        model, pts = box_model
        rng = np.random.default_rng(20)
        held = pts[1600:]
        far = rng.uniform(0.3, 0.5, size=(400, 3)) * rng.choice(
            [-1.0, 1.0], size=(400, 3)
        )
        pos = query(model, held) > 0.5
        neg = query(model, far) <= 0.5
        acc = (pos.sum() + neg.sum()) / (len(held) + len(far))
        assert acc >= 0.95

    def test_single_point_loss_decreases(self):
        cfg = TrainConfig(epochs=30, hidden_size=8, seed=0)
        model = train_occupancy(_Cloud(np.array([[0.1, 0.2, 0.3]])), cfg)
        assert model.final_loss <= model.initial_loss

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        pts = _box_surface(rng, 300)
        cfg = TrainConfig(epochs=10, hidden_size=16, seed=5)
        a = train_occupancy(_Cloud(pts), cfg)
        b = train_occupancy(_Cloud(pts), cfg)
        assert np.array_equal(a.W1, b.W1)
        assert np.array_equal(a.W2, b.W2)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            train_occupancy(_Cloud(np.zeros((0, 3))), FAST)

    def test_query_far_outside_bounds_is_free(self, box_model):
        model, _ = box_model
        far = np.array([[2.0, 2.0, 2.0], [-3.0, 0.0, 0.0]])
        assert (query(model, far) < 0.5).all()

    def test_query_at_training_positive_is_occupied(self, box_model):
        model, pts = box_model
        probs = query(model, pts[:200])
        assert (probs > 0.5).mean() >= 0.95

    @pytest.mark.parametrize("hidden", [3, 24, 256])
    def test_readout_is_stationary(self, monkeypatch, hidden):
        """At the returned readout w, the float64 gradient of the summed
        binary cross-entropy plus ``1e-4 tr(AᵀA) / (hidden + 1) |w|^2 / 2``
        (A the hidden activations with a column of ones) is near 0: within
        1e-4 of its size at w = 0, which the float32 rounding of the stored
        weights and of the fit's products leaves room for."""
        rng = np.random.default_rng(28)
        cloud = _Cloud(_box_surface(rng, 2 * QUERY_CHUNK + 100))
        model, rows, y = _occupancy_fit(monkeypatch, cloud,
                                        TrainConfig(hidden_size=hidden, seed=2))
        w = np.vstack([model.W2, model.b2]).astype(float)
        assert _logistic_stationarity(_activations(model, rows), y[:, None], w) <= 1e-4

    def test_losses(self, monkeypatch):
        """``initial_loss`` is ln 2, the loss of a zero readout, and
        ``final_loss`` the mean binary cross-entropy of ``query`` on the
        training rows, positives and negatives."""
        rng = np.random.default_rng(29)
        model, rows, y = _occupancy_fit(monkeypatch, _Cloud(_box_surface(rng, 500)),
                                        TrainConfig(hidden_size=32))
        p = query(model, rows).astype(float)
        bce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert model.initial_loss == pytest.approx(np.log(2.0), rel=1e-6)
        assert model.final_loss == pytest.approx(bce, rel=1e-4)
        assert model.final_loss < model.initial_loss

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(30)
        cloud = _Cloud(_box_surface(rng, 700))
        cfg = TrainConfig(hidden_size=48, seed=7)
        first = train_occupancy(cloud, cfg).to_dict()
        assert train_occupancy(cloud, cfg).to_dict() == first
        assert train_occupancy(cloud, dataclasses.replace(cfg, seed=8)).to_dict() != first

    @pytest.mark.parametrize("points", [
        [[0.1, 0.2, 0.3]], [[0.1, 0.2, 0.3], [0.1, 0.25, 0.3]],
    ], ids=["one-point", "two-point"])
    @pytest.mark.parametrize("hidden", [1, 5, 64, 256])
    def test_tiny_clouds_fit_finite_weights(self, points, hidden):
        model = train_occupancy(_Cloud(points), TrainConfig(hidden_size=hidden))
        assert model.W1.shape == (model.encoding.output_dim, hidden)
        for a in (model.W1, model.b1, model.W2, model.b2):
            assert np.isfinite(a).all()
        assert model.final_loss <= model.initial_loss
        assert (query(model, points) > 0.5).all()

    def test_fit_holds_chunk_sized_buffers(self):
        """The fit's peak memory stays below one float64 array of a row per
        training row and a column per unit."""
        rng = np.random.default_rng(31)
        n, cfg = 3 * QUERY_CHUNK + 100, TrainConfig(hidden_size=256)
        cloud = _Cloud(_box_surface(rng, n))
        tracemalloc.start()
        try:
            train_occupancy(cloud, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * (cfg.hidden_size + 1) * 8


def _logistic_stationarity(act, y, w):
    """The float64 gradient of the summed binary cross-entropy of the
    columns of ``act @ w`` against ``y``, plus ``1e-4 tr(AᵀA) / units
    |w|^2 / 2`` for A = ``act``, at ``w`` over its size at w = 0."""
    ridge = 1e-4 * np.sum(act**2) / act.shape[1]

    def gradient(w):
        p = 0.5 * (1.0 + np.tanh(act @ w / 2.0))  # the logistic function
        return act.T @ (p - y) + ridge * w

    return np.linalg.norm(gradient(w)) / np.linalg.norm(gradient(np.zeros_like(w)))


def _activations(model, rows):
    """The float64 hidden activations of ``model`` on ``rows``, from their
    float32 features, with a column of ones."""
    feat = model.encoding.encode(model.normalize(rows))
    feat = feat.astype(np.float32).astype(float)
    return np.hstack([np.maximum(feat @ model.W1 + model.b1, 0.0),
                      np.ones((len(rows), 1))])


def _occupancy_fit(monkeypatch, cloud, cfg):
    """``train_occupancy``'s model, its training rows (the positives, then
    the negatives it draws) and their targets, read from the rows it
    encodes."""
    parts, features = [], fields._features

    def spy(enc, center, half, *xs):
        parts.extend(xs)
        return features(enc, center, half, *xs)

    monkeypatch.setattr(fields, "_features", spy)
    model = train_occupancy(cloud, cfg)
    pos, neg = parts
    return model, np.vstack(parts), np.r_[np.ones(len(pos)), np.zeros(len(neg))]


class TestSegmentation:
    def _two_clusters(self, rng, n=800):
        a = rng.normal(0.0, 0.03, size=(n // 2, 3))
        b = rng.normal(0.0, 0.03, size=(n // 2, 3)) + [0.5, 0.0, 0.0]
        pts = np.vstack([a, b])
        labels = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
        return pts, labels

    def test_two_clusters_accuracy(self):
        rng = np.random.default_rng(6)
        pts, labels = self._two_clusters(rng)
        perm = rng.permutation(len(pts))
        tr, he = perm[:600], perm[600:]
        model = train_segmentation(_Cloud(pts[tr], segmentation=labels[tr]), FAST)
        pred = np.argmax(query(model, pts[he]), axis=1)
        assert (model.class_values[pred] == labels[he]).mean() >= 0.98

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            train_segmentation(
                _Cloud(np.zeros((10, 3)), segmentation=np.ones(10, int)), FAST
            )

    def test_three_class_confusion_diagonal(self):
        rng = np.random.default_rng(7)
        centers = np.array([[0, 0, 0], [0.4, 0, 0], [0, 0.4, 0]], float)
        pts = np.vstack(
            [rng.normal(c, 0.02, size=(200, 3)) for c in centers]
        )
        labels = np.repeat([3, 7, 9], 200)  # non-contiguous class ids
        model = train_segmentation(_Cloud(pts, segmentation=labels), FAST)
        pred = model.class_values[np.argmax(query(model, pts), axis=1)]
        classes = [3, 7, 9]
        conf = np.zeros((3, 3))
        for t, p in zip(labels, pred):
            conf[classes.index(t), classes.index(p)] += 1
        for i in range(3):
            assert conf[i, i] > conf[i].sum() / 2

    def test_order_invariance_within_tolerance(self):
        rng = np.random.default_rng(8)
        pts, labels = self._two_clusters(rng)
        model_a = train_segmentation(_Cloud(pts, segmentation=labels), FAST)
        perm = rng.permutation(len(pts))
        model_b = train_segmentation(
            _Cloud(pts[perm], segmentation=labels[perm]), FAST
        )
        acc_a = (model_a.class_values[
            np.argmax(query(model_a, pts), axis=1)
        ] == labels).mean()
        acc_b = (model_b.class_values[
            np.argmax(query(model_b, pts), axis=1)
        ] == labels).mean()
        assert abs(acc_a - acc_b) <= 0.01

    @pytest.mark.parametrize("values", [[0, 1], [2, 5, 9]], ids=["K2", "K3"])
    @pytest.mark.parametrize("hidden", [3, 24, 256])
    def test_readout_is_stationary(self, hidden, values):
        """At the returned readout w, the float64 gradient of the summed
        one-vs-rest binary cross-entropy of every class column plus
        ``1e-4 tr(AᵀA) / (hidden + 1) |w|^2 / 2`` (A the hidden activations
        with a column of ones) is within 1e-4 of its size at w = 0."""
        cloud = _labeled_box(np.random.default_rng(32), 2 * QUERY_CHUNK + 100,
                             values)
        model = train_segmentation(cloud, TrainConfig(hidden_size=hidden, seed=2))
        y = np.eye(len(values))[np.searchsorted(values, cloud.segmentation)]
        w = np.vstack([model.W2, model.b2]).astype(float)
        assert _logistic_stationarity(_activations(model, cloud.points), y, w) <= 1e-4

    def test_readout_stops_on_the_summed_loss(self):
        """Newton's stop rule reads the loss summed over the columns: with
        the first column started at its own fit and the others at zero,
        the fit goes on until every column is stationary."""
        cloud = _labeled_box(np.random.default_rng(36), 1500, [2, 5, 9])
        model = train_segmentation(cloud, TrainConfig(hidden_size=32))
        y = np.eye(3)[np.searchsorted([2, 5, 9], cloud.segmentation)]
        feat = fields._features(model.encoding, model.norm_center,
                                model.norm_half, cloud.points)
        Wb = np.vstack([model.W1, model.b1])
        first = fields._readout(feat, Wb, y[:, :1], True)
        w = fields._readout(feat, Wb, y, True,
                            np.hstack([first, np.zeros((len(first), 2))]))
        act = _activations(model, cloud.points)
        for k in range(3):
            assert _logistic_stationarity(act, y[:, [k]], w[:, [k]]) <= 1e-4

    @pytest.mark.parametrize("values", [[0, 1], [2, 5, 9]], ids=["K2", "K3"])
    def test_losses(self, values):
        """``initial_loss`` is ln K, the loss of a zero readout, and
        ``final_loss`` the mean cross-entropy of ``query`` on the training
        rows."""
        cloud = _labeled_box(np.random.default_rng(33), 500, values)
        model = train_segmentation(cloud, TrainConfig(hidden_size=32))
        p = query(model, cloud.points).astype(float)
        true = np.searchsorted(values, cloud.segmentation)
        cross_entropy = -np.mean(np.log(p[np.arange(len(p)), true]))
        assert model.initial_loss == pytest.approx(np.log(len(values)), rel=1e-6)
        assert model.final_loss == pytest.approx(cross_entropy, rel=1e-4)
        assert model.final_loss < model.initial_loss

    def test_same_seed_same_model(self):
        cloud = _labeled_box(np.random.default_rng(34), 700, [2, 5, 9])
        cfg = TrainConfig(hidden_size=48, seed=7)
        first = train_segmentation(cloud, cfg).to_dict()
        assert train_segmentation(cloud, cfg).to_dict() == first
        other = train_segmentation(cloud, dataclasses.replace(cfg, seed=8))
        assert other.to_dict() != first

    @pytest.mark.parametrize("points, labels", [
        ([[0.1, 0.2, 0.3], [0.1, 0.25, 0.3]], [4, 7]),
        ([[0.1, 0.2, 0.3], [0.1, 0.25, 0.3], [0.15, 0.2, 0.3]], [9, 3, 7]),
    ], ids=["two-classes", "three-classes"])
    @pytest.mark.parametrize("hidden", [1, 5, 64, 256])
    def test_tiny_clouds_fit_finite_weights(self, points, labels, hidden):
        """One point per class: the weights are finite and the loss falls;
        with a unit per point or more, each point takes its own class."""
        model = train_segmentation(_Cloud(points, segmentation=np.array(labels)),
                                   TrainConfig(hidden_size=hidden))
        for a in (model.W1, model.b1, model.W2, model.b2):
            assert np.isfinite(a).all()
        assert model.final_loss < model.initial_loss
        if hidden >= len(points):
            pred = model.class_values[np.argmax(query(model, points), axis=1)]
            assert np.array_equal(pred, labels)

    def test_fit_holds_chunk_sized_buffers(self):
        """The fit's peak memory stays below one float64 array of a row per
        training row and a column per unit."""
        n, cfg = 3 * QUERY_CHUNK + 100, TrainConfig(hidden_size=256)
        cloud = _labeled_box(np.random.default_rng(35), n, [2, 5, 9])
        tracemalloc.start()
        try:
            train_segmentation(cloud, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * (cfg.hidden_size + 1) * 8


def _labeled_box(rng, n, values):
    """A box surface of ``n`` points labeled in slabs along x, one slab per
    label in ``values``."""
    pts = _box_surface(rng, n)
    edges = np.linspace(-0.1, 0.1, len(values) + 1)[1:-1]
    return _Cloud(pts, segmentation=np.asarray(values)[np.digitize(pts[:, 0], edges)])


class TestColor:
    def test_constant_color(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.1, 0.1, size=(500, 3))
        colors = np.tile([0.3, 0.6, 0.9], (500, 1))
        model = train_color(_Cloud(pts, colors=colors), FAST)
        pred = query(model, pts)
        assert np.abs(pred - colors).max() < 0.02

    def test_out_of_range_colors_rejected(self):
        pts = np.zeros((4, 3))
        with pytest.raises(InputError):
            train_color(_Cloud(pts, colors=np.full((4, 3), 1.5)), FAST)

    def test_two_color_scene_mae(self):
        rng = np.random.default_rng(10)
        a = rng.normal(0, 0.03, size=(400, 3))
        b = rng.normal(0, 0.03, size=(400, 3)) + [0.5, 0, 0]
        pts = np.vstack([a, b])
        colors = np.vstack(
            [np.tile([0.9, 0.1, 0.1], (400, 1)), np.tile([0.1, 0.1, 0.9], (400, 1))]
        )
        perm = rng.permutation(800)
        tr, he = perm[:600], perm[600:]
        model = train_color(_Cloud(pts[tr], colors=colors[tr]), FAST)
        mae = np.abs(query(model, pts[he]) - colors[he]).mean()
        assert mae <= 0.05

    def test_missing_colors_rejected(self):
        with pytest.raises(EmptyCloud):
            train_color(_Cloud(np.zeros((4, 3))), FAST)

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloud):
            train_color(_Cloud(np.zeros((0, 3)), colors=np.zeros((0, 3))), FAST)

    @pytest.mark.parametrize("points, colors", [
        ([[0.1, 0.2, 0.3]], [[0.2, 0.5, 0.9]]),
        (np.full((50, 3), 0.3), np.tile([0.1, 0.7, 0.4], (50, 1))),
        (np.random.default_rng(25).uniform(-0.1, 0.1, (500, 3)),
         np.tile([0.3, 0.6, 0.9], (500, 1))),
    ], ids=["one-point", "identical-points", "constant-color"])
    @pytest.mark.parametrize("hidden", [64, 256])
    def test_degenerate_clouds_fit_their_colors(self, points, colors, hidden):
        """No pair of rows differs in both features and color, so no unit
        is sampled: every unit keeps its He-normal weights, and the readout
        alone fits the colors."""
        model = train_color(_Cloud(points, colors=colors),
                            TrainConfig(hidden_size=hidden))
        for a in (model.W1, model.b1, model.W2, model.b2):
            assert np.isfinite(a).all()
        assert not model.b1.any()
        assert np.isfinite([model.initial_loss, model.final_loss]).all()
        assert np.abs(query(model, points) - colors).max() <= 1e-3

    def test_fit_matches_one_shot_reference(self):
        """Over three chunks of rows and more, the weights match a plain
        one-shot fit within 1e-5 of each array's largest entry, and the fit
        holds less memory at its peak than one float64 array of a row per
        point and a column per unit would. The loss fields are the mean
        squared error of the returned weights and of a zero readout."""
        rng = np.random.default_rng(26)
        n = 3 * QUERY_CHUNK + 100
        pts = _box_surface(rng, n)
        colors = 0.8 * (pts > 0) + rng.uniform(0.0, 0.2, (n, 3))
        cloud = _Cloud(pts, colors=colors)
        cfg = TrainConfig(hidden_size=256, seed=4)
        tracemalloc.start()
        try:
            model = train_color(cloud, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (cfg.hidden_size + 1) * 8
        want = _reference_color(cloud, cfg)
        for got, ref in zip((model.W1, model.b1, model.W2, model.b2), want):
            assert got.dtype == np.float32
            assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()
        assert model.initial_loss == pytest.approx(
            np.mean((colors**2).sum(axis=1)), rel=1e-6)
        assert model.final_loss == pytest.approx(
            np.mean(((query(model, pts) - colors)**2).sum(axis=1)), rel=1e-4)
        assert model.final_loss < 0.1 * model.initial_loss

    @pytest.mark.parametrize("hidden", [64, 256])
    def test_surface_mae(self, hidden):
        """Held-out color MAE at most 0.05 on the surface samples of seeds
        0-4, split 80/20 as the benchmark's fields workload splits them."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pts, colors, _ = sample_surface(tabletop_scene(), rng)
            perm = rng.permutation(len(pts))
            tr, he = np.split(perm, [int(0.8 * len(pts))])
            model = train_color(_Cloud(pts[tr], colors=colors[tr]),
                                TrainConfig(hidden_size=hidden, seed=seed))
            assert np.abs(query(model, pts[he]) - colors[he]).mean() <= 0.05


def _reference_color(cloud, cfg):
    """``train_color`` written plainly: a loop over the candidate pairs,
    each taken pair's unit formed apart, and the ridge readout over every
    row's activations at once, in float64. Returns W1, b1, W2, b2."""
    pts, colors = cloud.points, cloud.colors
    n, hidden = len(pts), cfg.hidden_size
    rng = np.random.default_rng(cfg.seed)
    enc = PositionalEncoding()
    center, half = _norm_box(pts, inflation=0.05)
    W1, b1, _, _ = _init_params(rng, enc.output_dim, hidden, 3)
    feat = enc.encode((pts - center) / half).astype(np.float32).astype(float)
    i, j = rng.integers(0, n, size=(2, 10 * hidden))
    clock = rng.standard_exponential(10 * hidden)
    rings = []  # (time the pair's clock rings, pair)
    for k in range(10 * hidden):
        dist = np.linalg.norm(feat[j[k]] - feat[i[k]])
        change = np.linalg.norm(colors[j[k]] - colors[i[k]])
        if dist > 0 and change > 0:
            rings.append((clock[k] * dist / change, k))
    for unit, (_, k) in enumerate(sorted(rings)[:hidden]):
        step = feat[j[k]] - feat[i[k]]
        W1[:, unit] = 2.0 * step / (step @ step)
        b1[unit] = -W1[:, unit] @ (feat[i[k]] + feat[j[k]]) / 2.0
    W1, b1 = W1.astype(np.float32), b1.astype(np.float32)
    act = np.hstack([np.maximum(feat @ W1 + b1, 0.0), np.ones((n, 1))])
    gram = act.T @ act
    gram += 1e-6 * np.trace(gram) / (hidden + 1) * np.eye(hidden + 1)
    readout = np.linalg.solve(gram, act.T @ colors)
    return W1, b1, readout[:-1], readout[-1]


class TestQueryAndSerialization:
    def test_empty_query(self):
        rng = np.random.default_rng(11)
        model = train_occupancy(
            _Cloud(_box_surface(rng, 200)),
            TrainConfig(epochs=5, hidden_size=8),
        )
        assert query(model, np.zeros((0, 3))).shape == (0,)

    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(12)
        pts, labels = rng.uniform(-0.2, 0.2, (300, 3)), None
        labels = (pts[:, 0] > 0).astype(int)
        model = train_segmentation(
            _Cloud(pts, segmentation=labels),
            TrainConfig(epochs=15, hidden_size=16),
        )
        back = FieldModel.from_dict(model.to_dict())
        q = rng.uniform(-0.2, 0.2, size=(50, 3))
        # The float32 weights are saved as they are: predictions are exact.
        assert np.array_equal(query(model, q), query(back, q))
        assert back.head == model.head
        assert np.array_equal(back.class_values, model.class_values)

    def test_round_trip_through_json(self):
        import json

        rng = np.random.default_rng(13)
        model = train_occupancy(
            _Cloud(_box_surface(rng, 200)),
            TrainConfig(epochs=5, hidden_size=8),
        )
        back = FieldModel.from_dict(json.loads(json.dumps(model.to_dict())))
        q = rng.uniform(-0.2, 0.2, size=(20, 3))
        assert np.array_equal(query(model, q), query(back, q))

    @pytest.fixture(scope="class")
    def chunk_models(self):
        """Every head at hidden 256, and 2 chunks of query rows and 17 more."""
        rng = np.random.default_rng(14)
        cloud = _Cloud(rng.uniform(-0.2, 0.2, (200, 3)),
                       colors=rng.uniform(0, 1, (200, 3)),
                       segmentation=rng.choice([0, 1, 2], 200))
        cfg = TrainConfig(epochs=2, hidden_size=256)
        models = [train(cloud, cfg) for train in
                  (train_occupancy, train_segmentation, train_color)]
        q = np.random.default_rng(15).uniform(-0.3, 0.3, (2 * QUERY_CHUNK + 17, 3))
        return models, q

    def test_chunked_forward_matches_slices(self, chunk_models):
        """Queries run QUERY_CHUNK rows at a time: every head gives, bit for
        bit, its outputs on each chunk's rows queried alone, so no chunk
        reads another's rows from the reused buffers or writes at another
        offset."""
        models, q = chunk_models
        for model in models:
            slices = [model.forward(q[lo : lo + QUERY_CHUNK])
                      for lo in range(0, len(q), QUERY_CHUNK)]
            assert np.array_equal(model.forward(q), np.vstack(slices)), model.head

    def test_chunked_forward_matches_one_pass(self, chunk_models):
        """Every head's chunked query equals the one-pass formula in
        float64, on the float32 features, within float32 rounding."""
        models, q = chunk_models
        for model in models:
            feat = model.encoding.encode(model.normalize(q)).astype(np.float32)
            h = feat.astype(float) @ model.W1 + model.b1
            want = np.maximum(h, 0.0) @ model.W2 + model.b2
            np.testing.assert_allclose(model.forward(q), want, rtol=1e-5,
                                       atol=1e-5 * np.abs(want).max(),
                                       err_msg=model.head)

    @pytest.mark.parametrize("train", [train_occupancy, train_segmentation,
                                       train_color])
    @pytest.mark.parametrize("hidden", [24, 32, 256])
    def test_first_layer_adds_the_bias(self, train, hidden):
        """The first layer of a fitted model, on one row, two and 512, is
        float64 ``feat @ W1 + b1`` within float32 rounding, whatever order
        BLAS sums in; with b1 zeroed, moved by one unit or shifted by 1e-3
        it is not."""
        rng = np.random.default_rng(27)
        pts = _box_surface(rng, 600)
        cloud = _Cloud(pts, colors=rng.uniform(0, 1, (600, 3)),
                       segmentation=(pts[:, 0] > 0).astype(int))
        model = train(cloud, TrainConfig(epochs=20, hidden_size=hidden))
        assert np.abs(model.b1).max() > 0.01
        wrong = [np.zeros_like(model.b1), np.roll(model.b1, 1), model.b1 + 1e-3]
        points = rng.uniform(-0.15, 0.15, (512, 3))
        for rows in (1, 2, 512):
            x = points[:rows]
            assert _adds_bias(model, model.W1, model.b1, x)
            for b1 in wrong:
                bad = dataclasses.replace(model, b1=b1)
                assert not _adds_bias(bad, model.W1, model.b1, x)


def _first_layer_of(model, points):
    """The first layer's pre-activation z as ``forward`` forms it: with W2
    the identity, ``forward`` returns relu(z), and with W1 and b1 negated,
    relu(-z) (negating every term negates the sum exactly), so their
    difference is z exactly."""
    hidden = len(model.b1)
    up = dataclasses.replace(model, W2=np.eye(hidden, dtype=np.float32),
                             b2=np.zeros(hidden, np.float32))
    down = dataclasses.replace(up, W1=-model.W1, b1=-model.b1)
    return up.forward(points) - down.forward(points)


def _adds_bias(model, W1, b1, points):
    """Whether ``model``'s first layer on ``points`` is float64
    ``feat @ W1 + b1`` on its float32 features, within float32 rounding:
    1e-5 of the sum of the magnitudes of the terms."""
    feat = model.encoding.encode(model.normalize(points))
    feat = feat.astype(np.float32).astype(float)
    want = feat @ W1 + b1
    scale = np.abs(feat) @ np.abs(W1) + np.abs(b1)
    err = np.abs(_first_layer_of(model, points) - want)
    return bool((err <= 1e-5 * scale).all())


class TestTrainingLoop:
    """Every fit encodes its rows once and returns a model that owns its
    arrays."""

    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(24)
        return _Cloud(_box_surface(rng, 600), colors=rng.uniform(0, 1, (600, 3)),
                      segmentation=rng.choice([1, 4, 6], 600))

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_occupancy_encodes_rows_once(self, monkeypatch, cloud, epochs):
        """Positives and negatives are each encoded once, in one call each,
        through every round of the fit; ``epochs`` does not apply."""
        rows, encode = [], PositionalEncoding.encode

        def spy(self, x, out=None):
            rows.append(len(x))
            return encode(self, x, out)

        monkeypatch.setattr(PositionalEncoding, "encode", spy)
        train_occupancy(cloud, TrainConfig(epochs=epochs, hidden_size=8))
        assert rows == [len(cloud), len(cloud)]

    @pytest.mark.parametrize("train", [train_occupancy, train_segmentation,
                                       train_color])
    def test_model_arrays_share_no_memory(self, cloud, train):
        """The model's weights are copies, not views of the fit's arrays:
        W1 and b1 of one stacked layer, W2 and b2 of one readout."""
        model = train(cloud, TrainConfig(epochs=1, hidden_size=8))
        arrays = (model.W1, model.b1, model.W2, model.b2)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)
        assert all(a.flags.owndata for a in arrays)


class TestFloat32Training:
    @pytest.mark.parametrize("labels", [
        np.array([7, -2, 7, 30, -2, 0] * 20),
        np.array([7, -2, 7, 30, -2, 0] * 20, dtype=float),
    ])
    def test_segmentation_labels_become_class_indices(self, monkeypatch, labels):
        """Integer and integral float labels become one-hot rows over the
        sorted distinct labels: the targets of the readout."""
        seen, readout = [], fields._readout

        def spy(feat, Wb, y, *args):
            seen.append(y)
            return readout(feat, Wb, y, *args)

        monkeypatch.setattr(fields, "_readout", spy)
        pts = _box_surface(np.random.default_rng(23), len(labels))
        model = train_segmentation(_Cloud(pts, segmentation=labels),
                                   TrainConfig(epochs=2, hidden_size=8))
        classes = [-2, 0, 7, 30]
        assert np.array_equal(model.class_values, classes)
        assert model.num_classes == 4
        assert np.array_equal(seen[0], np.eye(4)[[classes.index(c) for c in labels]])


class TestTrainingInputs:
    @pytest.mark.parametrize("change", [
        {"hidden_size": 0}, {"hidden_size": 2.5}, {"epochs": 0}, {"epochs": 2.5},
        {"epochs": True}, {"seed": -1}, {"learning_rate": float("nan")},
        {"learning_rate": "0.1"}, {"learning_rate": 0.0},
        {"learning_rate": -0.01}, {"negatives_per_positive": -3.0},
        {"negatives_per_positive": 0.0},
        {"negatives_per_positive": float("inf")},
    ])
    def test_bad_config_rejected(self, change):
        pts = _box_surface(np.random.default_rng(0), 50)
        with pytest.raises(InputError):
            train_occupancy(_Cloud(pts), TrainConfig(**change))

    @pytest.mark.parametrize("change", [
        {"epochs": 0}, {"hidden_size": 2.5}, {"seed": -1},
        {"learning_rate": 0.0}, {"negatives_per_positive": float("inf")},
        {"negatives_per_positive": True}, {"learning_rate": True},
    ])
    def test_bad_config_refused_when_made(self, change):
        """A TrainConfig checks itself where it is made, also as a copy
        with a changed value, before any training call. A bool is not a
        number, in the float fields as in the integer ones."""
        name = next(iter(change))
        with pytest.raises(InputError, match=f"TrainConfig.{name} "):
            TrainConfig(**change)
        with pytest.raises(InputError, match=f"TrainConfig.{name} "):
            dataclasses.replace(TrainConfig(), **change)

    @pytest.mark.parametrize("train", [train_occupancy, train_segmentation,
                                       train_color])
    def test_non_finite_points_rejected(self, train):
        pts = _box_surface(np.random.default_rng(0), 50)
        pts[7, 1] = np.nan
        cloud = _Cloud(pts, colors=np.full((50, 3), 0.5),
                       segmentation=np.arange(50) % 2)
        with pytest.raises(InputError):
            train(cloud, FAST)

    def test_flat_negative_box_rejected(self):
        # Far from the origin, the box around one repeated point rounds to a
        # point along every axis.
        with pytest.raises(DegenerateBounds):
            train_occupancy(_Cloud(np.full((10, 3), 1e12)), FAST)

    def test_points_not_n_by_3_rejected(self):
        with pytest.raises(InputError):
            train_occupancy(_Cloud(np.zeros((10, 2))), FAST)

    @pytest.mark.parametrize("colors", [
        np.full((50, 3), np.nan), np.full((49, 3), 0.5), np.full((50, 2), 0.5),
    ])
    def test_bad_colors_rejected(self, colors):
        pts = _box_surface(np.random.default_rng(0), 50)
        with pytest.raises(InputError):
            train_color(_Cloud(pts, colors=colors), FAST)

    @pytest.mark.parametrize("labels", [
        None, np.arange(49) % 2, np.where(np.arange(50) % 2, 1.0, np.nan),
        np.arange(50) % 2 + 0.5,
    ])
    def test_bad_labels_rejected(self, labels):
        pts = _box_surface(np.random.default_rng(0), 50)
        with pytest.raises(InputError):
            train_segmentation(_Cloud(pts, segmentation=labels), FAST)


class TestModelDict:
    @pytest.fixture(scope="class")
    def model_dict(self):
        rng = np.random.default_rng(14)
        model = train_segmentation(
            _Cloud(_box_surface(rng, 100), segmentation=np.arange(100) % 3),
            TrainConfig(epochs=2, hidden_size=8),
        )
        return model.to_dict()

    @pytest.mark.parametrize("path, value", [
        (("head",), None),  # None: the key is deleted
        (("weights", "W2"), None),
        (("encoding", "bogus"), 1),
        (("encoding", "num_frequencies"), 2),
        (("encoding", "include_raw"), "yes"),
        (("weights", "W1"), "not base64!"),
        (("weights", "b1"), "AAAA"),
        (("shapes", "W1"), [39, 7]),
        (("shapes", "W2"), "8x3"),
        (("head",), "density"),
        (("head",), "occupancy"),
        (("shapes", "W1"), [39 * 8]),  # W1 reads, b1 has no shape
        (("num_classes",), 4),
        (("num_classes",), float("inf")),
        (("class_values",), [0, 1]),
        (("norm_center",), [0.0, float("nan"), 0.0]),
        (("norm_half",), [1.0, 0.0, 1.0]),
        (("norm_half",), [1.0, 1.0]),
        (("train_config",), [1, 2]),
        (("final_loss",), "low"),
        (("train_config", "epochs"), 0),
        (("train_config", "learning_rate"), 0.0),
        (("train_config", "learning_rate"), True),
    ])
    def test_malformed_rejected(self, model_dict, path, value):
        d = copy.deepcopy(model_dict)
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        with pytest.raises(InputError):
            FieldModel.from_dict(d)

    @pytest.mark.parametrize("points", [
        np.zeros((4, 2)), np.zeros((2, 3, 3)), np.array([[0.0, np.inf, 0.0]]),
    ])
    def test_bad_query_points_rejected(self, model_dict, points):
        with pytest.raises(InputError):
            query(FieldModel.from_dict(model_dict), points)
