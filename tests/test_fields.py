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
    BATCH_SIZE,
    MAX_FREQUENCIES,
    MOMENTUM,
    QUERY_CHUNK,
    FieldModel,
    PositionalEncoding,
    TrainConfig,
    _forward_backward,
    _init_params,
    _loss_and_dz,
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
    def test_backprop_matches_finite_differences(self, head):
        assert gradient_check(head, seed=0) < 1e-4


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
        feat = model.encoding.encode(model.normalize(rows))
        feat = feat.astype(np.float32).astype(float)
        act = np.hstack([np.maximum(feat @ model.W1 + model.b1, 0.0),
                         np.ones((len(rows), 1))])
        ridge = 1e-4 * np.sum(act**2) / (hidden + 1)

        def gradient(w):
            return act.T @ (1.0 / (1.0 + np.exp(-act @ w)) - y) + ridge * w

        w = np.append(model.W2[:, 0], model.b2).astype(float)
        g, g0 = gradient(w), gradient(np.zeros_like(w))
        assert np.linalg.norm(g) <= 1e-4 * np.linalg.norm(g0)

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_is_softmax_minus_identity_rows(self, dtype):
        """The gradient that ``_loss_and_dz`` forms in place from class
        indices is ``(softmax(z) - I[y]) / n`` formed apart, bit for bit,
        also where ``inf`` in ``z`` makes a row NaN (+inf) or a probability
        exactly 0 (-inf, at the true class and at another)."""
        rng = np.random.default_rng(9)
        n, k = 37, 4
        z = rng.normal(0.0, 3.0, (n, k)).astype(dtype)
        y = rng.integers(0, k, n)
        z[2, 1] = np.inf
        z[5, y[5]] = -np.inf
        z[7, (y[7] + 1) % k] = -np.inf
        with np.errstate(invalid="ignore"):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            want = (e / e.sum(axis=1, keepdims=True) - np.eye(k, dtype=dtype)[y]) / n
            loss, dz = _loss_and_dz("segmentation", z, y)
        assert dz.dtype == dtype
        assert np.array_equal(dz, want, equal_nan=True)
        assert np.isnan(dz[2]).all() and dz[5, y[5]] == dtype(-1.0) / n
        assert np.isnan(loss)


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


def _reference_step(params, feat, y, head):
    """One training step with fresh temporaries and ``dz2 @ W2.T``. The
    first layer is defined as the field code forms it: the features with a
    column of ones, times W1 with b1 stacked under it."""
    W1, b1, W2, b2 = params
    ones = np.ones((len(feat), 1), feat.dtype)
    z1 = np.hstack([feat, ones]) @ np.vstack([W1, b1])
    a = np.maximum(z1, 0.0)
    z2 = a @ W2 + b2
    loss, dz2 = _loss_and_dz(head, z2, y)
    dz1 = (dz2 @ W2.T) * (z1 > 0)
    return loss, (feat.T @ dz1, dz1.sum(axis=0), a.T @ dz2, dz2.sum(axis=0))


def _reference_train(head, cloud, cfg):
    """Segmentation's descent written plainly: every epoch encodes the
    whole training set and steps with ``_reference_step``. Parameters and
    features are float32; the features are the per-frequency libm encoding
    (``_libm_encode``) in float64, then rounded."""
    pts = cloud.points
    classes = np.unique(cloud.segmentation)
    y = np.searchsorted(classes, cloud.segmentation)
    rng = np.random.default_rng(cfg.seed)
    enc = PositionalEncoding()
    center, half = _norm_box(pts, inflation=0.05)
    params = [p.astype(np.float32) for p in
              _init_params(rng, enc.output_dim, cfg.hidden_size, len(classes))]
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    for _ in range(cfg.epochs):
        feat = _libm_encode((pts - center) / half).astype(np.float32)
        order = rng.permutation(len(feat))
        total, nb = 0.0, 0
        for s in range(0, len(order), BATCH_SIZE):
            idx = order[s : s + BATCH_SIZE]
            loss, grads = _reference_step(params, feat[idx], y[idx], head)
            total += loss
            nb += 1
            for p, v, g in zip(params, velocity, grads):
                v *= MOMENTUM
                v -= cfg.learning_rate * g
                p += v
        losses.append(total / nb)
    return params, losses[0], losses[-1]


class TestSameIterates:
    """The training loop reuses one hidden-layer buffer, encodes the fixed
    points once, doubles the encoding's angles by recurrence, trains b1 as
    the weight of a constant feature and gathers each epoch's rows once; it
    must give the plain loop's iterates, on per-frequency libm features, bit
    for bit."""

    # 600 points in batches of BATCH_SIZE = 512 leave a short last batch.
    CFG = TrainConfig(epochs=4, hidden_size=24, seed=3)

    @pytest.fixture(scope="class")
    def cloud(self):
        assert 600 % BATCH_SIZE
        rng = np.random.default_rng(21)
        pts = _box_surface(rng, 600)
        return _Cloud(pts, colors=rng.uniform(0, 1, (600, 3)),
                      segmentation=rng.choice([2, 5, 9], 600))

    @pytest.mark.parametrize("head, train", [
        ("segmentation", train_segmentation),
    ])
    @pytest.mark.parametrize("hidden", [24, 32])
    def test_weights_and_losses_bit_identical(self, cloud, head, train, hidden):
        """At a width that fills whole blocks of 16 columns and at one that
        leaves part of a block over."""
        cfg = dataclasses.replace(self.CFG, hidden_size=hidden)
        model = train(cloud, cfg)
        params, initial, final = _reference_train(head, cloud, cfg)
        for got, want in zip((model.W1, model.b1, model.W2, model.b2), params):
            assert np.array_equal(got, want)
        assert model.initial_loss == initial
        assert model.final_loss == final

    @pytest.mark.parametrize("head, out_dim", [
        ("occupancy", 1), ("segmentation", 3), ("color", 3),
    ])
    @pytest.mark.parametrize("poison", [False, True])
    def test_step_with_and_without_buffer(self, head, out_dim, poison):
        _check_buffered_step(head, out_dim, poison, np.float64)

    @pytest.mark.parametrize("head, out_dim", [
        ("occupancy", 1), ("segmentation", 3), ("color", 3),
    ])
    @pytest.mark.parametrize("poison", [False, True])
    def test_float32_step_with_and_without_buffer(self, head, out_dim, poison):
        _check_buffered_step(head, out_dim, poison, np.float32)

    @pytest.mark.parametrize("head, out_dim", [
        ("occupancy", 1), ("segmentation", 3), ("color", 3),
    ])
    @pytest.mark.parametrize("poison", [False, True])
    @pytest.mark.parametrize("rows", [BATCH_SIZE, 432])
    def test_float32_step_at_benchmark_shapes(self, head, out_dim, poison,
                                              rows):
        """A whole batch and a ragged one at hidden 256 on the training
        encoding's 39 features: BLAS blocks both products, the first one
        folds the bias, and occupancy's outer product is the einsum."""
        _check_buffered_step(head, out_dim, poison, np.float32, rows=rows,
                             hidden=256, frequencies=6)

    @pytest.mark.parametrize("train", [train_occupancy, train_color])
    @pytest.mark.parametrize("hidden", [24, 32, 256])
    def test_first_layer_adds_the_bias(self, train, hidden):
        """The first layer of a trained model, on one row, two and a batch,
        is float64 ``feat @ W1 + b1`` within float32 rounding, whatever
        order BLAS sums in; with b1 zeroed, moved by one unit or shifted by
        1e-3 it is not."""
        rng = np.random.default_rng(27)
        cloud = _Cloud(_box_surface(rng, 600), colors=rng.uniform(0, 1, (600, 3)))
        model = train(cloud, TrainConfig(epochs=20, hidden_size=hidden))
        assert np.abs(model.b1).max() > 0.01
        wrong = [np.zeros_like(model.b1), np.roll(model.b1, 1), model.b1 + 1e-3]
        points = rng.uniform(-0.15, 0.15, (BATCH_SIZE, 3))
        for rows in (1, 2, BATCH_SIZE):
            x = points[:rows]
            assert _adds_bias(model, model.W1, model.b1, x)
            for b1 in wrong:
                bad = dataclasses.replace(model, b1=b1)
                assert not _adds_bias(bad, model.W1, model.b1, x)

    @pytest.mark.parametrize("head, out_dim", [
        ("occupancy", 1), ("segmentation", 3), ("color", 3),
    ])
    def test_float32_gradients_match_float64(self, head, out_dim):
        feat, params, y = _step_inputs(head, out_dim, np.float64, rows=200,
                                       hidden=64, frequencies=6)
        params, feat = _folded(params, feat)
        loss, grads = _forward_backward(params, feat, y, head)
        loss32, grads32 = _forward_backward(
            [p.astype(np.float32) for p in params], feat.astype(np.float32),
            y.astype(np.float32) if head != "segmentation" else y, head)
        assert loss32 == pytest.approx(loss, rel=1e-3)
        for g32, g in zip(grads32, grads):
            assert g32.dtype == np.float32
            assert np.abs(g32 - g).max() <= 1e-3 * np.abs(g).max()


def _step_inputs(head, out_dim, dtype, rows=37, hidden=16, frequencies=2):
    """Features, parameters and targets of one batch, in ``dtype``."""
    rng = np.random.default_rng(4)
    feat = PositionalEncoding(frequencies).encode(rng.uniform(-1, 1, (rows, 3)))
    params = _init_params(rng, feat.shape[1], hidden, out_dim)
    # A bias that is not zero, so that where it is added shows in the bits.
    params[1] = rng.normal(0.0, 0.5, hidden)
    y = {"occupancy": rng.integers(0, 2, rows).astype(dtype),
         "segmentation": rng.integers(0, 3, rows),
         "color": rng.uniform(0, 1, (rows, 3)).astype(dtype)}[head]
    return feat.astype(dtype), [p.astype(dtype) for p in params], y


def _folded(params, feat):
    """``[W1, b1, W2, b2]`` and features as ``_forward_backward`` takes
    them: W1 over b1 as one block, and the features with a last column of
    ones."""
    W1, b1, W2, b2 = params
    ones = np.ones((len(feat), 1), feat.dtype)
    return [np.vstack([W1, b1]), W2, b2], np.hstack([feat, ones])


def _check_buffered_step(head, out_dim, poison, dtype, rows=37, hidden=16,
                         frequencies=2):
    """The folded step, with and without a buffer, gives the plain step's
    loss and gradients bit for bit, in ``dtype``."""
    feat, params, y = _step_inputs(head, out_dim, dtype, rows, hidden,
                                   frequencies)
    if poison:
        # inf meets the ReLU mask's zeros: NaN must come out, as it
        # does from the plain multiply.
        params[2][3] = np.inf
    folded, feat1 = _folded(params, feat)
    with np.errstate(invalid="ignore"):
        want = _reference_step(params, feat, y, head)
        plain = _forward_backward(folded, feat1, y, head)
        # A buffer with spare rows and stale contents.
        buf = np.full((rows + 13, hidden), np.nan, dtype)
        buffered = _forward_backward(folded, feat1, y, head, buf)
    for loss, (dWb, dW2, db2) in (plain, buffered):
        assert repr(loss) == repr(want[0])
        for g, w in zip((dWb[:-1], dWb[-1], dW2, db2), want[1]):
            assert g.dtype == dtype
            assert np.array_equal(g, w, equal_nan=True)
    if poison:
        assert np.isnan(want[1][0]).any()


class TestTrainingLoop:
    """``_train`` (segmentation) evaluates the loss only in the first and
    the last epoch, and steps the parameters as views of one flat vector."""

    HEADS = [("segmentation", train_segmentation)]

    @pytest.fixture(scope="class")
    def cloud(self):
        """600 points: a short last batch, as in TestSameIterates."""
        rng = np.random.default_rng(24)
        return _Cloud(_box_surface(rng, 600), colors=rng.uniform(0, 1, (600, 3)),
                      segmentation=rng.choice([1, 4, 6], 600))

    @pytest.mark.parametrize("head, out_dim", [
        ("occupancy", 1), ("segmentation", 3), ("color", 3),
    ])
    @pytest.mark.parametrize("poison", [False, True])
    def test_step_without_loss(self, head, out_dim, poison):
        """Without the loss, ``_loss_and_dz`` gives the same dz and
        ``_forward_backward`` the same gradients, bit for bit, written into
        the arrays it is given."""
        feat, params, y = _step_inputs(head, out_dim, np.float32)
        if poison:
            params[2][3] = np.inf
        folded, feat1 = _folded(params, feat)
        z = np.random.default_rng(5).normal(0.0, 2.0, (len(y), out_dim)).astype(
            np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            loss, dz = _loss_and_dz(head, z, y)
            skipped, dz_skipped = _loss_and_dz(head, z, y, False)
            want = _forward_backward(folded, feat1, y, head)
            grads = [np.full_like(p, 7.0) for p in folded]
            got = _forward_backward(folded, feat1, y, head, None, grads, False)
        assert np.isfinite(loss) and skipped is None
        assert np.array_equal(dz_skipped, dz)
        assert got[0] is None and got[1] is grads
        for g, w in zip(grads, want[1]):
            assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize("head, train", HEADS)
    @pytest.mark.parametrize("epochs", [1, 2])
    @pytest.mark.parametrize("hidden", [24, 32])
    def test_short_runs_match_reference(self, cloud, head, train, epochs,
                                        hidden):
        """With one epoch the first is the last; with two, no epoch lies
        between them. Hidden 32 fills whole blocks of 16 columns, 24 leaves
        part of one over."""
        cfg = TrainConfig(epochs=epochs, hidden_size=hidden, seed=3)
        model = train(cloud, cfg)
        params, initial, final = _reference_train(head, cloud, cfg)
        for got, want in zip((model.W1, model.b1, model.W2, model.b2), params):
            assert np.array_equal(got, want)
        assert model.initial_loss == initial
        assert model.final_loss == final

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

    def test_loss_only_in_first_and_last_epoch(self, monkeypatch, cloud):
        calls, loss_and_dz = [], fields._loss_and_dz

        def spy(*args):
            calls.append(args[-1])
            return loss_and_dz(*args)

        monkeypatch.setattr(fields, "_loss_and_dz", spy)
        train_segmentation(cloud, TrainConfig(epochs=5, hidden_size=8))
        # 600 points: two batches per epoch.
        assert calls == [True] * 2 + [False] * 6 + [True] * 2

    @pytest.mark.parametrize("train", [train_occupancy, train_segmentation,
                                       train_color])
    def test_model_arrays_share_no_memory(self, cloud, train):
        """The model's weights are copies, not views of the flat vector."""
        model = train(cloud, TrainConfig(epochs=1, hidden_size=8))
        arrays = (model.W1, model.b1, model.W2, model.b2)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)
        assert all(a.flags.owndata for a in arrays)


class TestFloat32Training:
    @pytest.mark.parametrize("train", [train_segmentation])
    def test_numpy_scalar_step_sizes_train_in_float32(self, monkeypatch, train):
        """A NumPy float64 learning rate gives the weights that a Python
        float gives, and every step's gradients stay float32."""
        rng = np.random.default_rng(22)
        cloud = _Cloud(_box_surface(rng, 300), colors=rng.uniform(0, 1, (300, 3)),
                       segmentation=rng.choice([1, 4], 300))
        cfg = TrainConfig(epochs=3, hidden_size=16, seed=1)
        want = train(cloud, cfg)
        dtypes = set()

        def spy(*args):
            loss, grads = _forward_backward(*args)
            dtypes.update(g.dtype for g in grads)
            return loss, grads

        monkeypatch.setattr(fields, "_forward_backward", spy)
        got = train(cloud, dataclasses.replace(
            cfg, learning_rate=np.float64(1e-2)))
        assert dtypes == {np.dtype(np.float32)}
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(got, name).dtype == np.float32
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("labels", [
        np.array([7, -2, 7, 30, -2, 0] * 20),
        np.array([7, -2, 7, 30, -2, 0] * 20, dtype=float),
    ])
    def test_segmentation_labels_become_class_indices(self, monkeypatch, labels):
        seen, train = [], fields._train

        def spy(points, y, *args):
            seen.append(y)
            return train(points, y, *args)

        monkeypatch.setattr(fields, "_train", spy)
        pts = _box_surface(np.random.default_rng(23), len(labels))
        model = train_segmentation(_Cloud(pts, segmentation=labels),
                                   TrainConfig(epochs=2, hidden_size=8))
        classes = [-2, 0, 7, 30]
        assert np.array_equal(model.class_values, classes)
        assert np.array_equal(seen[0], [classes.index(c) for c in labels])


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
