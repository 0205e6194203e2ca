"""Implicit occupancy / segmentation / color fields."""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jcr import fields
from jcr.errors import DegenerateBounds, EmptyCloud, InputError, SingleClass
from jcr.fields import (
    BATCH_SIZE,
    BOUNDS_INFLATION,
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
FAST = TrainConfig(epochs=60, hidden_size=64, seed=0)
# The MSE head needs a larger step size than the classification heads.
COLOR = TrainConfig(epochs=400, hidden_size=64, seed=0, learning_rate=0.05)


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


class TestColor:
    def test_constant_color(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.1, 0.1, size=(500, 3))
        colors = np.tile([0.3, 0.6, 0.9], (500, 1))
        model = train_color(_Cloud(pts, colors=colors), COLOR)
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
        model = train_color(_Cloud(pts[tr], colors=colors[tr]), COLOR)
        mae = np.abs(query(model, pts[he]) - colors[he]).mean()
        assert mae <= 0.05

    def test_missing_colors_rejected(self):
        with pytest.raises(EmptyCloud):
            train_color(_Cloud(np.zeros((4, 3))), FAST)


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

    def test_chunked_forward_matches_one_pass(self):
        """Queries run QUERY_CHUNK rows at a time; with 2 chunks and 17 rows
        more, every head gives the one-pass result bit for bit. Checked on
        one BLAS thread, as the benchmark runs: with more threads, the rows
        of the one-pass product itself depend on how BLAS splits them."""
        import jcr

        env = dict(os.environ, PYTHONPATH=str(Path(jcr.__file__).parents[1]),
                   **dict.fromkeys(BLAS_THREAD_VARS, "1"))
        run = subprocess.run([sys.executable, "-c", CHUNK_CHECK], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr
        assert run.stdout.split() == ["occupancy", "segmentation", "color"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHUNK_CHECK = """
import numpy as np
from jcr.fields import (QUERY_CHUNK, TrainConfig, train_color, train_occupancy,
                        train_segmentation)

class Cloud:
    rng = np.random.default_rng(14)
    points = rng.uniform(-0.2, 0.2, (200, 3))
    colors = rng.uniform(0, 1, (200, 3))
    segmentation = rng.choice([0, 1, 2], 200)

    def __len__(self):
        return 200

q = np.random.default_rng(15).uniform(-0.3, 0.3, (2 * QUERY_CHUNK + 17, 3))
for train in (train_occupancy, train_segmentation, train_color):
    model = train(Cloud(), TrainConfig(epochs=2, hidden_size=256))
    feat = model.encoding.encode(model.normalize(q)).astype(np.float32)
    h = feat @ model.W1 + model.b1
    one_pass = np.maximum(h, 0.0) @ model.W2 + model.b2
    assert np.array_equal(model.forward(q), one_pass), model.head
    print(model.head)
"""

def _reference_step(params, feat, y, head):
    """One training step with fresh temporaries and ``dz2 @ W2.T``."""
    W1, b1, W2, b2 = params
    z1 = feat @ W1 + b1
    a = np.maximum(z1, 0.0)
    z2 = a @ W2 + b2
    loss, dz2 = _loss_and_dz(head, z2, y)
    dz1 = (dz2 @ W2.T) * (z1 > 0)
    return loss, (feat.T @ dz1, dz1.sum(axis=0), a.T @ dz2, dz2.sum(axis=0))


def _reference_train(head, cloud, cfg):
    """The training loop written plainly: every epoch (re)builds and encodes
    the whole training set, occupancy's positives and fresh negatives
    stacked, and steps with ``_reference_step``. Parameters, features and
    float targets are float32; the features are the per-frequency libm
    encoding (``_libm_encode``) in float64, then rounded."""
    pts = cloud.points
    if head == "occupancy":
        center, half = _norm_box(pts, inflation=BOUNDS_INFLATION)
        lo, hi = center - half, center + half
        n_neg = max(int(len(pts) * cfg.negatives_per_positive), 1)
        box, out_dim = np.vstack([pts, lo, hi]), 1
    elif head == "segmentation":
        classes = np.unique(cloud.segmentation)
        y = np.searchsorted(classes, cloud.segmentation)
        box, out_dim = pts, len(classes)
    else:
        y, box, out_dim = cloud.colors.astype(np.float32), pts, 3
    rng = np.random.default_rng(cfg.seed)
    enc = PositionalEncoding()
    center, half = _norm_box(box, inflation=0.05)
    params = [p.astype(np.float32) for p in
              _init_params(rng, enc.output_dim, cfg.hidden_size, out_dim)]
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    for _ in range(cfg.epochs):
        if head == "occupancy":
            x = np.vstack([pts, rng.uniform(lo, hi, size=(n_neg, 3))])
            y = np.concatenate([np.ones(len(pts)), np.zeros(n_neg)])
            y = y.astype(np.float32)
        else:
            x = pts
        feat = _libm_encode((x - center) / half).astype(np.float32)
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
    points once and doubles the encoding's angles by recurrence; it must
    give the plain loop's iterates, on per-frequency libm features, bit for
    bit."""

    # 600 points in batches of BATCH_SIZE = 512 leave a short last batch;
    # occupancy's 1200 (positives and negatives) too.
    CFG = TrainConfig(epochs=4, hidden_size=24, seed=3)

    @pytest.fixture(scope="class")
    def cloud(self):
        assert 600 % BATCH_SIZE and 1200 % BATCH_SIZE
        rng = np.random.default_rng(21)
        pts = _box_surface(rng, 600)
        return _Cloud(pts, colors=rng.uniform(0, 1, (600, 3)),
                      segmentation=rng.choice([2, 5, 9], 600))

    @pytest.mark.parametrize("head, train", [
        ("occupancy", train_occupancy),
        ("segmentation", train_segmentation),
        ("color", train_color),
    ])
    def test_weights_and_losses_bit_identical(self, cloud, head, train):
        model = train(cloud, self.CFG)
        params, initial, final = _reference_train(head, cloud, self.CFG)
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
    def test_float32_gradients_match_float64(self, head, out_dim):
        feat, params, y = _step_inputs(head, out_dim, np.float64, rows=200,
                                       hidden=64, frequencies=6)
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
    y = {"occupancy": rng.integers(0, 2, rows).astype(dtype),
         "segmentation": rng.integers(0, 3, rows),
         "color": rng.uniform(0, 1, (rows, 3)).astype(dtype)}[head]
    return feat.astype(dtype), [p.astype(dtype) for p in params], y


def _check_buffered_step(head, out_dim, poison, dtype):
    """The buffered step gives the plain step's loss and gradients bit for
    bit, in ``dtype``."""
    feat, params, y = _step_inputs(head, out_dim, dtype)
    if poison:
        # inf meets the ReLU mask's zeros: NaN must come out, as it
        # does from the plain multiply.
        params[2][3] = np.inf
    with np.errstate(invalid="ignore"):
        want = _reference_step(params, feat, y, head)
        plain = _forward_backward(params, feat, y, head)
        # A buffer with spare rows and stale contents.
        buf = np.full((50, 16), np.nan, dtype)
        buffered = _forward_backward(params, feat, y, head, buf)
    for got in (plain, buffered):
        assert repr(got[0]) == repr(want[0])
        for g, w in zip(got[1], want[1]):
            assert g.dtype == dtype
            assert np.array_equal(g, w, equal_nan=True)
    if poison:
        assert np.isnan(want[1][0]).any()


class TestFloat32Training:
    @pytest.mark.parametrize("train", [train_occupancy, train_segmentation,
                                       train_color])
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
        {"learning_rate": "0.1"}, {"negatives_per_positive": -3.0},
        {"negatives_per_positive": 0.0},
        {"negatives_per_positive": float("inf")},
    ])
    def test_bad_config_rejected(self, change):
        pts = _box_surface(np.random.default_rng(0), 50)
        with pytest.raises(InputError):
            train_occupancy(_Cloud(pts), TrainConfig(**change))

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
