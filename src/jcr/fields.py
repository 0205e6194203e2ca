"""Implicit scene fields: occupancy, segmentation, and color.

A small fully connected network (one hidden ReLU layer) over sinusoidally
encoded, box-normalized 3D coordinates. The encoding takes one sine and one
cosine per coordinate and doubles the angle by recurrence for each further
frequency; within MAX_FREQUENCIES its float64 error stays near 2^L machine
epsilons (``PositionalEncoding.encode``). Training is deterministic
mini-batch gradient descent with momentum, in float32: the weights, the
features (computed in float64 and rounded once) and the targets. A model
keeps and saves its float32 weights, so a saved model queries bit for bit
like the trained one. The backward pass is written out by hand, follows its
inputs' dtype, and is validated in float64 against finite differences
(``gradient_check``).
"""

from __future__ import annotations

import base64
import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBounds,
    EmptyCloud,
    InputError,
    SingleClass,
)

log = logging.getLogger(__name__)

HEAD_OCCUPANCY = "occupancy"      # sigmoid scalar
HEAD_SEGMENTATION = "segmentation"  # softmax over K classes
HEAD_COLOR = "color"              # linear 3-vector
# Rows per pass of FieldModel.forward, which bounds a query's memory.
QUERY_CHUNK = 8192
# Samples per training step, and the momentum of the descent.
BATCH_SIZE = 512
MOMENTUM = 0.9
BOUNDS_INFLATION = 0.2  # occupancy negatives: the cloud's box, 20% larger per axis
# Most frequencies an encoding may have; see PositionalEncoding.encode.
MAX_FREQUENCIES = 16


@dataclass(frozen=True)
class PositionalEncoding:
    """Per-axis (sin, cos) lifting at frequencies 2^k pi, k = 0..L-1, with
    L at most MAX_FREQUENCIES."""

    num_frequencies: int = 6
    include_raw: bool = True

    def __post_init__(self):
        nf = self.num_frequencies
        if (not isinstance(nf, (int, np.integer)) or isinstance(nf, bool)
                or not 0 <= nf <= MAX_FREQUENCIES
                or self.include_raw not in (True, False) or self.output_dim < 1):
            raise InputError(f"unusable encoding {self}")

    @property
    def output_dim(self):
        return 3 * self.include_raw + 6 * self.num_frequencies

    def encode(self, x, out=None):
        """Encode (N, 3) coordinates already normalized to [-1, 1]^3.

        The features are computed in float64. ``out``, an (N, output_dim)
        array, receives them rounded once to its dtype; without it they are
        returned in float64.

        Only frequency 0 calls ``np.sin`` and ``np.cos``, at ``a = fl(pi x)``.
        Each further frequency doubles the angle from the one before:
        ``sin 2a = 2 sin a cos a`` and ``cos 2a = (cos a - sin a)(cos a + sin a)``.
        ``2^k fl(pi x)`` equals ``fl(2^k pi x)`` exactly, so these are the
        angles of the per-frequency form; the recurrence's rounding error
        roughly doubles with each step, to about ``2^k`` machine epsilons at
        frequency k (under 6e-15 at L = 6, 9e-14 at L = 10 and 6e-12 at
        L = 16 on uniform points), which is what bounds L by
        MAX_FREQUENCIES. In float32 that is below half an ulp of all but a
        few values in a million, which then round one ulp away.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if out is None:
            out = np.empty((len(x), self.output_dim))
        col = 0
        if self.include_raw:
            out[:, :3] = x
            col = 3
        ang = np.pi * x
        s, c = np.sin(ang), np.cos(ang)
        diff, prod = np.empty_like(s), np.empty_like(s)
        for k in range(self.num_frequencies):
            if k:  # double the angle
                np.subtract(c, s, out=diff)
                np.multiply(s, c, out=prod)
                c += s
                c *= diff
                np.add(prod, prod, out=s)
            out[:, col : col + 3] = s
            out[:, col + 3 : col + 6] = c
            col += 6
        return out


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 200
    seed: int = 0
    hidden_size: int = 256
    # Occupancy-only: free-space negatives drawn per positive point.
    negatives_per_positive: float = 1.0


@dataclass
class FieldModel:
    head: str
    encoding: PositionalEncoding
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    norm_center: np.ndarray   # coordinate normalization, stored with the model
    norm_half: np.ndarray
    num_classes: int = 1
    class_values: np.ndarray | None = None  # original labels, argmax-indexed
    final_loss: float = float("nan")
    initial_loss: float = float("nan")
    train_config: TrainConfig | None = None

    def normalize(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        # Clamp to the modeled box: the sinusoidal features are periodic,
        # so far-away queries would otherwise alias back into the scene.
        # Clamped queries read the field at the nearest boundary instead.
        return np.clip((p - self.norm_center) / self.norm_half, -1.0, 1.0)

    def forward(self, points):
        """Raw head output (pre-activation) for (N, 3) coordinates.

        Rows are evaluated in chunks of QUERY_CHUNK, so a grid query holds a
        hidden-layer array of at most 2 * QUERY_CHUNK rows. The rows past
        the last whole chunk join that chunk: BLAS then multiplies only
        large blocks that start where one pass's blocks start, and gives
        one pass's result bit for bit (on one BLAS thread). Each chunk's
        features are rounded to float32, as in training.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        out = np.empty((n, self.W2.shape[1]), self.W2.dtype)
        starts = [QUERY_CHUNK * k for k in range(max(n // QUERY_CHUNK, 1))]
        buf = np.empty((min(n, 2 * QUERY_CHUNK), self.encoding.output_dim),
                       np.float32)
        for lo, hi in zip(starts, starts[1:] + [n]):
            feat = self.encoding.encode(self.normalize(points[lo:hi]),
                                        out=buf[: hi - lo])
            h = feat @ self.W1
            h += self.b1
            np.maximum(h, 0.0, out=h)
            out[lo:hi] = h @ self.W2 + self.b2
        return out

    def to_dict(self):
        def blob(a):
            return base64.b64encode(
                np.ascontiguousarray(a, dtype=np.float32).tobytes()
            ).decode("ascii")

        return {
            "head": self.head,
            "encoding": {
                "num_frequencies": self.encoding.num_frequencies,
                "include_raw": self.encoding.include_raw,
            },
            "shapes": {
                "W1": list(self.W1.shape),
                "W2": list(self.W2.shape),
            },
            "weights": {
                "W1": blob(self.W1),
                "b1": blob(self.b1),
                "W2": blob(self.W2),
                "b2": blob(self.b2),
            },
            "norm_center": self.norm_center.tolist(),
            "norm_half": self.norm_half.tolist(),
            "num_classes": self.num_classes,
            "class_values": (
                None
                if self.class_values is None
                else np.asarray(self.class_values).tolist()
            ),
            "final_loss": self.final_loss,
            "initial_loss": self.initial_loss,
            "train_config": (
                vars(self.train_config).copy() if self.train_config else None
            ),
        }

    @staticmethod
    def from_dict(d):
        """Inverse of ``to_dict``; a malformed or inconsistent dict raises
        ``InputError``."""
        def unblob(s, shape):
            a = np.frombuffer(base64.b64decode(s), dtype=np.float32)
            return a.reshape(shape).copy()

        try:
            enc = PositionalEncoding(**d["encoding"])
            w1_shape = d["shapes"]["W1"]
            w2_shape = d["shapes"]["W2"]
            cfg = d.get("train_config")
            if cfg is not None:
                # Older files also record settings that are now constants.
                names = {f.name for f in dataclasses.fields(TrainConfig)}
                cfg = TrainConfig(**{k: v for k, v in cfg.items() if k in names})
            model = FieldModel(
                head=d["head"],
                encoding=enc,
                W1=unblob(d["weights"]["W1"], w1_shape),
                b1=unblob(d["weights"]["b1"], (w1_shape[1],)),
                W2=unblob(d["weights"]["W2"], w2_shape),
                b2=unblob(d["weights"]["b2"], (w2_shape[1],)),
                norm_center=np.array(d["norm_center"], dtype=float),
                norm_half=np.array(d["norm_half"], dtype=float),
                num_classes=int(d["num_classes"]),
                class_values=(
                    None
                    if d.get("class_values") is None
                    else np.array(d["class_values"])
                ),
                final_loss=float(d["final_loss"]),
                initial_loss=float(d["initial_loss"]),
                train_config=cfg,
            )
        except (AttributeError, KeyError, IndexError, OverflowError,
                TypeError, ValueError) as exc:
            raise InputError(f"malformed field model: {exc!r}") from exc
        model._check()
        return model

    def _check(self):
        """Raise InputError unless ``query`` can evaluate this model."""
        if self.head not in (HEAD_OCCUPANCY, HEAD_SEGMENTATION, HEAD_COLOR):
            raise InputError(f"unknown head {self.head!r}")
        if self.head == HEAD_SEGMENTATION and self.num_classes < 2:
            raise InputError(f"segmentation head with {self.num_classes} classes")
        out_dim = {HEAD_OCCUPANCY: 1, HEAD_SEGMENTATION: self.num_classes,
                   HEAD_COLOR: 3}[self.head]
        hidden = len(self.b1)
        if hidden < 1:
            raise InputError("model has no hidden units")
        expect = {"W1": (self.encoding.output_dim, hidden), "b1": (hidden,),
                  "W2": (hidden, out_dim), "b2": (out_dim,)}
        for name, shape in expect.items():
            if getattr(self, name).shape != shape:
                raise InputError(f"{self.head} weights {name} have shape "
                                 f"{getattr(self, name).shape}, expected {shape}")
        if self.class_values is not None and self.class_values.shape != (out_dim,):
            raise InputError(f"class_values has shape {self.class_values.shape}, "
                             f"expected ({out_dim},)")
        c, h = self.norm_center, self.norm_half
        if (c.shape != (3,) or h.shape != (3,) or not np.isfinite([c, h]).all()
                or (h <= 0).any()):
            raise InputError("norm_center and norm_half must be finite 3-vectors, "
                             "norm_half positive")


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_dz(head, z, y):
    """Mean loss and its gradient w.r.t. the pre-activation output."""
    n = len(z)
    if head == HEAD_OCCUPANCY:
        p = _sigmoid(z[:, 0])
        yv = y.reshape(-1)
        eps = 1e-12
        loss = -np.mean(yv * np.log(p + eps) + (1 - yv) * np.log(1 - p + eps))
        dz = ((p - yv) / n)[:, None]
    elif head == HEAD_SEGMENTATION:
        p = _softmax(z)
        idx = y.astype(int).reshape(-1)
        loss = -np.mean(np.log(p[np.arange(n), idx] + 1e-12))
        dz = p.copy()
        dz[np.arange(n), idx] -= 1.0
        dz /= n
    elif head == HEAD_COLOR:
        # Squared L2 per sample, averaged over the batch. Note the MSE
        # gradients run much smaller than the classification heads', so
        # this head wants a learning rate around 0.05 rather than 1e-2.
        diff = z - y
        loss = float(np.mean((diff**2).sum(axis=1)))
        dz = 2.0 * diff / n
    else:
        raise InputError(f"unknown head {head!r}")
    return float(loss), dz


def _forward_backward(params, feat, y, head, hidden=None):
    """Batch loss and gradients.

    ``hidden`` is an optional scratch buffer of at least ``len(feat)`` rows
    and one column per hidden unit. It holds the hidden layer's
    pre-activation, then its activation, then its gradient, so a training
    step allocates no batch-by-hidden temporaries besides the ReLU mask.
    """
    W1, b1, W2, b2 = params
    h = np.matmul(feat, W1, out=None if hidden is None else hidden[: len(feat)])
    h += b1
    mask = h > 0
    np.maximum(h, 0.0, out=h)
    z2 = h @ W2 + b2
    loss, dz2 = _loss_and_dz(head, z2, y)
    dW2 = h.T @ dz2
    db2 = dz2.sum(axis=0)
    # da = dz2 @ W2.T, written over the activation. With one output column
    # that is an outer product: broadcasting forms each element with the
    # same single multiplication as the k=1 matmul, at a fraction of its cost.
    if W2.shape[1] == 1:
        np.multiply(dz2, W2[:, 0], out=h)
    else:
        np.matmul(dz2, W2.T, out=h)
    # A multiply, not a masked store, so that NaN and inf propagate.
    h *= mask
    dW1 = feat.T @ h
    db1 = h.sum(axis=0)
    return loss, (dW1, db1, dW2, db2)


def _init_params(rng, in_dim, hidden, out_dim):
    W1 = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, hidden))
    b1 = np.zeros(hidden)
    W2 = rng.normal(0.0, np.sqrt(1.0 / hidden), size=(hidden, out_dim))
    b2 = np.zeros(out_dim)
    return [W1, b1, W2, b2]


def _norm_box(points, inflation=0.0):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0 * (1.0 + inflation)
    half = np.maximum(half, 1e-6)
    return center, half


def _train(points, y, head, out_dim, cfg: TrainConfig, negatives=None):
    """Shared training loop, in float32; ``y`` holds float32 targets or
    class indices.

    ``negatives = (lo, hi, n)`` adds ``n`` samples labeled 0, drawn
    uniformly from the box ``[lo, hi]`` afresh every epoch (NCE-style); the
    coordinate normalization then covers that box too.
    """
    rng = np.random.default_rng(cfg.seed)
    enc = PositionalEncoding()
    box, n_neg = points, 0
    if negatives is not None:
        lo, hi, n_neg = negatives
        box = np.vstack([points, lo, hi])
    center, half = _norm_box(box, inflation=0.05)
    f32 = np.float32
    params = [p.astype(f32)
              for p in _init_params(rng, enc.output_dim, cfg.hidden_size, out_dim)]
    velocity = [np.zeros_like(p) for p in params]
    # A NumPy scalar learning rate would promote every step to float64.
    momentum, learning_rate = f32(MOMENTUM), f32(cfg.learning_rate)

    # The given points never change, so they are encoded once; each epoch
    # encodes only its fresh negatives, into the rows after them.
    feat = np.empty((len(points) + n_neg, enc.output_dim), f32)
    enc.encode((points - center) / half, out=feat[: len(points)])
    if negatives is not None:
        y = np.concatenate([y, np.zeros(n_neg, y.dtype)])
    hidden = np.empty((min(BATCH_SIZE, len(feat)), cfg.hidden_size), f32)
    initial_loss = None
    for epoch in range(cfg.epochs):
        if negatives is not None:
            neg = rng.uniform(lo, hi, size=(n_neg, 3))
            enc.encode((neg - center) / half, out=feat[len(points):])
        order = rng.permutation(len(feat))
        epoch_loss = 0.0
        nb = 0
        for s in range(0, len(order), BATCH_SIZE):
            idx = order[s : s + BATCH_SIZE]
            loss, grads = _forward_backward(params, feat[idx], y[idx], head, hidden)
            epoch_loss += loss
            nb += 1
            for p, v, g in zip(params, velocity, grads):
                v *= momentum
                v -= learning_rate * g
                p += v
        loss = epoch_loss / nb
        if initial_loss is None:
            initial_loss = loss
    log.info("trained %s head: loss %.4g -> %.4g", head, initial_loss, loss)
    return FieldModel(
        head=head,
        encoding=enc,
        W1=params[0],
        b1=params[1],
        W2=params[2],
        b2=params[3],
        norm_center=center,
        norm_half=half,
        num_classes=out_dim if head == HEAD_SEGMENTATION else 1,
        final_loss=loss,
        initial_loss=initial_loss,
        train_config=cfg,
    )


def _check_config(cfg):
    """Raise InputError for a TrainConfig that cannot train."""
    lows = {"epochs": 1, "hidden_size": 1, "seed": 0}
    for name, low in lows.items():
        v = getattr(cfg, name)
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < low:
            raise InputError(f"TrainConfig.{name} must be an integer >= {low}, got {v!r}")
    for name in ("learning_rate", "negatives_per_positive"):
        v = getattr(cfg, name)
        if not isinstance(v, (int, float, np.number)) or not np.isfinite(v):
            raise InputError(f"TrainConfig.{name} must be a finite number, got {v!r}")
    if cfg.negatives_per_positive <= 0:
        raise InputError("TrainConfig.negatives_per_positive must be positive")


def _training_inputs(cloud, cfg):
    """The cloud's points as a finite (N, 3) array, and a checked config."""
    cfg = cfg or TrainConfig()
    _check_config(cfg)
    pts = np.asarray(cloud.points if hasattr(cloud, "points") else cloud, dtype=float)
    if pts.size == 0:
        raise EmptyCloud("no points to train on")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InputError(f"points must be (N, 3), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InputError("points must be finite")
    return pts, cfg


def train_occupancy(cloud, cfg: TrainConfig | None = None) -> FieldModel:
    """Occupancy classifier: cloud points vs uniform free-space negatives.

    Negatives are redrawn every epoch from the cloud's bounding box,
    inflated by BOUNDS_INFLATION per axis. Raises DegenerateBounds when that
    box has no extent along some axis in floating point, as for a cloud far
    from the origin.
    """
    pos, cfg = _training_inputs(cloud, cfg)
    center, half = _norm_box(pos, inflation=BOUNDS_INFLATION)
    lo, hi = center - half, center + half
    if (hi <= lo).any():
        raise DegenerateBounds(f"negative-sample box [{lo}, {hi}] is degenerate")
    n_neg = max(int(len(pos) * cfg.negatives_per_positive), 1)
    return _train(pos, np.ones(len(pos), np.float32), HEAD_OCCUPANCY, 1, cfg,
                  (lo, hi, n_neg))


def train_segmentation(cloud, cfg: TrainConfig | None = None) -> FieldModel:
    """Multi-class field over per-point integer labels."""
    pts, cfg = _training_inputs(cloud, cfg)
    if getattr(cloud, "segmentation", None) is None:
        raise EmptyCloud("cloud carries no segmentation labels")
    labels = np.asarray(cloud.segmentation)
    integral = labels.dtype.kind in "biu" or (
        labels.dtype.kind == "f" and np.array_equal(labels, np.round(labels))
        and np.isfinite(labels).all()
    )
    if labels.shape != (len(pts),) or not integral:
        raise InputError(f"labels must be {len(pts)} integers, got "
                         f"{labels.dtype} array of shape {labels.shape}")
    labels = labels.astype(int)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise SingleClass(f"only class {classes} present; nothing to separate")
    y = np.searchsorted(classes, labels)
    model = _train(pts, y, HEAD_SEGMENTATION, len(classes), cfg)
    model.class_values = classes
    return model


def train_color(cloud, cfg: TrainConfig | None = None) -> FieldModel:
    """RGB regression field; colors must lie in [0, 1]."""
    pts, cfg = _training_inputs(cloud, cfg)
    if getattr(cloud, "colors", None) is None:
        raise EmptyCloud("cloud carries no colors")
    colors = np.asarray(cloud.colors, dtype=float)
    if colors.shape != pts.shape:
        raise InputError(f"colors must be (N, 3), got shape {colors.shape}")
    if not np.isfinite(colors).all():
        raise InputError("colors must be finite")
    if colors.min() < -1e-9 or colors.max() > 1 + 1e-9:
        raise InputError("colors must lie in [0, 1]")
    return _train(pts, colors.astype(np.float32), HEAD_COLOR, 3, cfg)


def query(model: FieldModel, points):
    """Batch evaluation: occupancy probability, class distribution, or RGB."""
    points = np.asarray(points, dtype=float)
    if points.size and (points.ndim > 2 or points.shape[-1:] != (3,)):
        raise InputError(f"query points must be (N, 3), got shape {points.shape}")
    if not np.isfinite(points).all():
        raise InputError("query points must be finite")
    if points.size == 0:
        shape = {HEAD_OCCUPANCY: (0,), HEAD_SEGMENTATION: (0, model.num_classes)}
        return np.zeros(shape.get(model.head, (0, 3)), model.W2.dtype)
    z = model.forward(points)
    if model.head == HEAD_OCCUPANCY:
        return _sigmoid(z[:, 0])
    if model.head == HEAD_SEGMENTATION:
        return _softmax(z)
    return z


def gradient_check(head, seed=0, hidden=8, n_samples=20, fd_step=1e-5):
    """Analytic backprop vs central finite differences; max relative error."""
    rng = np.random.default_rng(seed)
    enc = PositionalEncoding(num_frequencies=2)
    pts = rng.uniform(-1, 1, size=(n_samples, 3))
    feat = enc.encode(pts)
    out_dim = {HEAD_OCCUPANCY: 1, HEAD_SEGMENTATION: 3, HEAD_COLOR: 3}[head]
    if head == HEAD_OCCUPANCY:
        y = rng.integers(0, 2, n_samples).astype(float)
    elif head == HEAD_SEGMENTATION:
        y = rng.integers(0, out_dim, n_samples)
    else:
        y = rng.uniform(0, 1, size=(n_samples, 3))
    params = _init_params(rng, enc.output_dim, hidden, out_dim)
    _, grads = _forward_backward(params, feat, y, head)

    max_rel = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd_step
            lp, _ = _forward_backward(params, feat, y, head)
            flat[i] = orig - fd_step
            lm, _ = _forward_backward(params, feat, y, head)
            flat[i] = orig
            fd = (lp - lm) / (2 * fd_step)
            denom = max(abs(fd), abs(gflat[i]), 1e-6)
            max_rel = max(max_rel, abs(fd - gflat[i]) / denom)
    return max_rel
