"""Implicit scene fields: occupancy, segmentation, and color.

A small fully connected network (one hidden ReLU layer) over sinusoidally
encoded, box-normalized 3D coordinates. The encoding takes one sine and one
cosine per coordinate and doubles the angle by recurrence for each further
frequency; within MAX_FREQUENCIES its float64 error stays near 2^L machine
epsilons (``PositionalEncoding.encode``); it is formed coordinate-major,
one contiguous row per feature, and transposed once into the features.
The features end in a column of ones and W1 carries b1 as one more row, so
the first layer is the one product ``feat @ [W1; b1]``, in training, query
and the fits alike. The training rows, occupancy's negatives among them,
are encoded once per call, and rounded once to float32.

Occupancy and color are fitted, not descended (``train_occupancy``,
``train_color``): a hidden layer sampled from pairs of training rows whose
targets differ, and a readout solved by Newton's method on a ridge-penalized
loss (``_readout``): one step for color's squared error, which is the ridge
solution, and iterated for occupancy's binary cross-entropy. Occupancy
samples a larger pool of units and keeps the ones that best fit the
residuals of its readout, in rounds (forward selection). Segmentation
trains by deterministic mini-batch gradient descent with momentum, in
float32: the weights and the features. It steps through
``_forward_backward`` on its features and class indices, from which
``_loss_and_dz`` forms the gradient in place. The weights are views of one
flat vector, and so are their gradients, so the momentum step is one update
of that vector. Only the first and the last epoch evaluate the loss, the
two that ``initial_loss`` and ``final_loss`` report. A model keeps and
saves its float32 weights, so a saved model queries bit for bit like the
trained one. The backward pass is written out by hand, follows its inputs'
dtype, and is validated in float64 against finite differences
(``gradient_check``), for all three losses.
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
from .io import is_int, is_real

log = logging.getLogger(__name__)

HEAD_OCCUPANCY = "occupancy"      # sigmoid scalar
HEAD_SEGMENTATION = "segmentation"  # softmax over K classes
HEAD_COLOR = "color"              # linear 3-vector
# Rows per pass of FieldModel.forward, which bounds a query's memory: a
# pass's hidden block holds at most this many rows, near the size of a
# core's L2 cache at 2048.
QUERY_CHUNK = 2048
# Samples per training step, and the momentum of segmentation's descent.
BATCH_SIZE = 512
MOMENTUM = 0.9
# Occupancy samples POOL * hidden_size candidate units and keeps
# hidden_size of them, chosen in ROUNDS rounds; the readout of a round
# before the last takes ROUND_PASSES Newton passes (see train_occupancy).
POOL = 3
ROUNDS = 4
ROUND_PASSES = 3
# Most passes over the rows of a Newton fit run to convergence (_readout).
MAX_NEWTON_PASSES = 50
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

        The features are formed coordinate-major, one contiguous row of N
        values per feature, so every ufunc runs over whole rows; one
        transposing copy into ``out`` rounds them. Each value goes through
        the same float64 operations as in the row-major form, so it has the
        same bits.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, L = len(x), self.num_frequencies
        if out is None:
            out = np.empty((n, self.output_dim))
        buf = np.empty((self.output_dim, n))
        if self.include_raw:
            buf[:3] = x.T
        # trig[k, 0] and trig[k, 1]: the (3, N) sines and cosines at 2^k pi.
        trig = buf[3 * self.include_raw :].reshape(L, 2, 3, n)
        diff = np.empty((3, n))
        if L:
            s, c = trig[0]
            np.multiply(np.pi, x.T, out=s)
            np.cos(s, out=c)
            np.sin(s, out=s)
        for k in range(1, L):  # double the angle
            s, c = trig[k - 1]
            s2, c2 = trig[k]
            np.subtract(c, s, out=diff)
            np.multiply(s, c, out=s2)
            s2 += s2
            np.add(c, s, out=c2)
            c2 *= diff
        out[...] = buf.T
        return out


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when made: a bad value (a bool among
    them) raises InputError.

    ``seed`` and ``hidden_size`` apply to every head. ``learning_rate`` and
    ``epochs`` apply to segmentation alone, the one head trained by
    gradient descent; occupancy and color are fitted by a solve.
    ``negatives_per_positive`` applies to occupancy alone.
    """

    learning_rate: float = 1e-2
    epochs: int = 200
    seed: int = 0
    hidden_size: int = 256
    # Occupancy-only: free-space negatives drawn per positive point.
    negatives_per_positive: float = 1.0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("hidden_size", 1), ("seed", 0)):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < low:
                raise InputError(
                    f"TrainConfig.{name} must be an integer >= {low}, got {v!r}")
        for name in ("learning_rate", "negatives_per_positive"):
            v = getattr(self, name)
            if (not isinstance(v, (int, float, np.number)) or isinstance(v, bool)
                    or not 0 < v < np.inf):
                raise InputError(
                    f"TrainConfig.{name} must be a finite positive number, got {v!r}")


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

        Rows are evaluated QUERY_CHUNK at a time, so a grid query holds a
        hidden-layer array of at most QUERY_CHUNK rows. Each chunk's
        features are rounded to float32, as in training, and end in a
        column of ones, so the one product with b1 stacked under W1 adds
        the bias.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.encoding.output_dim
        feat = np.empty((min(len(points), QUERY_CHUNK), d + 1), np.float32)
        feat[:, d] = 1.0

        def features(lo, hi):
            f = feat[: hi - lo]
            self.encoding.encode(self.normalize(points[lo:hi]), out=f[:, :d])
            return f

        return self._outputs(len(points), features)

    def _outputs(self, n, features):
        """Raw head output for ``n`` rows whose float32 features, with the
        column of ones, ``features(lo, hi)`` returns for rows lo to hi,
        QUERY_CHUNK rows at a time."""
        Wb = np.vstack([self.W1, self.b1])
        out = np.empty((n, self.W2.shape[1]), self.W2.dtype)
        hidden = np.empty((min(n, QUERY_CHUNK), Wb.shape[1]),
                          np.result_type(np.float32, Wb))
        for lo in range(0, n, QUERY_CHUNK):
            hi = min(lo + QUERY_CHUNK, n)
            h = np.matmul(features(lo, hi), Wb, out=hidden[: hi - lo])
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
        ``InputError``, as does a num_classes that is not an integer or a
        loss that is not a number (NaN is one)."""
        def unblob(s, shape):
            a = np.frombuffer(base64.b64decode(s), dtype=np.float32)
            return a.reshape(shape).copy()

        try:
            if not (is_int(d["num_classes"]) and is_real(d["final_loss"])
                    and is_real(d["initial_loss"])):
                raise InputError("num_classes must be an integer, losses numbers")
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
    """The logistic function without branches or overflow: with
    e = exp(-|z|), 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(z))
    den = 1.0 + e
    np.copyto(e, 1.0, where=z >= 0)
    return np.divide(e, den, out=e)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_dz(head, z, y, with_loss=True):
    """Mean loss and its gradient w.r.t. the pre-activation output.

    For segmentation, ``y`` holds class indices; the gradient
    ``(p - I[y]) / n``, I the identity, is formed in place by subtracting 1
    at each row's class, which gives the bits of subtracting one-hot rows
    (x - 0 is x). With ``with_loss`` False the loss is not evaluated and is
    returned as None; the gradient is the same.
    """
    n = len(z)
    loss = None
    if head == HEAD_OCCUPANCY:
        p = _sigmoid(z[:, 0])
        yv = y.reshape(-1)
        eps = 1e-12
        if with_loss:
            loss = -np.mean(yv * np.log(p + eps) + (1 - yv) * np.log(1 - p + eps))
        dz = ((p - yv) / n)[:, None]
    elif head == HEAD_SEGMENTATION:
        dz = _softmax(z)
        rows, idx = np.arange(n), y.astype(int).reshape(-1)
        if with_loss:
            loss = -np.mean(np.log(dz[rows, idx] + 1e-12))
        dz[rows, idx] -= 1.0
        dz /= n
    elif head == HEAD_COLOR:
        # Squared L2 per sample, averaged over the rows. train_color reads
        # only the loss; the gradient serves gradient_check.
        diff = z - y
        if with_loss:
            loss = np.mean((diff**2).sum(axis=1))
        dz = 2.0 * diff / n
    else:
        raise InputError(f"unknown head {head!r}")
    return None if loss is None else float(loss), dz


def _forward_backward(params, feat, y, head, hidden=None, grads=None,
                      with_loss=True):
    """Batch loss and gradients of ``params = [Wb, W2, b2]``, for ``Wb`` =
    W1 with b1 stacked under it as one more row, the weight of ``feat``'s
    last column, which holds ones. The first layer is ``feat @ Wb``.

    The gradient of ``Wb`` is ``feat[:, :-1].T @ dz1`` over
    ``dz1.sum(axis=0)``: the bias row taken from the product ``feat.T @ dz1``
    would sum the rows in BLAS's blocked order, with other bits.

    ``hidden`` is an optional scratch buffer of at least ``len(feat)`` rows
    and one column per hidden unit. It holds the hidden layer's
    pre-activation, then its activation, then its gradient, so a training
    step allocates no batch-by-hidden temporaries besides the ReLU mask.
    ``with_loss`` is passed on to ``_loss_and_dz``. The gradients are
    written into ``grads``, arrays shaped like ``params``, or into new ones
    when it is None.
    """
    Wb, W2, b2 = params
    if grads is None:
        grads = [np.empty_like(p) for p in params]
    dWb, dW2, db2 = grads
    h = np.matmul(feat, Wb, out=None if hidden is None else hidden[: len(feat)])
    mask = h > 0
    np.maximum(h, 0.0, out=h)
    z2 = h @ W2 + b2
    loss, dz2 = _loss_and_dz(head, z2, y, with_loss)
    np.matmul(h.T, dz2, out=dW2)
    np.sum(dz2, axis=0, out=db2)
    # da = dz2 @ W2.T, written over the activation. With one output column
    # that is an outer product: einsum forms each element with the same
    # single multiplication as the k=1 matmul, at a fraction of its cost.
    if W2.shape[1] == 1:
        np.einsum("i,j->ij", dz2[:, 0], W2[:, 0], out=h)
    else:
        np.matmul(dz2, W2.T, out=h)
    # A multiply, not a masked store, so that NaN and inf propagate.
    h *= mask
    np.matmul(feat[:, :-1].T, h, out=dWb[:-1])
    np.sum(h, axis=0, out=dWb[-1])
    return loss, grads


def _init_params(rng, in_dim, hidden, out_dim):
    W1 = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, hidden))
    b1 = np.zeros(hidden)
    W2 = rng.normal(0.0, np.sqrt(1.0 / hidden), size=(hidden, out_dim))
    b2 = np.zeros(out_dim)
    return [W1, b1, W2, b2]


def _views(flat, like):
    """Consecutive views of the vector ``flat`` shaped like the arrays
    ``like``."""
    ends = np.cumsum([a.size for a in like])
    return [flat[end - a.size : end].reshape(a.shape) for a, end in zip(like, ends)]


def _norm_box(points, inflation=0.0):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0 * (1.0 + inflation)
    half = np.maximum(half, 1e-6)
    return center, half


def _features(enc, center, half, *parts):
    """The float32 features of the rows of ``parts``, stacked, each part
    encoded in one call, with a last column of ones."""
    d = enc.output_dim
    feat = np.empty((sum(map(len, parts)), d + 1), np.float32)
    feat[:, d] = 1.0
    lo = 0
    for x in parts:
        enc.encode((x - center) / half, out=feat[lo : lo + len(x), :d])
        lo += len(x)
    return feat


def _train(points, y, num_classes, cfg: TrainConfig):
    """Segmentation's descent, in float32; ``y`` holds class indices."""
    rng = np.random.default_rng(cfg.seed)
    enc = PositionalEncoding()
    center, half = _norm_box(points, inflation=0.05)
    f32 = np.float32
    W1, b1, W2, b2 = _init_params(rng, enc.output_dim, cfg.hidden_size,
                                  num_classes)
    # b1 is the weight of a constant feature (see _forward_backward). The
    # parameters are views of one flat vector, and so are their gradients,
    # so the momentum step runs over one vector.
    init = [np.vstack([W1, b1]), W2, b2]
    flat = np.concatenate([p.astype(f32).reshape(-1) for p in init])
    grad = np.empty_like(flat)
    params, grads = _views(flat, init), _views(grad, init)
    velocity = np.zeros_like(flat)
    scaled = np.empty_like(flat)  # learning_rate * gradient
    # A NumPy scalar learning rate would promote every step to float64.
    momentum, learning_rate = f32(MOMENTUM), f32(cfg.learning_rate)

    # The rows never change, so they are encoded once.
    feat = _features(enc, center, half, points)
    n = len(feat)
    # Each epoch gathers its permutation of the rows once; batches are
    # slices of the gathered rows.
    gathered = [np.empty_like(t) for t in (feat, y)]
    hidden = np.empty((min(BATCH_SIZE, n), cfg.hidden_size), f32)
    # Only the first and the last epoch's mean losses are read, so only
    # those epochs evaluate the loss.
    losses = []
    starts = range(0, n, BATCH_SIZE)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for t, g in zip((feat, y), gathered):
            np.take(t, order, axis=0, out=g, mode="clip")
        with_loss = epoch in (0, cfg.epochs - 1)
        epoch_loss = 0.0
        for s in starts:
            feat_b, y_b = (g[s : s + BATCH_SIZE] for g in gathered)
            loss, _ = _forward_backward(params, feat_b, y_b, HEAD_SEGMENTATION,
                                        hidden, grads, with_loss)
            if with_loss:
                epoch_loss += loss
            velocity *= momentum
            velocity -= np.multiply(learning_rate, grad, out=scaled)
            flat += velocity
        if with_loss:
            losses.append(epoch_loss / len(starts))
    initial_loss, loss = losses[0], losses[-1]
    log.info("trained segmentation head: loss %.4g -> %.4g", initial_loss, loss)
    return FieldModel(
        head=HEAD_SEGMENTATION,
        encoding=enc,
        W1=params[0][:-1].copy(),
        b1=params[0][-1].copy(),
        W2=params[1].copy(),
        b2=params[2].copy(),
        norm_center=center,
        norm_half=half,
        num_classes=num_classes,
        final_loss=loss,
        initial_loss=initial_loss,
        train_config=cfg,
    )


def _training_inputs(cloud, cfg):
    """The cloud's points as a finite (N, 3) array, and the config (default
    when None)."""
    pts = np.asarray(cloud.points if hasattr(cloud, "points") else cloud, dtype=float)
    if pts.size == 0:
        raise EmptyCloud("no points to train on")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InputError(f"points must be (N, 3), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InputError("points must be finite")
    return pts, cfg or TrainConfig()


def train_occupancy(cloud, cfg: TrainConfig | None = None) -> FieldModel:
    """Occupancy classifier: cloud points vs uniform free-space negatives.

    ``max(1, int(N * cfg.negatives_per_positive))`` negatives are drawn
    once from the cloud's bounding box, inflated by BOUNDS_INFLATION per
    axis, right after the initial weights; the coordinate normalization
    covers that box (grown by another 5%). Raises DegenerateBounds when the
    box has no extent along some axis in floating point, as for a cloud far
    from the origin.

    Fitted, not descended: ``cfg.seed``, ``cfg.hidden_size`` and
    ``cfg.negatives_per_positive`` apply, ``cfg.epochs`` and
    ``cfg.learning_rate`` do not. A pool of POOL * hidden_size candidate
    units is sampled as ``train_color`` samples its layer, from pairs of
    rows whose targets differ: positive-negative pairs, taken in proportion
    to 1 / their distance in encoding space. hidden_size of them are kept,
    in ROUNDS rounds of about equal size (forward selection): each round
    adds the candidates whose activations a_u best match the residuals r =
    p - y of the readout so far, by ``|a_u . r| / |a_u|`` (``_unit_scores``),
    and solves the readout again from the one before, its new weights 0:
    ROUND_PASSES Newton passes in a round before the last, since its
    readout only serves the next round's choice, and to convergence in the
    last. The first round starts from a zero readout. The readout W2, b2
    minimizes the summed binary cross-entropy plus the ridge
    ``1e-4 tr(AᵀA) / (units + 1)`` for the activations A with a column of
    ones, by Newton's method (``_readout``). Choosing among more
    candidates than it keeps lets a narrow layer fit a thin surface, which
    the first hidden_size sampled units do not.

    ``final_loss`` is the mean binary cross-entropy (``_loss_and_dz``) of
    the returned float32 weights on the training rows, positives and
    negatives, as ``query`` evaluates them; ``initial_loss`` is that of
    W2 = 0 and b2 = 0, ln 2.
    """
    pos, cfg = _training_inputs(cloud, cfg)
    center, half = _norm_box(pos, inflation=BOUNDS_INFLATION)
    lo, hi = center - half, center + half
    if (hi <= lo).any():
        raise DegenerateBounds(f"negative-sample box [{lo}, {hi}] is degenerate")
    n_neg = max(int(len(pos) * cfg.negatives_per_positive), 1)
    rng = np.random.default_rng(cfg.seed)
    enc = PositionalEncoding()
    center, half = _norm_box(np.vstack([pos, lo, hi]), inflation=0.05)
    W1, b1, _, _ = _init_params(rng, enc.output_dim, POOL * cfg.hidden_size, 1)
    neg = rng.uniform(lo, hi, size=(n_neg, 3))
    feat = _features(enc, center, half, pos, neg)
    y = np.concatenate([np.ones(len(pos)), np.zeros(n_neg)])[:, None]
    pool = _sampled_layer(rng, feat, y, np.vstack([W1, b1]))
    chosen, readout = np.zeros(0, int), np.zeros((1, 1))
    for k in range(1, ROUNDS + 1):
        add = k * cfg.hidden_size // ROUNDS - len(chosen)
        if add:
            score = _unit_scores(feat, pool, chosen, readout, y)
            score[chosen] = -1.0
            chosen = np.concatenate(
                [chosen, np.argsort(-score, kind="stable")[:add]])
            readout = np.vstack([readout[:-1], np.zeros((add, 1)), readout[-1:]])
            readout = _readout(feat, pool[:, chosen], y, True, readout,
                               None if k == ROUNDS else ROUND_PASSES)
    return _fitted_model(HEAD_OCCUPANCY, enc, feat, y, pool[:, chosen], readout,
                         center, half, cfg)


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
    model = _train(pts, y, len(classes), cfg)
    model.class_values = classes
    return model


def _sampled_layer(rng, feat, targets, Wb):
    """``Wb`` (float64, W1 over b1) with its first units placed on the
    bisecting hyperplanes of sampled pairs of rows, as ``train_color``
    describes, rounded to float32."""
    n, d = feat.shape[0], feat.shape[1] - 1
    hidden = Wb.shape[1]
    i, j = rng.integers(0, n, size=(2, 10 * hidden))
    fi, fj = (feat[k, :d].astype(float) for k in (i, j))
    step = fj - fi
    dist = np.linalg.norm(step, axis=1)
    change = np.linalg.norm(targets[j] - targets[i], axis=1)
    weight = np.divide(change, dist, out=np.zeros_like(dist), where=dist > 0)
    # Exponential clocks: the pairs whose clocks E / weight ring first are
    # a draw without replacement in proportion to weight; weight 0 never
    # rings.
    clock = np.divide(rng.standard_exponential(len(weight)), weight,
                      out=np.full_like(weight, np.inf), where=weight > 0)
    take = np.argsort(clock)[:hidden]
    take = take[np.isfinite(clock[take])]
    W = 2.0 * step[take] / dist[take, None] ** 2
    Wb[:d, : len(take)] = W.T
    Wb[d, : len(take)] = -np.einsum("ij,ij->i", W, fi[take] + fj[take]) / 2.0
    return Wb.astype(np.float32)


def _unit_scores(feat, pool, chosen, readout, y):
    """``|a_u . r| / |a_u|`` for every unit u of ``pool`` (float32, W over
    b), a_u its activations on the rows of ``feat`` and r = p - y the
    residuals of the occupancy readout over the ``chosen`` units and a
    column of ones; 0 for a unit that no row activates. Products are
    float32 and sums float64, over QUERY_CHUNK / POOL rows at a time, so
    the activations take no more memory than a query's hidden block."""
    w = np.zeros(pool.shape[1], np.float32)
    w[chosen] = readout[:-1, 0]
    dot, sq = np.zeros(pool.shape[1]), np.zeros(pool.shape[1])
    rows_per = max(QUERY_CHUNK // POOL, 1)
    act = np.empty((min(len(feat), rows_per), pool.shape[1]), np.float32)
    for lo in range(0, len(feat), rows_per):
        rows = slice(lo, lo + rows_per)
        a = np.matmul(feat[rows], pool, out=act[: len(feat[rows])])
        np.maximum(a, 0.0, out=a)
        r = _sigmoid((a @ w).astype(float) + readout[-1, 0]) - y[rows, 0]
        dot += a.T @ r.astype(np.float32)
        sq += np.einsum("ij,ij->j", a, a)
    return np.divide(np.abs(dot), np.sqrt(sq), out=np.zeros_like(dot),
                     where=sq > 0)


def _readout(feat, Wb, y, logistic, w=None, passes=None):
    """The readout w = [W2; b2] (float64) over A = [relu(feat @ Wb), 1], by
    Newton's method from ``w`` (zero when None) on the summed loss plus
    ``ridge / 2 |w|^2``, with ``ridge = rel tr(AᵀA) / (units + 1)``.
    ``passes`` caps the passes over the rows without a warning.

    Least squares (color, ``logistic`` False): the loss ``|A w - y|^2 / 2``
    is quadratic, so one Newton step from zero is the ridge solution, with
    rel 1e-6; its products are float64, since float32's rounding of AᵀA
    would outweigh so small a ridge. Logistic (occupancy, y 0 or 1): the
    summed binary cross-entropy, with rel 1e-4 and float32 products. A step
    that raises the penalized loss by more than 1e-6 of its value is
    halved; the fit stops when a step lowers it by less than that, or, with
    a warning, after MAX_NEWTON_PASSES passes.

    Each pass sums the loss, the gradient ``Aᵀ r`` and the Hessian
    ``Aᵀ S A`` (r and S each row's residual and curvature) in float64 over
    QUERY_CHUNK rows at a time, so no array holds a row per point and a
    column per unit, and solves in float64.
    """
    hidden = Wb.shape[1]
    dtype, rel = (np.float32, 1e-4) if logistic else (np.float64, 1e-6)
    # One more unit reads the constant feature with weight 1: relu(1) is
    # the column of ones.
    Wb1 = np.zeros((len(Wb), hidden + 1), dtype)
    Wb1[:, :hidden], Wb1[-1, hidden] = Wb, 1.0
    act = np.empty((min(len(feat), QUERY_CHUNK), hidden + 1), dtype)
    w = np.zeros((hidden + 1, y.shape[1])) if w is None else w
    ridge, last = None, np.inf
    for _ in range(passes or MAX_NEWTON_PASSES):
        loss, grad, sq = 0.0, np.zeros_like(w), 0.0
        hess = np.zeros((hidden + 1, hidden + 1))
        w_d = w.astype(dtype)
        for lo in range(0, len(feat), QUERY_CHUNK):
            rows = slice(lo, lo + QUERY_CHUNK)
            a = np.matmul(feat[rows], Wb1, out=act[: len(feat[rows])])
            np.maximum(a, 0.0, out=a)
            if ridge is None:
                sq += np.square(a).sum(dtype=float)
            z = (a @ w_d).astype(float)
            if logistic:
                p = _sigmoid(z)
                loss += np.sum(np.logaddexp(0.0, z) - y[rows] * z)
                r = p - y[rows]
            else:
                r = z - y[rows]
                loss += np.sum(r**2) / 2.0
            grad += a.T @ r.astype(dtype)
            if logistic:  # a becomes S^(1/2) a
                a *= np.sqrt(p * (1.0 - p)).astype(dtype)
            hess += a.T @ a
        if ridge is None:
            ridge = rel * sq / (hidden + 1)
        loss += ridge / 2.0 * np.sum(w**2)
        if loss - last > 1e-6 * last:  # the step overshot: take half of it
            step /= 2.0
            w += step
            continue
        if last - loss <= 1e-6 * loss:
            break
        last = loss
        hess[np.diag_indices_from(hess)] += ridge
        step = np.linalg.solve(hess, grad + ridge * w)
        w = w - step
        if not logistic:
            break
    else:
        if passes is None:
            log.warning("readout stopped after %d Newton passes, penalized "
                        "loss %.6g", MAX_NEWTON_PASSES, loss)
    return w


def _fitted_model(head, enc, feat, y, Wb, readout, center, half, cfg):
    """The model of a fitted head, with the loss of a zero readout and that
    of its float32 weights on the training rows, as ``query`` evaluates
    them."""
    readout = readout.astype(np.float32)
    model = FieldModel(
        head=head,
        encoding=enc,
        W1=Wb[:-1].copy(),
        b1=Wb[-1].copy(),
        W2=readout[:-1].copy(),
        b2=readout[-1].copy(),
        norm_center=center,
        norm_half=half,
        train_config=cfg,
    )
    y = y.astype(np.float32)
    model.initial_loss, _ = _loss_and_dz(head, np.zeros_like(y), y)
    z = model._outputs(len(feat), lambda lo, hi: feat[lo:hi])
    model.final_loss, _ = _loss_and_dz(head, z, y)
    log.info("fitted %s head: loss %.4g -> %.4g", head, model.initial_loss,
             model.final_loss)
    return model


def train_color(cloud, cfg: TrainConfig | None = None) -> FieldModel:
    """RGB regression field; colors must lie in [0, 1].

    Fitted in closed form, not by gradient descent: ``cfg.seed`` and
    ``cfg.hidden_size`` apply, ``cfg.epochs`` and ``cfg.learning_rate`` do
    not. The hidden layer is sampled from the data (Bolager et al.,
    "Sampling weights of deep neural networks", NeurIPS 2023): 10 *
    hidden_size random pairs (i, j) of training rows are weighted by
    ``|c_j - c_i| / |f_j - f_i|``, their color change over their distance
    in encoding space (0 where the features coincide), and up to
    hidden_size pairs of positive weight are taken without replacement, in
    proportion to weight. Each taken pair becomes one unit whose
    hyperplane bisects it, ``w = 2 (f_j - f_i) / |f_j - f_i|^2`` and
    ``b = -w . (f_i + f_j) / 2``: it reads 0 at the midpoint and 1 at
    f_j. The other units keep ``_init_params``' He-normal weights and a
    zero bias; with constant colors or coincident points, that is all of
    them. The readout W2, b2 is the ridge solution over the hidden
    activations of the float32 features, with a column of ones, in
    float64, with the fixed ridge ``1e-6 tr(G) / (hidden_size + 1)`` for
    the Gram matrix G; G and the right-hand side are summed QUERY_CHUNK
    rows at a time, so no array holds a row per point and a column per
    unit (``_readout``). The weights are stored as float32.

    ``final_loss`` is the mean squared error (``_loss_and_dz``) of the
    returned float32 weights on the training rows, as ``query`` evaluates
    them; ``initial_loss`` is the same loss with W2 = 0 and b2 = 0.
    """
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
    rng = np.random.default_rng(cfg.seed)
    enc = PositionalEncoding()
    center, half = _norm_box(pts, inflation=0.05)
    W1, b1, _, _ = _init_params(rng, enc.output_dim, cfg.hidden_size, 3)
    feat = _features(enc, center, half, pts)
    Wb = _sampled_layer(rng, feat, colors, np.vstack([W1, b1]))
    return _fitted_model(HEAD_COLOR, enc, feat, colors, Wb,
                         _readout(feat, Wb, colors, False), center, half, cfg)


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


def gradient_check(head, seed=0):
    """Analytic backprop vs central finite differences; max relative error."""
    hidden, n_samples, fd_step = 16, 20, 1e-5
    rng = np.random.default_rng(seed)
    enc = PositionalEncoding(num_frequencies=2)
    pts = rng.uniform(-1, 1, size=(n_samples, 3))
    # The last column of ones is the constant feature that b1 weighs.
    feat = np.hstack([enc.encode(pts), np.ones((n_samples, 1))])
    out_dim = {HEAD_OCCUPANCY: 1, HEAD_SEGMENTATION: 3, HEAD_COLOR: 3}[head]
    if head == HEAD_OCCUPANCY:
        y = rng.integers(0, 2, n_samples).astype(float)
    elif head == HEAD_SEGMENTATION:
        y = rng.integers(0, out_dim, n_samples)
    else:
        y = rng.uniform(0, 1, size=(n_samples, 3))
    W1, b1, W2, b2 = _init_params(rng, enc.output_dim, hidden, out_dim)
    # Every entry of W1 and b1 is perturbed in the block that trains them.
    params = [np.vstack([W1, b1]), W2, b2]
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
