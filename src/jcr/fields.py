"""Implicit scene fields: occupancy, segmentation, and color.

A small fully connected network (one hidden ReLU layer) over sinusoidally
encoded, box-normalized 3D coordinates. The encoding takes one sine and one
cosine per coordinate and doubles the angle by recurrence for each further
frequency; within MAX_FREQUENCIES its float64 error stays near 2^L machine
epsilons (``PositionalEncoding.encode``); it is formed coordinate-major,
one contiguous row per feature, and transposed once into the features.
The features end in a column of ones and W1 carries b1 as one more row, so
the first layer is the one product ``feat @ [W1; b1]``, in the fits and in
query alike. The training rows, occupancy's negatives among them, are
encoded once per call, and rounded once to float32.

Every head is fitted, not descended: a hidden layer sampled from pairs of
training rows whose targets differ (``_sampled_layer``), and a readout
solved by Newton's method on a ridge-penalized loss (``_readout``): one
step for color's squared error, which is the ridge solution; iterated for
occupancy's binary cross-entropy and for segmentation's, one-vs-rest, a
column per class. Occupancy samples a larger pool of units and keeps those
that best fit its readout's residuals, in rounds (forward selection). A
model keeps and saves its float32 weights, so a saved model queries bit
for bit like the fitted one. ``gradient_check`` measures, from loss values
alone, how far a fitted readout is from stationary.
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
# Occupancy samples POOL * hidden_size candidate units and keeps
# hidden_size of them, chosen in ROUNDS rounds; the readout of a round
# before the last takes ROUND_PASSES Newton passes (see train_occupancy).
POOL = 3
ROUNDS = 4
ROUND_PASSES = 3
# Most passes over the rows of a Newton fit run to convergence (_readout).
MAX_NEWTON_PASSES = 50
# A readout's ridge, relative to tr(AᵀA) / (units + 1) for its activations
# A with a column of ones: for the logistic losses and for squared error.
RIDGE_LOGISTIC = 1e-4
RIDGE_SQUARED = 1e-6
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

    ``seed`` and ``hidden_size`` apply to every head, and
    ``negatives_per_positive`` to occupancy alone. Every head is fitted by
    a solve, so ``learning_rate`` and ``epochs`` apply to none; they are
    still checked and recorded, so that existing configs stay valid.
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


def _loss(head, z, y):
    """Mean loss of the pre-activation outputs ``z`` against the target
    matrix ``y``, a row per row of ``z``: binary cross-entropy on a 0/1
    column (occupancy), cross-entropy of the softmax on one-hot rows
    (segmentation), or squared L2 per row on RGB (color)."""
    if head == HEAD_OCCUPANCY:
        p, t = _sigmoid(z[:, 0]), y[:, 0]
        loss = -np.mean(t * np.log(p + 1e-12) + (1 - t) * np.log(1 - p + 1e-12))
    elif head == HEAD_SEGMENTATION:
        loss = -np.mean(np.sum(y * np.log(_softmax(z) + 1e-12), axis=1))
    else:
        loss = np.mean(((z - y) ** 2).sum(axis=1))
    return float(loss)


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
    units is sampled from positive-negative pairs, taken in proportion to
    1 / their distance in encoding space (``_sampled_layer``). hidden_size
    of them are kept, in ROUNDS rounds of about equal size (forward
    selection): each round adds the candidates whose activations a_u best
    match the residuals r = p - y of the readout so far, by
    ``|a_u . r| / |a_u|`` (``_unit_scores``),
    and solves the readout again from the one before, its new weights 0:
    ROUND_PASSES Newton passes in a round before the last, since its
    readout only serves the next round's choice, and to convergence in the
    last. The first round starts from a zero readout. The readout W2, b2
    minimizes the summed binary cross-entropy plus the ridge
    ``1e-4 tr(AᵀA) / (units + 1)`` for the activations A with a column of
    ones, by Newton's method (``_readout``). Choosing among more
    candidates than it keeps lets a narrow layer fit a thin surface, which
    the first hidden_size sampled units do not.

    ``final_loss`` is the mean binary cross-entropy (``_loss``) of the
    returned float32 weights on the training rows, positives and
    negatives, as ``query`` evaluates them; ``initial_loss`` is that of
    W2 = 0 and b2 = 0, ln 2.
    """
    return _fit_occupancy(cloud, cfg)[0]


def _fit_occupancy(cloud, cfg):
    """``train_occupancy``, returning what ``_fitted_model`` returns."""
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
    """Multi-class field over per-point integer labels.

    The sorted distinct labels become ``class_values``, and each label a
    one-hot target row. Fitted like the last round of ``train_occupancy``,
    without selection (``cfg.epochs`` and ``cfg.learning_rate`` do not
    apply): units sampled from pairs of rows whose labels differ
    (``_sampled_layer``), and a readout of K one-vs-rest logistic
    regressions on their activations, one per class, with the ridge
    ``1e-4 tr(AᵀA) / (hidden_size + 1)``, solved together by Newton's
    method (``_readout``). ``query`` returns the softmax of the K outputs.

    ``final_loss`` is the mean cross-entropy (``_loss``) of that softmax
    on the training rows; ``initial_loss`` is that of a zero readout, ln K.
    """
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
    onehot = np.eye(len(classes))[np.searchsorted(classes, labels)]
    return _fit_sampled(HEAD_SEGMENTATION, pts, onehot, cfg,
                        num_classes=len(classes), class_values=classes)[0]


def _sampled_layer(rng, feat, targets, Wb):
    """``Wb`` (float64, W1 over b1) with its first units sampled from the
    rows of ``feat`` (Bolager et al., "Sampling weights of deep neural
    networks", NeurIPS 2023), rounded to float32. 10 * units random pairs
    (i, j) of rows are weighted by ``|t_j - t_i| / |f_j - f_i|``, their
    change in ``targets`` over their distance in encoding space (0 where
    the features coincide), and up to one pair per unit, of positive
    weight, is taken without replacement, in proportion to weight. Each
    taken pair becomes one unit whose hyperplane bisects it, ``w = 2 (f_j
    - f_i) / |f_j - f_i|^2`` and ``b = -w . (f_i + f_j) / 2``: it reads 0
    at the midpoint and 1 at f_j. The other units keep their weights."""
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
    """The readout w = [W2; b2] (float64, a column per column of ``y``)
    over A = [relu(feat @ Wb), 1], by Newton's method from ``w`` (zero when
    None) on the summed loss plus ``ridge / 2 |w|^2``, with ``ridge = rel
    tr(AᵀA) / (units + 1)``. ``passes`` caps the passes over the rows
    without a warning.

    Least squares (color, ``logistic`` False): the loss ``|A w - y|^2 / 2``
    is quadratic, with one Hessian for every column, so one Newton step
    from zero is the ridge solution, with rel RIDGE_SQUARED; its products
    are float64, since float32's rounding of AᵀA would outweigh so small a
    ridge. Logistic (occupancy and segmentation, y 0 or 1): the binary
    cross-entropy of each column, summed over the columns, with rel
    RIDGE_LOGISTIC and float32 products; each column has its own Hessian,
    and one batched solve steps them all. A step that raises the penalized
    loss by more than 1e-6 of its value is halved; the fit stops when a
    step lowers it by less than that, or, with a warning, after
    MAX_NEWTON_PASSES passes.

    Each pass forms the activations of QUERY_CHUNK rows at a time, once,
    and sums the loss, the gradient ``Aᵀ r`` and the Hessians ``Aᵀ S A``
    (r and S the rows' residuals and curvatures) over them in float64, so
    no array holds a row per point and a column per unit; it solves in
    float64.
    """
    hidden, cols = Wb.shape[1], y.shape[1]
    dtype, rel = ((np.float32, RIDGE_LOGISTIC) if logistic
                  else (np.float64, RIDGE_SQUARED))
    # One more unit reads the constant feature with weight 1: relu(1) is
    # the column of ones.
    Wb1 = np.zeros((len(Wb), hidden + 1), dtype)
    Wb1[:, :hidden], Wb1[-1, hidden] = Wb, 1.0
    act = np.empty((min(len(feat), QUERY_CHUNK), hidden + 1), dtype)
    # A logistic column's rows of S^(1/2) A, its Hessian's factor.
    scaled = np.empty_like(act) if logistic else None
    w = np.zeros((hidden + 1, cols)) if w is None else w
    diag = np.arange(hidden + 1)
    ridge, last = None, np.inf
    for _ in range(passes or MAX_NEWTON_PASSES):
        loss, grad, sq = 0.0, np.zeros_like(w), 0.0
        hess = np.zeros((cols if logistic else 1, hidden + 1, hidden + 1))
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
            if logistic:
                curv = np.sqrt(p * (1.0 - p)).astype(dtype)
                for k in range(cols):
                    sa = np.multiply(a, curv[:, k : k + 1], out=scaled[: len(a)])
                    hess[k] += sa.T @ sa
            else:
                hess[0] += a.T @ a
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
        hess[:, diag, diag] += ridge
        rhs = grad + ridge * w
        if logistic:  # column k steps by hess[k]^-1 rhs[:, k]
            step = np.linalg.solve(hess, rhs.T[:, :, None])[:, :, 0].T
        else:
            step = np.linalg.solve(hess[0], rhs)
        w = w - step
        if not logistic:
            break
    else:
        if passes is None:
            log.warning("readout stopped after %d Newton passes, penalized "
                        "loss %.6g", MAX_NEWTON_PASSES, loss)
    return w


def _fitted_model(head, enc, feat, y, Wb, readout, center, half, cfg,
                  **labels):
    """The model of a fitted head, with the loss of a zero readout and that
    of its float32 weights on the training rows, as ``query`` evaluates
    them; ``labels`` are segmentation's ``num_classes`` and
    ``class_values``. Returns the model, ``feat`` and ``y``."""
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
        **labels,
    )
    y32 = y.astype(np.float32)
    model.initial_loss = _loss(head, np.zeros_like(y32), y32)
    z = model._outputs(len(feat), lambda lo, hi: feat[lo:hi])
    model.final_loss = _loss(head, z, y32)
    log.info("fitted %s head: loss %.4g -> %.4g", head, model.initial_loss,
             model.final_loss)
    return model, feat, y


def train_color(cloud, cfg: TrainConfig | None = None) -> FieldModel:
    """RGB regression field; colors must lie in [0, 1].

    Fitted in closed form: ``cfg.seed`` and ``cfg.hidden_size`` apply,
    ``cfg.epochs`` and ``cfg.learning_rate`` do not. The hidden layer is
    sampled from pairs of rows whose colors differ (``_sampled_layer``);
    the units left over keep ``_init_params``' He-normal weights and a
    zero bias, and with constant colors or coincident points that is all
    of them. The readout W2, b2 is the ridge solution over the activations
    with a column of ones, with the fixed ridge ``1e-6 tr(G) /
    (hidden_size + 1)`` for their Gram matrix G (``_readout``). The
    weights are stored as float32.

    ``final_loss`` is the mean squared error (``_loss``) of the returned
    float32 weights on the training rows, as ``query`` evaluates them;
    ``initial_loss`` is the same loss with W2 = 0 and b2 = 0.
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
    return _fit_sampled(HEAD_COLOR, pts, colors, cfg)[0]


def _fit_sampled(head, pts, y, cfg, **labels):
    """Color's or segmentation's fit of the rows ``pts`` to the targets
    ``y``, returning what ``_fitted_model`` returns."""
    rng = np.random.default_rng(cfg.seed)
    enc = PositionalEncoding()
    center, half = _norm_box(pts, inflation=0.05)
    W1, b1, _, _ = _init_params(rng, enc.output_dim, cfg.hidden_size, y.shape[1])
    feat = _features(enc, center, half, pts)
    Wb = _sampled_layer(rng, feat, y, np.vstack([W1, b1]))
    return _fitted_model(head, enc, feat, y, Wb,
                         _readout(feat, Wb, y, head != HEAD_COLOR), center,
                         half, cfg, **labels)


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
    """The norm of the gradient of ``head``'s penalized readout loss (the
    one ``_readout`` minimizes) at the fitted float32 readout, over its
    norm at a zero readout: near 0 when the fit found the stationary point.

    The head is fitted at hidden size 16 on 40 random points, with random
    colors or labels in 0..2. The loss is evaluated in float64 on the
    float32 features of the rows fitted, and its gradient in [W2; b2] is
    taken by central finite differences of loss values alone.
    """
    n, fd_step = 40, 1e-6
    rng = np.random.default_rng(seed)
    pts, cfg = rng.uniform(-1, 1, (n, 3)), TrainConfig(hidden_size=16, seed=seed)
    if head == HEAD_OCCUPANCY:
        model, feat, y = _fit_occupancy(pts, cfg)
    elif head in (HEAD_SEGMENTATION, HEAD_COLOR):
        y = (np.eye(3)[rng.integers(0, 3, n)] if head == HEAD_SEGMENTATION
             else rng.uniform(0, 1, (n, 3)))
        model, feat, y = _fit_sampled(head, pts, y, cfg)
    else:
        raise InputError(f"unknown head {head!r}")
    act = np.maximum(feat.astype(float) @ np.vstack([model.W1, model.b1]), 0.0)
    act = np.hstack([act, np.ones((len(act), 1))])
    logistic = head != HEAD_COLOR
    ridge = ((RIDGE_LOGISTIC if logistic else RIDGE_SQUARED)
             * np.sum(act**2) / act.shape[1])

    def loss(w):
        z = act @ w
        fit = (np.sum(np.logaddexp(0.0, z) - y * z) if logistic
               else np.sum((z - y) ** 2) / 2.0)
        return fit + ridge / 2.0 * np.sum(w**2)

    w = np.vstack([model.W2, model.b2]).astype(float)
    steps = fd_step * np.eye(w.size).reshape((-1,) + w.shape)
    # The differences over 2 fd_step; the divisor cancels in the ratio.
    norm = [np.linalg.norm([loss(v + e) - loss(v - e) for e in steps])
            for v in (w, np.zeros_like(w))]
    return float(norm[0] / norm[1])
