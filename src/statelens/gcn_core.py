"""GCN kernel: two propagation layers, mean-pool readout, binary head.

Layer rule: H' = relu(S H W) with S the symmetrically normalized adjacency
(self-loops included): a dense array on small graphs and a sparse operator
on large ones, used only as S @ H. Readout is the column mean of the second
layer, followed by a linear classifier and a max-subtracted softmax over
(clean, defective). Gradients are hand-derived reverse mode through this
exact computation; everything is float64 and deterministic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SchemaViolationError, ShapeMismatchError
from .graph_pipeline import NormalizedGraph

CLASSES = ("clean", "defective")
DEFECTIVE = 1  # logit/probability index of the defective class

MODEL_MAGIC = b"SGM1"

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _param_shapes(dim: int, hidden: int) -> tuple[tuple[int, ...], ...]:
    return (dim, hidden), (hidden, hidden), (hidden, 2), (2,)


def param_count(dim: int, hidden: int) -> int:
    return dim * hidden + hidden * hidden + hidden * 2 + 2


class GcnParams:
    """Every weight in one contiguous float64 vector, `flat`, laid out as the
    model file stores it: w1 (d x h), w2 (h x h), w_out (h x 2), b_out (2,).

    `w1`, `w2`, `w_out` and `b_out` are views into `flat`, so writing through
    a view changes the vector and the optimizer can update all weights with
    whole-vector expressions.
    """

    def __init__(self, w1: np.ndarray, w2: np.ndarray, w_out: np.ndarray, b_out: np.ndarray):
        parts = (w1, w2, w_out, b_out)
        if np.ndim(w1) != 2:
            raise ShapeMismatchError(f"w1 must be 2-D, got shape {np.shape(w1)}")
        dim, hidden = np.shape(w1)
        names = ("w1", "w2", "w_out", "b_out")
        for name, arr, shape in zip(names, parts, _param_shapes(dim, hidden)):
            if np.shape(arr) != shape:
                raise ShapeMismatchError(f"{name} has shape {np.shape(arr)}, expected {shape}")
        self._bind(np.concatenate([np.ravel(arr) for arr in parts], dtype=np.float64), dim, hidden)

    @classmethod
    def from_flat(cls, flat: np.ndarray, dim: int, hidden: int) -> "GcnParams":
        """Wrap an existing vector of `param_count(dim, hidden)` floats; no copy."""
        if flat.shape != (param_count(dim, hidden),):
            raise ShapeMismatchError(
                f"flat parameters have shape {flat.shape}, dim={dim} hidden={hidden} "
                f"needs ({param_count(dim, hidden)},)"
            )
        params = cls.__new__(cls)
        params._bind(flat, dim, hidden)
        return params

    def _bind(self, flat: np.ndarray, dim: int, hidden: int) -> None:
        self.flat = flat
        self.dim = int(dim)
        self.hidden = int(hidden)
        views = []
        offset = 0
        for shape in _param_shapes(dim, hidden):
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        self.w1, self.w2, self.w_out, self.b_out = views

    def norm_sq(self) -> float:
        return float(self.flat @ self.flat)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    seed: int = 42
    hidden_width: int = 32
    l2_penalty: float = 5e-4
    optimizer: str = "adam"  # "adam" or "sgd"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class ForwardTrace:
    h0: np.ndarray
    sh0: np.ndarray  # S @ H0
    h1: np.ndarray
    sh1: np.ndarray  # S @ H1
    h2: np.ndarray
    pooled: np.ndarray
    logits: np.ndarray
    probs: np.ndarray  # softmax(logits), indexed like CLASSES
    probability: float  # P(defective)


def init_params(dim: int, hidden: int, seed: int) -> GcnParams:
    """Glorot-uniform weights, zero classifier bias."""
    rng = np.random.default_rng(seed)

    def glorot(rows: int, cols: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols))

    return GcnParams(
        w1=glorot(dim, hidden),
        w2=glorot(hidden, hidden),
        w_out=glorot(hidden, 2),
        b_out=np.zeros(2),
    )


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def _check_shapes(params: GcnParams, graph: NormalizedGraph) -> None:
    s_hat, h0 = graph.s_hat, graph.features
    if s_hat.ndim != 2 or s_hat.shape[0] != s_hat.shape[1]:
        raise ShapeMismatchError(f"s_hat must be square, got {s_hat.shape}")
    if h0.ndim != 2 or h0.shape[0] != s_hat.shape[0]:
        raise ShapeMismatchError(f"s_hat {s_hat.shape} does not match features {h0.shape}")
    if h0.shape[1] != params.dim:
        raise ShapeMismatchError(
            f"graph features have width {h0.shape[1]}, model expects {params.dim}"
        )


def _propagate(params: GcnParams, s_hat, sh0: np.ndarray):
    """The forward computation from S @ X on: (h1, S @ h1, h2, pooled,
    logits, probs). `forward` and `loss_and_grads` both run exactly this."""
    h1 = relu(sh0 @ params.w1)
    sh1 = s_hat @ h1
    h2 = relu(sh1 @ params.w2)
    pooled = np.add.reduce(h2, axis=0) / h2.shape[0]  # the column mean
    logits = pooled @ params.w_out + params.b_out
    return h1, sh1, h2, pooled, logits, softmax(logits)


def forward(params: GcnParams, graph: NormalizedGraph) -> ForwardTrace:
    """Two propagation layers relu((S @ H) @ W), then the readout."""
    _check_shapes(params, graph)
    s_hat, h0 = graph.s_hat, graph.features
    sh0 = s_hat @ h0
    h1, sh1, h2, pooled, logits, probs = _propagate(params, s_hat, sh0)
    return ForwardTrace(
        h0=h0,
        sh0=sh0,
        h1=h1,
        sh1=sh1,
        h2=h2,
        pooled=pooled,
        logits=logits,
        probs=probs,
        probability=float(probs[DEFECTIVE]),
    )


def label_index(label: str) -> int:
    try:
        return CLASSES.index(label)
    except ValueError:
        raise ValueError(f"label must be one of {CLASSES}, got {label!r}") from None


def loss_and_grads(
    params: GcnParams,
    graph: NormalizedGraph,
    label: str,
    l2_penalty: float = 0.0,
    sx: np.ndarray | None = None,
    out: GcnParams | None = None,
) -> tuple[float, GcnParams]:
    """Cross-entropy plus (l2/2)*||params||^2, with exact reverse-mode grads.

    `sx` is S @ X for this graph, computed by the caller. The embedding
    table is never trained, so a training loop can compute it once per graph
    rather than once per step; passing it changes no output bit. The
    gradients are written into `out` (every element, so a buffer reused
    across graphs carries nothing over) and `out` is returned; without it a
    fresh `GcnParams` is allocated.
    """
    _check_shapes(params, graph)
    target = label_index(label)
    s_hat = graph.s_hat
    sh0 = s_hat @ graph.features if sx is None else sx
    h1, sh1, h2, pooled, _, probs = _propagate(params, s_hat, sh0)
    loss = -float(np.log(probs[target])) + 0.5 * l2_penalty * params.norm_sq()
    if out is None:
        out = GcnParams.from_flat(np.empty_like(params.flat), params.dim, params.hidden)

    d_logits = out.b_out
    d_logits[:] = probs
    d_logits[target] -= 1.0
    np.multiply(pooled[:, None], d_logits, out=out.w_out)  # outer(pooled, d_logits)
    d_pooled = params.w_out @ d_logits

    d_z2 = (d_pooled / h2.shape[0]) * (h2 > 0)  # mean-pool spreads d_pooled over the n rows
    np.matmul(sh1.T, d_z2, out=out.w2)
    d_h1 = s_hat @ (d_z2 @ params.w2.T)  # S is symmetric, so S.T @ == S @

    d_z1 = d_h1 * (h1 > 0)
    np.matmul(sh0.T, d_z1, out=out.w1)

    if l2_penalty:
        out.flat += l2_penalty * params.flat
    return loss, out


@dataclass
class OptimizerState:
    """Step count, Adam moments and two work vectors, each laid out like
    `GcnParams.flat` and allocated on the first step, then reused."""

    step: int = 0
    m: np.ndarray | None = None  # first moment (adam)
    v: np.ndarray | None = None  # second moment (adam)
    scratch: tuple[np.ndarray, np.ndarray] | None = None


def optimizer_step(
    state: OptimizerState, params: GcnParams, grads: GcnParams, config: TrainConfig
) -> None:
    """One SGD or bias-corrected Adam update of `params.flat` and `state`,
    in place. Each element sees the operations, in the order, of
    p - lr * g (SGD) or
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p - lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps) (Adam), with
    b1, b2 and eps the ADAM_* constants."""
    lr = config.learning_rate
    p, g = params.flat, grads.flat
    if state.scratch is None:
        state.scratch = (np.empty_like(p), np.empty_like(p))
    step, denom = state.scratch
    state.step += 1
    if config.optimizer == "sgd":
        np.multiply(g, lr, out=step)
        p -= step
        return

    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    m, v, t = state.m, state.v, state.step
    m *= ADAM_BETA1
    np.multiply(g, 1 - ADAM_BETA1, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(g, 1 - ADAM_BETA2, out=step)
    step *= g
    v += step
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    p -= step


# ---------------------------------------------------------------------------
# Model container: magic "SGM1", little-endian u32 dim, hidden and
# fingerprint length, the UTF-8 vocabulary fingerprint, then GcnParams.flat
# as little-endian f64.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<III")
_HEADER_END = len(MODEL_MAGIC) + _HEADER.size


def params_to_bytes(params: GcnParams, vocab_fingerprint: str = "") -> bytes:
    fp = vocab_fingerprint.encode("utf-8")
    return b"".join(
        [
            MODEL_MAGIC,
            _HEADER.pack(params.dim, params.hidden, len(fp)),
            fp,
            params.flat.astype("<f8", copy=False).tobytes(),
        ]
    )


def params_from_bytes(blob: bytes) -> tuple[GcnParams, str]:
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise SchemaViolationError(f"bad model magic {blob[:4]!r}")
    if len(blob) < _HEADER_END:
        raise SchemaViolationError(f"model header truncated at {len(blob)} bytes")
    dim, hidden, fp_len = _HEADER.unpack_from(blob, len(MODEL_MAGIC))
    if dim == 0 or hidden == 0:
        raise SchemaViolationError(f"model has dim={dim} hidden={hidden}; both must be >= 1")
    count = param_count(dim, hidden)
    expected = _HEADER_END + fp_len + 8 * count
    if len(blob) != expected:
        raise SchemaViolationError(
            f"model is {len(blob)} bytes, but its header (dim={dim}, hidden={hidden}, "
            f"{fp_len}-byte fingerprint) needs {expected}"
        )
    try:
        fingerprint = blob[_HEADER_END : _HEADER_END + fp_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaViolationError(f"model vocabulary fingerprint is not UTF-8: {exc}") from None
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=_HEADER_END + fp_len)
    if not np.isfinite(flat).all():
        raise SchemaViolationError("model holds a weight that is not finite")
    return GcnParams.from_flat(flat.astype(np.float64), dim, hidden), fingerprint
