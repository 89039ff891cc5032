"""Feed-forward classifiers over one flat, index-addressable parameter buffer.

The same ``Model`` plays both roles in an unlearning run: the trained
original and the model being unlearned. All state is float64 and every
construction path is seeded, so identical seeds give bit-identical models.

Every parameter lives in one contiguous float64 buffer: each layer's
``weight``/``bias`` and each adapter's ``down``/``up`` is a plain ndarray
view into it, and the trainable parameters are one contiguous slice of it
(``Model.params``). A gradient is computed on plain arrays:
:meth:`Model.forward_cache` keeps the activations, a loss kernel turns the
logits into per-row values and a logits gradient, and :meth:`Model.backprop`
writes the flat gradient into a buffer the model makes on first use and then
reuses, layer by layer.

:meth:`Model.stack` joins K models of one layout into a model over a
``(K, P)`` buffer whose rows the K models view, and :meth:`Model.rows` views
a contiguous range of those rows as a stacked model of its own. The layer,
backprop and loss code is the same for all of them: every array may carry
that leading K axis (inputs ``(K, B, d)``, logits ``(K, B, C)``, per-row
values ``(K, B)``), and a stacked step computes, slice for slice, exactly
what K separate steps do.
"""

from __future__ import annotations

import binascii
import math

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .fileio import read_json, write_json

PROB_FLOOR = 1e-12  # probabilities are clamped to [PROB_FLOOR, 1] before any log
# float64 values one tile group of :meth:`Model.logits` may put in each hidden
# workspace buffer (512 KiB). At width 256 that is 256 rows, the rows of the
# ``wide`` training step, so inference never grows the workspace past it.
EVAL_BLOCK_VALUES = 2**16
# The most rows of one inference tile (Model.tile_rows). A call of fewer rows
# still runs a whole tile, so larger tiles cost small calls memory: a 100-row
# call of ``wide`` with an adapter traced 0.18, 0.35 and 0.69 MB at 64-, 128-
# and 256-row tiles, where its unpadded pass may hold 0.28 MB. Larger tiles
# run faster, in fewer BLAS calls: one ``metrics.split_logits`` of ``wide``
# took 10.1, 8.6-9.7 and 8.3-8.5 ms (7.8-8.3 ms before tiles; 2-core VM,
# OpenBLAS 0.3.31 SkylakeX kernels).
MAX_TILE_ROWS = 64

CHECKPOINT_VERSION = 2


def _relu_backward(g, y):
    return np.multiply(g, y > 0.0, out=y)  # y > 0 exactly where z > 0, at +-0 and NaN too


def _tanh_backward(g, y):
    np.multiply(y, y, out=y)  # each step reads only its own element
    return np.multiply(g, np.subtract(1.0, y, out=y), out=y)


# name -> (forward(z, out=None), backward(grad of output, output)); a backward
# returns the gradient of its input written over the output it reads.
ACTIVATIONS = {
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out), _relu_backward),
    "tanh": (np.tanh, _tanh_backward),
}


class Linear:
    """Dense layer ``y = x @ W.T + b`` with an optional low-rank adapter.

    On a stacked model every array has a leading K axis, so the transposes
    swap the last two axes and the bias broadcasts over the batch axis.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        self.weight = weight  # (out, in)
        self.bias = bias  # (out,)
        self.adapter = None  # set by lora.attach_adapter

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Return the layer output and, on an adapted layer, ``x @ down.T``.

        The output is written into ``out`` when given (a C-contiguous array
        of the output's shape that does not overlap ``x``), else into a
        fresh array.
        """
        y = np.matmul(x, self.weight.swapaxes(-1, -2), out=out)
        mid = None
        if self.adapter is not None:
            ad = self.adapter
            mid = x @ ad.down.swapaxes(-1, -2)
            term = mid @ ad.up.swapaxes(-1, -2)
            term *= ad.scale  # one temporary, scaled in place
            y += term
            del term  # freed before the bias add takes its iterator buffer
        y += self.bias[..., None, :]
        return y, mid


class Model:
    """MLP classifier: linear layers with an elementwise nonlinearity between."""

    def __init__(self, input_dim: int, hidden: list[int], num_classes: int,
                 activation: str = "relu", seed: int = 0, _init: bool = True):
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}; choose from {sorted(ACTIVATIONS)}")
        self.input_dim = int(input_dim)
        self.hidden = [int(h) for h in hidden]
        self.num_classes = int(num_classes)
        self.activation = activation
        self.seed = int(seed)
        self.layers: list[Linear] = []
        self._lead: tuple[int, ...] = ()  # (K,) on a stacked model
        self._workspace: list[np.ndarray] = []  # see forward_cache()
        if _init:
            rng = np.random.default_rng(seed)
            dims = [self.input_dim] + self.hidden + [self.num_classes]
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                bound = 1.0 / np.sqrt(fan_in)
                w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
                b = rng.uniform(-bound, bound, size=fan_out)
                self.layers.append(Linear(w, b))
            self._pack()

    def _slots(self) -> tuple[list, list]:
        """(owner, attribute name) of every base parameter and every adapter one."""
        base = [(layer, name) for layer in self.layers for name in ("weight", "bias")]
        adapters = [(layer.adapter, name) for layer in self.layers
                    if layer.adapter is not None for name in ("down", "up")]
        return base, adapters

    def _pack(self, buffer: np.ndarray | None = None, grad: np.ndarray | None = None) -> None:
        """Bind every parameter to its view of one buffer, and the gradient to another.

        The buffer holds the base weights and biases in layer order, then
        each adapter's down and up, along its last axis; the trainable slice
        is the adapters when any are attached, else the base. With no
        ``buffer`` the parameters are copied into a fresh one: call this
        after changing the layer or adapter structure, and nothing is shared
        with another model's buffer. A given ``buffer`` already holds the
        parameters in that layout; a leading axis stacks models (:meth:`stack`).
        The gradient buffer is ``grad`` when given (shaped as ``params``),
        else one made on first use (:attr:`grad`).
        """
        base, adapters = self._slots()
        slots = base + adapters
        shapes = [getattr(owner, name).shape[len(self._lead):] for owner, name in slots]
        sizes = [math.prod(shape) for shape in shapes]
        fresh = buffer is None
        if fresh:
            buffer = np.empty(self._lead + (sum(sizes),))
        lead = buffer.shape[:-1]
        offset = 0
        for (owner, name), shape, size in zip(slots, shapes, sizes):
            view = buffer[..., offset:offset + size].reshape(lead + shape)
            if fresh:
                view[...] = getattr(owner, name)
            setattr(owner, name, view)
            offset += size
        self._buffer, self._lead = buffer, lead
        trainable = slice(len(base), None) if adapters else slice(len(base))
        shapes, sizes = shapes[trainable], sizes[trainable]
        # Live view of the trainable parameters (the buffer's tail).
        self.params = buffer[..., buffer.shape[-1] - sum(sizes):]
        self._grad_shapes = shapes
        # Per layer: whether its pair (its adapter's, when any is attached) is trainable.
        self._trained = [layer.adapter is not None or not adapters for layer in self.layers]
        self._lowest = self._trained.index(True)
        self._grad = self._grad_views = None
        if grad is not None:
            self._bind_grad(grad)

    @property
    def grad(self) -> np.ndarray:
        """The gradient buffer over the trainables, laid out as ``params``.

        Made on first use, so a model that never backprops (a teacher) holds none.
        """
        if self._grad is None:
            self._bind_grad(np.zeros(self.params.shape))
        return self._grad

    def _bind_grad(self, grad: np.ndarray) -> None:
        """Make ``grad`` the gradient buffer, and each trainable layer's views of it."""
        views, offset = [], 0
        for shape in self._grad_shapes:
            size = math.prod(shape)
            views.append(grad[..., offset:offset + size].reshape(self._lead + shape))
            offset += size
        pairs = iter(zip(views[::2], views[1::2]))
        # Per layer: gradient views of its trainable pair, or None when frozen.
        self._grad, self._grad_views = grad, [next(pairs) if t else None for t in self._trained]

    @classmethod
    def stack(cls, models: list["Model"]) -> "Model":
        """One model over the parameters of K models, to train them in lockstep.

        Its buffer is ``(K, P)``, row k holding model k's parameters, and
        model k is rebound to view its row and the stack's gradient row, and
        to share the stack's workspace, so training the stack trains each
        model in place; one model is stacked too (K = 1). The models must
        share their layout: activation, layer shapes, adapters.
        """
        first = models[0]
        if any(m._layout() != first._layout() for m in models):
            raise ShapeError("stacked models must share activation, layer shapes and adapters")
        out = first._skeleton()
        out._pack(np.stack([m._buffer for m in models]))
        for k, model in enumerate(models):
            model._pack(out._buffer[k], out.grad[k])
            model._workspace = out._workspace
        return out

    def rows(self, lo: int, hi: int) -> "Model":
        """Models ``lo`` to ``hi - 1`` of a stacked model, as one stacked model.

        Its parameters and gradient are views of rows ``[lo, hi)`` of this
        model's, and it shares this model's workspace, so training it trains
        those rows in place.
        """
        out = self._skeleton()
        out._pack(self._buffer[lo:hi], self.grad[lo:hi])
        out._workspace = self._workspace
        return out

    def _layout(self) -> tuple:
        return (self.activation, [layer.weight.shape for layer in self.layers],
                [(i, layer.adapter.rank, layer.adapter.scale)
                 for i, layer in enumerate(self.layers) if layer.adapter is not None])

    # ---------------------------------------------------------------- forward

    def forward_cache(self, x) -> tuple[np.ndarray, tuple]:
        """Return the logits and the activations :meth:`backprop` needs.

        The cache is ``(inputs, mids)``: each layer's input and each layer's
        adapter projection (None when unadapted).

        Each hidden layer writes its output, activated in place, into its own
        flat workspace buffer, which the model keeps and grows to the largest
        batch it has seen; so a pass allocates only the returned logits,
        which are a fresh array. The hidden activations are valid until this
        model's next forward pass (or :meth:`logits`) or backprop, or that of
        a model sharing its workspace (:meth:`stack`, :meth:`rows`): a
        backprop writes each one's gradient over it. Use or copy them before
        then. The batch, the adapter projections, the logits and the ``g`` a
        caller backprops keep their bytes; that gradient must not be a view
        of the cache. Two threads must not run one model at once.
        """
        return self._forward(self._check_input(x))

    def _forward(self, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        """:meth:`forward_cache` of a checked batch, which may carry leading tile axes."""
        act = ACTIVATIONS[self.activation][0]
        rows = math.prod(h.shape[:-1])
        if not self._workspace or self._workspace[0].size < rows * self.hidden[0]:
            # Grown in place: models that share the list (stack, rows) see it.
            self._workspace[:] = [np.empty(rows * width) for width in self.hidden]
        inputs, mids = [], []
        for layer, buffer, width in zip(self.layers[:-1], self._workspace, self.hidden):
            inputs.append(h)
            out = buffer[:rows * width].reshape(h.shape[:-1] + (width,))
            z, mid = layer(h, out)
            mids.append(mid)
            h = act(z, out=z)
        inputs.append(h)
        logits, mid = self.layers[-1](h)
        mids.append(mid)
        return logits, (inputs, mids)

    def backprop(self, cache: tuple, g: np.ndarray) -> np.ndarray:
        """Add the gradient of a loss with ``dL/dlogits = g`` into the buffer.

        Returns the flat gradient buffer over the trainables, laid out as
        ``Model.params``. The buffer is reused by every call: zero it first
        (``model.grad.fill(0.0)``) and copy what must outlive the next call.
        Frozen layers below the lowest trainable one are skipped. Each hidden
        activation of ``cache`` is overwritten by its gradient
        (:meth:`forward_cache`); ``g`` keeps its bytes.
        """
        grad = self.grad  # made on first use, with the views the layers write
        for i in range(len(self.layers) - 1, self._lowest - 1, -1):
            g = self._backprop_layer(i, cache, g)
        return grad

    def _backprop_layer(self, i: int, cache, g: np.ndarray) -> np.ndarray | None:
        """Accumulate layer ``i``'s parameter gradients; return the gradient of
        layer ``i - 1``'s output before its activation, written over that
        activation (this layer's input).

        ``g`` is the gradient of the layer's output. The result is None at
        the lowest trainable layer, where backprop stops. This layer is its
        input's last reader, so the input gradient ``g @ W`` lives only until
        the activation's backward has written it over the activation.

        A weight gradient is the transpose of ``h^T @ g``, not ``g^T @ h``:
        the two differ in their last bits at some shapes (a batch of 252
        over a 63 x 63 layer on OpenBLAS), and the golden digests hold the
        first.
        """
        inputs, mids = cache
        layer, views, h = self.layers[i], self._grad_views[i], inputs[i]
        ad = layer.adapter
        if ad is not None:  # then only adapters are trainable
            g_down, g_up = views
            g_low = g * ad.scale
            g_mid = g_low @ ad.up
            g_down += (h.swapaxes(-1, -2) @ g_mid).swapaxes(-1, -2)
            g_up += (mids[i].swapaxes(-1, -2) @ g_low).swapaxes(-1, -2)
        elif views is not None:
            g_weight, g_bias = views
            g_weight += (h.swapaxes(-1, -2) @ g).swapaxes(-1, -2)
            g_bias += np.add.reduce(g, axis=-2)
        if i == self._lowest:
            return None
        gh = g @ layer.weight
        if ad is not None:
            gh += g_mid @ ad.down
        return ACTIVATIONS[self.activation][1](gh, h)

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != len(self._lead) + 2 or x.shape[:-2] != self._lead:
            raise ShapeError(f"expected a {len(self._lead) + 2}-D batch, got shape {x.shape}")
        if x.shape[-1] != self.input_dim:
            raise ShapeError(f"batch has width {x.shape[-1]}, model expects {self.input_dim}")
        return x

    @property
    def tile_rows(self) -> int:
        """T, the rows of one inference tile: the largest power of two at most
        ``MAX_TILE_ROWS``, the widest hidden layer ``w`` (1 with no hidden
        layer) and ``EVAL_BLOCK_VALUES // w``. It is 32 on the default model
        and 64 on ``wide``."""
        width = max(self.hidden, default=1)
        return 1 << (min(width, MAX_TILE_ROWS, max(1, EVAL_BLOCK_VALUES // width)).bit_length() - 1)

    def logits(self, x) -> np.ndarray:
        """The logits of a batch, each row's bytes a function of the model and the row alone.

        The forward pass that is not differentiated. The rows run in tiles
        of :attr:`tile_rows`, the last one zero-padded, so every matmul a row
        meets has the same shape whatever else the call holds. Groups of
        whole tiles, at most ``EVAL_BLOCK_VALUES`` values per hidden buffer,
        each run as one batched forward pass through the workspace
        (:meth:`forward_cache`), the tile axis first, so a stacked model's
        leading K axis broadcasts as in training. The zero-padded last tile
        runs alone and is the one copy of input rows. Returns a fresh array.
        """
        x = self._check_input(x)
        t, n, lead, d = self.tile_rows, x.shape[-2], self._lead, self.input_dim
        full = n - n % t
        group = t * max(1, EVAL_BLOCK_VALUES // (t * max(self.hidden, default=1) * math.prod(lead)))
        out = np.empty((-(-n // t),) + lead + (t, self.num_classes))
        for lo in range(0, full, group):
            tiles = x[..., lo:min(lo + group, full), :].reshape(lead + (-1, t, d)).swapaxes(0, -3)
            out[lo // t:lo // t + len(tiles)] = self._forward(tiles)[0]
        if full < n:
            tail = np.concatenate([x[..., full:, :], np.zeros(lead + (t - n % t, d))], -2)
            out[-1:] = self._forward(tail[None])[0]
        return out.swapaxes(0, -3).reshape(lead + (-1, self.num_classes))[..., :n, :]

    # ------------------------------------------------------------- parameters

    def param_vector(self) -> np.ndarray:
        """Flat copy of all trainable parameters, in layer order."""
        return self.params.copy()

    def set_param_vector(self, values) -> None:
        """Overwrite the trainable parameters in place; layer views see the change."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != self.params.size:
            raise ShapeError(
                f"vector has {values.size} entries, model has {self.params.size} trainable")
        self.params[...] = values

    def num_trainable(self) -> int:
        return self.params.size

    def num_params(self) -> int:
        """Every parameter participating in a forward pass (base + adapters)."""
        return self._buffer.size

    def clone(self) -> "Model":
        out = self._skeleton()
        out._pack()
        return out

    def _skeleton(self) -> "Model":
        """A model of this layout whose layers hold this model's arrays, not yet packed."""
        out = Model(self.input_dim, self.hidden, self.num_classes,
                    self.activation, self.seed, _init=False)
        for layer in self.layers:
            copied = Linear(layer.weight, layer.bias)  # _pack copies or rebinds
            if layer.adapter is not None:
                copied.adapter = layer.adapter.clone()
            out.layers.append(copied)
        out._lead = self._lead
        return out

    # ------------------------------------------------------------- checkpoint

    def to_dict(self) -> dict:
        """The checkpoint record: the header fields, and each parameter array
        as base64 of its little-endian float64 bytes (:func:`_encode`)."""
        params, adapters = {}, []
        for i, layer in enumerate(self.layers):
            params[f"layers.{i}.weight"] = _encode(layer.weight)
            params[f"layers.{i}.bias"] = _encode(layer.bias)
            ad = layer.adapter
            if ad is not None:
                adapters.append({"layer": i, "rank": ad.rank, "scale": ad.scale,
                                 "down": _encode(ad.down), "up": _encode(ad.up)})
        return {
            "format_version": CHECKPOINT_VERSION,
            "input_dim": self.input_dim,
            "hidden": self.hidden,
            "num_classes": self.num_classes,
            "activation": self.activation,
            "seed": self.seed,
            "params": params,
            "adapters": adapters,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Model":
        """Rebuild a model from a version-2 record, or a version-1 one whose
        arrays are lists of floats.

        Each array must hold exactly the values its header's shape implies.
        A missing key, an array that does not decode or has the wrong
        length, and an adapter on a layer the header does not have raise
        ConfigError naming the key.
        """
        version = record.get("format_version")
        if version not in (1, CHECKPOINT_VERSION):
            raise ConfigError(f"unsupported checkpoint version {version!r}")
        try:
            model = cls(record["input_dim"], record["hidden"], record["num_classes"],
                        record["activation"], record["seed"])
            for i, layer in enumerate(model.layers):
                for key, view in ((f"layers.{i}.weight", layer.weight),
                                  (f"layers.{i}.bias", layer.bias)):
                    view[...] = _decode(record["params"][key], view.shape, key)
            if record["adapters"]:
                from .lora import LowRankAdapter

                for n, entry in enumerate(record["adapters"]):
                    i, rank = entry["layer"], entry["rank"]
                    if i not in range(len(model.layers)):
                        raise ConfigError(f"adapters.{n} is on layer {i!r}; "
                                          f"the model has {len(model.layers)} layers")
                    layer = model.layers[i]
                    down = _decode(entry["down"], (rank, layer.in_dim), f"adapters.{n}.down")
                    up = _decode(entry["up"], (layer.out_dim, rank), f"adapters.{n}.up")
                    layer.adapter = LowRankAdapter(rank, entry["scale"], down, up)
                model._pack()
        except KeyError as exc:
            raise ConfigError(f"checkpoint record has no key {exc}") from None
        return model

    def save(self, path) -> None:
        """Write :meth:`to_dict` through :func:`fileio.write_json`."""
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "Model":
        """Read a checkpoint of either version; a missing or malformed one
        raises ConfigError naming the file and, where there is one, the array."""
        record = read_json(path, "checkpoint")
        try:
            return cls.from_dict(record)
        except (TypeError, ValueError) as exc:  # any malformed record
            raise ConfigError(f"bad checkpoint {path}: {exc}") from None

    def param_digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for layer in self.layers:
            h.update(layer.weight.tobytes())
            h.update(layer.bias.tobytes())
            if layer.adapter is not None:
                h.update(layer.adapter.down.tobytes())
                h.update(layer.adapter.up.tobytes())
        return h.hexdigest()


# ------------------------------------------------------------- array codec

def _encode(a: np.ndarray) -> str:
    """Base64 of the array's little-endian float64 bytes, in C order."""
    return binascii.b2a_base64(a.astype("<f8", copy=False).tobytes(), newline=False).decode()


def _decode(value, shape: tuple, key: str) -> np.ndarray:
    """Array ``key`` of a checkpoint record, base64 (version 2) or a list of
    floats (version 1), as a ``shape`` array holding exactly the encoded bytes."""
    try:
        flat = (np.frombuffer(binascii.a2b_base64(value), dtype="<f8") if isinstance(value, str)
                else np.asarray(value, dtype=np.float64))
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ConfigError(f"array {key} does not decode: {exc}") from None
    if flat.shape != (math.prod(shape),):
        raise ConfigError(f"array {key} has shape {flat.shape}; the header implies {shape}")
    return flat.reshape(shape)


def parse_backbone(spec: str) -> tuple[list[int], str]:
    """Parse a backbone string like ``mlp:32,32`` or ``mlp:16:tanh``."""
    parts = spec.split(":")
    if parts[0] != "mlp":
        raise ConfigError(f"unknown backbone family {parts[0]!r} (only 'mlp')")
    hidden = [32]
    activation = "relu"
    if len(parts) >= 2 and parts[1]:
        try:
            hidden = [int(p) for p in parts[1].split(",") if p]
        except ValueError as exc:
            raise ConfigError(f"bad hidden sizes in backbone {spec!r}") from exc
    if len(parts) >= 3:
        activation = parts[2]
    if len(parts) > 3 or any(h < 1 for h in hidden):
        raise ConfigError(f"bad backbone spec {spec!r}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r} in backbone {spec!r}")
    return hidden, activation


def build_model(input_dim: int, num_classes: int, backbone: str = "mlp:32,32",
                seed: int = 0) -> Model:
    hidden, activation = parse_backbone(backbone)
    return Model(input_dim, hidden, num_classes, activation, seed)


# --------------------------------------------------------------------- losses
#
# Each loss is an array kernel ``*_rows(...) -> (rows, row_grad)``: the
# per-row values and a function mapping per-row weights ``w`` (the gradient
# of the reduced loss with respect to each row; ``1/n`` for a batch mean) to
# the gradient of the weighted rows with respect to the logits, which goes to
# :meth:`Model.backprop`. ``unlearn.loss_and_grad``, the training loop's one
# step kernel, does this for the training losses. Rows run along the
# second-to-last axis of the input, so a stacked ``(K, B, C)`` input gives
# ``(K, B)`` rows and takes ``(K, B)`` weights. The kernels also take one
# numpy scalar for every row (a batch mean's ``1/n``): it multiplies each row
# as the array of equal weights would, byte for byte.

def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; every row sums to 1 within 1e-6."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.minimum(np.maximum(p, PROB_FLOOR), 1.0))


def cross_entropy_rows(logits: np.ndarray, labels: np.ndarray):
    """Task cross-entropy ``-log p[label]`` per row, and its row gradient.

    The labels are not checked (see :func:`validate_labels`): a label out
    of range reads another row's probabilities. The value clamps
    probabilities to [1e-12, 1] before the log so a zero-probability target
    yields a large finite loss, never inf. The gradient is the exact softmax
    form ``p - onehot`` throughout, so training signal survives even at
    targets the clamp has saturated.
    """
    p = softmax(logits)
    # Flat index of each row's label entry, over every leading axis at once.
    picked = np.arange(labels.size) * p.shape[-1] + labels.ravel()
    rows = -_clamped_log(p.reshape(-1)[picked]).reshape(labels.shape)

    def row_grad(w):
        gz = p.copy()
        gz.reshape(-1)[picked] -= 1.0
        gz *= w[..., None]
        return gz

    return rows, row_grad


def validate_labels(logits: np.ndarray, labels) -> np.ndarray:
    """Return ``labels`` as an array after checking them against batched logits.

    ``logits`` is ``(..., B, C)``; the labels must have shape ``(..., B)``
    and lie in ``[0, C)``.
    """
    labels = np.asarray(labels)
    if logits.ndim < 2:
        raise ShapeError(f"labels need batched logits, got shape {logits.shape}")
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} does not match batch {logits.shape[:-1]}")
    if labels.size and (np.minimum.reduce(labels, axis=None) < 0
                        or np.maximum.reduce(labels, axis=None) >= logits.shape[-1]):
        raise ConfigError(f"labels must lie in [0, {logits.shape[-1]})")
    return labels


def kl_rows(student_logits: np.ndarray, teacher_logits: np.ndarray, temperature: float):
    """KL divergence of the student's output distribution from the teacher's, per row.

    Computed row-wise as ``sum_j p_j * (log clip(p_j) - log clip(q_j))`` with
    ``p = softmax(student/T)`` and ``q = softmax(teacher/T)``; zero exactly
    when the two distributions agree. The teacher side is a constant: the
    row gradient is with respect to the student logits. Every KL term in the
    toolkit goes through here, so a temperature that is not > 0 (NaN too)
    raises ConfigError before any update; non-finite logits raise
    NumericError.
    """
    if not temperature > 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    if student_logits.shape != teacher_logits.shape:
        raise ShapeError(f"student {student_logits.shape} vs teacher "
                         f"{teacher_logits.shape} shapes differ")
    if not np.logical_and.reduce(np.isfinite(student_logits) & np.isfinite(teacher_logits), None):
        raise NumericError("non-finite logits passed to kl_rows")
    ps = softmax(student_logits / temperature)
    pt = softmax(teacher_logits / temperature)
    r = _clamped_log(ps) - _clamped_log(pt)
    rows = np.add.reduce(ps * r, axis=-1)

    def row_grad(w):
        # dKL/du_k = ps_k * (r_k - KL_row), the exact softmax-side gradient.
        return ps * (r - rows[..., None]) * (w[..., None] / temperature)

    return rows, row_grad


# ----------------------------------------------------------------------- FLOs

def count_flos(model: Model, num_samples: float, num_steps: float) -> float:
    """Floating-point operations under the fixed 6*P per sample-step convention.

    P is the full parameter count touched by a forward pass (2*P forward,
    4*P backward). Any fixed convention preserves cross-method comparisons.
    """
    return 6.0 * model.num_params() * float(num_samples) * float(num_steps)
