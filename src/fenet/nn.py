"""Minimal dense/convolutional network engine with exact backpropagation.

Everything is float64 and deterministic. Networks are immutable during
inference (forward/gradient calls never mutate state), so concurrent
read-only evaluation is safe; training works on a private copy.

Layout conventions: images are (H, W, C) channels-last, batches prepend N.
Dense weights are (out, in); conv kernels are (out_c, in_c, kh, kw).
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .util import is_int, l2norm, rng_from


class ShapeMismatchError(ValueError):
    """Input shape does not match what the network/layer expects."""


def _count(name, v):
    """v as an int if it is an integer >= 1; a bool, float or string is no count."""
    if not (is_int(v) and v >= 1):
        raise ValueError(f"{name} must be positive and an integer, got {v!r}")
    return int(v)


def _glorot_uniform(rng, shape, fan_in, fan_out):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def power_iteration(apply_fn, adjoint_fn, in_shape, rng, max_iter=200, tol=1e-6):
    """Largest singular value of a linear operator given by apply/adjoint callables.

    Iterates v <- A^T A v with normalization, stopping at relative change
    below `tol` or after `max_iter` rounds. The start vector is drawn from
    `rng`, so results are reproducible.
    """
    v = rng.standard_normal(in_shape)
    nv = l2norm(v)
    if nv == 0:
        v = np.ones(in_shape)
        nv = l2norm(v)
    v /= nv
    sigma_prev = 0.0
    sigma = 0.0
    for _ in range(max_iter):
        u = apply_fn(v)
        sigma = float(l2norm(u))
        if sigma == 0.0:
            return 0.0
        w = adjoint_fn(u)
        nw = l2norm(w)
        if nw == 0.0:
            break
        v = w / nw
        if abs(sigma - sigma_prev) <= tol * sigma:
            break
        sigma_prev = sigma
    return sigma


class Layer:
    """Base layer: bind() fixes shapes, forward/backward run on batches.

    `params` lists the parameter tensors and, once bound, `param_shapes()`
    their shapes, in the same order.
    """

    kind = "Layer"
    in_shape = out_shape = None

    def bind(self, in_shape):
        raise NotImplementedError

    @property
    def params(self):
        return []

    def param_shapes(self):
        return []

    def init_params(self, rng):
        pass

    def forward(self, x):
        """Return (output, cache). x has a leading batch axis."""
        raise NotImplementedError

    def backward(self, cache, gy, need_input=True, need_params=True):
        """Return (grad_input or None, [grad per param])."""
        raise NotImplementedError

    def lipschitz_bound(self, rng):
        raise NotImplementedError

    def header(self):
        raise NotImplementedError


class _Affine(Layer):
    """The weight (out, in, *kernel) and bias (out,) that Dense and Conv2D share.

    init_params sets them, or model_io.load_network through `params`.
    """

    weight = bias = None

    @property
    def params(self):
        return [self.weight, self.bias]

    @params.setter
    def params(self, arrays):
        self.weight, self.bias = arrays

    def init_params(self, rng):
        wshape, bshape = self.param_shapes()
        area = math.prod(wshape[2:])  # kernel taps; 1 for Dense
        self.weight = _glorot_uniform(rng, wshape, wshape[1] * area, wshape[0] * area)
        self.bias = np.zeros(bshape)


class Dense(_Affine):
    kind = "Dense"

    def __init__(self, out_features):
        self.out_features = _count("out_features", out_features)

    def bind(self, in_shape):
        if len(in_shape) != 1:
            raise ShapeMismatchError(
                f"Dense expects a flat input, got shape {in_shape}; add a Flatten layer"
            )
        self.in_shape = tuple(in_shape)
        self.out_shape = (self.out_features,)
        return self.out_shape

    def param_shapes(self):
        return [(self.out_features, self.in_shape[0]), (self.out_features,)]

    def forward(self, x):
        return x @ self.weight.T + self.bias, x

    def backward(self, cache, gy, need_input=True, need_params=True):
        x = cache
        gx = gy @ self.weight if need_input else None
        if need_params:
            return gx, [gy.T @ x, gy.sum(axis=0)]
        return gx, None

    def lipschitz_bound(self, rng):
        w = self.weight
        return power_iteration(lambda v: w @ v, lambda u: w.T @ u, self.in_shape, rng)

    def header(self):
        return {"kind": self.kind, "out_features": self.out_features}


class Conv2D(_Affine):
    """2D convolution, channels-last, zero 'same' padding or 'valid'."""

    kind = "Conv2D"

    def __init__(self, out_channels, kernel, stride=1, padding="same"):
        dims = (kernel, kernel) if is_int(kernel) else kernel
        if not (isinstance(dims, (list, tuple)) and len(dims) == 2):
            raise ValueError(f"kernel must be an integer or a pair of integers, got {kernel!r}")
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        self.out_channels = _count("out_channels", out_channels)
        self.kh, self.kw = (_count("kernel", d) for d in dims)
        self.stride = _count("stride", stride)
        self.padding = padding
        self._pads = None

    def bind(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError(f"Conv2D expects (H, W, C) input, got {in_shape}")
        h, w, _ = in_shape
        s = self.stride
        if self.padding == "same":
            oh, ow = -(-h // s), -(-w // s)
            ph = max((oh - 1) * s + self.kh - h, 0)
            pw = max((ow - 1) * s + self.kw - w, 0)
            self._pads = (ph // 2, ph - ph // 2, pw // 2, pw - pw // 2)
        else:
            if h < self.kh or w < self.kw:
                raise ShapeMismatchError(f"input {in_shape} smaller than kernel ({self.kh}, {self.kw})")
            oh, ow = (h - self.kh) // s + 1, (w - self.kw) // s + 1
            self._pads = (0, 0, 0, 0)
        self.in_shape = tuple(in_shape)
        self.out_shape = (oh, ow, self.out_channels)
        return self.out_shape

    def param_shapes(self):
        return [(self.out_channels, self.in_shape[2], self.kh, self.kw), (self.out_channels,)]

    def _pad(self, x):
        pt, pb, pl, pr = self._pads
        if pt or pb or pl or pr:
            n, h, w, c = x.shape
            xp = np.zeros((n, pt + h + pb, pl + w + pr, c), dtype=x.dtype)
            xp[:, pt : pt + h, pl : pl + w] = x
            return xp
        return x

    def _linear(self, xp):
        # One 2-D product per tap over all N*oh*ow output cells: a matmul on
        # the 4-D slice would make one BLAS call per image row. The (C, out)
        # tap matrices are made contiguous once, not copied for every product.
        # With one input channel each product has K = 1, one rounded multiply
        # per entry on any path: np.dot then gives the same bits 4-7x faster
        # than `@`, which is the faster one for more channels.
        n, c = xp.shape[0], xp.shape[3]
        oh, ow, _ = self.out_shape
        s = self.stride
        taps = np.ascontiguousarray(self.weight.transpose(2, 3, 1, 0))
        product = np.dot if c == 1 else np.matmul
        out = np.zeros((n * oh * ow, self.out_channels))
        for i in range(self.kh):
            for j in range(self.kw):
                sl = xp[:, i : i + s * oh : s, j : j + s * ow : s, :]
                out += product(sl.reshape(-1, c), taps[i, j])
        return out.reshape(n, oh, ow, self.out_channels)

    def forward(self, x):
        xp = self._pad(x)
        return self._linear(xp) + self.bias, xp

    def _input_grad(self, gy, xp_shape):
        oh, ow, _ = self.out_shape
        s = self.stride
        pt, pb, pl, pr = self._pads
        tap_shape = (xp_shape[0], oh, ow, xp_shape[3])
        g2 = gy.reshape(-1, self.out_channels)
        taps = np.ascontiguousarray(self.weight.transpose(2, 3, 0, 1))  # (out, C) per tap
        gxp = np.zeros(xp_shape)
        for i in range(self.kh):
            for j in range(self.kw):
                gxp[:, i : i + s * oh : s, j : j + s * ow : s, :] += (g2 @ taps[i, j]).reshape(tap_shape)
        h, w = self.in_shape[:2]
        return gxp[:, pt : pt + h, pl : pl + w, :]

    def backward(self, cache, gy, need_input=True, need_params=True):
        xp = cache
        gx = self._input_grad(gy, xp.shape) if need_input else None
        if not need_params:
            return gx, None
        oh, ow, _ = self.out_shape
        s, c = self.stride, xp.shape[3]
        # np.dot on the transposed view is the product np.tensordot made here,
        # bit for bit, without its set-up per tap; `@` or a copy of g2t is not.
        g2t = gy.reshape(-1, self.out_channels).T
        gw = np.empty_like(self.weight)
        for i in range(self.kh):
            for j in range(self.kw):
                sl = xp[:, i : i + s * oh : s, j : j + s * ow : s, :]
                gw[:, :, i, j] = np.dot(g2t, sl.reshape(-1, c))
        return gx, [gw, gy.sum(axis=(0, 1, 2))]

    def lipschitz_bound(self, rng):
        # Spectral norm of the conv operator itself, not of the flattened kernel.
        # Row r of `idx` lists the flat input cells under output cell r's
        # window in (c, kh, kw) order, the order of the kernel's columns;
        # padding cells point at index n, a zero after the input in `flat`.
        h, w, c = self.in_shape
        oh, ow, _ = self.out_shape
        pt, pb, pl, pr = self._pads
        s, n = self.stride, h * w * c
        cells = np.full((pt + h + pb, pl + w + pr, c), n)
        cells[pt : pt + h, pl : pl + w] = np.arange(n).reshape(h, w, c)
        windows = sliding_window_view(cells, (self.kh, self.kw), axis=(0, 1))
        idx = windows[: s * oh : s, : s * ow : s].reshape(oh * ow, -1)
        wm = self.weight.reshape(self.out_channels, -1)
        flat = np.zeros(n + 1)

        def apply_fn(v):
            flat[:n] = v.ravel()
            return flat[idx] @ wm.T

        def adjoint_fn(u):
            return np.bincount(idx.ravel(), weights=(u @ wm).ravel(), minlength=n + 1)[:n]

        return power_iteration(apply_fn, adjoint_fn, self.in_shape, rng)

    def header(self):
        return {
            "kind": self.kind,
            "out_channels": self.out_channels,
            "kernel": [self.kh, self.kw],
            "stride": self.stride,
            "padding": self.padding,
        }


class ReLU(Layer):
    kind = "ReLU"

    def bind(self, in_shape):
        self.in_shape = self.out_shape = tuple(in_shape)
        return self.out_shape

    def forward(self, x):
        return np.maximum(x, 0.0), x > 0

    def backward(self, cache, gy, need_input=True, need_params=True):
        return (gy * cache if need_input else None), ([] if need_params else None)

    def lipschitz_bound(self, rng):
        return 1.0

    def header(self):
        return {"kind": self.kind}


class AvgPool2D(Layer):
    kind = "AvgPool2D"

    def __init__(self, pool, stride=None):
        self.pool = _count("pool", pool)
        self.stride = self.pool if stride is None else _count("stride", stride)

    def bind(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError(f"AvgPool2D expects (H, W, C) input, got {in_shape}")
        h, w, c = in_shape
        k, s = self.pool, self.stride
        if h < k or w < k:
            raise ShapeMismatchError(f"input {in_shape} smaller than pool {k}")
        self.in_shape = tuple(in_shape)
        self.out_shape = ((h - k) // s + 1, (w - k) // s + 1, c)
        return self.out_shape

    def _apply(self, x):
        oh, ow, _ = self.out_shape
        k, s = self.pool, self.stride
        out = np.zeros((x.shape[0], oh, ow, x.shape[3]))
        for i in range(k):
            for j in range(k):
                out += x[:, i : i + s * oh : s, j : j + s * ow : s, :]
        return out / (k * k)

    def _adjoint(self, gy, in_hw):
        oh, ow, _ = self.out_shape
        k, s = self.pool, self.stride
        n, c = gy.shape[0], gy.shape[3]
        gx = np.zeros((n, in_hw[0], in_hw[1], c))
        g = gy / (k * k)
        if s == k:
            # Disjoint windows: each covered cell gets its one add through an
            # (N, oh, k, ow, k, C) view; rows and columns past oh*k, ow*k stay
            # zero. `+=` into zeros, as in the tap loop, turns -0.0 into +0.0.
            blocks = gx[:, : oh * k, : ow * k, :].reshape((n, oh, k, ow, k, c))
            blocks += g[:, :, None, :, None, :]
            return gx
        for i in range(k):
            for j in range(k):
                gx[:, i : i + s * oh : s, j : j + s * ow : s, :] += g
        return gx

    def forward(self, x):
        return self._apply(x), None

    def backward(self, cache, gy, need_input=True, need_params=True):
        gx = self._adjoint(gy, self.in_shape[:2]) if need_input else None
        return gx, ([] if need_params else None)

    def lipschitz_bound(self, rng):
        # sqrt(||A||_1 ||A||_inf) >= ||A||_2: a row averages k*k cells (sum 1),
        # and a cell lies in at most ceil(k/s)^2 windows (column sum
        # <= ceil(k/s)^2 / k^2). Exact, 1/k, for disjoint windows (s >= k).
        return math.ceil(self.pool / self.stride) / self.pool

    def header(self):
        return {"kind": self.kind, "pool": self.pool, "stride": self.stride}


class Flatten(Layer):
    kind = "Flatten"

    def bind(self, in_shape):
        self.in_shape = tuple(in_shape)
        self.out_shape = (math.prod(in_shape),)
        return self.out_shape

    def forward(self, x):
        return x.reshape((x.shape[0],) + self.out_shape), None

    def backward(self, cache, gy, need_input=True, need_params=True):
        gx = gy.reshape((gy.shape[0],) + self.in_shape) if need_input else None
        return gx, ([] if need_params else None)

    def lipschitz_bound(self, rng):
        return 1.0

    def header(self):
        return {"kind": self.kind}


LAYER_KINDS = {cls.kind: cls for cls in (Dense, Conv2D, ReLU, AvgPool2D, Flatten)}


def layer_from_header(h):
    """A fresh layer from its header: the kind plus the constructor's keyword arguments."""
    h = dict(h)
    kind = h.pop("kind", None)
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    return LAYER_KINDS[kind](**h)


def _log_softmax(z):
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def _xent(z, labels):
    """Per-example softmax cross-entropy of logits `z` (N, n) at `labels`.

    log-sum-exp via log1p over the non-max terms: keeps the loss strictly
    positive even at huge margins, where the plain form rounds 1 + tiny
    to 1 and returns -0.0.
    """
    m = z.max(axis=1)
    ez = np.exp(z - m[:, None])
    rows = np.arange(len(labels))
    ez[rows, np.argmax(z, axis=1)] = 0.0
    return (m - z[rows, labels]) + np.log1p(ez.sum(axis=1))


class Network:
    """An ordered layer stack ending in `num_classes` raw scores.

    The loss is softmax cross-entropy over the final scores. Gradient
    methods return exact analytic derivatives.
    """

    def __init__(self, layers, input_shape, num_classes, seed=None):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.num_classes = int(num_classes)
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.bind(shape)
        if shape != (self.num_classes,):
            raise ShapeMismatchError(
                f"network output shape {shape} != ({self.num_classes},); "
                "the final layer must produce one score per class"
            )
        missing = any(p is None for layer in self.layers for p in layer.params)
        if missing:
            if seed is None:
                raise ValueError("uninitialized parameters and no seed given")
            for i, layer in enumerate(self.layers):
                layer.init_params(rng_from(seed, i))

    # -- inference ---------------------------------------------------------

    def _check_batch(self, xb):
        xb = np.asarray(xb, dtype=np.float64)
        if xb.shape[1:] != self.input_shape:
            raise ShapeMismatchError(
                f"input shape {xb.shape[1:]} != expected {self.input_shape}"
            )
        if not np.all(np.isfinite(xb)):
            raise ValueError("input contains non-finite values")
        return xb

    def forward_batch(self, xb):
        xb = self._check_batch(xb)
        for layer in self.layers:
            xb, _ = layer.forward(xb)
        return xb

    def classify_batch(self, xb):
        # argmax takes the first maximum, i.e. ties go to the smallest index
        return np.argmax(self.forward_batch(xb), axis=1)

    def _check_labels(self, labels, n):
        """One label in [0, num_classes) per image of an n-image batch."""
        labels = np.asarray(labels)
        if len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} images")
        if labels.min(initial=0) < 0 or labels.max(initial=-1) >= self.num_classes:
            raise ValueError(f"label out of range [0, {self.num_classes})")
        return labels.astype(np.intp)

    # -- gradients ---------------------------------------------------------

    def _forward_with_caches(self, xb):
        xb = self._check_batch(xb)
        caches = []
        for layer in self.layers:
            xb, cache = layer.forward(xb)
            caches.append(cache)
        return xb, caches

    def _backprop(self, xb, labels, need_input, need_params):
        """Logits, input gradient and per-layer parameter gradients of the loss."""
        z, caches = self._forward_with_caches(xb)
        labels = self._check_labels(labels, len(z))
        p = np.exp(_log_softmax(z))
        gz = p
        gz[np.arange(len(labels)), labels] -= 1.0
        param_grads = [None] * len(self.layers)
        g = gz
        for i in range(len(self.layers) - 1, -1, -1):
            want_input = need_input or i > 0
            g, pg = self.layers[i].backward(
                caches[i], g, need_input=want_input, need_params=need_params
            )
            param_grads[i] = pg
        return z, g, param_grads

    def grad_input_batch(self, xb, labels):
        """Per-example gradient of the loss w.r.t. each input."""
        _, g, _ = self._backprop(xb, labels, need_input=True, need_params=False)
        return g

    # -- misc --------------------------------------------------------------

    def lipschitz_upper_bound(self, seed=0):
        """Product of per-layer operator-norm bounds; a valid L2 Lipschitz bound."""
        bound = 1.0
        for i, layer in enumerate(self.layers):
            bound *= layer.lipschitz_bound(rng_from(seed, i, 0x4C49))
        return bound


@dataclass
class TrainConfig:
    learning_rates: tuple = (0.1, 0.01, 0.001)
    epochs_per_rate: int = 3
    batch_size: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        self.learning_rates = tuple(float(r) for r in self.learning_rates)
        if not all(0 < r < math.inf for r in self.learning_rates):  # NaN fails too
            raise ValueError(f"learning rates must be finite and positive, got {self.learning_rates}")
        if not (is_int(self.epochs_per_rate) and self.epochs_per_rate >= 0):
            raise ValueError(f"epochs_per_rate must be an integer >= 0, got {self.epochs_per_rate!r}")
        if not (is_int(self.batch_size) and self.batch_size >= 1):
            raise ValueError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")


def train(net, dataset, cfg, augment=None):
    """Minibatch SGD over each learning rate in sequence.

    Returns (trained copy, log): the log holds one (rate_index, rate,
    epoch, mean_loss) row per epoch, where mean_loss averages each
    example's loss just before its batch's update. `augment(net, rng, xb, yb)
    -> xb` may replace batch inputs before the gradient step (noise
    injection, adversarial examples); one given to ensemble.train_submodels
    must pickle, so it is a module-level function or a functools.partial of
    one. Deterministic for a fixed cfg.rng_seed.
    """
    xs, ys = dataset.images, dataset.labels
    if len(xs) == 0:
        raise ValueError("empty dataset")
    net = copy.deepcopy(net)
    rng = rng_from(cfg.rng_seed)
    n = len(xs)
    log = []
    for ri, rate in enumerate(cfg.learning_rates):
        for epoch in range(cfg.epochs_per_rate):
            order = rng.permutation(n)
            losses = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xb, yb = xs[idx], ys[idx]
                if augment is not None:
                    xb = augment(net, rng, xb, yb)
                z, _, pgs = net._backprop(xb, yb, need_input=False, need_params=True)
                losses += float(_xent(z, yb).sum())
                scale = rate / len(idx)
                for layer, pg in zip(net.layers, pgs):
                    for p, g in zip(layer.params, pg):
                        p -= scale * g
            log.append((ri, rate, epoch, losses / n))
    return net, log


def build_network(arch, input_shape, num_classes, seed):
    """Construct a seeded network from a list of layer descriptors.

    A Dense descriptor with out_features=None resolves to num_classes, so
    one architecture can serve datasets with different class counts. A bad
    descriptor raises ValueError naming it as arch[i]; a stack whose shapes
    do not chain raises ShapeMismatchError.
    """
    layers = []
    for i, h in enumerate(arch):
        try:
            h = dict(h)
            if h.get("kind") == "Dense" and h.get("out_features") is None:
                h["out_features"] = num_classes
            layers.append(layer_from_header(h))
        except (TypeError, ValueError) as e:
            raise ValueError(f"arch[{i}]: {e}") from None
    return Network(layers, input_shape, num_classes, seed=seed)
