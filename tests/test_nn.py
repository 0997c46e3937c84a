import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fenet.nn import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    Network,
    ReLU,
    ShapeMismatchError,
    TrainConfig,
    _xent,
    build_network,
    power_iteration,
    train,
)
from fenet.cli import DESK_ARCH
from fenet.data import Dataset
from fenet.util import l2norm, rng_from

from conftest import params_of


# ---------------------------------------------------------------- oracles

def naive_dense(w, b, x):
    out = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        s = b[i]
        for j in range(w.shape[1]):
            s += w[i, j] * x[j]
        out[i] = s
    return out


def naive_conv2d_same(kernel, bias, x):
    """Quadruple-loop conv, stride 1, zero 'same' padding. x is (H, W, C)."""
    oc, ic, kh, kw = kernel.shape
    h, w, _ = x.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = np.zeros((h + kh - 1, w + kw - 1, ic))
    xp[pt : pt + h, pl : pl + w] = x
    out = np.zeros((h, w, oc))
    for oy in range(h):
        for ox in range(w):
            for co in range(oc):
                s = bias[co]
                for ci in range(ic):
                    for i in range(kh):
                        for j in range(kw):
                            s += kernel[co, ci, i, j] * xp[oy + i, ox + j, ci]
                out[oy, ox, co] = s
    return out


def tap_loop_linear(conv, xp, weight):
    """Conv2D's linear part as one matmul per tap on the 4-D strided slice."""
    oh, ow, oc = conv.out_shape
    s = conv.stride
    out = np.zeros((xp.shape[0], oh, ow, oc))
    for i in range(conv.kh):
        for j in range(conv.kw):
            out += xp[:, i : i + s * oh : s, j : j + s * ow : s, :] @ weight[:, :, i, j].T
    return out


def tap_loop_input_grad(conv, gy, weight):
    """Adjoint of `tap_loop_linear`: scatter each tap's product, then crop the padding."""
    oh, ow, _ = conv.out_shape
    h, w, c = conv.in_shape
    pt, pb, pl, pr = conv._pads
    s = conv.stride
    gxp = np.zeros((gy.shape[0], h + pt + pb, w + pl + pr, c))
    for i in range(conv.kh):
        for j in range(conv.kw):
            gxp[:, i : i + s * oh : s, j : j + s * ow : s, :] += gy @ weight[:, :, i, j]
    return gxp[:, pt : pt + h, pl : pl + w, :]


def strided_tap_linear(conv, xp):
    """Conv2D's linear part as one 2-D product per tap with the strided weight view
    `weight[:, :, i, j]`: the bits the layer's contiguous tap matrices must keep."""
    n, c = xp.shape[0], xp.shape[3]
    oh, ow, oc = conv.out_shape
    s = conv.stride
    out = np.zeros((n * oh * ow, oc))
    for i in range(conv.kh):
        for j in range(conv.kw):
            sl = xp[:, i : i + s * oh : s, j : j + s * ow : s, :]
            out += sl.reshape(-1, c) @ conv.weight[:, :, i, j].T
    return out.reshape(n, oh, ow, oc)


def strided_tap_input_grad(conv, gy, xp_shape):
    """Adjoint of `strided_tap_linear`, made the same way, then cropped to the input."""
    oh, ow, oc = conv.out_shape
    h, w, _ = conv.in_shape
    pt, _, pl, _ = conv._pads
    s = conv.stride
    g2 = gy.reshape(-1, oc)
    gxp = np.zeros(xp_shape)
    for i in range(conv.kh):
        for j in range(conv.kw):
            tap = (g2 @ conv.weight[:, :, i, j]).reshape(xp_shape[0], oh, ow, xp_shape[3])
            gxp[:, i : i + s * oh : s, j : j + s * ow : s, :] += tap
    return gxp[:, pt : pt + h, pl : pl + w, :]


def tap_loop_pool_adjoint(pool, gy):
    """AvgPool2D's adjoint as k*k strided adds of gy / k^2 into zeros, one per window tap."""
    oh, ow, _ = pool.out_shape
    h, w, c = pool.in_shape
    k, s = pool.pool, pool.stride
    gx = np.zeros((gy.shape[0], h, w, c))
    g = gy / (k * k)
    for i in range(k):
        for j in range(k):
            gx[:, i : i + s * oh : s, j : j + s * ow : s, :] += g
    return gx


def assert_bits_equal(got, want):
    """The same values and the same sign on every zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def assert_sum_close(got, want, scale, rtol=1e-12):
    """|got - want| within rtol of `scale`, the same sum taken over absolute values.

    A reordered floating-point sum moves by a few ulps of its summands'
    magnitude, not of its own value, which can cancel to near zero.
    """
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * scale)


def linear_op_matrix(apply_fn, in_shape, out_shape):
    """Materialize a linear map as an explicit matrix, one basis vector at a time."""
    m, n = int(np.prod(out_shape)), int(np.prod(in_shape))
    mat = np.zeros((m, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        mat[:, j] = apply_fn(e.reshape(in_shape)).ravel()
    return mat


def fd_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def relu_kink_margin(net, x):
    """Smallest |preactivation| feeding any ReLU; large margin keeps FD honest."""
    margin = np.inf
    a = np.asarray(x)[None]
    for layer in net.layers:
        if isinstance(layer, ReLU):
            margin = min(margin, float(np.abs(a).min()))
        a, _ = layer.forward(a)
    return margin


def grad_params(net, xb, labels):
    """Gradients of the summed loss w.r.t. `params_of(net)`, from the backward pass."""
    _, _, pgs = net._backprop(xb, labels, need_input=False, need_params=True)
    return [g for pg in pgs for g in pg]


def loss(net, x, label):
    """Softmax cross-entropy of one input's logits at `label`."""
    return float(_xent(net.forward_batch(np.asarray(x)[None]), np.array([label]))[0])


def dense_net(weight, bias, *tail):
    """A network whose first layer is a Dense with the given weight and bias, then `tail`."""
    weight, bias = np.asarray(weight, dtype=np.float64), np.asarray(bias, dtype=np.float64)
    net = Network([Dense(len(bias)), *tail], weight.shape[1:], len(bias), seed=0)
    net.layers[0].params = [weight, bias]
    return net


def small_conv_net(seed, with_relu=True):
    layers = [Conv2D(2, 3, padding="same")]
    if with_relu:
        layers.append(ReLU())
    layers += [AvgPool2D(2), Flatten(), Dense(3)]
    return Network(layers, (6, 6, 1), 3, seed=seed)


# ---------------------------------------------------------------- forward

def test_forward_identity_dense():
    net = dense_net(np.eye(2), np.zeros(2))
    assert np.array_equal(net.forward_batch([[1.0, 2.0]]), [[1.0, 2.0]])


def test_forward_hand_linear():
    net = dense_net([[1.0, 0.0], [0.0, -1.0]], [0.0, 1.0])
    assert np.array_equal(net.forward_batch([[3.0, 5.0]]), [[3.0, -4.0]])


def test_forward_matches_naive_recomputation():
    rng = rng_from(11)
    net = small_conv_net(seed=7)
    x = rng.uniform(size=(6, 6, 1))

    conv, _, pool, _, dense = net.layers
    a = naive_conv2d_same(conv.weight, conv.bias, x)
    a = np.maximum(a, 0.0)
    # 2x2 disjoint block means
    pooled = np.zeros((3, 3, 2))
    for i in range(3):
        for j in range(3):
            pooled[i, j] = a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean(axis=(0, 1))
    want = naive_dense(dense.weight, dense.bias, pooled.ravel())

    np.testing.assert_allclose(net.forward_batch(x[None])[0], want, rtol=1e-12, atol=1e-12)


def test_forward_batch_consistent_with_single():
    rng = rng_from(12)
    net = small_conv_net(seed=3)
    xb = rng.uniform(size=(5, 6, 6, 1))
    out = net.forward_batch(xb)
    # batched BLAS may reduce in a different order than batch-of-one
    for i in range(5):
        np.testing.assert_allclose(out[i], net.forward_batch(xb[i : i + 1])[0], rtol=1e-9, atol=1e-12)


def test_forward_deterministic():
    net = small_conv_net(seed=1)
    x = rng_from(2).uniform(size=(6, 6, 1))
    assert np.array_equal(net.forward_batch(x[None]), net.forward_batch(x[None]))


def test_forward_rejects_wrong_shape():
    net = small_conv_net(seed=0)
    with pytest.raises(ShapeMismatchError):
        net.forward_batch(np.zeros((1, 5, 6, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    net = small_conv_net(seed=0)
    xb = np.full((2, 6, 6, 1), 0.5)
    xb[1, 3, 2, 0] = bad
    for call in (net.classify_batch, net.forward_batch, lambda b: net.grad_input_batch(b, [0, 1])):
        with pytest.raises(ValueError, match="non-finite"):
            call(xb)
    with pytest.raises(ValueError, match="non-finite"):
        net.classify_batch(np.full((1, 6, 6, 1), np.nan))


def test_empty_batch_returns_empty_results():
    net = small_conv_net(seed=0)
    xb = np.zeros((0, 6, 6, 1))
    assert net.forward_batch(xb).shape == (0, net.num_classes)
    labels = net.classify_batch(xb)
    assert labels.shape == (0,) and labels.dtype == np.int64
    assert net.grad_input_batch(xb, np.zeros(0, dtype=int)).shape == xb.shape


def test_incompatible_layer_chain_rejected():
    with pytest.raises(ShapeMismatchError):
        Network([Conv2D(2, 3), Dense(3)], (6, 6, 1), 3, seed=0)


def test_wrong_output_arity_rejected():
    with pytest.raises(ShapeMismatchError):
        Network([Dense(4)], (2,), 3, seed=0)


# ---------------------------------------------------------------- classify

def _logit_net(v):
    v = np.asarray(v, dtype=np.float64)
    return dense_net(np.zeros((len(v), 1)), v)


def classify(net, x):
    return int(net.classify_batch(np.asarray(x)[None])[0])


def test_classify_basic_and_tie():
    assert classify(_logit_net([0.1, 0.9]), [0.0]) == 1
    assert classify(_logit_net([0.5, 0.5]), [0.0]) == 0


def test_classify_matches_scan_of_forward():
    rng = rng_from(21)
    net = small_conv_net(seed=4)
    for _ in range(20):
        x = rng.uniform(size=(6, 6, 1))
        scores = net.forward_batch(x[None])[0]
        best, arg = -np.inf, 0
        for i, s in enumerate(scores):
            if s > best:
                best, arg = s, i
        assert classify(net, x) == arg


@given(
    # rounded so pairwise gaps stay representable after shifting/scaling
    logits=st.lists(st.floats(-50, 50).map(lambda t: round(t, 6)), min_size=2, max_size=6),
    shift=st.floats(-100, 100),
    scale=st.floats(0.01, 100),
)
def test_classify_invariant_under_shift_and_positive_scale(logits, shift, scale):
    v = np.array(logits)
    x = [0.0]
    assert classify(_logit_net(v), x) == classify(_logit_net(v + shift), x)
    assert classify(_logit_net(v), x) == classify(_logit_net(v * scale), x)


# ---------------------------------------------------------------- loss

def test_loss_uniform_softmax():
    assert loss(_logit_net([0.0, 0.0]), [0.0], 0) == pytest.approx(np.log(2), rel=1e-12)


def test_loss_large_margin_near_zero():
    value = loss(_logit_net([60.0, 0.0]), [0.0], 0)
    assert 0 < value < 1e-20


def test_loss_matches_direct_formula():
    rng = rng_from(31)
    for _ in range(20):
        v = rng.normal(size=4) * 3
        label = int(rng.integers(4))
        want = -np.log(np.exp(v[label]) / np.exp(v).sum())
        assert loss(_logit_net(v), [0.0], label) == pytest.approx(want, rel=1e-10)


def test_loss_rejects_bad_label():
    with pytest.raises(ValueError):
        _logit_net([0.0, 0.0]).grad_input_batch([[0.0]], [2])
    with pytest.raises(ValueError):
        _logit_net([0.0, 0.0]).grad_input_batch([[0.0]], [-1])


@pytest.mark.parametrize("n_labels", [2, 4])
def test_gradient_needs_one_label_per_image(n_labels):
    net = small_conv_net(seed=0)
    xb = np.full((3, 6, 6, 1), 0.5)
    with pytest.raises(ValueError, match=f"got {n_labels} labels for 3 images"):
        net.grad_input_batch(xb, [0] * n_labels)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=5), st.integers(0, 4))
def test_loss_strictly_positive_for_finite_logits(logits, label):
    if label >= len(logits):
        label = 0
    assert loss(_logit_net(logits), [0.0], label) > 0


# ---------------------------------------------------------------- gradients

def test_grad_input_linear_closed_form():
    rng = rng_from(41)
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    x = rng.normal(size=4)
    net = dense_net(w, b)
    z = w @ x + b
    p = np.exp(z) / np.exp(z).sum()
    p[1] -= 1.0
    np.testing.assert_allclose(net.grad_input_batch(x[None], [1])[0], p @ w, rtol=1e-12)


def test_grad_input_zero_weight_net_constant():
    b = np.array([0.3, -1.2, 0.5])
    net = dense_net(np.zeros((3, 5)), b)
    g = net.grad_input_batch(np.stack([np.full(5, 0.7), rng_from(5).normal(size=5)]), [2, 2])
    assert np.array_equal(g[0], g[1])
    assert np.array_equal(g[0], np.zeros(5))


@pytest.mark.parametrize("with_relu", [False, True])
def test_grad_input_matches_finite_differences(with_relu):
    for seed in range(10):
        net = small_conv_net(seed=seed, with_relu=with_relu)
        x = rng_from(100 + seed).uniform(0.2, 0.8, size=(6, 6, 1))
        if with_relu and relu_kink_margin(net, x) < 1e-3:
            continue
        got = net.grad_input_batch(x[None], [1])[0]
        want = fd_grad(lambda z: loss(net, z, 1), x)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-7)
        return
    pytest.fail("no kink-free sample found")


def test_grad_params_matches_finite_differences():
    net = small_conv_net(seed=2)
    x = rng_from(55).uniform(0.2, 0.8, size=(6, 6, 1))
    assert relu_kink_margin(net, x) > 1e-3
    grads = grad_params(net, x[None], [0])
    params = params_of(net)
    assert len(grads) == len(params) == 4
    for p, g in zip(params, grads):
        want = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + 1e-5
            lp = loss(net, x, 0)
            p[idx] = orig - 1e-5
            lm = loss(net, x, 0)
            p[idx] = orig
            want[idx] = (lp - lm) / 2e-5
        np.testing.assert_allclose(g, want, rtol=1e-4, atol=1e-7)


def test_grad_params_no_parameter_layers():
    net = Network([ReLU()], (3,), 3)
    assert grad_params(net, np.array([[1.0, 2.0, 3.0]]), [0]) == []


def test_grad_params_batch_duplication_doubles_sum():
    net = small_conv_net(seed=6)
    xb = rng_from(66).uniform(size=(3, 6, 6, 1))
    yb = np.array([0, 1, 2])
    once = grad_params(net, xb, yb)
    twice = grad_params(net, np.concatenate([xb, xb]), np.concatenate([yb, yb]))
    for a, b in zip(once, twice):
        np.testing.assert_allclose(2 * a, b, rtol=1e-12)


def test_gradients_do_not_mutate_network():
    net = small_conv_net(seed=8)
    before = [p.copy() for p in params_of(net)]
    xb = rng_from(9).uniform(size=(1, 6, 6, 1))
    net.forward_batch(xb)
    net.grad_input_batch(xb, [0])
    grad_params(net, xb, [0])
    for p, q in zip(params_of(net), before):
        assert np.array_equal(p, q)


# ---------------------------------------------------------------- train

def separable_blobs(n_per_class=40, seed=0):
    rng = rng_from(seed)
    a = rng.normal(scale=0.15, size=(n_per_class, 2)) + [-1.0, 0.0]
    b = rng.normal(scale=0.15, size=(n_per_class, 2)) + [1.0, 0.0]
    xs = np.concatenate([a, b])
    ys = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(xs, ys, num_classes=2)


def test_train_separable_set_high_accuracy():
    ds = separable_blobs()
    net = Network([Dense(8), ReLU(), Dense(2)], (2,), 2, seed=0)
    cfg = TrainConfig(learning_rates=(0.1, 0.01, 0.001), epochs_per_rate=3, batch_size=16)
    trained, _ = train(net, ds, cfg)
    assert np.mean(trained.classify_batch(ds.images) == ds.labels) >= 0.95


def test_train_zero_epochs_is_identity():
    net = Network([Dense(2)], (2,), 2, seed=1)
    out, log = train(net, separable_blobs(), TrainConfig(epochs_per_rate=0))
    assert log == []
    for p, q in zip(params_of(out), params_of(net)):
        assert np.array_equal(p, q)


def test_train_same_seed_bit_identical():
    ds = separable_blobs()
    cfg = TrainConfig(epochs_per_rate=1, rng_seed=3)
    net = Network([Dense(4), ReLU(), Dense(2)], (2,), 2, seed=2)
    t1, _ = train(net, ds, cfg)
    t2, _ = train(net, ds, cfg)
    for p, q in zip(params_of(t1), params_of(t2)):
        assert p.tobytes() == q.tobytes()


def test_train_does_not_touch_original():
    net = Network([Dense(2)], (2,), 2, seed=4)
    before = [p.copy() for p in params_of(net)]
    train(net, separable_blobs(), TrainConfig(epochs_per_rate=1))
    for p, q in zip(params_of(net), before):
        assert np.array_equal(p, q)


def _train_with_separate_loss_pass(net, dataset, cfg, augment=None):
    """Oracle: the SGD loop that measured each batch's loss with its own forward pass."""
    xs, ys = dataset.images, dataset.labels
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
                losses += float(_xent(net.forward_batch(xb), yb).sum())
                pgs = grad_params(net, xb, yb)
                scale = rate / len(idx)
                for p, g in zip(params_of(net), pgs):
                    p -= scale * g
            log.append((ri, rate, epoch, losses / n))
    return net, log


def _jitter(net, rng, xb, yb):
    return xb + rng.normal(0.0, 0.05, size=xb.shape)


@pytest.mark.parametrize("augment", [None, _jitter])
def test_train_log_and_weights_match_separate_loss_pass(augment):
    ds = separable_blobs(n_per_class=25, seed=5)
    net = Network([Dense(6), ReLU(), Dense(2)], (2,), 2, seed=6)
    cfg = TrainConfig(learning_rates=(0.1, 0.01), epochs_per_rate=2, batch_size=16, rng_seed=8)
    got, got_log = train(net, ds, cfg, augment=augment)
    want, want_log = _train_with_separate_loss_pass(net, ds, cfg, augment=augment)
    assert got_log == want_log
    assert [row[:3] for row in got_log] == [(0, 0.1, 0), (0, 0.1, 1), (1, 0.01, 0), (1, 0.01, 1)]
    for p, q in zip(params_of(got), params_of(want)):
        assert p.tobytes() == q.tobytes()


def test_train_empty_dataset_rejected():
    net = Network([Dense(2)], (2,), 2, seed=0)
    with pytest.raises(ValueError):
        train(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), num_classes=2), TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rates=(0.1, -0.5))
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    # a NaN rate trains weights to NaN, and a NaN network labels every image class 0
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning rates must be finite and positive"):
            TrainConfig(learning_rates=(0.1, rate))


@pytest.mark.parametrize("field, minimum", [("epochs_per_rate", 0), ("batch_size", 1)])
@pytest.mark.parametrize("value", [2.5, True, "3", -1])
def test_train_config_counts_must_be_integers(field, minimum, value):
    # 2.5 used to fail inside range(); True trained one epoch or one-image batches
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= {minimum}, got {value!r}$"):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------- Conv2D

@settings(deadline=None, max_examples=300)
@given(
    batch=st.integers(0, 5), h=st.integers(1, 12), w=st.integers(1, 12), c=st.integers(1, 4),
    out=st.integers(1, 8), kh=st.integers(1, 5), kw=st.integers(1, 5), stride=st.integers(1, 3),
    padding=st.sampled_from(["same", "valid"]), seed=st.integers(0, 2**32 - 1),
)
@example(batch=1, h=1, w=1, c=1, out=3, kh=1, kw=1, stride=1, padding="valid", seed=1)
@example(batch=4, h=16, w=16, c=1, out=8, kh=3, kw=3, stride=1, padding="same", seed=0)
def test_conv_matches_tap_loop_oracle(batch, h, w, c, out, kh, kw, stride, padding, seed):
    if padding == "valid":
        kh, kw = min(kh, h), min(kw, w)
    conv = Conv2D(out, (kh, kw), stride=stride, padding=padding)
    conv.bind((h, w, c))
    rng = rng_from(seed)
    conv.init_params(rng)
    conv.bias = rng.normal(size=out)
    x = rng.normal(size=(batch, h, w, c))
    x[rng.random(x.shape) < 0.25] = 0.0  # exact zeros make products of either sign of zero
    y, xp = conv.forward(x)
    aw, axp = np.abs(conv.weight), np.abs(xp)
    assert_sum_close(y, tap_loop_linear(conv, xp, conv.weight) + conv.bias,
                     tap_loop_linear(conv, axp, aw) + np.abs(conv.bias))

    gy = rng.normal(size=y.shape)
    gx, (gw, gb) = conv.backward(xp, gy)
    assert_sum_close(gx, tap_loop_input_grad(conv, gy, conv.weight),
                     tap_loop_input_grad(conv, np.abs(gy), aw))
    s = conv.stride
    oh, ow, _ = conv.out_shape
    # Bit for bit against the strided weight[:, :, i, j] products, except with
    # one output cell (N*oh*ow = 1): there BLAS takes its one-row path, whose
    # last bit may depend on the weight's layout. With one input channel each
    # forward product is one multiply on any path, so it is pinned there too.
    if batch * oh * ow >= 2 or c == 1:
        assert_bits_equal(y, strided_tap_linear(conv, xp) + conv.bias)
    if batch * oh * ow >= 2:
        assert_bits_equal(gx, strided_tap_input_grad(conv, gy, xp.shape))
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, i : i + s * oh : s, j : j + s * ow : s, :]
            assert np.array_equal(gw[:, :, i, j], np.tensordot(gy, sl, axes=([0, 1, 2], [0, 1, 2])))
    assert np.array_equal(gb, gy.sum(axis=(0, 1, 2)))


@pytest.mark.parametrize(
    "kernel, stride, padding, in_shape",
    [
        ((3, 3), 2, "same", (6, 6, 2)),  # stride 2 on an even size: one more pad below and right
        ((2, 4), 1, "same", (5, 7, 3)),  # even kernels: one more pad below and right
        ((3, 2), 3, "same", (7, 4, 1)),
        ((3, 3), 1, "valid", (5, 4, 2)),  # no padding: the input itself
    ],
)
def test_conv_pad_matches_np_pad_bit_for_bit(kernel, stride, padding, in_shape):
    conv = Conv2D(2, kernel, stride=stride, padding=padding)
    conv.bind(in_shape)
    pt, pb, pl, pr = conv._pads
    assert padding == "valid" or (pt, pl) != (pb, pr)
    x = rng_from(79).normal(size=(3,) + in_shape)
    x[0, 0, 0, 0] = -0.0
    want = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    assert_bits_equal(conv._pad(x), want)


# ---------------------------------------------------------------- AvgPool2D

@settings(deadline=None, max_examples=300)
@given(
    batch=st.integers(0, 4), k=st.integers(1, 4), step=st.integers(0, 3), h=st.integers(0, 9),
    w=st.integers(0, 9), c=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
)
@example(batch=2, k=2, step=0, h=0, w=2, c=2, seed=1)  # stride == pool, sizes that divide
@example(batch=2, k=2, step=0, h=1, w=3, c=2, seed=2)  # stride == pool, sizes that do not
@example(batch=2, k=3, step=1, h=2, w=4, c=1, seed=3)  # overlapping windows
@example(batch=0, k=2, step=0, h=1, w=0, c=3, seed=4)  # empty batch
def test_avgpool_adjoint_matches_tap_loop_bit_for_bit(batch, k, step, h, w, c, seed):
    # stride = pool - step (windows overlap when step > 0); the input is
    # k + h by k + w; a third of the upstream cells are signed zeros
    stride = max(k - step, 1)
    pool = AvgPool2D(k, stride=stride)
    pool.bind((k + h, k + w, c))
    rng = rng_from(seed)
    gy = rng.normal(size=(batch,) + pool.out_shape)
    gy[rng.random(gy.shape) < 1 / 3] = 0.0
    gy[rng.random(gy.shape) < 1 / 2] *= -1
    gx, pg = pool.backward(None, gy)
    assert pg == []
    assert_bits_equal(gx, tap_loop_pool_adjoint(pool, gy))


# ---------------------------------------------------------------- Lipschitz

def test_lipschitz_scaled_identity():
    net = dense_net(2 * np.eye(2), np.zeros(2))
    assert net.lipschitz_upper_bound() == pytest.approx(2.0, rel=1e-6)


def test_lipschitz_diag_then_relu():
    net = dense_net(np.diag([3.0, 1.0]), np.zeros(2), ReLU())
    assert net.lipschitz_upper_bound() == pytest.approx(3.0, rel=1e-6)


def test_power_iteration_matches_svd():
    rng = rng_from(71)
    w = rng.normal(size=(10, 7))
    got = power_iteration(lambda v: w @ v, lambda u: w.T @ u, (7,), rng_from(72))
    assert got == pytest.approx(np.linalg.svd(w, compute_uv=False)[0], rel=1e-5)


def test_conv_spectral_norm_matches_explicit_matrix():
    conv = Conv2D(2, 3, padding="same")
    conv.bind((4, 4, 1))
    conv.init_params(rng_from(73))
    mat = linear_op_matrix(lambda v: conv._linear(conv._pad(v[None]))[0], (4, 4, 1), (4, 4, 2))
    want = np.linalg.svd(mat, compute_uv=False)[0]
    assert conv.lipschitz_bound(rng_from(74)) == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize(
    "stride, padding, in_shape",
    [(2, "same", (5, 5, 2)), (2, "same", (6, 3, 1)), (1, "valid", (5, 4, 2)), (2, "valid", (6, 5, 1))],
)
def test_conv_strided_and_valid_norm_matches_explicit_matrix(stride, padding, in_shape):
    conv = Conv2D(3, 3, stride=stride, padding=padding)
    conv.bind(in_shape)
    conv.init_params(rng_from(77))
    mat = linear_op_matrix(lambda v: tap_loop_linear(conv, conv._pad(v[None]), conv.weight)[0],
                           in_shape, conv.out_shape)
    want = np.linalg.svd(mat, compute_uv=False)[0]
    assert conv.lipschitz_bound(rng_from(78)) == pytest.approx(want, rel=1e-4)


@settings(deadline=None, max_examples=100)
@given(
    h=st.integers(1, 8), w=st.integers(1, 8), c=st.integers(1, 3), out=st.integers(1, 4),
    kh=st.integers(1, 4), kw=st.integers(1, 4), stride=st.integers(1, 3),
    padding=st.sampled_from(["same", "valid"]), seed=st.integers(0, 2**32 - 1),
)
def test_conv_lipschitz_matches_tap_loop_power_iteration(h, w, c, out, kh, kw, stride, padding, seed):
    if padding == "valid":
        kh, kw = min(kh, h), min(kw, w)
    conv = Conv2D(out, (kh, kw), stride=stride, padding=padding)
    conv.bind((h, w, c))
    conv.init_params(rng_from(seed))
    want = power_iteration(
        lambda v: tap_loop_linear(conv, conv._pad(v[None]), conv.weight)[0],
        lambda u: tap_loop_input_grad(conv, u[None], conv.weight)[0],
        conv.in_shape,
        rng_from(seed, 1),
    )
    # a rounding change can move the stop by one round, so compare at the stopping tolerance
    assert conv.lipschitz_bound(rng_from(seed, 1)) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize(
    "a",
    [
        rng_from(80).normal(size=17),
        rng_from(81).normal(size=(5, 4, 3)),
        rng_from(82).normal(size=(6, 4, 3)).transpose(2, 0, 1),  # not contiguous
        np.zeros((4, 3)),
    ],
    ids=["1-d", "3-d", "transposed", "zeros"],
)
def test_l2norm_matches_np_linalg_norm_bit_for_bit(a):
    got, want = l2norm(a), np.linalg.norm(a)
    assert type(got) is type(want) and got.tobytes() == want.tobytes()


def test_network_lipschitz_matches_append_and_norm_power_iteration():
    """A seeded desk net's bound equals the product the layers made with np.append
    and np.linalg.norm in every power-iteration round, bit for bit."""

    def norm_power_iteration(apply_fn, adjoint_fn, in_shape, rng, max_iter=200, tol=1e-6):
        v = rng.standard_normal(in_shape)
        v /= np.linalg.norm(v)
        sigma_prev = 0.0
        for _ in range(max_iter):
            u = apply_fn(v)
            sigma = float(np.linalg.norm(u))
            w = adjoint_fn(u)
            v = w / np.linalg.norm(w)
            if abs(sigma - sigma_prev) <= tol * sigma:
                break
            sigma_prev = sigma
        return sigma

    def conv_bound(conv, rng):
        h, w, c = conv.in_shape
        oh, ow, _ = conv.out_shape
        pt, pb, pl, pr = conv._pads
        s, n = conv.stride, h * w * c
        cells = np.pad(np.arange(n).reshape(h, w, c), ((pt, pb), (pl, pr), (0, 0)),
                       constant_values=n)
        windows = np.lib.stride_tricks.sliding_window_view(cells, (conv.kh, conv.kw), axis=(0, 1))
        idx = windows[: s * oh : s, : s * ow : s].reshape(oh * ow, -1)
        wm = conv.weight.reshape(conv.out_channels, -1)
        return norm_power_iteration(
            lambda v: np.append(v.ravel(), 0.0)[idx] @ wm.T,
            lambda u: np.bincount(idx.ravel(), weights=(u @ wm).ravel(), minlength=n + 1)[:n],
            conv.in_shape,
            rng,
        )

    net = build_network(DESK_ARCH, (16, 16, 3), 4, seed=83)
    # a few start vectors: a norm off by one ulp shows in a final estimate only some of the time
    for seed in range(4):
        want = 1.0
        for i, layer in enumerate(net.layers):
            rng = rng_from(seed, i, 0x4C49)  # the stream lipschitz_upper_bound(seed) gives layer i
            if isinstance(layer, Conv2D):
                want *= conv_bound(layer, rng)
            elif isinstance(layer, Dense):
                w = layer.weight
                want *= norm_power_iteration(lambda v: w @ v, lambda u: w.T @ u, layer.in_shape, rng)
            else:
                want *= layer.lipschitz_bound(rng)
        assert net.lipschitz_upper_bound(seed=seed) == want


def test_avgpool_norm_matches_explicit_matrix():
    """The closed-form bound is >= the operator norm, and equals it for disjoint windows."""
    for pool_size, stride, side in [(2, 2, 4), (2, 1, 6), (3, 1, 7), (3, 2, 9), (2, 3, 8), (3, 3, 7)]:
        pool = AvgPool2D(pool_size, stride=stride)
        pool.bind((side, side, 2))
        mat = linear_op_matrix(lambda v: pool._apply(v[None])[0], pool.in_shape, pool.out_shape)
        want = np.linalg.svd(mat, compute_uv=False)[0]
        got = pool.lipschitz_bound(rng_from(75))
        assert got == math.ceil(pool_size / stride) / pool_size
        assert got >= want
        if stride >= pool_size:
            assert got == 1.0 / pool_size and want == pytest.approx(got, rel=1e-12)


def test_lipschitz_bounds_sampled_ratios():
    net = small_conv_net(seed=9)
    bound = net.lipschitz_upper_bound()
    rng = rng_from(76)
    shape = (10_000, 6, 6, 1)
    xs = rng.uniform(size=shape)
    xs2 = xs + rng.normal(scale=0.05, size=shape)
    fa = net.forward_batch(xs)
    fb = net.forward_batch(xs2)
    num = np.linalg.norm(fa - fb, axis=1)
    den = np.linalg.norm((xs - xs2).reshape(len(xs), -1), axis=1)
    assert np.all(num <= bound * den + 1e-12)


# ---------------------------------------------------------------- builders

def test_build_network_resolves_class_count():
    arch = [
        {"kind": "Conv2D", "out_channels": 4, "kernel": [3, 3], "stride": 1, "padding": "same"},
        {"kind": "ReLU"},
        {"kind": "AvgPool2D", "pool": 2},
        {"kind": "Flatten"},
        {"kind": "Dense", "out_features": None},
    ]
    net = build_network(arch, (8, 8, 3), 5, seed=0)
    assert net.forward_batch(np.zeros((1, 8, 8, 3))).shape == (1, 5)
    net4 = build_network(arch, (8, 8, 3), 4, seed=0)
    assert net4.num_classes == 4


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_network_seeding_reproducible(seed):
    a = small_conv_net(seed=seed)
    b = small_conv_net(seed=seed)
    for p, q in zip(params_of(a), params_of(b)):
        assert p.tobytes() == q.tobytes()
