import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fenet.filters import (
    _CHUNK_PIXELS,
    _SPREAD3,
    _by_chunks,
    _unique_runs,
    KINDS,
    FilterSpec,
    apply,
    apply_batch,
    bpda_backward,
    default_filters,
    discretize,
    downsize,
    filter_spec,
    frequency_filter,
    gaussian_mask,
    grayscale,
    octree_quantize,
    output_shape,
)
from fenet.util import clamp01, rng_from, round_half_up

images = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(2, 8), st.just(3)),
    elements=st.floats(0, 1),
)


def rand_img(seed, h=8, w=8, c=3):
    return rng_from(seed).uniform(size=(h, w, c))


def distinct_colors(img):
    return len(np.unique(img.reshape(-1, img.shape[2]), axis=0))


# ---------------------------------------------------------------- dispatch

def test_identity_returns_image():
    img = rand_img(1)
    out = apply(filter_spec("identity"), img)
    assert np.array_equal(out, img)
    assert out is not img


def bank_for(img):
    specs = default_filters()
    h, w = img.shape[:2]
    specs["downsize"] = filter_spec("downsize", target=(max(1, h // 2), max(1, w // 2)))
    return specs


def test_apply_shapes_match_output_shape():
    img = rand_img(2, 32, 32)
    for name, spec in default_filters().items():
        out = apply(spec, img)
        assert out.shape == output_shape(spec, img.shape), name
        assert out.min() >= 0.0 and out.max() <= 1.0, name


def test_apply_batch_stacks():
    imgs = rng_from(3).uniform(size=(4, 8, 8, 3))
    out = apply_batch(filter_spec("grayscale"), imgs)
    assert out.shape == (4, 8, 8, 1)
    np.testing.assert_array_equal(out[2], apply(filter_spec("grayscale"), imgs[2]))


@pytest.mark.parametrize("name", sorted(default_filters()))
def test_apply_batch_empty_has_the_output_shape(name):
    spec = default_filters()[name]
    out = apply_batch(spec, np.zeros((0, 16, 16, 3)))
    assert out.shape == (0,) + output_shape(spec, (16, 16, 3))


def test_spec_validation():
    with pytest.raises(ValueError):
        filter_spec("sharpen")
    with pytest.raises(ValueError):
        filter_spec("octree", max_colors=1)
    with pytest.raises(ValueError):
        filter_spec("octree", depth=9)
    with pytest.raises(ValueError):
        filter_spec("lowpass", sigma=0.0)
    with pytest.raises(ValueError):
        filter_spec("downsize", target=(0, 4))
    with pytest.raises(ValueError):
        filter_spec("downsize")
    with pytest.raises(ValueError):
        filter_spec("identity", sigma=3.0)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        # a cast would run [4.7, 4] at 4x4 while the config says 4.7
        ("downsize", {"target": [4.7, 4]}, "downsize target must be two integers >= 1, (H, W), got [4.7, 4]"),
        ("downsize", {"target": 5}, "downsize target must be two integers >= 1, (H, W), got 5"),
        ("downsize", {"target": (4,)}, "downsize target must be two integers >= 1, (H, W), got (4,)"),
        ("downsize", {"target": (True, 4)}, "downsize target must be two integers >= 1, (H, W), got (True, 4)"),
        ("downsize", {"target": "44"}, "downsize target must be two integers >= 1, (H, W), got '44'"),
        ("downsize", {}, "downsize target must be two integers >= 1, (H, W), got None"),
        ("octree", {"max_colors": 1.5}, "octree max_colors must be an integer >= 2, got 1.5"),
        ("octree", {"max_colors": True}, "octree max_colors must be an integer >= 2, got True"),
        ("octree", {"max_colors": "16"}, "octree max_colors must be an integer >= 2, got '16'"),
        # 7.5 is inside [1, 8] but would fail in np.right_shift at apply time
        ("octree", {"depth": 7.5}, "octree depth must be an integer in [1, 8], got 7.5"),
        ("octree", {"depth": True}, "octree depth must be an integer in [1, 8], got True"),
        ("lowpass", {"sigma": "x"}, "lowpass sigma must be a finite number > 0, got 'x'"),
        ("highpass", {"sigma": True}, "highpass sigma must be a finite number > 0, got True"),
        ("lowpass", {"sigma": math.inf}, "lowpass sigma must be a finite number > 0, got inf"),
        ("highpass", {"sigma": math.nan}, "highpass sigma must be a finite number > 0, got nan"),
        ("lowpass", {"sigma": None}, "lowpass sigma must be a finite number > 0, got None"),
    ],
)
def test_spec_rejects_mistyped_parameters(kind, params, message):
    with pytest.raises(ValueError) as info:
        filter_spec(kind, **params)
    assert str(info.value) == message


def test_spec_keeps_integer_parameters_as_given():
    # numpy integers are integers; a list target is kept, not truncated or cast
    spec = filter_spec("downsize", target=[np.int64(3), 5])
    assert spec.param("target") == [3, 5]
    assert output_shape(spec, (8, 8, 3)) == (3, 5, 3)
    assert apply(spec, rand_img(0)).shape == (3, 5, 3)
    octree = filter_spec("octree", max_colors=np.int32(4), depth=np.int64(6))
    assert distinct_colors(apply(octree, rand_img(1))) <= 4
    assert apply(filter_spec("lowpass", sigma=np.float32(2.5)), rand_img(2)).shape == (8, 8, 3)


def test_rejects_bad_images():
    with pytest.raises(ValueError):
        apply(filter_spec("identity"), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        apply(filter_spec("identity"), np.zeros((4, 4, 2)))
    bad = np.zeros((4, 4, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        apply(filter_spec("identity"), bad)


# ---------------------------------------------------------------- discretize

def test_discretize_half_rounds_up():
    assert discretize(np.full((1, 1, 1), 0.5 / 255))[0, 0, 0] == 1 / 255
    assert discretize(np.full((1, 1, 1), 0.49 / 255))[0, 0, 0] == 0.0


def test_discretize_fixed_points():
    img = np.arange(256).reshape(16, 16, 1) / 255.0
    assert np.array_equal(discretize(img), img)


@given(images)
def test_discretize_idempotent(img):
    once = discretize(img)
    assert np.array_equal(discretize(once), once)
    assert once.min() >= 0 and once.max() <= 1


# ---------------------------------------------------------------- grayscale

def test_grayscale_primaries():
    red = np.zeros((1, 1, 3))
    red[..., 0] = 1.0
    assert grayscale(red)[0, 0, 0] == 0.299
    assert grayscale(np.zeros((1, 1, 3)))[0, 0, 0] == 0.0


def test_grayscale_of_gray_is_gray():
    img = np.full((3, 3, 3), 0.4375)
    np.testing.assert_allclose(grayscale(img)[..., 0], 0.4375, rtol=1e-12)


def test_grayscale_rejects_single_channel():
    with pytest.raises(ValueError):
        grayscale(np.zeros((4, 4, 1)))


# ---------------------------------------------------------------- downsize

def test_downsize_same_size_is_identity():
    img = rand_img(4, 6, 5)
    assert np.array_equal(downsize(img, 6, 5), img)


def test_downsize_constant_stays_constant():
    img = np.full((7, 9, 3), 0.314)
    np.testing.assert_allclose(downsize(img, 3, 4), 0.314, rtol=1e-12)


def test_downsize_4x4_ramp_hand_computed():
    # scale 2 puts each target center midway between two source rows/cols,
    # so every output pixel is the equal-weight mean of a 2x2 block
    img = (np.arange(16).reshape(4, 4) / 15.0)[..., None]
    out = downsize(img, 2, 2)
    for i in range(2):
        for j in range(2):
            want = 0.25 * (
                img[2 * i, 2 * j, 0]
                + img[2 * i, 2 * j + 1, 0]
                + img[2 * i + 1, 2 * j, 0]
                + img[2 * i + 1, 2 * j + 1, 0]
            )
            assert out[i, j, 0] == pytest.approx(want, rel=1e-12)


def test_downsize_rejects_upscale():
    with pytest.raises(ValueError):
        downsize(rand_img(5, 4, 4), 8, 4)


@given(images, st.integers(1, 4), st.integers(1, 4))
def test_downsize_stays_in_range(img, th, tw):
    th = min(th, img.shape[0])
    tw = min(tw, img.shape[1])
    out = downsize(img, th, tw)
    assert out.shape == (th, tw, 3)
    assert out.min() >= -1e-12 and out.max() <= 1 + 1e-12


# ---------------------------------------------------------------- octree

def test_octree_limits_distinct_colors():
    for seed in range(5):
        img = rand_img(seed, 16, 16)
        out = octree_quantize(img, max_colors=16)
        assert distinct_colors(out) <= 16


def test_octree_few_colors_unchanged():
    # palette codes spaced by 32, far above the dropped least-significant bit
    rng = rng_from(9)
    palette = np.array([[r, g, b] for r in (0, 64) for g in (32, 128) for b in (96, 224)])
    idx = rng.integers(len(palette), size=(10, 10))
    img = palette[idx] / 255.0
    out = octree_quantize(img, max_colors=16)
    assert np.array_equal(out, img)


def test_octree_two_colors_kept():
    img = np.zeros((4, 4, 3))
    img[:2, :, 0] = 1.0
    img[2:, :, 2] = 1.0
    out = octree_quantize(img, max_colors=2)
    got = set(map(tuple, out.reshape(-1, 3)))
    assert got == {(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)}


def test_octree_never_increases_color_count():
    for seed in range(4):
        img = discretize(rand_img(seed + 20, 12, 12))
        out = octree_quantize(img, max_colors=16)
        assert distinct_colors(out) <= distinct_colors(img)


@pytest.mark.parametrize("depth", [1, 4, 7, 8])
@pytest.mark.parametrize("k", [2, 5, 16])
def test_octree_idempotent(depth, k):
    img = rand_img(31, 12, 12)
    once = octree_quantize(img, max_colors=k, depth=depth)
    twice = octree_quantize(once, max_colors=k, depth=depth)
    assert np.array_equal(twice, once)
    assert distinct_colors(once) <= k


def test_octree_structured_image():
    ramp = np.dstack([np.linspace(0, 1, 32)[None, :].repeat(32, 0)] * 3)
    out = octree_quantize(ramp, max_colors=8)
    assert distinct_colors(out) <= 8


def test_octree_deterministic():
    img = rand_img(44, 16, 16)
    a = octree_quantize(img, 16)
    b = octree_quantize(img, 16)
    assert np.array_equal(a, b)


def test_octree_rejects_grayscale():
    with pytest.raises(ValueError):
        octree_quantize(np.zeros((4, 4, 1)), 16)


def test_octree_validates_params():
    img = rand_img(1, 4, 4)
    with pytest.raises(ValueError):
        octree_quantize(img, max_colors=1)
    with pytest.raises(ValueError):
        octree_quantize(img, 16, depth=0)
    with pytest.raises(ValueError):
        octree_quantize(img, 16, depth=9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_octree_rejects_non_finite_pixels(bad):
    img = rand_img(3, 4, 4)
    img[1, 2, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning on the way to the error
        with pytest.raises(ValueError, match="image contains non-finite pixels"):
            octree_quantize(img)


class _OracleNode:
    __slots__ = ("rsum", "gsum", "bsum", "count", "seq")

    def __init__(self):
        self.rsum = 0
        self.gsum = 0
        self.bsum = 0
        self.count = 0
        self.seq = 1 << 62


def _octree_oracle(img, max_colors=16, depth=7):
    """The per-color dict walk octree_quantize replaced, minus checks and lookup cache."""
    img = np.asarray(img, dtype=np.float64)
    h, w, _ = img.shape
    codes = round_half_up(clamp01(img) * 255.0).astype(np.int64)
    packed = (codes[..., 0] << 16) | (codes[..., 1] << 8) | codes[..., 2]
    uniq, first, inverse, counts = np.unique(
        packed.ravel(), return_index=True, return_inverse=True, return_counts=True
    )
    ur = uniq >> 16
    ug = (uniq >> 8) & 0xFF
    ub = uniq & 0xFF
    seq_of = np.empty(len(uniq), dtype=np.int64)
    seq_of[np.argsort(first, kind="stable")] = np.arange(len(uniq))

    shift = 8 - depth
    levels = {lvl: {} for lvl in range(depth + 1)}
    bottom = levels[depth]
    for i in range(len(uniq)):
        key = (int(ur[i]) >> shift, int(ug[i]) >> shift, int(ub[i]) >> shift)
        node = bottom.get(key)
        if node is None:
            node = bottom[key] = _OracleNode()
        c = int(counts[i])
        node.rsum += int(ur[i]) * c
        node.gsum += int(ug[i]) * c
        node.bsum += int(ub[i]) * c
        node.count += c
        node.seq = min(node.seq, int(seq_of[i]))

    n_cells = len(bottom)
    lvl = depth
    while n_cells > max_colors:
        while not levels[lvl]:
            lvl -= 1
        cur = levels[lvl]
        parents = levels[lvl - 1]
        for key, node in sorted(cur.items(), key=lambda kv: (kv[1].count, kv[1].seq)):
            if n_cells <= max_colors:
                break
            if key not in cur:
                continue
            pkey = (key[0] >> 1, key[1] >> 1, key[2] >> 1)
            parent = _OracleNode()
            merged = 0
            for db in range(8):
                ck = (pkey[0] << 1 | db >> 2, pkey[1] << 1 | (db >> 1) & 1, pkey[2] << 1 | db & 1)
                child = cur.pop(ck, None)
                if child is None:
                    continue
                parent.rsum += child.rsum
                parent.gsum += child.gsum
                parent.bsum += child.bsum
                parent.count += child.count
                parent.seq = min(parent.seq, child.seq)
                merged += 1
            parents[pkey] = parent
            n_cells -= merged - 1

    def palette_code(s, n):
        return (2 * s + n) // (2 * n)

    out_codes = np.empty((len(uniq), 3), dtype=np.int64)
    for i in range(len(uniq)):
        r, g, b = int(ur[i]), int(ug[i]), int(ub[i])
        for lvl in range(depth, -1, -1):
            s = 8 - lvl
            node = levels[lvl].get((r >> s, g >> s, b >> s))
            if node is not None:
                break
        out_codes[i, 0] = palette_code(node.rsum, node.count)
        out_codes[i, 1] = palette_code(node.gsum, node.count)
        out_codes[i, 2] = palette_code(node.bsum, node.count)

    return (out_codes[inverse].reshape(h, w, 3)) / 255.0


@st.composite
def octree_cases(draw):
    """(image, max_colors, depth): few-color palettes or wide, out-of-range noise."""
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["palette", "wide", "narrow"]))
    if kind == "palette":
        palette = rng.uniform(-0.2, 1.2, size=(draw(st.integers(1, 80)), 3))
        img = palette[rng.integers(len(palette), size=(h, w))]
    elif kind == "wide":
        img = rng.uniform(-0.5, 1.5, size=(h, w, 3))
    else:
        img = rng.normal(rng.uniform(0, 1, size=3), 0.04, size=(h, w, 3))
    return img, draw(st.integers(2, 64)), draw(st.integers(1, 8))


@settings(max_examples=1000, deadline=None)
@given(octree_cases())
def test_octree_matches_dict_loop_oracle(case):
    img, k, depth = case
    out = octree_quantize(img, max_colors=k, depth=depth)
    want = _octree_oracle(img, max_colors=k, depth=depth)
    assert out.dtype == want.dtype
    assert np.array_equal(out, want)


@pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3)])
def test_octree_empty_image_matches_dict_loop_oracle(shape):
    out = octree_quantize(np.zeros(shape))
    assert out.shape == shape and np.array_equal(out, _octree_oracle(np.zeros(shape)))


# ---------------------------------------------------------------- DFT

# ---------------------------------------------------------------- frequency filters

def test_masks_complementary():
    g = gaussian_mask(8, 8, 3.0)
    assert g[4, 4] == 1.0
    assert np.array_equal(g + (1.0 - g), np.ones((8, 8)))
    assert g.min() > 0 and g.max() <= 1


def test_lowpass_constant_image_passes():
    img = np.full((8, 8, 3), 0.6)
    np.testing.assert_allclose(frequency_filter(img, 2.0, "low"), img, atol=1e-6)


def test_lowpass_huge_sigma_is_identity():
    img = rand_img(60)
    np.testing.assert_allclose(frequency_filter(img, 1e6, "low"), img, atol=1e-6)


def test_low_plus_high_reconstructs_unclamped():
    img = rand_img(61, 9, 6)
    low = frequency_filter(img, 2.5, "low")
    high = frequency_filter(img, 2.5, "high")
    np.testing.assert_allclose(low + high, img, atol=1e-6)


def test_frequency_filter_output_clamped():
    # frequency_filter leaves its output unclamped; apply is the one clamp
    img = rand_img(62)
    raw = frequency_filter(img, 1.0, "high")
    assert raw.min() < 0.0
    out = apply(filter_spec("highpass", sigma=1.0), img)
    assert np.array_equal(out, np.clip(raw, 0.0, 1.0))


def test_frequency_filter_mode_validated():
    with pytest.raises(ValueError):
        frequency_filter(rand_img(63), 1.0, "band")


# ---------------------------------------------------------------- BPDA rules

def linear_op_matrix(fn, in_shape, out_shape):
    m, n = int(np.prod(out_shape)), int(np.prod(in_shape))
    mat = np.zeros((m, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        mat[:, j] = fn(e.reshape(in_shape)).ravel()
    return mat


def test_bpda_identity_for_shape_preserving():
    gy = rng_from(70).normal(size=(8, 8, 3))
    for name in ("identity", "discretize", "octree16", "lowpass", "highpass"):
        spec = default_filters()[name]
        out = bpda_backward(spec, gy, (8, 8, 3))
        assert np.array_equal(out, gy), name


def test_bpda_grayscale_adjoint():
    gy = rng_from(71).normal(size=(4, 4, 1))
    out = bpda_backward(filter_spec("grayscale"), gy, (4, 4, 3))
    np.testing.assert_array_equal(out[..., 0], gy[..., 0] * 0.299)
    np.testing.assert_array_equal(out[..., 1], gy[..., 0] * 0.587)
    np.testing.assert_array_equal(out[..., 2], gy[..., 0] * 0.114)


def test_bpda_downsize_adjoint_matches_matrix_transpose():
    spec = filter_spec("downsize", target=(2, 2))
    mat = linear_op_matrix(lambda v: downsize(v, 2, 2), (4, 4, 1), (2, 2, 1))
    gy = rng_from(72).normal(size=(2, 2, 1))
    want = (mat.T @ gy.ravel()).reshape(4, 4, 1)
    got = bpda_backward(spec, gy, (4, 4, 1))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_bpda_adjoint_mode_frequency_filter():
    # real even mask makes the operator symmetric, so its adjoint is itself
    spec = filter_spec("lowpass", sigma=2.0)
    mat = linear_op_matrix(lambda v: frequency_filter(v, 2.0, "low"), (5, 4, 1), (5, 4, 1))
    np.testing.assert_allclose(mat, mat.T, atol=1e-9)
    gy = rng_from(73).normal(size=(5, 4, 1))
    got = bpda_backward(spec, gy, (5, 4, 1), mode="adjoint")
    np.testing.assert_allclose(got, (mat @ gy.ravel()).reshape(5, 4, 1), atol=1e-9)


def test_bpda_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        bpda_backward(filter_spec("grayscale"), np.zeros((4, 4, 3)), (4, 4, 3))
    with pytest.raises(ValueError):
        bpda_backward(filter_spec("identity"), np.zeros((3, 3, 3)), (4, 4, 3))
    with pytest.raises(ValueError):
        bpda_backward(filter_spec("identity"), np.zeros((4, 4, 3)), (4, 4, 3), mode="exact")


# ---------------------------------------------------------------- properties

@settings(max_examples=25, deadline=None)
@given(images)
def test_filters_stay_in_range(img):
    for name, spec in bank_for(img).items():
        out = apply(spec, img)
        assert out.min() >= 0.0 and out.max() <= 1.0, name


def test_filters_deterministic():
    img = rand_img(80, 10, 10)
    for name, spec in bank_for(img).items():
        assert np.array_equal(apply(spec, img), apply(spec, img)), name


# ---------------------------------------------------------------- batch-first oracles
# The per-image code the batch-first filters replaced, kept as oracles: each
# filter and backward rule must give the same bits as these, image by image.

def _bilinear_weights_oracle(src, dst):
    w = np.zeros((dst, src))
    scale = src / dst
    for i in range(dst):
        y = (i + 0.5) * scale - 0.5
        y0 = int(np.floor(y))
        f = y - y0
        lo = min(max(y0, 0), src - 1)
        hi = min(max(y0 + 1, 0), src - 1)
        w[i, lo] += 1.0 - f
        w[i, hi] += f
    return w


def _downsize_oracle(img, th, tw):
    # the dense product sum_hw wy[i, h] * wx[j, w] * img[h, w], added term by
    # term in (h, w) order. einsum leaves its order to numpy: for a 2-row
    # source, one channel and a 1x1 or 1x2 target it sums each row first.
    h, w = img.shape[:2]
    if (th, tw) == (h, w):
        return img.copy()
    wy, wx = _bilinear_weights_oracle(h, th), _bilinear_weights_oracle(w, tw)
    out = np.zeros((th, tw, img.shape[2]))
    for y in range(h):
        for x in range(w):
            out += (wy[:, y, None] * wx[:, x])[..., None] * img[y, x]
    return out


def _frequency_oracle(img, sigma, mode):
    h, w = img.shape[:2]
    mask = gaussian_mask(h, w, sigma)
    if mode == "high":
        mask = 1.0 - mask
    out = np.empty_like(img)
    for c in range(img.shape[2]):
        shifted = np.fft.fftshift(np.fft.fft2(img[..., c]))
        out[..., c] = np.fft.ifft2(np.fft.ifftshift(shifted * mask)).real
    return out


def _apply_oracle(spec, img):
    if spec.kind == "identity":
        out = img.copy()
    elif spec.kind == "discretize":
        out = round_half_up(img * 255.0) / 255.0
    elif spec.kind == "downsize":
        out = _downsize_oracle(img, *spec.param("target"))
    elif spec.kind == "grayscale":
        out = (img @ np.array([0.299, 0.587, 0.114]))[..., None]
    elif spec.kind == "octree":
        out = _octree_oracle(img, spec.param("max_colors"), spec.param("depth"))
    else:
        out = _frequency_oracle(img, spec.param("sigma"), spec.kind[:-4])
    return clamp01(out)


def _bpda_oracle(spec, gy, in_shape, mode):
    if spec.kind == "downsize":
        h, w = in_shape[:2]
        th, tw = gy.shape[:2]
        if (th, tw) == (h, w):
            return gy.copy()
        wy, wx = _bilinear_weights_oracle(h, th), _bilinear_weights_oracle(w, tw)
        return np.einsum("ih,jw,ijc->hwc", wy, wx, gy)
    if spec.kind == "grayscale":
        return gy * np.array([0.299, 0.587, 0.114])
    if mode == "adjoint" and spec.kind in ("lowpass", "highpass"):
        return _frequency_oracle(gy, spec.param("sigma"), spec.kind[:-4])
    return gy.copy()


def _random_images(rng, style, n, h, w, c):
    """n images in [0, 1] or well outside it, by style."""
    shape = (n, h, w, c)
    if style == "unit":
        return rng.uniform(size=shape)
    if style == "wide":
        return rng.uniform(-0.5, 1.5, size=shape)
    if style == "grid":  # the 1/255 grid and its half steps, where x * 255 ties exactly
        return rng.integers(-80, 591, size=shape) / 2 / 255
    return rng.normal(0.5, 3.0, size=shape)


@st.composite
def filter_cases(draw, max_images=3):
    """(spec, batch): any kind with drawn parameters, sizes 1-33, C of 1 or 3."""
    kind = draw(st.sampled_from(KINDS))
    h, w = draw(st.integers(1, 33)), draw(st.integers(1, 33))
    c = 3 if kind in ("grayscale", "octree") else draw(st.sampled_from([1, 3]))
    if kind == "downsize":
        spec = filter_spec(kind, target=(draw(st.integers(1, h)), draw(st.integers(1, w))))
    elif kind == "octree":
        spec = filter_spec(kind, max_colors=draw(st.integers(2, 64)), depth=draw(st.integers(1, 8)))
    elif kind in ("lowpass", "highpass"):
        spec = filter_spec(kind, sigma=draw(st.floats(0.05, 60.0)))
    else:
        spec = filter_spec(kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["unit", "wide", "grid", "normal"]))
    n = draw(st.integers(1, max_images))
    return spec, _random_images(rng, style, n, h, w, c)


@settings(max_examples=300, deadline=None)
@given(filter_cases())
def test_batched_filter_matches_per_image_oracle(case):
    spec, batch = case
    want = np.stack([_apply_oracle(spec, img) for img in batch])
    got = apply_batch(spec, batch)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(apply(spec, batch[0]), want[0])


def test_downsize_two_rows_to_one_adds_in_hw_order():
    # a 2x3 one-channel image to 1x2: the case where einsum sums rows first
    img = np.array([[0.63696169, 0.26978671, 0.04097352],
                    [0.01652764, 0.81327024, 0.91275558]])[..., None]
    spec = filter_spec("downsize", target=(1, 2))
    assert np.array_equal(apply_batch(spec, img[None])[0], _apply_oracle(spec, img))


@settings(max_examples=200, deadline=None)
@given(filter_cases(max_images=1))
def test_apply_on_an_image_equals_apply_batch_of_one(case):
    spec, batch = case
    img = batch[0]
    assert np.array_equal(apply(spec, img), apply_batch(spec, img[None])[0])


@settings(max_examples=200, deadline=None)
@given(filter_cases(), st.sampled_from(["identity", "adjoint"]))
def test_batched_bpda_matches_per_image_oracle(case, mode):
    spec, batch = case
    in_shape = batch.shape[1:]
    rng = np.random.default_rng(batch.size)
    gy = rng.normal(size=(len(batch),) + output_shape(spec, in_shape))
    want = np.stack([_bpda_oracle(spec, g, in_shape, mode) for g in gy])
    got = bpda_backward(spec, gy, in_shape, mode=mode)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(bpda_backward(spec, gy[0], in_shape, mode=mode), want[0])


def test_filters_leave_their_input_unchanged():
    batch = rng_from(90).uniform(-0.5, 1.5, size=(3, 9, 7, 3))
    keep = batch.copy()
    for name, spec in bank_for(batch[0]).items():
        apply_batch(spec, batch)
        bpda_backward(spec, apply_batch(spec, batch), batch.shape[1:], mode="adjoint")
        assert np.array_equal(batch, keep), name


# ---------------------------------------------------------------- chunk boundaries
# Octree and frequency filters work through a batch _CHUNK_PIXELS pixels at a
# time. These batches fill several chunks and end part way into one, or hold
# images larger than the whole budget, and must still match the oracles.

_SIDE = math.isqrt(_CHUNK_PIXELS) + 6  # one image alone is over the budget
CHUNKED_SHAPES = [
    (2 * (_CHUNK_PIXELS // (16 * 16)) + 3, 16, 16),
    (2 * (_CHUNK_PIXELS // (7 * 13)) + 1, 7, 13),
    (3, _SIDE, _SIDE),
]


def _mixed_batch(seed, n, h, w, c=3):
    """Images from one to many colors, so some finish early and others fold longer."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, h, w, c))
    for i in range(n):
        colors = rng.choice([1, 3, 12, 40, h * w])
        palette = rng.uniform(-0.2, 1.2, size=(colors, c))
        out[i] = palette[rng.integers(colors, size=(h, w))]
    return out


@pytest.mark.parametrize("shape", CHUNKED_SHAPES)
@pytest.mark.parametrize("k, depth", [(16, 7), (5, 3), (2, 8)])
def test_octree_across_chunks_matches_dict_loop_oracle(shape, k, depth):
    batch = _mixed_batch(sum(shape) + k, *shape)
    assert batch.shape[0] * batch[0, ..., 0].size > _CHUNK_PIXELS
    want = np.stack([_octree_oracle(img, k, depth) for img in batch])
    assert np.array_equal(octree_quantize(batch, k, depth), want)
    assert np.array_equal(octree_quantize(batch[None], k, depth)[0], want)


@pytest.mark.parametrize("shape", CHUNKED_SHAPES)
@pytest.mark.parametrize("kind", ["lowpass", "highpass"])
def test_frequency_filters_across_chunks_match_per_image_oracle(shape, kind):
    rng = np.random.default_rng(sum(shape))
    batch = rng.uniform(-0.5, 1.5, size=shape + (3,))
    spec = filter_spec(kind, sigma=3.0)
    want = np.stack([_apply_oracle(spec, img) for img in batch])
    assert np.array_equal(apply_batch(spec, batch), want)
    gy = rng.normal(size=batch.shape)
    want = np.stack([_bpda_oracle(spec, g, shape[1:] + (3,), "adjoint") for g in gy])
    assert np.array_equal(bpda_backward(spec, gy, shape[1:] + (3,), mode="adjoint"), want)


@pytest.mark.parametrize("name", ["octree16", "lowpass", "highpass"])
def test_batch_of_zero_pixel_images(name):
    spec = default_filters()[name]
    batch = np.zeros((2, 0, 4, 3))
    out = apply_batch(spec, batch)
    assert out.shape == batch.shape
    if spec.kind == "octree":
        want = np.stack([_octree_oracle(img) for img in batch])
        assert np.array_equal(octree_quantize(batch), want)
    assert bpda_backward(spec, batch, batch.shape[1:], mode="adjoint").shape == batch.shape


def test_images_folding_to_different_levels_keep_their_own_cells():
    # image 0 is all black and never folds; image 1 folds up several levels.
    # Image 0's only cell sits right before image 1's black cell, and their
    # keys are equal at every level.
    rng = np.random.default_rng(4)
    batch = np.empty((2, 6, 6, 3))
    batch[0] = 0.0
    batch[1] = rng.integers(256, size=(6, 6, 3)) / 255
    batch[1, 0, 0] = 0.0
    want = np.stack([_octree_oracle(img, 2, 7) for img in batch])
    assert np.array_equal(octree_quantize(batch, 2, 7), want)


# ---------------------------------------------------------------- kernel pins
# frequency_filter transforms contiguous (n, C, H, W) planes, and the octree
# finds each image's fold depth in one pass over its sorted cells; both must
# keep the oracles' bits.

_ODD = (2 * (_CHUNK_PIXELS // (7 * 13)) + 1, 7, 13)  # odd H != W, a batch over 3 chunks


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("mode", ["low", "high"])
@pytest.mark.parametrize("clamp", [True, False])
def test_frequency_filter_on_channel_planes_matches_the_oracle(c, mode, clamp):
    # the filter itself is unclamped; apply clamps it
    batch = np.random.default_rng(c).uniform(-0.5, 1.5, size=_ODD + (c,))
    want = np.stack([_frequency_oracle(img, 2.5, mode) for img in batch])
    if clamp:
        got, want = apply(filter_spec(mode + "pass", sigma=2.5), batch), clamp01(want)
    else:
        got = frequency_filter(batch, 2.5, mode)
    assert np.array_equal(got, want)


def _cell_colors(rng, cells, level):
    """One 8-bit RGB color inside each level-`level` octree cell (Morton codes), low bits random."""
    rgb = np.zeros((len(cells), 3), dtype=np.int64)
    for j in range(level):  # the cell's 3-bit groups, top level first
        group = cells >> 3 * (level - 1 - j) & 7
        for ch in range(3):
            rgb[:, ch] |= (group >> (2 - ch) & 1) << (7 - j)
    return rgb | rng.integers(1 << (8 - level), size=rgb.shape)


def _fold_depth(img, k, depth):
    """How many levels the octree folds the image straight up, counted from its distinct cells."""
    codes = round_half_up(clamp01(img) * 255.0).astype(np.int64).reshape(-1, 3)
    cells = [len(np.unique(codes >> (8 - level), axis=0)) for level in range(depth + 1)]
    return sum(cells[depth - u] > k for u in range(1, depth))


def _stops_at(rng, u, depth, k, h=6, w=6):
    """An image that folds exactly `u` levels: at most k parent cells, more than k children under them.

    The groups differ in size, so the ranked pass after the fold often
    stops part way and leaves cells at the fold level.
    """
    level = depth - u
    while True:
        parents = rng.choice(8 ** (level - 1), size=rng.integers(1, min(k, 8 ** (level - 1)) + 1), replace=False)
        cells = np.concatenate([p * 8 + rng.choice(8, rng.integers(1, 9), replace=False) for p in parents])
        if len(cells) > k:
            break
    colors = _cell_colors(rng, cells, level)
    pick = np.concatenate([np.arange(len(colors)), rng.integers(len(colors), size=h * w - len(colors))])
    return colors[rng.permutation(pick)].reshape(h, w, 3) / 255


@pytest.mark.parametrize("depth", [1, 2, 5, 7, 8])
def test_one_chunk_of_images_folding_to_every_depth_matches_the_oracle(depth):
    k = 4
    rng = np.random.default_rng(depth)
    ups = [*range(depth), *reversed(range(depth))] * 4
    batch = np.stack([_stops_at(rng, u, depth, k) for u in ups])
    assert batch.shape[0] * 36 <= _CHUNK_PIXELS
    assert [_fold_depth(img, k, depth) for img in batch] == ups
    want = np.stack([_octree_oracle(img, k, depth) for img in batch])
    assert np.array_equal(octree_quantize(batch, k, depth), want)


@pytest.mark.parametrize("depth", [1, 8])
def test_octree_with_room_for_every_leaf_only_averages_cells(depth):
    batch = np.random.default_rng(depth).uniform(-0.2, 1.2, size=(5, 9, 11, 3))
    want = np.stack([_octree_oracle(img, 99, depth) for img in batch])
    out = octree_quantize(batch, 99, depth)
    assert np.array_equal(out, want)
    if depth == 8:  # one color per leaf: its own grid point
        assert np.array_equal(out, round_half_up(clamp01(batch) * 255.0) / 255.0)


# ---------------------------------------------------------------- leaf grouping
# _octree_chunk groups its leaves with one sort of position-tagged keys. The
# groups must be np.unique's, first positions and inverse included, up to
# the widest keys a chunk can hold.

def _morton(codes, depth=8):
    """Leaf keys of (N, 3) 8-bit colors, as _octree_chunk builds them before the image field."""
    spread = _SPREAD3[codes]
    return (spread[:, 0] << 2 | spread[:, 1] << 1 | spread[:, 2]) >> 3 * (8 - depth)


def _widest_image_field():
    """4,096 one-pixel images at depth 8 in one chunk: the most images, each up to the top leaf."""
    codes = np.random.default_rng(8).integers(256, size=(_CHUNK_PIXELS, 3))
    codes[-1] = 255  # the last image's leaf is the largest there is
    keys = np.arange(_CHUNK_PIXELS, dtype=np.int64) << 24 | _morton(codes)
    assert keys.max() == 2**36 - 1
    return keys


def _widest_position_field():
    """One 128x128 image alone in its chunk: 16,384 positions, leaves below 2**24."""
    codes = np.random.default_rng(128).integers(256, size=(128 * 128, 3))
    codes[::7] = codes[0]  # runs of equal keys spread across the image
    return _morton(codes)


GROUPING_KEYS = {
    "all equal": lambda: np.full(1000, 5, dtype=np.int64),
    "all distinct": lambda: np.random.default_rng(1).permutation(3000).astype(np.int64),
    "descending": lambda: np.repeat(np.arange(600, 0, -1, dtype=np.int64), 3) << 20,
    "one key": lambda: np.array([2**40], dtype=np.int64),
    "widest image field": _widest_image_field,
    "widest position field": _widest_position_field,
}


@pytest.mark.parametrize("name", GROUPING_KEYS)
def test_leaf_grouping_matches_np_unique(name):
    keys = GROUPING_KEYS[name]()
    want = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    got = _unique_runs(keys.copy())
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.int64 and np.array_equal(a, b)


@pytest.mark.parametrize("h, w", [(1, 1), (7, 13), (32, 64), (2048, 1), (2049, 1), (128, 128)])
def test_octree_chunks_keep_the_packed_key_bound(h, w):
    # the bound _octree_chunk's comment states: a chunk holds more than one
    # image only when h*w <= 2,048, so the image field stays below 2**12 and
    # the key below 2**36, with positions in at most 12 bits; a one-image
    # chunk's key stays below 2**24 before the shift
    sizes = []

    def record(chunk):
        sizes.append(len(chunk))
        return chunk

    _by_chunks(record, np.zeros((_CHUNK_PIXELS + 3, h, w, 1)))
    most = max(sizes)
    top_key = (most - 1) << 24 | (1 << 24) - 1
    bits = (most * h * w - 1).bit_length()
    if most > 1:
        assert h * w <= 2048 and top_key < 2**36 and bits <= 12
    else:
        assert h * w > 2048 and top_key < 2**24
    assert top_key << bits < 2**63


def test_one_pixel_images_filling_a_chunk_match_the_oracle():
    codes = np.random.default_rng(9).integers(256, size=(_CHUNK_PIXELS, 1, 1, 3))
    codes[-1] = 255
    batch = codes / 255.0
    want = np.stack([_octree_oracle(img, 2, 8) for img in batch])
    assert np.array_equal(octree_quantize(batch, 2, 8), want)


def test_one_octree_chunk_allocates_under_a_megabyte():
    # README's promise for a 4,096-pixel chunk, output included; distinct
    # colors at depth 8 give the most leaves
    batch = np.random.default_rng(4).uniform(size=(_CHUNK_PIXELS // (32 * 32), 32, 32, 3))
    octree_quantize(batch, 16, 8)  # any first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        octree_quantize(batch, 16, 8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000
