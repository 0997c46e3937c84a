"""Front filters: deterministic image -> image transforms placed before a classifier.

Seven kinds: identity, discretize, downsize (bilinear), grayscale (BT.601
luma), octree (color quantization), lowpass, highpass (Gaussian-masked DFT).
Images are (H, W, C) float arrays in [0, 1] with C of 1 or 3. Filters are
batch-first: each one works on the trailing three axes, so it takes one
image or an (N, H, W, C) batch, and a batch gives the same bits as its
images one by one. The octree and the frequency filters, the costly
ones, handle a batch in chunks of at most `_CHUNK_PIXELS` pixels: one
quantization or FFT pair per chunk rather than per image. Every filter is
a pure function; `bpda_backward` supplies the gradient substitution used
when attacking through the non-differentiable ones.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .util import clamp01, is_int, is_number, round_half_up

KINDS = ("identity", "discretize", "downsize", "grayscale", "octree", "lowpass", "highpass")
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])
BPDA_MODES = ("identity", "adjoint")


def _two_sizes(t):
    return isinstance(t, (tuple, list)) and len(t) == 2 and all(is_int(v) and v >= 1 for v in t)


_SIGMA = (8.0, lambda s: is_number(s) and s > 0, "a finite number > 0")
# Each kind's parameters: name -> (default, test, what the test asks for).
_PARAMS = {
    "downsize": {"target": (None, _two_sizes, "two integers >= 1, (H, W)")},
    "octree": {
        "max_colors": (16, lambda k: is_int(k) and k >= 2, "an integer >= 2"),
        "depth": (7, lambda d: is_int(d) and 1 <= d <= 8, "an integer in [1, 8]"),
    },
    "lowpass": {"sigma": _SIGMA},  # in frequency pixels
    "highpass": {"sigma": _SIGMA},
}


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind plus its parameters, each checked by its rule in _PARAMS."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}; expected one of {KINDS}")
        rules = _PARAMS.get(self.kind, {})
        extra = set(self.params) - set(rules)
        if extra:
            raise ValueError(f"{self.kind} filter does not accept parameters {sorted(extra)}")
        for name, (default, test, wanted) in rules.items():
            value = self.params.get(name, default)
            if not test(value):
                raise ValueError(f"{self.kind} {name} must be {wanted}, got {value!r}")
        if "sigma" in rules:
            _check_sigma(self.param("sigma"), f"{self.kind} sigma")

    def param(self, name):
        """The parameter's value, or its default in _PARAMS when not given."""
        return self.params.get(name, _PARAMS[self.kind][name][0])


def filter_spec(kind, **params) -> FilterSpec:
    return FilterSpec(kind, params)


def default_filters() -> dict:
    """The standard seven-filter bank, keyed by short experiment names."""
    return {
        "identity": filter_spec("identity"),
        "discretize": filter_spec("discretize"),
        "downsize": filter_spec("downsize", target=(16, 16)),
        "grayscale": filter_spec("grayscale"),
        "octree16": filter_spec("octree", max_colors=16, depth=7),
        "lowpass": filter_spec("lowpass", sigma=8.0),
        "highpass": filter_spec("highpass", sigma=8.0),
    }


def _check_image(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (3, 4) or img.shape[-1] not in (1, 3):
        raise ValueError(
            f"image must be (H, W, C) or (N, H, W, C) with C of 1 or 3, got shape {img.shape}"
        )
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite pixels")
    return img


def output_shape(spec: FilterSpec, in_shape) -> tuple:
    """The (H, W, C) the filter gives an in_shape image; a ValueError names the parameter that cannot."""
    h, w, c = in_shape
    if spec.kind == "downsize":
        th, tw = spec.param("target")
        if th > h or tw > w:
            raise ValueError(f"target: ({th}, {tw}) exceeds the ({h}, {w}) images")
        return (th, tw, c)
    if spec.kind == "grayscale":
        return (h, w, 1)
    return (h, w, c)


def apply(spec: FilterSpec, img) -> np.ndarray:
    """Filter one (H, W, C) image or an (N, H, W, C) batch, clamped to [0, 1]."""
    img = _check_image(img)
    if spec.kind == "identity":
        out = img.copy()
    elif spec.kind == "discretize":
        out = discretize(img)
    elif spec.kind == "downsize":
        out = downsize(img, *spec.param("target"))
    elif spec.kind == "grayscale":
        out = grayscale(img)
    elif spec.kind == "octree":
        out = octree_quantize(img, spec.param("max_colors"), spec.param("depth"))
    else:
        out = frequency_filter(img, spec.param("sigma"), mode=spec.kind[:-4])
    # every branch returns a fresh array, so clamping in place is safe
    return np.clip(out, 0.0, 1.0, out=out)


def apply_batch(spec: FilterSpec, imgs) -> np.ndarray:
    imgs = np.asarray(imgs, dtype=np.float64)
    if imgs.ndim != 4:
        raise ValueError(f"batch must be (N, H, W, C), got shape {imgs.shape}")
    if len(imgs) == 0:
        return np.empty((0,) + output_shape(spec, imgs.shape[1:]))
    return apply(spec, imgs)


# Octree and frequency filters work through a batch this many pixels at a
# time: enough 16x16 images per numpy call to amortise its overhead, while
# a chunk's temporaries stay under a megabyte (about 100 bytes per RGB
# pixel for the octree and 100 for the real-input FFT pair, above the output).
_CHUNK_PIXELS = 4096


def _by_chunks(fn, img) -> np.ndarray:
    """fn over (n, H, W, C) slices of one image or a batch: at most _CHUNK_PIXELS pixels, or one image."""
    h, w, c = img.shape[-3:]
    n = math.prod(img.shape[:-3])
    batch = img.reshape(n, h, w, c)
    out = np.empty(batch.shape)
    if out.size == 0:  # nothing to filter, and the FFT rejects empty axes
        return out.reshape(img.shape)
    step = max(1, _CHUNK_PIXELS // (h * w))
    for s in range(0, n, step):
        out[s:s + step] = fn(batch[s:s + step])
    return out.reshape(img.shape)


# ------------------------------------------------------------- elementwise

def discretize(img) -> np.ndarray:
    """Snap every pixel to the nearest 1/255 step, halves rounding up."""
    # round_half_up(img * 255) / 255, one buffer for the whole batch
    out = np.asarray(img, dtype=np.float64) * 255.0
    out += 0.5
    np.floor(out, out=out)
    out /= 255.0
    return out


def grayscale(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.shape[-1] != 3:
        raise ValueError(f"grayscale needs an RGB image, got {img.shape[-1]} channel(s)")
    return (img @ LUMA_WEIGHTS)[..., None]


# ------------------------------------------------------------- resampling

@functools.lru_cache(maxsize=32)
def _bilinear_weights(src: int, dst: int) -> np.ndarray:
    """(dst, src) row-stochastic matrix for half-pixel-centered bilinear sampling."""
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
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=32)
def _bilinear_taps(src: int, dst: int):
    """The two non-zero columns of each row of `_bilinear_weights` and their weights.

    Returns (index, weight), each (2, dst). A row with a single non-zero
    column keeps it as tap 0 and gets a zero-weight tap 1.
    """
    w = _bilinear_weights(src, dst)
    rows = np.arange(dst)
    lo = np.argmax(w != 0, axis=1)
    hi = np.minimum(lo + 1, src - 1)
    index = np.stack([lo, hi])
    weight = np.stack([w[rows, lo], np.where(hi != lo, w[rows, hi], 0.0)])
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def downsize(img, target_h: int, target_w: int) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[-3:-1]
    if target_h > h or target_w > w:
        raise ValueError(f"target ({target_h}, {target_w}) exceeds source ({h}, {w})")
    if (target_h, target_w) == (h, w):
        return img.copy()
    ys, wy = _bilinear_taps(h, target_h)
    xs, wx = _bilinear_taps(w, target_w)
    # the dense product sum_hw wy[i, h] * wx[j, w] * img[h, w] over its four
    # non-zero taps, added in the same (h, w) order, so the bits match it
    # (np.take gathers the taps faster than indexing does)
    out = np.zeros(img.shape[:-3] + (target_h, target_w, img.shape[-1]))
    for a in (0, 1):
        rows = np.take(img, ys[a], axis=-3)
        for b in (0, 1):
            out += (wy[a][:, None] * wx[b])[..., None] * np.take(rows, xs[b], axis=-2)
    return out


def _downsize_adjoint(g, src_h: int, src_w: int) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    th, tw = g.shape[-3:-1]
    if (th, tw) == (src_h, src_w):
        return g.copy()
    wy = _bilinear_weights(src_h, th)
    wx = _bilinear_weights(src_w, tw)
    return np.einsum("ih,jw,...ijc->...hwc", wy, wx, g)


# ------------------------------------------------------------- quantization

# each byte with its bits spread three apart (bit i to bit 3i)
_SPREAD3 = np.array([sum((v >> i & 1) << 3 * i for i in range(8)) for v in range(256)])


def octree_quantize(img, max_colors: int = 16, depth: int = 7) -> np.ndarray:
    """Reduce an RGB image, or each image of a batch, to at most `max_colors` colors.

    Colors are first snapped to the 8-bit grid, then bucketed by an octree
    that partitions each channel most-significant-bit first down to `depth`
    levels. While more than `max_colors` buckets remain, the smallest bucket
    at the deepest occupied level (ties by first appearance) is folded,
    together with its siblings, into the parent cell. A bucket's output
    color is the rounded mean of the pixels it absorbed, which lands inside
    the bucket's own cell, so requantizing a quantized image is a no-op.

    A pass over a level whose parents number more than `max_colors` folds
    every sibling group, so each image first folds straight up to the
    shallowest level where it has more than `max_colors` cells. One ranked
    pass then ends it: sibling groups are taken in the order of their
    smallest member, for as long as more than `max_colors` cells remain
    before the group.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.shape[-1] != 3:
        raise ValueError("octree quantization needs an RGB image")
    if max_colors < 2:
        raise ValueError(f"max_colors must be >= 2, got {max_colors}")
    if not 1 <= depth <= 8:
        raise ValueError(f"depth must be in [1, 8], got {depth}")
    if not np.isfinite(img).all():  # NaN would reach the palette as a garbage index
        raise ValueError("image contains non-finite pixels")
    return _by_chunks(functools.partial(_octree_chunk, max_colors=max_colors, depth=depth), img)


def _run_edges(owner, key) -> np.ndarray:
    """Where each run of equal (owner, key) pairs begins, then len(key)."""
    edge = np.ones(len(key) + 1, dtype=bool)
    edge[1:-1] = (key[1:] != key[:-1]) | (owner[1:] != owner[:-1])
    return np.flatnonzero(edge)


def _run_numbers(edge) -> np.ndarray:
    """Each entry's run number, from run edges as `_run_edges` gives them."""
    return np.repeat(np.arange(len(edge) - 1), edge[1:] - edge[:-1])


def _unique_runs(keys):
    """np.unique(keys, return_index=True, return_inverse=True, return_counts=True), from one plain sort.

    np.unique needs a stable argsort to give each key's first position.
    Here each key carries its position in its low `bits` bits instead, so
    no two are equal and numpy's fastest sort, stable or not, puts every
    run of equal keys in position order: a run's first entry is the key's
    first position. Overwrites `keys`, an int64 array of length >= 1 whose
    values stay below 2**(63 - bits), bits being the bit length of its
    last position.
    """
    n = len(keys)
    bits = (n - 1).bit_length()
    keys <<= bits
    keys |= np.arange(n)
    keys.sort()
    pos = keys & ((1 << bits) - 1)
    keys >>= bits
    # run edges: where a run of equal keys starts, and the end of the array
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:n])
    edge = np.flatnonzero(edge)
    first = edge[:-1]
    inverse = np.empty(n, dtype=np.int64)
    inverse[pos] = _run_numbers(edge)  # each sorted key's run number
    return keys[first], pos[first], inverse, edge[1:] - first


def _octree_chunk(imgs, max_colors, depth):
    n, h, w, _ = imgs.shape
    codes = round_half_up(clamp01(imgs) * 255.0).astype(np.int64).reshape(n * h * w, 3)
    # Morton code: channel bits interleaved r, g, b from the top bit down, so
    # the cell at level l is the top 3*l bits, and in sorted cells every
    # sibling group is one contiguous run
    spread = _SPREAD3[codes]
    keys = spread[:, 0] << 2 | spread[:, 1] << 1 | spread[:, 2]
    del spread  # the chunk's peak memory comes at the color sums below
    keys >>= 3 * (8 - depth)
    # leaves: each image's cells at the working depth, sorted by image index
    # (above bit 24), then Morton code; colors differing below `depth` share
    # a cell. A cell's first pixel orders it as its first-appearing color would.
    # Key bound: a chunk holds more than one image only when h*w <= 2,048
    # (_CHUNK_PIXELS // 2), so at most 4,096 images and keys below 2**36,
    # with positions in at most 12 bits; a one-image chunk's keys stay below
    # 2**24. Either way the position-tagged keys fit an int64.
    keys |= np.repeat(np.arange(n, dtype=np.int64) << 24, h * w)
    keys, seq, cell, count = _unique_runs(keys)
    # the float sums are exact: each is at most 255 per pixel, far below 2^53
    sums = np.empty((len(keys), 3), dtype=np.int64)
    for ch in range(3):
        sums[:, ch] = np.bincount(cell, weights=codes[:, ch], minlength=len(keys))
    del codes  # and the fold passes run close to that peak
    # sep: the deepest shift, in levels, at which a cell and the cell before
    # it are still apart, from the top bit of their xor (exact as a float,
    # since keys are below 2^53). An image's first cell differs from the
    # one before it above bit 24, so it is apart at every level. An image
    # has as many cells at shift u as it has cells with sep >= u.
    sep = np.full(len(keys), depth - 1)
    sep[1:] = np.minimum((np.frexp(keys[1:] ^ keys[:-1])[1] - 1) // 3, depth - 1)
    owner, keys = keys >> 24, keys & 0xFFFFFF
    levels = np.bincount(owner * depth + sep, minlength=n * depth).reshape(n, depth)
    levels = levels[:, ::-1].cumsum(axis=1)[:, ::-1]

    # fold each image `up` levels: the most that leave it over max_colors cells
    up = np.count_nonzero(levels[:, 1:] > max_colors, axis=1)
    shift = 3 * up[owner]
    edge = _run_edges(owner, keys >> shift)
    kstart = edge[:-1]
    keys, owner = keys[kstart] >> shift[kstart], owner[kstart]
    sums, count = np.add.reduceat(sums, kstart), np.add.reduceat(count, kstart)
    seq = np.minimum.reduceat(seq, kstart)
    leaf_cell = _run_numbers(edge)

    # the ranked pass: a group folds while more than max_colors cells of its
    # image remain before it, and its fold removes all but one of its cells
    gedge = _run_edges(owner, keys >> 3)
    gstart, gsize = gedge[:-1], gedge[1:] - gedge[:-1]
    gimg = owner[gstart]
    # cells ranked by (image, count, seq), groups by their smallest rank
    rank = np.empty(len(keys), dtype=np.int64)
    rank[np.argsort((owner * (h * w + 1) + count) * (n * h * w) + seq)] = np.arange(len(keys))
    gorder = np.argsort(np.minimum.reduceat(rank, gstart))
    cells = np.bincount(owner, minlength=n)
    per_img = cells - np.bincount(gimg, minlength=n)  # all an image's groups remove
    ro = (gsize - 1)[gorder]
    left = (cells + np.cumsum(per_img) - per_img)[gimg[gorder]] - (np.cumsum(ro) - ro)
    taken = np.zeros(len(gstart), dtype=bool)
    taken[gorder[left > max_colors]] = True
    # a taken group becomes one cell; every other cell stays as it is, so
    # the new cells start at each group's start and each untaken cell
    keep = np.ones(len(keys) + 1, dtype=bool)
    keep[:-1] = np.repeat(~taken, gsize)
    keep[gstart] = True
    edge = np.flatnonzero(keep)
    sums, count = np.add.reduceat(sums, edge[:-1]), np.add.reduceat(count, edge[:-1])
    leaf_cell = _run_numbers(edge)[leaf_cell]

    palette = (2 * sums + count[:, None]) // (2 * count[:, None]) / 255.0
    # both remaps composed over the leaves, so each pixel is gathered once
    # (np.take gathers rows faster than indexing does)
    return np.take(np.take(palette, leaf_cell, axis=0), cell, axis=0).reshape(n, h, w, 3)


# ------------------------------------------------------------- frequency domain

def _check_sigma(sigma, name="sigma") -> None:
    """A ValueError naming `name` unless sigma > 0 and sigma**2 is a finite float > 0.

    The mask divides by 2 sigma**2: a square of 0 makes its center 0/0, a
    NaN that clamping keeps.
    """
    if not (sigma > 0 and 0.0 < float(sigma) * float(sigma) < math.inf):
        raise ValueError(f"{name} must be a number > 0 whose float64 square is finite and > 0, got {sigma!r}")


def gaussian_mask(h: int, w: int, sigma: float) -> np.ndarray:
    """exp(-D^2 / 2 sigma^2) with D the distance from the spectrum center."""
    _check_sigma(sigma)
    cy, cx = h // 2, w // 2
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = (yy - cy) ** 2.0 + (xx - cx) ** 2.0
    return np.exp(-d2 / (2.0 * sigma**2))


@functools.lru_cache(maxsize=32)
def _spectral_mask(h: int, w: int, sigma: float, mode: str) -> np.ndarray:
    """The low or high mask in unshifted DFT order, its first w//2 + 1 columns: (h, w//2 + 1)."""
    mask = gaussian_mask(h, w, sigma)
    if mode == "high":
        mask = 1.0 - mask
    # ifftshift(fftshift(F) * mask) == F * ifftshift(mask): a permutation.
    # The unshifted mask is conjugate-symmetric like a real image's
    # spectrum, so its first w//2 + 1 columns carry the whole filter.
    mask = np.ascontiguousarray(np.fft.ifftshift(mask)[:, : w // 2 + 1])
    mask.setflags(write=False)
    return mask


def frequency_filter(img, sigma: float, mode: str) -> np.ndarray:
    """Gaussian low-pass or its complement applied in the frequency domain.

    The output is not clamped (`apply` clamps every filter), so the low and
    high outputs add back up to the input exactly: the two masks sum to one.
    """
    if mode not in ("low", "high"):
        raise ValueError(f"mode must be 'low' or 'high', got {mode!r}")
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[-3:-1]
    mask = _spectral_mask(h, w, sigma, mode)

    def masked(chunk):
        # rfft2/irfft2 over (H, W) run exactly these 1-D passes, W first; on
        # contiguous (n, C, H, W) planes each pass reads whole lines
        planes = np.ascontiguousarray(chunk.transpose(0, 3, 1, 2))
        spectrum = np.fft.fft(np.fft.rfft(planes, axis=3), axis=2)
        spectrum *= mask
        return np.fft.irfft(np.fft.ifft(spectrum, axis=2), n=w, axis=3).transpose(0, 2, 3, 1)

    # one FFT pair per chunk of images: a whole-batch spectrum would hold
    # complex copies of every image at once
    return _by_chunks(masked, img)


# ------------------------------------------------------------- backward rules

def bpda_backward(spec: FilterSpec, gy, in_shape, mode: str = "identity") -> np.ndarray:
    """Gradient substitution for attacking through a filter.

    The default treats every shape-preserving filter as the identity on the
    backward pass. Shape-changing filters (downsize, grayscale) always use
    the adjoint of their linear map, since an identity gradient cannot
    exist across shapes. mode="adjoint" additionally backs the frequency
    filters with their exact adjoint (the unclamped filter itself; the
    masked-spectrum operator is symmetric). `gy` is one gradient shaped
    like the filter output or an (N,) batch of them.
    """
    if mode not in BPDA_MODES:
        raise ValueError(f"mode must be 'identity' or 'adjoint', got {mode!r}")
    gy = np.asarray(gy, dtype=np.float64)
    expect = output_shape(spec, in_shape)
    if gy.shape[-3:] != expect or gy.ndim not in (3, 4):
        raise ValueError(f"upstream gradient shape {gy.shape} != filter output {expect}")
    if spec.kind == "downsize":
        return _downsize_adjoint(gy, *in_shape[:2])
    if spec.kind == "grayscale":
        return gy * LUMA_WEIGHTS
    if mode == "adjoint" and spec.kind in ("lowpass", "highpass"):
        return frequency_filter(gy, spec.param("sigma"), mode=spec.kind[:-4])
    return gy.copy()
