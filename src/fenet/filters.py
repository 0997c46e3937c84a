"""Front filters: deterministic image -> image transforms placed before a classifier.

Seven kinds: identity, discretize, downsize (bilinear), grayscale (BT.601
luma), octree (color quantization), lowpass, highpass (Gaussian-masked DFT).
Images are (H, W, C) float arrays in [0, 1] with C of 1 or 3. Every filter is
a pure function; `bpda_backward` supplies the gradient substitution used when
attacking through the non-differentiable ones.
"""

from dataclasses import dataclass, field

import numpy as np

from .util import clamp01, round_half_up

KINDS = ("identity", "discretize", "downsize", "grayscale", "octree", "lowpass", "highpass")
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])
BPDA_MODES = ("identity", "adjoint")


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind plus its parameters.

    Parameters by kind: downsize takes target=(H, W); octree takes
    max_colors and depth; lowpass/highpass take sigma (frequency pixels).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}; expected one of {KINDS}")
        allowed = {
            "downsize": {"target"},
            "octree": {"max_colors", "depth"},
            "lowpass": {"sigma"},
            "highpass": {"sigma"},
        }.get(self.kind, set())
        extra = set(self.params) - allowed
        if extra:
            raise ValueError(f"{self.kind} filter does not accept parameters {sorted(extra)}")
        if self.kind == "downsize":
            t = self.params.get("target")
            if t is None:
                raise ValueError("downsize requires target=(H, W)")
            th, tw = t
            if th < 1 or tw < 1:
                raise ValueError(f"downsize target must be >= 1, got {t}")
        elif self.kind == "octree":
            k = self.params.get("max_colors", 16)
            d = self.params.get("depth", 7)
            if k < 2:
                raise ValueError(f"octree max_colors must be >= 2, got {k}")
            if not 1 <= d <= 8:
                raise ValueError(f"octree depth must be in [1, 8], got {d}")
        elif self.kind in ("lowpass", "highpass"):
            s = self.params.get("sigma", 8.0)
            if not s > 0:
                raise ValueError(f"{self.kind} sigma must be positive, got {s}")

    def param(self, name, default=None):
        return self.params.get(name, default)


def filter_spec(kind, **params) -> FilterSpec:
    if kind == "downsize" and "target" in params:
        params["target"] = tuple(int(v) for v in params["target"])
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
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ValueError(f"image must be (H, W, C) with C of 1 or 3, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite pixels")
    return img


def output_shape(spec: FilterSpec, in_shape) -> tuple:
    h, w, c = in_shape
    if spec.kind == "downsize":
        th, tw = spec.param("target")
        return (th, tw, c)
    if spec.kind == "grayscale":
        return (h, w, 1)
    return (h, w, c)


def apply(spec: FilterSpec, img) -> np.ndarray:
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
        out = octree_quantize(img, spec.param("max_colors", 16), spec.param("depth", 7))
    else:
        out = frequency_filter(img, spec.param("sigma", 8.0), mode=spec.kind[:-4])
    return clamp01(out)


def apply_batch(spec: FilterSpec, imgs) -> np.ndarray:
    imgs = np.asarray(imgs, dtype=np.float64)
    return np.stack([apply(spec, im) for im in imgs])


# ------------------------------------------------------------- elementwise

def discretize(img) -> np.ndarray:
    """Snap every pixel to the nearest 1/255 step, halves rounding up."""
    return round_half_up(np.asarray(img, dtype=np.float64) * 255.0) / 255.0


def grayscale(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.shape[-1] != 3:
        raise ValueError(f"grayscale needs an RGB image, got {img.shape[-1]} channel(s)")
    return (img @ LUMA_WEIGHTS)[..., None]


# ------------------------------------------------------------- resampling

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
    return w


def downsize(img, target_h: int, target_w: int) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[:2]
    if target_h > h or target_w > w:
        raise ValueError(f"target ({target_h}, {target_w}) exceeds source ({h}, {w})")
    if (target_h, target_w) == (h, w):
        return img.copy()
    wy = _bilinear_weights(h, target_h)
    wx = _bilinear_weights(w, target_w)
    return np.einsum("ih,jw,hwc->ijc", wy, wx, img)


def _downsize_adjoint(g, src_h: int, src_w: int) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    th, tw = g.shape[:2]
    if (th, tw) == (src_h, src_w):
        return g.copy()
    wy = _bilinear_weights(src_h, th)
    wx = _bilinear_weights(src_w, tw)
    return np.einsum("ih,jw,ijc->hwc", wy, wx, g)


# ------------------------------------------------------------- quantization

class _OctreeNode:
    __slots__ = ("rsum", "gsum", "bsum", "count", "seq")

    def __init__(self):
        self.rsum = 0
        self.gsum = 0
        self.bsum = 0
        self.count = 0
        self.seq = 1 << 62


def octree_quantize(img, max_colors: int = 16, depth: int = 7) -> np.ndarray:
    """Reduce an RGB image to at most `max_colors` distinct colors.

    Colors are first snapped to the 8-bit grid, then bucketed by an octree
    that partitions each channel most-significant-bit first down to `depth`
    levels. While more than `max_colors` buckets remain, the smallest bucket
    at the deepest occupied level (ties by first appearance) is folded,
    together with its siblings, into the parent cell. A bucket's output
    color is the rounded mean of the pixels it absorbed, which lands inside
    the bucket's own cell, so requantizing a quantized image is a no-op.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.shape[-1] != 3:
        raise ValueError("octree quantization needs an RGB image")
    if max_colors < 2:
        raise ValueError(f"max_colors must be >= 2, got {max_colors}")
    if not 1 <= depth <= 8:
        raise ValueError(f"depth must be in [1, 8], got {depth}")

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

    # leaves at the working depth; colors differing below `depth` share a cell
    shift = 8 - depth
    levels = {lvl: {} for lvl in range(depth + 1)}
    bottom = levels[depth]
    for i in range(len(uniq)):
        key = (int(ur[i]) >> shift, int(ug[i]) >> shift, int(ub[i]) >> shift)
        node = bottom.get(key)
        if node is None:
            node = bottom[key] = _OctreeNode()
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
            parent = _OctreeNode()
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

    # map each distinct input color to its surviving cell's mean color
    out_codes = np.empty((len(uniq), 3), dtype=np.int64)
    cache = {}
    for i in range(len(uniq)):
        r, g, b = int(ur[i]), int(ug[i]), int(ub[i])
        node = None
        for lvl in range(depth, -1, -1):
            s = 8 - lvl
            key = (r >> s, g >> s, b >> s)
            hit = cache.get((lvl,) + key)
            if hit is not None:
                node = hit
                break
            node = levels[lvl].get(key)
            if node is not None:
                cache[(lvl,) + key] = node
                break
        out_codes[i, 0] = palette_code(node.rsum, node.count)
        out_codes[i, 1] = palette_code(node.gsum, node.count)
        out_codes[i, 2] = palette_code(node.bsum, node.count)

    return (out_codes[inverse].reshape(h, w, 3)) / 255.0


# ------------------------------------------------------------- frequency domain

def dft2(channel) -> np.ndarray:
    """2D DFT of a single channel, shifted so DC sits at (H//2, W//2)."""
    channel = np.asarray(channel, dtype=np.float64)
    return np.fft.fftshift(np.fft.fft2(channel))


def idft2(spectrum) -> np.ndarray:
    """Inverse of dft2; returns the real part."""
    return np.fft.ifft2(np.fft.ifftshift(np.asarray(spectrum))).real


def gaussian_mask(h: int, w: int, sigma: float) -> np.ndarray:
    """exp(-D^2 / 2 sigma^2) with D the distance from the spectrum center."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    cy, cx = h // 2, w // 2
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = (yy - cy) ** 2.0 + (xx - cx) ** 2.0
    return np.exp(-d2 / (2.0 * sigma**2))


def frequency_filter(img, sigma: float, mode: str, clamp: bool = True) -> np.ndarray:
    """Gaussian low-pass or its complement applied in the frequency domain.

    The two masks sum to one, so the unclamped low and high outputs add back
    up to the input exactly.
    """
    if mode not in ("low", "high"):
        raise ValueError(f"mode must be 'low' or 'high', got {mode!r}")
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[:2]
    mask = gaussian_mask(h, w, sigma)
    if mode == "high":
        mask = 1.0 - mask
    out = np.empty_like(img)
    for c in range(img.shape[2]):
        out[..., c] = idft2(dft2(img[..., c]) * mask)
    return clamp01(out) if clamp else out


# ------------------------------------------------------------- backward rules

def bpda_backward(spec: FilterSpec, gy, in_shape, mode: str = "identity") -> np.ndarray:
    """Gradient substitution for attacking through a filter.

    The default treats every shape-preserving filter as the identity on the
    backward pass. Shape-changing filters (downsize, grayscale) always use
    the adjoint of their linear map, since an identity gradient cannot
    exist across shapes. mode="adjoint" additionally backs the frequency
    filters with their exact adjoint (the unclamped filter itself; the
    masked-spectrum operator is symmetric).
    """
    if mode not in BPDA_MODES:
        raise ValueError(f"mode must be 'identity' or 'adjoint', got {mode!r}")
    gy = np.asarray(gy, dtype=np.float64)
    expect = output_shape(spec, in_shape)
    if gy.shape != expect:
        raise ValueError(f"upstream gradient shape {gy.shape} != filter output {expect}")
    if spec.kind == "downsize":
        return _downsize_adjoint(gy, in_shape[0], in_shape[1])
    if spec.kind == "grayscale":
        return gy * LUMA_WEIGHTS
    if mode == "adjoint" and spec.kind in ("lowpass", "highpass"):
        return frequency_filter(gy, spec.param("sigma", 8.0), mode=spec.kind[:-4], clamp=False)
    return gy.copy()
