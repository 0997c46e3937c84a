"""Datasets: the CIFAR-10 binary format, a synthetic shape corpus, subsetting.

Pixels are normalized to [0,1] by /255 at load time and never standardized;
filter arithmetic and attack radii are defined on the raw pixel scale.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

from .util import rng_from

_RECORD_PIXELS = 32 * 32 * 3


class DatasetFormatError(ValueError):
    """A dataset file is missing, truncated, or malformed."""


@dataclass
class Dataset:
    """Immutable image/label arrays; images are (N, H, W, C) in [0,1], labels in [0, num_classes)."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels outside [0, {self.num_classes})")
        self.images.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self):
        return len(self.images)

    @property
    def image_shape(self):
        return tuple(self.images.shape[1:])


# ------------------------------------------------------------- binary format

def read_cifar_batch(path):
    """Read one binary batch: records of 1 label byte + planar R,G,B pixel bytes."""
    if not os.path.isfile(path):
        raise DatasetFormatError(f"missing batch file: {path}")
    with open(path, "rb") as f:
        blob = f.read()
    record = 1 + _RECORD_PIXELS
    if len(blob) == 0 or len(blob) % record != 0:
        full = len(blob) // record
        raise DatasetFormatError(
            f"{path}: truncated batch, {len(blob)} bytes is not a multiple of "
            f"{record}; partial record starts at byte {full * record}"
        )
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, record)
    labels = raw[:, 0].astype(np.intp)
    planes = raw[:, 1:].reshape(-1, 3, 32, 32)
    images = planes.transpose(0, 2, 3, 1).astype(np.float64) / 255.0
    return images, labels


def load_cifar10(dir_path):
    """Load the standard six binary batches: 50,000 train and 10,000 test images."""
    base = dir_path
    probe = os.path.join(base, "data_batch_1.bin")
    if not os.path.isfile(probe):
        nested = os.path.join(base, "cifar-10-batches-bin")
        if os.path.isfile(os.path.join(nested, "data_batch_1.bin")):
            base = nested
    train_parts = []
    train_labels = []
    for i in range(1, 6):
        path = os.path.join(base, f"data_batch_{i}.bin")
        images, labels = read_cifar_batch(path)
        if len(images) != 10_000:
            raise DatasetFormatError(f"{path}: expected 10,000 records, got {len(images)}")
        train_parts.append(images)
        train_labels.append(labels)
    test_path = os.path.join(base, "test_batch.bin")
    test_images, test_labels = read_cifar_batch(test_path)
    if len(test_images) != 10_000:
        raise DatasetFormatError(f"{test_path}: expected 10,000 records, got {len(test_images)}")
    for name, labels in (("train", np.concatenate(train_labels)), ("test", test_labels)):
        if labels.max() > 9:
            raise DatasetFormatError(f"{name} labels exceed 9; not a CIFAR-10 batch")
    train = Dataset(np.concatenate(train_parts), np.concatenate(train_labels), num_classes=10)
    test = Dataset(test_images, test_labels, num_classes=10)
    return train, test


# ------------------------------------------------------------- synthetic corpus

@functools.lru_cache(maxsize=8)
def _grid(s: int):
    """The row and column index grids of an s x s image, built once per size."""
    yy, xx = np.mgrid[0:s, 0:s]
    yy.setflags(write=False)
    xx.setflags(write=False)
    return yy, xx


def _synth_pattern(cls: int, s: int, rng) -> np.ndarray:
    yy, xx = _grid(s)
    base = np.zeros((s, s))
    if cls == 0:
        c = rng.integers(s // 4, 3 * s // 4 + 1)
        half = rng.integers(max(1, s // 8), max(2, s // 5))
        base[(yy >= c - half) & (yy <= c + half)] = 1.0
    elif cls == 1:
        c = rng.integers(s // 4, 3 * s // 4 + 1)
        half = rng.integers(max(1, s // 8), max(2, s // 5))
        base[(xx >= c - half) & (xx <= c + half)] = 1.0
    elif cls == 2:
        cy = s / 2 + rng.uniform(-s / 8, s / 8)
        cx = s / 2 + rng.uniform(-s / 8, s / 8)
        r = rng.uniform(s / 5, s / 3)
        base[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1.0
    else:
        cell = rng.integers(max(2, s // 8), max(3, s // 4))
        py, px = rng.integers(0, cell, size=2)
        base[(((yy + py) // cell) + ((xx + px) // cell)) % 2 == 0] = 1.0
    return base


def synth_shapes(num_per_class: int, size: int = 16, seed: int = 0) -> Dataset:
    """Four classes of noisy geometric patterns: hbar, vbar, disk, checker."""
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    rng = rng_from(seed, 0x53594E)
    labels = np.repeat(np.arange(4), num_per_class)
    images = np.empty((len(labels), size, size, 3))
    for img, cls in zip(images, labels):
        base = _synth_pattern(cls, size, rng)
        lo = rng.uniform(0.1, 0.3)
        hi = rng.uniform(0.7, 0.9)
        tint = rng.uniform(0.75, 1.0, size=3)
        np.multiply((lo + base * (hi - lo))[..., None], tint, out=img)
        img += rng.normal(0.0, 0.06, size=(size, size, 3))
    # the clamp is elementwise, so one pass over the batch gives each image's bits
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images, labels, num_classes=4)


# ------------------------------------------------------------- subsetting

def subset(ds: Dataset, n: int, seed: int = 0) -> Dataset:
    """Seeded sample without replacement, stratified so per-class proportions hold."""
    if n > len(ds):
        raise ValueError(f"cannot take {n} of {len(ds)} examples")
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = rng_from(seed, 0x535542)
    classes, counts = np.unique(ds.labels, return_counts=True)
    # largest-remainder apportionment of n across classes
    exact = counts * (n / len(ds))
    quotas = np.floor(exact).astype(int)
    rem = exact - quotas
    short = n - quotas.sum()
    for c in np.argsort(-rem, kind="stable")[:short]:
        quotas[c] += 1
    picked = []
    for cls, q in zip(classes, quotas):
        idx = np.flatnonzero(ds.labels == cls)
        picked.append(rng.choice(idx, size=q, replace=False))
    order = rng.permutation(np.concatenate(picked) if picked else np.empty(0, dtype=int))
    return Dataset(ds.images[order], ds.labels[order], num_classes=ds.num_classes)
