import numpy as np
import pytest

from fenet.data import (
    Dataset,
    DatasetFormatError,
    _grid,
    load_cifar10,
    read_cifar_batch,
    subset,
    synth_shapes,
)
from fenet.util import clamp01, rng_from, round_half_up


def write_cifar_batch(path, images, labels) -> None:
    """Inverse of read_cifar_batch; pixel values snap back to their source bytes."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    n, h, w, c = images.shape
    if c != 3 or h != w:
        raise ValueError(f"batch layout needs square RGB images, got {images.shape[1:]}")
    codes = round_half_up(clamp01(images) * 255.0).astype(np.uint8)
    planes = codes.transpose(0, 3, 1, 2).reshape(n, -1)
    rec = np.empty((n, 1 + 3 * h * w), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = planes
    with open(path, "wb") as f:
        f.write(rec.tobytes())


def fake_batch_bytes(n, size=32, seed=0):
    rng = rng_from(seed, 0xFB)
    rec = 1 + 3 * size * size
    raw = rng.integers(0, 256, size=(n, rec), endpoint=False).astype(np.uint8)
    raw[:, 0] = rng.integers(0, 10, size=n)
    return raw.tobytes()


# ---------------------------------------------------------------- binary format

def test_single_record_round_trip(tmp_path):
    path = tmp_path / "one.bin"
    pixels = (np.arange(32 * 32 * 3) % 256).astype(np.uint8).reshape(3, 32, 32)
    path.write_bytes(bytes([7]) + pixels.tobytes())
    images, labels = read_cifar_batch(path)
    assert labels.tolist() == [7]
    assert images.shape == (1, 32, 32, 3)
    # planar R,G,B unpacks to channels-last
    np.testing.assert_array_equal(images[0, :, :, 0] * 255, pixels[0])
    np.testing.assert_array_equal(images[0, :, :, 2] * 255, pixels[2])
    assert images.max() <= 1.0


def test_pixel_255_maps_to_one(tmp_path):
    path = tmp_path / "b.bin"
    path.write_bytes(bytes([0]) + b"\xff" * (32 * 32 * 3))
    images, _ = read_cifar_batch(path)
    assert images.min() == 1.0


def test_batch_reserialization_byte_exact(tmp_path):
    src = tmp_path / "src.bin"
    src.write_bytes(fake_batch_bytes(25))
    images, labels = read_cifar_batch(src)
    dst = tmp_path / "dst.bin"
    write_cifar_batch(dst, images, labels)
    assert dst.read_bytes() == src.read_bytes()


def test_truncated_batch_reports_offset(tmp_path):
    path = tmp_path / "cut.bin"
    path.write_bytes(fake_batch_bytes(3)[:-100])
    with pytest.raises(DatasetFormatError, match=r"byte 6146"):
        read_cifar_batch(path)


def test_missing_batch_rejected(tmp_path):
    with pytest.raises(DatasetFormatError, match="missing"):
        read_cifar_batch(tmp_path / "nope.bin")


def test_load_cifar10_layout(tmp_path):
    # miniature stand-in keeps the directory contract testable offline;
    # full-size batches are still enforced to hold 10,000 records
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(fake_batch_bytes(10, seed=i))
    (tmp_path / "test_batch.bin").write_bytes(fake_batch_bytes(10, seed=9))
    with pytest.raises(DatasetFormatError, match="10,000"):
        load_cifar10(tmp_path)


def test_load_cifar10_missing_dir(tmp_path):
    with pytest.raises(DatasetFormatError, match="data_batch_1"):
        load_cifar10(tmp_path)


# ---------------------------------------------------------------- Dataset type

def test_dataset_validates_lengths():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 4, 4, 3)), np.zeros(2, dtype=int), num_classes=1)


def test_dataset_validates_label_range():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 4, 4, 3)), np.array([0, 5]), num_classes=4)


def test_dataset_arrays_read_only():
    ds = synth_shapes(2, size=8, seed=0)
    with pytest.raises(ValueError):
        ds.images[0, 0, 0, 0] = 0.5


# ---------------------------------------------------------------- synthetic corpus

def test_synth_same_seed_identical():
    a = synth_shapes(5, size=12, seed=3)
    b = synth_shapes(5, size=12, seed=3)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_synth_different_seed_differs():
    a = synth_shapes(5, size=12, seed=3)
    b = synth_shapes(5, size=12, seed=4)
    assert not np.array_equal(a.images, b.images)


def test_synth_balanced_labels():
    ds = synth_shapes(7, size=8, seed=0)
    _, counts = np.unique(ds.labels, return_counts=True)
    assert counts.tolist() == [7, 7, 7, 7]
    assert ds.num_classes == 4
    assert len(ds) == 28


def test_synth_pixels_in_range():
    ds = synth_shapes(4, size=16, seed=1)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.image_shape == (16, 16, 3)


def per_image_synth_shapes(num_per_class, size, seed):
    """The corpus built one image at a time, each with its own grid and clamp."""

    def pattern(cls, s, rng):
        yy, xx = np.mgrid[0:s, 0:s]
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

    rng = rng_from(seed, 0x53594E)
    images, labels = [], []
    for cls in range(4):
        for _ in range(num_per_class):
            base = pattern(cls, size, rng)
            lo = rng.uniform(0.1, 0.3)
            hi = rng.uniform(0.7, 0.9)
            tint = rng.uniform(0.75, 1.0, size=3)
            img = (lo + base * (hi - lo))[..., None] * tint
            img += rng.normal(0.0, 0.06, size=(size, size, 3))
            images.append(clamp01(img))
            labels.append(cls)
    return np.stack(images), np.array(labels)


@pytest.mark.parametrize("size", [8, 16, 32])
def test_synth_matches_per_image_loop_bit_for_bit(size):
    ds = synth_shapes(6, size=size, seed=size + 1)
    images, labels = per_image_synth_shapes(6, size, seed=size + 1)
    assert ds.images.tobytes() == images.tobytes()
    assert np.array_equal(ds.labels, labels)
    assert not any(g.flags.writeable for g in _grid(size))  # the shared grid cannot be changed


def test_synth_size_validated():
    with pytest.raises(ValueError):
        synth_shapes(2, size=4)


# ---------------------------------------------------------------- subset

def test_subset_full_is_permutation():
    ds = synth_shapes(6, size=8, seed=2)
    sub = subset(ds, len(ds), seed=1)
    assert len(sub) == len(ds)
    order = np.lexsort(ds.images.reshape(len(ds), -1).T)
    order2 = np.lexsort(sub.images.reshape(len(sub), -1).T)
    np.testing.assert_array_equal(
        ds.images[order], sub.images[order2]
    )


def test_subset_empty():
    ds = synth_shapes(3, size=8)
    sub = subset(ds, 0)
    assert len(sub) == 0
    assert sub.num_classes == ds.num_classes


def test_subset_reproducible():
    ds = synth_shapes(10, size=8, seed=5)
    a = subset(ds, 12, seed=7)
    b = subset(ds, 12, seed=7)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_subset_preserves_class_balance():
    ds = synth_shapes(50, size=8, seed=6)
    sub = subset(ds, 80, seed=0)
    _, counts = np.unique(sub.labels, return_counts=True)
    assert counts.tolist() == [20, 20, 20, 20]


def test_subset_uneven_within_20_percent():
    rng = rng_from(77)
    labels = np.array([0] * 60 + [1] * 30 + [2] * 10)
    images = rng.uniform(size=(100, 8, 8, 3))
    ds = Dataset(images, labels, num_classes=3)
    sub = subset(ds, 40, seed=3)
    _, counts = np.unique(sub.labels, return_counts=True)
    for got, frac in zip(counts, (0.6, 0.3, 0.1)):
        assert abs(got / 40 - frac) <= 0.2 * frac + 1e-9


def test_subset_too_large_rejected():
    ds = synth_shapes(2, size=8)
    with pytest.raises(ValueError):
        subset(ds, len(ds) + 1)
