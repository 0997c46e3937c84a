"""Filter sensitivity to input noise, and correlation-based filter selection.

The sensitivity of a filter at image x under perturbation d is
r = ||filter(clamp(x+d)) - filter(x)||_2. Sampling r over many seeded noises
yields one column per filter; the Pearson matrix of those columns drives the
choice of weakly coupled filters for an ensemble.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import filters as flt
from .util import clamp01, is_int, is_number, l2norm, rng_from


@dataclass
class NoiseConfig:
    epsilon_max: float = 20 / 255
    samples_per_image: int = 10
    num_images: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if not (is_number(self.epsilon_max) and self.epsilon_max > 0):
            raise ValueError(f"epsilon_max must be a finite number > 0, got {self.epsilon_max!r}")
        for name, v in (("samples_per_image", self.samples_per_image), ("num_images", self.num_images)):
            if not (is_int(v) and v >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")


def noise_stream(seed, image_id):
    """The RNG stream that generates every noise for one image.

    Streams are independent per image, so sampling parallelizes without
    changing results.
    """
    return rng_from(seed, 0x4E4F49, image_id)


def draw_noise(rng, shape, epsilon_max):
    """One perturbation: radius uniform in (0, eps_max], entries uniform in [-r, r]."""
    eps = epsilon_max * (1.0 - rng.uniform())
    return rng.uniform(-eps, eps, size=shape)


def sample_sensitivities(filter_bank: dict, dataset, cfg: NoiseConfig) -> np.ndarray:
    """Sensitivity of every filter on seeded noisy versions of sampled images.

    Returns a (num_images * samples_per_image, len(filter_bank)) array: row
    i * samples_per_image + k holds noise k of the i-th sampled image, images
    in index order, and columns follow the bank's order.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if len(dataset) < cfg.num_images:
        raise ValueError(
            f"dataset has {len(dataset)} images, need at least {cfg.num_images}"
        )
    ids = rng_from(cfg.rng_seed, 0x494D47).choice(
        len(dataset), size=cfg.num_images, replace=False
    )
    per_image = cfg.samples_per_image
    values = np.empty((cfg.num_images * per_image, len(filter_bank)))
    for i, image_id in enumerate(sorted(int(n) for n in ids)):
        x = dataset.images[image_id]
        rng = noise_stream(cfg.rng_seed, image_id)
        deltas = [draw_noise(rng, x.shape, cfg.epsilon_max) for _ in range(per_image)]
        # row 0 is the clean image, row 1 + k its k-th noisy copy
        batch = np.concatenate([x[None], clamp01(x + np.stack(deltas))])
        for j, spec in enumerate(filter_bank.values()):
            out = flt.apply_batch(spec, batch)
            out[1:] -= out[0]  # each noisy copy's move from the clean image
            # one norm per sample: a norm along an axis sums in another order
            for k in range(per_image):
                values[i * per_image + k, j] = l2norm(out[1 + k])
    return values


@dataclass
class CorrelationMatrix:
    filter_names: tuple
    rho: np.ndarray

    def __post_init__(self):
        self.filter_names = tuple(self.filter_names)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        k = len(self.filter_names)
        if self.rho.shape != (k, k):
            raise ValueError(f"matrix shape {self.rho.shape} != ({k}, {k})")
        if not np.allclose(self.rho, self.rho.T, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(self.rho), 1.0, atol=1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        if np.any(np.abs(self.rho) > 1 + 1e-12):
            raise ValueError("correlation entries must lie in [-1, 1]")


def pearson_matrix(values: np.ndarray, filter_names) -> CorrelationMatrix:
    """Sample Pearson correlations (n-1 normalization) between the columns of values."""
    x = np.asarray(values, dtype=np.float64)
    n, k = x.shape
    if n < 2:
        raise ValueError("need at least 2 samples to correlate")
    centered = x - x.mean(axis=0)
    std = np.sqrt((centered**2).sum(axis=0) / (n - 1))
    for j in range(k):
        if std[j] == 0.0:
            raise ValueError(f"constant sensitivity column for filter {filter_names[j]!r}")
    rho = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            cov = float(centered[:, i] @ centered[:, j]) / (n - 1)
            rho[i, j] = rho[j, i] = cov / (std[i] * std[j])
    np.clip(rho, -1.0, 1.0, out=rho)
    return CorrelationMatrix(filter_names, rho)


def select_min_correlated(matrix: CorrelationMatrix, k: int) -> list:
    """The k filters whose worst pairwise |rho| is smallest.

    Exhaustive over all k-subsets; ties go to the lexicographically first
    subset of names.
    """
    names = matrix.filter_names
    if k > len(names):
        raise ValueError(f"k={k} exceeds {len(names)} filters")
    by_name = sorted(range(len(names)), key=names.__getitem__)
    # subsets of a sorted list come in lexicographic order; min keeps the first tie
    best = min(
        combinations(by_name, k),
        key=lambda c: max((abs(matrix.rho[i, j]) for i, j in combinations(c, 2)), default=0.0),
    )
    return [names[i] for i in best]


def correlation_csv(matrix: CorrelationMatrix) -> str:
    """Header row of filter names, then one row per filter, 6 decimals."""
    lines = ["filter," + ",".join(matrix.filter_names)]
    for name, row in zip(matrix.filter_names, matrix.rho):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
