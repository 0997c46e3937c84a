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
from .util import clamp01, l2norm, rng_from


@dataclass
class NoiseConfig:
    epsilon_max: float = 20 / 255
    samples_per_image: int = 10
    num_images: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if not self.epsilon_max > 0:
            raise ValueError(f"epsilon_max must be positive, got {self.epsilon_max}")
        if self.samples_per_image < 1 or self.num_images < 1:
            raise ValueError("samples_per_image and num_images must be >= 1")


@dataclass
class SensitivitySample:
    image_id: int
    noise_id: int
    values: np.ndarray
    filter_names: tuple


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


def sample_sensitivities(filter_bank: dict, dataset, cfg: NoiseConfig) -> list:
    """Sensitivity of every filter on seeded noisy versions of sampled images."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if len(dataset) < cfg.num_images:
        raise ValueError(
            f"dataset has {len(dataset)} images, need at least {cfg.num_images}"
        )
    names = tuple(filter_bank)
    ids = rng_from(cfg.rng_seed, 0x494D47).choice(
        len(dataset), size=cfg.num_images, replace=False
    )
    samples = []
    for image_id in sorted(int(i) for i in ids):
        x = dataset.images[image_id]
        rng = noise_stream(cfg.rng_seed, image_id)
        deltas = [draw_noise(rng, x.shape, cfg.epsilon_max) for _ in range(cfg.samples_per_image)]
        # row 0 is the clean image, row 1 + k its k-th noisy copy
        batch = np.concatenate([x[None], clamp01(x + np.stack(deltas))])
        values = np.empty((cfg.samples_per_image, len(names)))
        for j, spec in enumerate(filter_bank.values()):
            out = flt.apply_batch(spec, batch)
            # one norm per sample: a norm along an axis sums in another order
            for k in range(cfg.samples_per_image):
                values[k, j] = l2norm(out[1 + k] - out[0])
        samples.extend(
            SensitivitySample(image_id, k, values[k], names) for k in range(cfg.samples_per_image)
        )
    return samples


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

    def pair(self, a: str, b: str) -> float:
        i = self.filter_names.index(a)
        j = self.filter_names.index(b)
        return float(self.rho[i, j])


def pearson_matrix(samples: list) -> CorrelationMatrix:
    """Sample Pearson correlations (n-1 normalization) between filter columns."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to correlate")
    names = samples[0].filter_names
    if any(s.filter_names != names for s in samples):
        raise ValueError("samples disagree on filter names")
    x = np.stack([s.values for s in samples])
    n, k = x.shape
    centered = x - x.mean(axis=0)
    std = np.sqrt((centered**2).sum(axis=0) / (n - 1))
    for j in range(k):
        if std[j] == 0.0:
            raise ValueError(f"constant sensitivity column for filter {names[j]!r}")
    rho = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            cov = float(centered[:, i] @ centered[:, j]) / (n - 1)
            rho[i, j] = rho[j, i] = cov / (std[i] * std[j])
    np.clip(rho, -1.0, 1.0, out=rho)
    return CorrelationMatrix(names, rho)


def select_min_correlated(matrix: CorrelationMatrix, k: int) -> list:
    """The k filters whose worst pairwise |rho| is smallest.

    Exhaustive over all k-subsets; ties go to the lexicographically first
    subset of names.
    """
    names = matrix.filter_names
    if k > len(names):
        raise ValueError(f"k={k} exceeds {len(names)} filters")
    best = None
    for combo in combinations(names, k):
        chosen = sorted(combo)
        worst = 0.0
        for a, b in combinations(chosen, 2):
            worst = max(worst, abs(matrix.pair(a, b)))
        key = (worst, tuple(chosen))
        if best is None or key < best:
            best = key
    return list(best[1])


def correlation_csv(matrix: CorrelationMatrix) -> str:
    """Header row of filter names, then one row per filter, 6 decimals."""
    lines = ["filter," + ",".join(matrix.filter_names)]
    for name, row in zip(matrix.filter_names, matrix.rho):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
