"""Gradient attacks: FGSM, BIM and PGD on batches, plus transfer evaluation.

A model is anything with the batched contract that nn.Network,
ensemble.SubModel and ensemble.Ensemble share:
`grad_input_batch(xb, labels)` returns the loss gradient per input and
`classify_batch(xb)` the predicted labels. A filtered sub-model supplies
its filter's backward rule (BPDA) inside its gradient, and an ensemble
supplies the sum of its members' gradients, so the attack step is the
same for all three. Success is judged by the attacked model's own
prediction.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .util import clamp01, rng_from

METHODS = ("fgsm", "bim", "pgd")


@dataclass
class AttackConfig:
    method: str = "pgd"
    radius: float = 8 / 255
    norm: float = np.inf
    steps: int = 20
    step_size: float = None
    random_init: bool = True
    loss_sign: str = "ascend"
    rng_seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.norm in ("inf", "Inf", np.inf):
            self.norm = np.inf
        elif self.norm in (2, 2.0, "2"):
            self.norm = 2.0
        else:
            raise ValueError(f"norm must be 2 or inf, got {self.norm!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.step_size is not None:
            if not self.step_size > 0:
                raise ValueError(f"step_size must be positive, got {self.step_size}")
            # radius 0 never steps, so any fixed step is harmless there
            if self.method in ("bim", "pgd") and 0 < self.radius < self.step_size:
                raise ValueError(
                    f"step_size {self.step_size} exceeds radius {self.radius}"
                )
        if self.loss_sign not in ("ascend", "paper_literal"):
            raise ValueError(f"loss_sign must be ascend or paper_literal, got {self.loss_sign!r}")
        if self.method in ("fgsm", "bim") and self.norm != np.inf:
            raise ValueError(f"{self.method} is defined for the sup norm only")

    def resolved_step_size(self):
        return self.radius / 10 if self.step_size is None else self.step_size


@dataclass
class AttackResult:
    adversarial: np.ndarray
    success: bool
    final_label: int


# ------------------------------------------------------------- attack engine

def _norms(d, p):
    flat = d.reshape(len(d), math.prod(d.shape[1:]))
    if p == np.inf:
        return np.abs(flat).max(axis=1)
    return np.linalg.norm(flat, axis=1)


def _project(d, r, p):
    """Ball projection: inside the ball unchanged, outside mapped back to it.

    The sup-norm ball projection is the coordinate-wise clip; the L2 ball
    projection rescales the offset radially onto the sphere.
    """
    if p == np.inf:
        return np.clip(d, -r, r)
    n = _norms(d, 2.0)
    scale = np.ones(len(d))
    out = n >= r
    scale[out] = r / n[out]
    return d * scale.reshape(-1, *([1] * (d.ndim - 1)))


def _direction(g, p):
    if p == np.inf:
        return np.sign(g)
    n = _norms(g, 2.0)
    d = np.zeros_like(g)
    ok = n > 0
    d[ok] = g[ok] / n[ok].reshape(-1, *([1] * (g.ndim - 1)))
    return d


def _init_point(rng, shape, r, p):
    if p == np.inf:
        return rng.uniform(-r, r, size=shape)
    v = rng.standard_normal(shape)
    nv = np.linalg.norm(v)
    if nv == 0:
        return np.zeros(shape)
    u = rng.uniform() ** (1.0 / v.size)
    return v * (r * u / nv)


def run_attack_batch(model, xb, labels, cfg: AttackConfig, image_ids=None, trace=None):
    """Attack a batch; returns a list of AttackResult in input order.

    image_ids key the per-image RNG streams for random initialization, so a
    batch and a rerun of any single image produce the same adversarial.
    """
    xb = np.asarray(xb, dtype=np.float64)
    labels = np.asarray(labels)
    if image_ids is None:
        image_ids = np.arange(len(xb))
    elif len(image_ids) != len(xb):
        raise ValueError(f"got {len(image_ids)} image_ids for {len(xb)} images")
    r = float(cfg.radius)
    sgn = 1.0 if cfg.loss_sign == "ascend" else -1.0
    p = cfg.norm

    steps, alpha = (1, r) if cfg.method == "fgsm" else (cfg.steps, cfg.resolved_step_size())

    adv = xb.copy()
    if r > 0:
        if cfg.method == "pgd" and cfg.random_init:
            deltas = np.empty_like(xb)
            for k, i in enumerate(image_ids):
                deltas[k] = _init_point(rng_from(cfg.rng_seed, int(i)), xb.shape[1:], r, p)
            adv = clamp01(xb + deltas)
        for step in range(steps):
            g = sgn * model.grad_input_batch(adv, labels)
            adv = clamp01(xb + _project(adv + alpha * _direction(g, p) - xb, r, p))
            if trace is not None:
                trace(step, adv)

    final = model.classify_batch(adv)
    return [
        AttackResult(adversarial=adv[i], success=bool(final[i] != labels[i]), final_label=int(final[i]))
        for i in range(len(adv))
    ]


# ------------------------------------------------------------- transfer study

def transfer_eval(source_model, targets: dict, dataset, epsilons, cfg: AttackConfig):
    """Craft adversarials on the source at each radius, score every target on them.

    Returns rows (epsilon, model_name, accuracy), targets in dict order.
    At epsilon 0 the attack returns the clean images, so those rows report
    clean accuracy.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    xb = dataset.images
    labels = dataset.labels
    ids = np.arange(len(dataset))
    rows = []
    for eps in epsilons:
        results = run_attack_batch(
            source_model, xb, labels, replace(cfg, radius=float(eps)), image_ids=ids
        )
        adv = np.stack([res.adversarial for res in results])
        for name, model in targets.items():
            pred = model.classify_batch(adv)
            rows.append((float(eps), name, float(np.mean(pred == labels))))
    return rows


def accuracy_table_csv(rows) -> str:
    """CSV with columns epsilon,model_name,accuracy; epsilon printed in /255 units."""
    lines = ["epsilon,model_name,accuracy"]
    for eps, name, acc in rows:
        lines.append(f"{int(round(eps * 255))},{name},{acc:.6f}")
    return "\n".join(lines) + "\n"
