"""Filtered sub-model ensembles: voting, score averaging, certification.

An ensemble holds (filter, network) sub-models that each see their own
view of the image. Vote mode takes the most common label; score mode
averages softmax probabilities. Sub-models and ensembles offer the same
batched methods as nn.Network (forward_batch/classify_batch,
grad_input_batch), so attacks treat all three alike. Certification
bounds the label stability of one sub-model around each filtered input
of a batch via its network's Lipschitz product bound.
"""

import math
import os
import pickle
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import filters as flt
from . import nn
from .attacks import AttackConfig, run_attack_batch
from .util import clamp01, rng_from


@dataclass
class SubModel:
    """A filter followed by the network trained on its outputs.

    `bpda` names the backward rule that stands in for the filter's
    gradient (see filters.bpda_backward): "identity" or "adjoint".
    """

    name: str
    filter: flt.FilterSpec
    net: "nn.Network"
    bpda: str = "identity"

    def __post_init__(self):
        if self.bpda not in flt.BPDA_MODES:
            raise ValueError(
                f"sub-model {self.name!r}: bpda must be 'identity' or 'adjoint', got {self.bpda!r}"
            )

    def forward_batch(self, xb):
        return self.net.forward_batch(flt.apply_batch(self.filter, xb))

    def classify_batch(self, xb):
        return self.net.classify_batch(flt.apply_batch(self.filter, xb))

    def grad_input_batch(self, xb, labels):
        """The network's input gradient at the filtered batch, sent back through the filter."""
        xb = np.asarray(xb, dtype=np.float64)
        gz = self.net.grad_input_batch(flt.apply_batch(self.filter, xb), labels)
        return flt.bpda_backward(self.filter, gz, xb.shape[1:], mode=self.bpda)


@dataclass
class RobustnessCertificate:
    submodel_name: str
    margin: np.ndarray  # (N,): one per input of the certified batch
    lipschitz: float
    radius: np.ndarray  # (N,)


class Ensemble:
    def __init__(self, submodels, mode: str = "vote"):
        submodels = tuple(submodels)
        if not submodels:
            raise ValueError("ensemble needs at least one sub-model")
        if mode not in ("vote", "score"):
            raise ValueError(f"mode must be vote or score, got {mode!r}")
        counts = {sm.net.num_classes for sm in submodels}
        if len(counts) != 1:
            raise ValueError(f"sub-models disagree on class count: {sorted(counts)}")
        self.submodels = submodels
        self.mode = mode
        self.num_classes = counts.pop()

    def grad_input_batch(self, xb, labels):
        """Sum of the members' input gradients, added in member order."""
        total = self.submodels[0].grad_input_batch(xb, labels)
        for sm in self.submodels[1:]:
            total = total + sm.grad_input_batch(xb, labels)
        return total

    def member_logits(self, xb):
        """(M, N, K) logits: each member's forward pass over the batch, in member order."""
        xb = np.asarray(xb, dtype=np.float64)
        return np.stack([sm.forward_batch(xb) for sm in self.submodels])

    def classify_logits(self, z):
        """Labels from an (M, N, K) member-logit stack, by this ensemble's mode.

        Vote takes the most common member label, ties broken by the highest
        mean softmax; score takes the highest mean softmax.
        """
        mean_p = np.exp(nn._log_softmax(z)).mean(axis=0)
        if self.mode == "score":
            return np.argmax(mean_p, axis=1)
        counts = (np.argmax(z, axis=2)[..., None] == np.arange(self.num_classes)).sum(axis=0)
        tied = counts == counts.max(axis=1, keepdims=True)
        return np.argmax(np.where(tied, mean_p, -np.inf), axis=1)

    def classify_batch(self, xb):
        return self.classify_logits(self.member_logits(xb))


def certify_submodel(sm: SubModel, xb, lipschitz: float) -> RobustnessCertificate:
    """Certified L2 radii around each filtered input of a batch, in the network's input space.

    The margin is the top logit's lead over the runner-up, zero when the top
    is tied; the radius is margin / (sqrt(2) * lipschitz), infinite when the
    network is constant (Tsuzuku, Sato & Sugiyama 2018).
    """
    top2 = np.sort(sm.forward_batch(xb), axis=1)[:, -2:]
    margin = top2[:, 1] - top2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(margin > 0, margin / (math.sqrt(2.0) * lipschitz), 0.0)
    return RobustnessCertificate(sm.name, margin, lipschitz, radius)


def pairwise_bound(c1: RobustnessCertificate, c2: RobustnessCertificate) -> np.ndarray:
    """Per-input sensitivity-product threshold below which both sub-models cannot flip."""
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (c1.margin * c2.margin) / (2.0 * c1.lipschitz * c2.lipschitz)
    return np.where((c1.margin == 0) | (c2.margin == 0), 0.0, bound)


# -------------------------------------------------------------- training aids


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _train_job(dataset, spec, net, cfg, augment):
    return nn.train(net, replace(dataset, images=flt.apply_batch(spec, dataset.images)), cfg, augment)


_worker_dataset = None  # the raw dataset in a training worker, set by _start_worker


def _start_worker(dataset, parent_pid):
    global _worker_dataset
    _worker_dataset = dataset
    if sys.platform == "linux":
        import ctypes
        import signal

        # A parent killed by a signal it cannot handle (SIGKILL, or SIGTERM
        # by default) never terminates its workers, which would wait for
        # jobs forever; PR_SET_PDEATHSIG (1) has the kernel end them instead.
        ctypes.CDLL(None).prctl(1, ctypes.c_ulong(signal.SIGTERM))
        if os.getppid() != parent_pid:  # the parent died before prctl
            os._exit(1)


def _train_in_worker(*job):
    return _train_job(_worker_dataset, *job)


def train_submodels(jobs, dataset) -> list:
    """Train each job's net on its filter's view of the dataset; [(trained net, log)] in job order.

    A job is (filter spec, network, nn.TrainConfig, augment or None). The
    jobs share nothing, so they run in forked worker processes, one per
    usable CPU. The workers inherit the raw dataset through fork (only the
    job goes through a pipe, so its augment must pickle) and each filters
    it itself, so no process holds more than one filtered copy. With one
    CPU, one job, or no fork, they run here in turn. Every augment is
    pickled before any job trains, on every path, so one that cannot
    pickle raises TypeError whatever the CPU count. Either way each result
    has the bits of nn.train. The first failure (a job's exception, a
    KeyboardInterrupt, or BrokenProcessPool when a worker dies) reaches the
    caller at once: the workers still training are terminated. Every worker
    has exited when this returns, and on Linux the workers also end when
    this process is killed.
    """
    jobs = list(jobs)
    for i, (*_, augment) in enumerate(jobs):
        try:
            pickle.dumps(augment)
        except (pickle.PicklingError, AttributeError, TypeError) as e:
            raise TypeError(f"job {i}: the augment must pickle to reach a training worker ({e})") from e
    workers = min(len(jobs), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [_train_job(dataset, *job) for job in jobs]
    # imported here, so the commands that do not train never load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    # the fork start method hands initargs to the workers without pickling them
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(dataset, os.getpid())) as pool:
        futures = [pool.submit(_train_in_worker, *job) for job in jobs]
        try:
            for future in as_completed(futures):
                future.result()  # raises the first failure, whichever job it is
        except BaseException:
            # Python < 3.14 has no public call that stops running jobs;
            # leaving the with block then joins the terminated workers
            for proc in list(pool._processes.values()):
                proc.terminate()
            raise
        return [future.result() for future in futures]


def _derived_seed(seed, tag, i):
    return int(rng_from(seed, tag, i).integers(2**31))


def _noised(sigma, net, rng, xb, yb):
    if sigma == 0:
        return xb
    return clamp01(xb + rng.normal(0.0, sigma, size=xb.shape))


def _adversarial(attack_cfg, net, rng, xb, yb):
    if attack_cfg.radius == 0:
        return xb
    ids = rng.integers(2**31, size=len(xb))
    results = run_attack_batch(net, xb, yb, attack_cfg, image_ids=ids)
    return np.stack([res.adversarial for res in results])


def gaussian_noise_submodels(base_net_spec, dataset, sigma: float = 0.02, count: int = 3, seed: int = 0, *,
                             train_cfg: "nn.TrainConfig"):
    """Train identity-filter sub-models on Gaussian-noised copies of the data."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    identity = flt.filter_spec("identity")
    jobs = []
    for i in range(count):
        net = nn.build_network(base_net_spec, dataset.image_shape, dataset.num_classes,
                               seed=_derived_seed(seed, 0x474E, i))
        cfg = replace(train_cfg, rng_seed=_derived_seed(seed, 0x4754, i))
        jobs.append((identity, net, cfg, partial(_noised, sigma)))
    return [SubModel(f"gauss{i}", identity, net) for i, (net, _) in enumerate(train_submodels(jobs, dataset))]


def adversarial_train(net_spec, dataset, attack_cfg: "AttackConfig | None",
                      train_cfg: "nn.TrainConfig") -> "nn.Network":
    """SGD where every minibatch is replaced by its PGD adversarial examples (None: 4-step PGD at 8/255)."""
    if attack_cfg is None:
        attack_cfg = AttackConfig(method="pgd", radius=8 / 255, steps=4)
    if attack_cfg.step_size is None and attack_cfg.radius > 0:
        step = min(2.5 * attack_cfg.radius / attack_cfg.steps, attack_cfg.radius)
        attack_cfg = replace(attack_cfg, step_size=step)
    net = nn.build_network(net_spec, dataset.image_shape, dataset.num_classes, seed=train_cfg.rng_seed)
    job = (flt.filter_spec("identity"), net, train_cfg, partial(_adversarial, attack_cfg))
    [(trained, _)] = train_submodels([job], dataset)
    return trained


# -------------------------------------------------------------- stock plans

DEFAULT_ENSEMBLES = {
    "mincorr": (("original", "discretize"), ("lowpass", "lowpass"), ("octree16", "octree16")),
    "maxcorr": (("original", "discretize"), ("highpass", "highpass"), ("grayscale", "grayscale")),
}
