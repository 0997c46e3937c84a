"""The four pipeline workloads: sized configs, set-up commands and timed commands.

Each workload is a config for `fenet.cli`, generated from the run seed,
plus the commands that build its inputs (set-up) and the commands that
are timed. Seed 0 reproduces the seeds of scripts/desk_config.json and
scripts/run_correlation.py; it is the seed with reference outputs.
"""

from dataclasses import dataclass, field

ALL_FILTERS = ["discretize", "downsize", "grayscale", "highpass", "identity", "lowpass", "octree16"]

# PGD-20 in the sup norm at two nonzero radii of the desk ladder (1/255 units).
ATTACK_STEPS = 20
ATTACK_RADII = [10, 20]
ENSEMBLE_TEST_PER_CLASS = 2  # 8 attacked test images


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict  # config without seeds
    seed_bases: dict = field(default_factory=dict)  # dataset.*_seed at seed 0
    setup_commands: tuple = ()
    commands: tuple = ()
    items: int = 0  # work per timed repeat, in `item_unit`
    item_unit: str = ""
    expect: dict = field(default_factory=dict)  # exact per-repeat counts for the traced run
    # attacks.success_ratio of the traced run at seed 0, recorded from the seed commit
    reference_success_ratio: float | None = None

    def config(self, seed: int) -> dict:
        """The config the program receives: base plus seeds derived from `seed`."""
        cfg = {key: (dict(val) if isinstance(val, dict) else val) for key, val in self.base.items()}
        cfg["out_dir"] = "out"
        cfg["tag"] = self.name
        dataset = cfg.setdefault("dataset", {})
        for key, value in self.seed_bases.items():
            dataset[key] = value + 1000 * seed
        cfg.setdefault("attack", {})["rng_seed"] = seed
        cfg.setdefault("noise", {})["rng_seed"] = seed
        return cfg

    @property
    def test_images(self) -> int:
        return 4 * self.base["dataset"]["test_per_class"]


def _ensemble(name, plan, members, success_ratio):
    images = 4 * ENSEMBLE_TEST_PER_CLASS
    base = {
        "dataset": {"num_per_class": 50, "test_per_class": ENSEMBLE_TEST_PER_CLASS, "size": 16},
        "filters": members,
        "filter_params": {"downsize": {"target": [8, 8]}},
        "train": {"learning_rates": [0.1, 0.01], "epochs_per_rate": 3, "batch_size": 32, "rng_seed": 7},
        "attack": {
            "method": "pgd", "norm": "inf", "steps": ATTACK_STEPS, "epsilons": ATTACK_RADII,
            "bpda": "adjoint", "source": members[0],
        },
        "ensemble": {"plan": plan},
        "certify": {"num_inputs": images},
    }
    expect = {"attacks.grad_calls": ATTACK_STEPS * len(ATTACK_RADII) * len(members)}
    if "octree16" not in members:
        expect["filters.apply.octree.calls"] = 0
    return Workload(
        name=name, base=base, seed_bases={"train_seed": 101, "test_seed": 202},
        setup_commands=("train",), commands=("ensemble-eval", "certify"),
        items=images * len(ATTACK_RADII), item_unit="attacked image-radii", expect=expect,
        reference_success_ratio=success_ratio,
    )


WORKLOADS = {
    w.name: w
    for w in (
        # The desk config with 80 training images instead of 600.
        Workload(
            name="train_desk",
            base={
                "dataset": {"num_per_class": 20, "test_per_class": 5, "size": 16},
                "filters": ALL_FILTERS,
                "filter_params": {"downsize": {"target": [8, 8]}},
                "train": {"learning_rates": [0.1, 0.01, 0.001], "epochs_per_rate": 3, "batch_size": 32, "rng_seed": 7},
            },
            seed_bases={"train_seed": 101, "test_seed": 202},
            commands=("train",),
            items=len(ALL_FILTERS) * 80 * 9, item_unit="example-epochs",
            expect={"attacks.grad_calls": 0},
        ),
        _ensemble("ensemble_mincorr", "mincorr", ["discretize", "lowpass", "octree16"], 4 / 16),
        _ensemble("ensemble_maxcorr", "maxcorr", ["discretize", "highpass", "grayscale"], 6 / 16),
        # scripts/run_correlation.py's synthetic corpus, 8 x 10 noise samples instead of 100 x 10.
        Workload(
            name="correlate32",
            base={
                "dataset": {"num_per_class": 25, "test_per_class": 25, "size": 32},
                "filters": ALL_FILTERS,
                "noise": {"epsilon_max": 20, "samples_per_image": 10, "num_images": 8, "select_k": 2},
            },
            seed_bases={"train_seed": 101, "test_seed": 404},
            commands=("correlate",),
            items=8 * 10, item_unit="sensitivity samples",
            expect={"attacks.grad_calls": 0, "nn.calls": 0},
        ),
    )
}
