#!/usr/bin/env python3
"""Adversarial-training comparison: plain SGD vs PGD-hardened training.

Trains both variants on the desk synthetic dataset and tabulates their
accuracy under a 20-step PGD attack across the epsilon ladder. The
hardened model trains against 4-step PGD at 8/255.
"""

import argparse
import os
import sys

from fenet import attacks, data, ensemble, nn, util
from fenet.attacks import AttackConfig
from fenet.cli import DESK_ARCH

EPSILONS = (0, 2, 5, 8, 10, 15, 20)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="runs/adversarial_training")
    args = parser.parse_args()
    util.keep_freed_heap()  # it trains without fenet.cli.main, which would set the policy
    train_ds = data.synth_shapes(150, size=16, seed=101)
    test_ds = data.synth_shapes(50, size=16, seed=202)
    tcfg = nn.TrainConfig(learning_rates=(0.1, 0.01, 0.001), epochs_per_rate=3,
                          batch_size=32, rng_seed=7)
    plain, _ = nn.train(
        nn.build_network(DESK_ARCH, train_ds.image_shape, train_ds.num_classes, seed=tcfg.rng_seed),
        train_ds, tcfg,
    )
    hardened = ensemble.adversarial_train(DESK_ARCH, train_ds, tcfg)
    plan = [(net, {name: net}) for name, net in (("plain", plain), ("hardened", hardened))]
    cfg = AttackConfig(method="pgd", steps=20, rng_seed=0)  # transfer_eval sets each radius
    rows = attacks.transfer_eval(plan, test_ds, [eps / 255 for eps in EPSILONS], cfg)
    for eps, name, acc in rows:
        print(f"eps {round(eps * 255):2d}/255  {name:8s} {acc:.3f}")
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "adversarial_training.csv")
    with open(path, "w") as fh:
        fh.write(attacks.accuracy_table_csv(rows))
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
