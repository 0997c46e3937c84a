#!/usr/bin/env python3
"""Adversarial-training comparison: plain SGD vs PGD-hardened training.

Trains both variants on the desk synthetic dataset and tabulates their
accuracy under a 20-step PGD attack across the epsilon ladder. The
hardened model trains against 4-step PGD at 8/255.
"""

import argparse
import os
import sys

import numpy as np

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
    hardened = ensemble.adversarial_train(DESK_ARCH, train_ds, None, tcfg)
    ids = np.arange(len(test_ds.images))
    rows = []
    for eps in EPSILONS:
        cfg = AttackConfig(method="pgd", radius=eps / 255, steps=20, rng_seed=0)
        for name, net in (("plain", plain), ("hardened", hardened)):
            results = attacks.run_attack_batch(net, test_ds.images, test_ds.labels, cfg, image_ids=ids)
            acc = float(np.mean([r.final_label == y for r, y in zip(results, test_ds.labels)]))
            rows.append((eps / 255, name, acc))
            print(f"eps {eps:2d}/255  {name:8s} {acc:.3f}")
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "adversarial_training.csv")
    with open(path, "w") as fh:
        fh.write(attacks.accuracy_table_csv(rows))
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
