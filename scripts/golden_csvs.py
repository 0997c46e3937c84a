#!/usr/bin/env python3
"""Golden hashes: the sha256 of every CSV, config copy and saved model from three pipeline runs and the baselines.

Runs the CLI commands on three configs in a temporary directory:
- `test09`: the six commands on the config of
  tests/test_acceptance.py::test_09 (7 CSVs);
- `desk`: train, correlate, attack and transfer on scripts/desk_config.json,
  then ensemble-eval with attack.bpda="adjoint" and certify for the mincorr
  and maxcorr plans, as scripts/run_ensemble_comparison.py does (10 CSVs);
- `corr32`: correlate on the synthetic corpus of scripts/run_correlation.py
  (32x32 images, 25 per class, test seed 404), whose 11-image batches
  span several of the octree's and the low/high pass's 4,096-pixel
  chunks (1 CSV).

The `baselines` set trains the two comparison defences that no CLI
command runs, on the desk data and training config of tests/conftest.py,
and saves their networks under baselines/: the three Gaussian-noise
members (sigma 0.02, seed 0) and the PGD adversarially trained network.

It prints one `<sha256>  <path>` line per CSV, `<command>_<tag>.config.json`
copy and model file, sorted by path. Run it at two commits and diff the
outputs: a change that keeps every line keeps every result byte for byte.
It imports fenet from the checkout it lives in, so a copy of the script
hashes that copy's code.

`--diff DIR_A DIR_B` runs nothing. It compares two `--keep` directories:
it names each CSV, config copy or model that exists on one side only or
whose bytes differ. For a differing CSV it prints the largest absolute
and relative difference over its numeric cells, and for two differing
models that load with the same header the same over their parameters, so
a change that alters float rounding shows how far each output moved. It
exits 1 when any output differs.

    python3 scripts/golden_csvs.py [--only test09|desk|corr32|baselines] [--keep DIR]
    python3 scripts/golden_csvs.py --diff DIR_A DIR_B
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fenet import cli, data, ensemble, model_io, nn  # noqa: E402

TEST09 = [
    "--tag", "t",
    "--set", "dataset.num_per_class=8",
    "--set", "dataset.test_per_class=5",
    "--set", "dataset.size=8",
    "--set", 'filters=["identity","grayscale","lowpass"]',
    "--set", 'train={"learning_rates":[0.1],"epochs_per_rate":1,"batch_size":8,"rng_seed":3}',
    "--set", 'arch=[{"kind":"Flatten"},{"kind":"Dense","out_features":null}]',
    "--set", 'attack={"epsilons":[0,4],"steps":2}',
    "--set", 'noise={"epsilon_max":20,"samples_per_image":3,"num_images":8,"rng_seed":0,"select_k":2}',
    "--set", 'ensemble={"plan":null,"members":[["a","identity"],["b","grayscale"]]}',
    "--set", "certify.num_inputs=5",
]
DESK = ["--config", os.path.join(ROOT, "scripts", "desk_config.json")]
CORR32 = [  # the synthetic corpus of scripts/run_correlation.py
    "--tag", "synth",
    "--set", "dataset.test_per_class=25",
    "--set", "dataset.size=32",
    "--set", "dataset.test_seed=404",
]


def runs():
    """(out_dir, argv) per command, out_dir relative to the working directory."""
    for command in ("train", "correlate", "attack", "transfer", "ensemble-eval", "certify"):
        yield "test09", [command, "--out-dir", "test09", *TEST09]
    for command in ("train", "correlate", "attack", "transfer"):
        yield "desk", [command, "--out-dir", "desk", *DESK, "--tag", "desk"]
    for plan in ("mincorr", "maxcorr"):
        plan_args = ["--tag", plan, "--set", f'ensemble.plan="{plan}"']
        yield "desk", ["ensemble-eval", "--out-dir", "desk", *DESK, *plan_args,
                       "--set", 'attack.bpda="adjoint"']
        yield "desk", ["certify", "--out-dir", "desk", *DESK, *plan_args]
    yield "corr32", ["correlate", "--out-dir", "corr32", *CORR32]


def save_baselines(out_dir):
    """The Gaussian-noise members and the PGD-trained network, as model files under out_dir."""
    train_ds = data.synth_shapes(150, size=16, seed=101)
    tcfg = nn.TrainConfig(learning_rates=(0.1, 0.01, 0.001), epochs_per_rate=3, batch_size=32, rng_seed=7)
    os.makedirs(out_dir, exist_ok=True)
    for sm in ensemble.gaussian_noise_submodels(cli.DESK_ARCH, train_ds, sigma=0.02, count=3, seed=0,
                                                train_cfg=tcfg):
        model_io.save_network(sm.net, os.path.join(out_dir, f"{sm.name}.fenet"))
    hardened = ensemble.adversarial_train(cli.DESK_ARCH, train_ds, tcfg)
    model_io.save_network(hardened, os.path.join(out_dir, "adversarial.fenet"))


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def outputs(root, suffixes=(".csv", ".config.json", ".fenet")):
    """Paths under `root` ending in one of `suffixes`, relative to it."""
    found = []
    for base, _, files in os.walk(root):
        found += [os.path.relpath(os.path.join(base, f), root) for f in files if f.endswith(suffixes)]
    return sorted(found)


def csv_cells(path):
    """Rows of a CSV as lists of cells, without its `#` provenance lines."""
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines() if not line.startswith("#")]


def cell_diff(a, b):
    """(largest absolute, largest relative) numeric difference, or a reason they cannot be compared."""
    rows_a, rows_b = csv_cells(a), csv_cells(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "row or column counts differ"
    max_abs = max_rel = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_a == cell_b:
                continue
            try:
                x, y = float(cell_a), float(cell_b)
            except ValueError:
                return f"text cell differs: {cell_a!r} vs {cell_b!r}"
            d = abs(x - y)
            if d:  # "0" and "0.0" differ as text only
                max_abs = max(max_abs, d)
                max_rel = max(max_rel, d / max(abs(x), abs(y)))
    return max_abs, max_rel


def model_diff(a, b):
    """(largest absolute, largest relative) parameter difference of two models, or why they cannot be compared."""
    try:
        nets = model_io.load_network(a), model_io.load_network(b)
    except model_io.ModelFormatError:
        return "model bytes differ"
    if model_io._header_dict(nets[0]) != model_io._header_dict(nets[1]):
        return "model bytes differ"
    params_a, params_b = ([p for layer in net.layers for p in layer.params] for net in nets)
    max_abs = max_rel = 0.0
    for x, y in zip(params_a, params_b):
        d = np.abs(x - y)
        scale = np.where(d > 0, np.maximum(np.abs(x), np.abs(y)), 1.0)
        max_abs = max(max_abs, d.max(initial=0.0))
        max_rel = max(max_rel, (d / scale).max(initial=0.0))
    return max_abs, max_rel


def diff_dirs(dir_a, dir_b) -> int:
    """Print one line per CSV, config copy or model that differs between two --keep directories; 1 if any does."""
    files_a, files_b = outputs(dir_a), outputs(dir_b)
    for path in sorted(set(files_a) ^ set(files_b)):
        print(f"{path}: only in {dir_a if path in files_a else dir_b}")
    same = 0
    for path in sorted(set(files_a) & set(files_b)):
        a, b = os.path.join(dir_a, path), os.path.join(dir_b, path)
        if sha256(a) == sha256(b):
            same += 1
            continue
        if path.endswith(".csv"):
            moved = cell_diff(a, b)
        elif path.endswith(".fenet"):
            moved = model_diff(a, b)
        else:
            moved = "config bytes differ"
        if isinstance(moved, str):
            print(f"{path}: {moved}")
        else:
            print(f"{path}: max abs diff {moved[0]:.3g}, max rel diff {moved[1]:.3g}")
    print(f"{same} output(s) identical")
    return int(same != len(set(files_a) | set(files_b)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=("test09", "desk", "corr32", "baselines"), help="run one set only")
    parser.add_argument("--keep", help="run in this directory and keep the outputs")
    parser.add_argument("--diff", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare the outputs of two --keep directories instead of running")
    args = parser.parse_args()
    if args.diff:
        return diff_dirs(*args.diff)
    with contextlib.ExitStack() as stack:
        work = args.keep or stack.enter_context(tempfile.TemporaryDirectory())
        os.makedirs(work, exist_ok=True)
        # The CSV provenance line hashes the config, out_dir included, so the
        # runs use the same relative out_dir wherever the work directory is.
        stack.callback(os.chdir, os.getcwd())
        os.chdir(work)
        for out_dir, argv in runs():
            if args.only not in (None, out_dir):
                continue
            print("running", out_dir, argv[0], file=sys.stderr)
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(argv)
            if rc:
                return rc
        if args.only in (None, "baselines"):
            print("running baselines", file=sys.stderr)
            save_baselines("baselines")
        for path in outputs("."):
            print(f"{sha256(path)}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
