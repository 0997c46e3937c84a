"""Experiment pipeline commands: train, correlate, attack, transfer,
ensemble-eval, certify.

A single JSON document configures every command; any field can be
overridden on the command line with --set dotted.path=value. Every CSV
starts with a comment line recording the sha256 of the effective config
and all seeds in play, and a rerun with an unchanged config writes
byte-identical files. Epsilon fields are integers in 1/255 units.
"""

import argparse
import copy
import functools
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import attacks, data, ensemble, filters as flt, model_io, nn, sensitivity

DATA_DIR_ENV = "FENET_DATA_DIR"

# Small enough for minutes-scale CPU training, accurate enough on the
# synthetic shapes to leave attacks something to destroy.
DESK_ARCH = [
    {"kind": "Conv2D", "out_channels": 8, "kernel": [3, 3], "stride": 1, "padding": "same"},
    {"kind": "ReLU"},
    {"kind": "AvgPool2D", "pool": 2, "stride": 2},
    {"kind": "Conv2D", "out_channels": 16, "kernel": [3, 3], "stride": 1, "padding": "same"},
    {"kind": "ReLU"},
    {"kind": "AvgPool2D", "pool": 2, "stride": 2},
    {"kind": "Flatten"},
    {"kind": "Dense", "out_features": None},
]

DEFAULT_CONFIG = {
    "seed": 0,
    "out_dir": "runs",
    "tag": "run",
    "dataset": {
        "kind": "synth",
        "num_per_class": 150,
        "test_per_class": 50,
        "size": 16,
        "train_seed": 101,
        "test_seed": 202,
        "dir": None,
        "subset": None,
        "subset_seed": 0,
    },
    "filters": ["discretize", "downsize", "grayscale", "highpass", "identity", "lowpass", "octree16"],
    "filter_params": {},
    "arch": DESK_ARCH,
    "train": {"learning_rates": [0.1, 0.01, 0.001], "epochs_per_rate": 3, "batch_size": 32, "rng_seed": 7},
    "attack": {
        "method": "pgd",
        "epsilons": [2, 5, 8, 10, 15, 20],
        "norm": "inf",
        "steps": 20,
        "step_size": None,
        "random_init": True,
        "bpda": "identity",
        "loss_sign": "ascend",
        "rng_seed": 0,
        "source": "identity",
    },
    "noise": {"epsilon_max": 20, "samples_per_image": 10, "num_images": 100, "rng_seed": 0, "select_k": 2},
    "models_dir": None,
    "ensemble": {"plan": "mincorr", "members": None},
    "certify": {"num_inputs": 100, "power_seed": 0},
}


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending field path."""


# ------------------------------------------------------------- config plumbing


# Fields holding open key-value maps; their keys are validated later, not
# against the defaults skeleton.
_OPEN_FIELDS = {"filter_params"}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            if path in _OPEN_FIELDS:
                out[key] = copy.deepcopy(val)
                continue
            raise ConfigError(f"{here}: unknown field")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _apply_override(cfg: dict, expr: str) -> None:
    path, eq, raw = expr.partition("=")
    if not eq:
        raise ConfigError(f"--set {expr!r}: expected dotted.path=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    keys = path.split(".")
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            raise ConfigError(f"{path}: unknown field")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigError(f"{path}: unknown field")
    node[keys[-1]] = value


def load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as e:
            raise ConfigError(f"--config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"--config: {args.config}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"--config: {args.config}: top level must be an object")
        cfg = _merge(cfg, file_cfg)
    for expr in args.overrides:
        _apply_override(cfg, expr)
    if args.out_dir is not None:
        cfg["out_dir"] = args.out_dir
    if args.tag is not None:
        cfg["tag"] = args.tag
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.data_dir is not None:
        cfg["dataset"]["dir"] = args.data_dir
    # A --set override can replace a whole sub-dict; re-merging over the
    # defaults refills missing siblings and rejects unknown keys inside it.
    cfg = _merge(DEFAULT_CONFIG, cfg)
    _validate(cfg)
    return cfg


def _expect(cond, message):
    if not cond:
        raise ConfigError(message)


def _expect_int(value, minimum, field, note=""):
    # bool is an int subclass, but JSON true is no integer setting. A
    # minimum of None leaves the range to the dataclass that owns the field.
    at_least = "" if minimum is None else f" >= {minimum}"
    _expect(isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum),
            f"{field}: must be an integer{at_least}{note}")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _validate(cfg: dict) -> None:
    dcfg = cfg["dataset"]
    _expect(dcfg["kind"] in ("synth", "cifar10"), f"dataset.kind: unknown kind {dcfg['kind']!r}")
    if dcfg["kind"] == "synth":
        _expect_int(dcfg["num_per_class"], 1, "dataset.num_per_class")
        _expect_int(dcfg["test_per_class"], 1, "dataset.test_per_class")
        _expect_int(dcfg["size"], 8, "dataset.size")
    if dcfg["subset"] is not None:
        _expect_int(dcfg["subset"], 0, "dataset.subset")
    for label, path in _SEED_FIELDS:
        _expect_int(_lookup(cfg, path), 0, label)
    known = set(flt.default_filters())
    for i, name in enumerate(cfg["filters"]):
        _expect(name in known, f"filters[{i}]: unknown filter {name!r}")
    _expect(len(cfg["filters"]) >= 1, "filters: must list at least one filter")
    for name in cfg["filter_params"]:
        _expect(name in known, f"filter_params.{name}: unknown filter")
    acfg = cfg["attack"]
    for i, eps in enumerate(acfg["epsilons"]):
        _expect_int(eps, 0, f"attack.epsilons[{i}]", " (1/255 units)")
    _expect(len(acfg["epsilons"]) >= 1, "attack.epsilons: must be non-empty")
    _expect(acfg["source"] in cfg["filters"], "attack.source: must be one of the listed filters")
    _expect(acfg["bpda"] in flt.BPDA_MODES, f"attack.bpda: must be identity or adjoint, got {acfg['bpda']!r}")
    _expect(isinstance(acfg["random_init"], bool), "attack.random_init: must be true or false")
    _expect(acfg["step_size"] is None or _is_number(acfg["step_size"]),
            "attack.step_size: must be null or a finite number")
    rates = cfg["train"]["learning_rates"]
    _expect(isinstance(rates, list) and all(map(_is_number, rates)),
            "train.learning_rates: must be a list of finite numbers")
    ncfg = cfg["noise"]
    _expect_int(ncfg["epsilon_max"], 1, "noise.epsilon_max", " (1/255 units)")
    _expect_int(ncfg["select_k"], 1, "noise.select_k")
    _expect(ncfg["select_k"] <= len(cfg["filters"]),
            f"noise.select_k: must be <= the {len(cfg['filters'])} listed filters")
    ecfg = cfg["ensemble"]
    _expect(ecfg["plan"] is None or ecfg["plan"] in ensemble.DEFAULT_ENSEMBLES,
            f"ensemble.plan: unknown plan {ecfg['plan']!r}")
    _expect(ecfg["plan"] is not None or ecfg["members"],
            "ensemble.members: give members when plan is null")
    if ecfg["members"] is not None:
        seen = []
        for i, pair in enumerate(ecfg["members"]):
            _expect(isinstance(pair, (list, tuple)) and len(pair) == 2,
                    f"ensemble.members[{i}]: expected [display_name, filter_name]")
            # certify rows name each member by its display name
            _expect(pair[0] not in seen, f"ensemble.members[{i}]: duplicate display name {pair[0]!r}")
            seen.append(pair[0])
            _expect(pair[1] in known, f"ensemble.members[{i}]: unknown filter {pair[1]!r}")
    _expect_int(cfg["certify"]["num_inputs"], 1, "certify.num_inputs")
    # Dataclass constructors own the numeric domain checks; the types are checked here.
    for section, key in (("train", "epochs_per_rate"), ("train", "batch_size"), ("attack", "steps"),
                         ("noise", "samples_per_image"), ("noise", "num_images")):
        _expect_int(cfg[section][key], None, f"{section}.{key}")
    _train_config(cfg)
    for eps in acfg["epsilons"]:
        _attack_config(cfg, eps)
    _noise_config(cfg)


def _train_config(cfg) -> nn.TrainConfig:
    t = cfg["train"]
    try:
        return nn.TrainConfig(
            learning_rates=tuple(t["learning_rates"]),
            epochs_per_rate=t["epochs_per_rate"],
            batch_size=t["batch_size"],
            rng_seed=t["rng_seed"],
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train: {e}") from None


def _attack_config(cfg, eps_255: int) -> attacks.AttackConfig:
    a = cfg["attack"]
    try:
        return attacks.AttackConfig(
            method=a["method"],
            radius=eps_255 / 255,
            norm=a["norm"],
            steps=a["steps"],
            step_size=a["step_size"],
            random_init=a["random_init"],
            loss_sign=a["loss_sign"],
            rng_seed=a["rng_seed"],
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"attack: {e}") from None


def _noise_config(cfg) -> sensitivity.NoiseConfig:
    s = cfg["noise"]
    try:
        return sensitivity.NoiseConfig(
            epsilon_max=s["epsilon_max"] / 255,
            samples_per_image=s["samples_per_image"],
            num_images=s["num_images"],
            rng_seed=s["rng_seed"],
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"noise: {e}") from None


# ----------------------------------------------------------- shared resources


def _bank(cfg, names=None) -> dict:
    """Default filter bank with filter_params overrides, keyed by `names`."""
    bank = flt.default_filters()
    for name, params in cfg["filter_params"].items():
        merged = dict(bank[name].params)
        merged.update(params)
        if "target" in merged:
            merged["target"] = tuple(merged["target"])
        try:
            bank[name] = flt.filter_spec(bank[name].kind, **merged)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"filter_params.{name}: {e}") from None
    return {name: bank[name] for name in (cfg["filters"] if names is None else names)}


def _correlate_bank(cfg) -> dict:
    """Ordered column -> spec map; a repeated filter gets a suffixed column."""
    specs = _bank(cfg, names=list(dict.fromkeys(cfg["filters"])))
    out = {}
    for name in cfg["filters"]:
        key, n = name, 1
        while key in out:
            n += 1
            key = f"{name}_{n}"
        out[key] = specs[name]
    return out


def _unique_filters(cfg) -> list:
    names = cfg["filters"]
    if len(set(names)) != len(names):
        raise ConfigError("filters: duplicate names; only the correlate command accepts duplicates")
    return names


def _dataset(cfg, split: str):
    """The "train" or "test" split per the dataset config."""
    dcfg = cfg["dataset"]
    if dcfg["kind"] == "synth":
        per_class = dcfg["num_per_class" if split == "train" else "test_per_class"]
        ds = data.synth_shapes(per_class, size=dcfg["size"], seed=dcfg[f"{split}_seed"])
    else:
        base = dcfg["dir"] or os.environ.get(DATA_DIR_ENV) or "data"
        try:
            train, test = data.load_cifar10(base)
        except (OSError, data.DatasetFormatError) as e:
            raise ConfigError(f"dataset.dir: {e}") from None
        ds = train if split == "train" else test
    if dcfg["subset"] is not None:
        ds = data.subset(ds, min(dcfg["subset"], len(ds.images)), seed=dcfg["subset_seed"])
    return ds


def _filtered(spec, ds):
    return data.Dataset(
        flt.apply_batch(spec, ds.images),
        np.array(ds.labels),
        num_classes=ds.num_classes,
        class_names=ds.class_names,
    )


def _models_dir(cfg) -> str:
    return cfg["models_dir"] or os.path.join(cfg["out_dir"], "models")


def _model_path(cfg, filter_name: str) -> str:
    return os.path.join(_models_dir(cfg), f"{filter_name}.fenet")


def _load_submodel(cfg, bank, display_name, filter_name) -> ensemble.SubModel:
    path = _model_path(cfg, filter_name)
    if not os.path.isfile(path):
        raise ConfigError(f"models_dir: {path}: missing model file; run the train command first")
    net = model_io.load_network(path)
    return ensemble.SubModel(display_name, bank[filter_name], net, bpda=cfg["attack"]["bpda"])


def _members(cfg) -> list:
    """(display_name, filter_name) pairs; explicit members win over the plan."""
    if cfg["ensemble"]["members"] is not None:
        return [tuple(pair) for pair in cfg["ensemble"]["members"]]
    return [tuple(pair) for pair in ensemble.DEFAULT_ENSEMBLES[cfg["ensemble"]["plan"]]]


def _ensemble_submodels(cfg, bank) -> list:
    return [_load_submodel(cfg, bank, disp, filt) for disp, filt in _members(cfg)]


# ------------------------------------------------------------- CSV provenance

_SEED_FIELDS = (
    ("seed", ("seed",)),
    ("dataset.train_seed", ("dataset", "train_seed")),
    ("dataset.test_seed", ("dataset", "test_seed")),
    ("dataset.subset_seed", ("dataset", "subset_seed")),
    ("train.rng_seed", ("train", "rng_seed")),
    ("attack.rng_seed", ("attack", "rng_seed")),
    ("noise.rng_seed", ("noise", "rng_seed")),
    ("certify.power_seed", ("certify", "power_seed")),
)


def _lookup(cfg, path):
    return functools.reduce(dict.__getitem__, path, cfg)


def _provenance_line(cfg) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    parts = [f"config sha256={digest}"]
    for label, path in _SEED_FIELDS:
        parts.append(f"{label}={_lookup(cfg, path)}")
    return "# " + " ".join(parts) + "\n"


def _write_outputs(cfg, command: str, bodies: dict) -> list:
    """Write each CSV body plus one copied config; returns the CSV paths."""
    os.makedirs(cfg["out_dir"], exist_ok=True)
    head = _provenance_line(cfg)
    paths = []
    for suffix, body in bodies.items():
        name = f"{command}_{cfg['tag']}{suffix}.csv"
        path = os.path.join(cfg["out_dir"], name)
        with open(path, "w") as fh:
            fh.write(head + body)
        paths.append(path)
    copy_path = os.path.join(cfg["out_dir"], f"{command}_{cfg['tag']}.config.json")
    with open(copy_path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


# ------------------------------------------------------------------- commands


def _build_network(cfg, in_shape, num_classes, seed) -> nn.Network:
    try:
        return nn.build_network(cfg["arch"], in_shape, num_classes, seed=seed)
    except nn.ShapeMismatchError as e:
        raise ConfigError(f"arch: {e}") from None
    except ValueError as e:  # names the entry as arch[i]
        raise ConfigError(str(e)) from None


def cmd_train(cfg) -> list:
    train_ds = _dataset(cfg, "train")
    bank = _bank(cfg)
    tcfg = _train_config(cfg)
    names = _unique_filters(cfg)
    # every filter's network is built before any is trained, so an arch that
    # fits only some filter outputs fails before a model file is written
    nets = [
        _build_network(cfg, flt.output_shape(bank[name], train_ds.image_shape),
                       train_ds.num_classes, cfg["seed"] + i)
        for i, name in enumerate(names)
    ]
    os.makedirs(_models_dir(cfg), exist_ok=True)
    rows = ["filter,rate_index,learning_rate,epoch,mean_loss"]
    for name, net in zip(names, nets):
        net, log = nn.train(net, _filtered(bank[name], train_ds), tcfg)
        model_io.save_network(net, _model_path(cfg, name))
        for ri, rate, epoch, loss in log:
            rows.append(f"{name},{ri},{rate:.6g},{epoch},{loss:.10g}")
    return _write_outputs(cfg, "train", {"": "\n".join(rows) + "\n"})


def cmd_correlate(cfg) -> list:
    test_ds = _dataset(cfg, "test")
    bank = _correlate_bank(cfg)
    ncfg = _noise_config(cfg)
    try:
        samples = sensitivity.sample_sensitivities(bank, test_ds, ncfg)
    except ValueError as e:
        raise ConfigError(f"noise: {e}") from None
    matrix = sensitivity.pearson_matrix(samples)
    selected = sensitivity.select_min_correlated(matrix, k=cfg["noise"]["select_k"])
    print("selected minimal subset:", ", ".join(selected))
    return _write_outputs(cfg, "correlate", {"": sensitivity.correlation_csv(matrix)})


def _attack_rows(cfg, targets: dict, test_ds) -> list:
    """(epsilon, name, accuracy) rows, direct white-box per target."""
    ids = np.arange(len(test_ds.images))
    rows = []
    for eps in cfg["attack"]["epsilons"]:
        acfg = _attack_config(cfg, eps)
        for name, target in targets.items():
            results = attacks.run_attack_batch(target, test_ds.images, test_ds.labels, acfg, image_ids=ids)
            acc = float(np.mean([r.final_label == y for r, y in zip(results, test_ds.labels)]))
            rows.append((eps / 255, name, acc))
    return rows


def cmd_attack(cfg) -> list:
    test_ds = _dataset(cfg, "test")
    bank = _bank(cfg)
    targets = {name: _load_submodel(cfg, bank, name, name) for name in _unique_filters(cfg)}
    rows = _attack_rows(cfg, targets, test_ds)
    return _write_outputs(cfg, "attack", {"": attacks.accuracy_table_csv(rows)})


def cmd_transfer(cfg) -> list:
    test_ds = _dataset(cfg, "test")
    bank = _bank(cfg)
    source = _load_submodel(cfg, bank, cfg["attack"]["source"], cfg["attack"]["source"])
    targets = {name: _load_submodel(cfg, bank, name, name) for name in _unique_filters(cfg)}
    epsilons = [eps / 255 for eps in cfg["attack"]["epsilons"]]
    rows = attacks.transfer_eval(source, targets, test_ds, epsilons, _attack_config(cfg, cfg["attack"]["epsilons"][0]))
    return _write_outputs(cfg, "transfer", {"": attacks.accuracy_table_csv(rows)})


def cmd_ensemble_eval(cfg) -> list:
    test_ds = _dataset(cfg, "test")
    bank = _bank(cfg, names=[f for _, f in _members(cfg)])
    subs = _ensemble_submodels(cfg, bank)
    vote_ens = ensemble.Ensemble(subs, mode="vote")
    score_ens = ensemble.Ensemble(subs, mode="score")
    ids = np.arange(len(test_ds.images))
    names = [sm.name for sm in subs]
    rows = ["epsilon,vote,score," + ",".join(names)]
    for eps in cfg["attack"]["epsilons"]:
        acfg = _attack_config(cfg, eps)
        results = attacks.run_attack_batch(score_ens, test_ds.images, test_ds.labels, acfg, image_ids=ids)
        adv = np.stack([r.adversarial for r in results])
        # one filter and forward pass per member serves all three readings
        z = vote_ens.member_logits(adv)
        vote = float(np.mean(vote_ens.classify_logits(z) == test_ds.labels))
        score = float(np.mean(score_ens.classify_logits(z) == test_ds.labels))
        member = [float(np.mean(np.argmax(zm, axis=1) == test_ds.labels)) for zm in z]
        rows.append(f"{eps},{vote:.6f},{score:.6f}," + ",".join(f"{m:.6f}" for m in member))
    return _write_outputs(cfg, "ensemble-eval", {"": "\n".join(rows) + "\n"})


def cmd_certify(cfg) -> list:
    test_ds = _dataset(cfg, "test")
    bank = _bank(cfg, names=[f for _, f in _members(cfg)])
    subs = _ensemble_submodels(cfg, bank)
    n = cfg["certify"]["num_inputs"]
    if n > len(test_ds.images):
        raise ConfigError(f"certify.num_inputs: dataset has only {len(test_ds.images)} images")
    lips = [sm.net.lipschitz_upper_bound(seed=cfg["certify"]["power_seed"]) for sm in subs]
    # one forward pass per member over all n inputs
    certs = [ensemble.certify_submodel(sm, test_ds.images[:n], lip) for sm, lip in zip(subs, lips)]
    pairs = [(a, b, ensemble.pairwise_bound(a, b)) for a, b in itertools.combinations(certs, 2)]
    cert_rows = ["input_id,submodel,margin,lipschitz,radius"]
    pair_rows = ["input_id,submodel_a,submodel_b,bound"]
    for i in range(n):
        for c in certs:
            cert_rows.append(f"{i},{c.submodel_name},{c.margin[i]:.12g},{c.lipschitz:.12g},{c.radius[i]:.12g}")
        for a, b, bound in pairs:
            pair_rows.append(f"{i},{a.submodel_name},{b.submodel_name},{bound[i]:.12g}")
    return _write_outputs(
        cfg, "certify",
        {"": "\n".join(cert_rows) + "\n", "_pairs": "\n".join(pair_rows) + "\n"},
    )


COMMANDS = {
    "train": cmd_train,
    "correlate": cmd_correlate,
    "attack": cmd_attack,
    "transfer": cmd_transfer,
    "ensemble-eval": cmd_ensemble_eval,
    "certify": cmd_certify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="PATH=VALUE", help="override one config field (value parsed as JSON)")
    common.add_argument("--out-dir", help="output directory (default: runs)")
    common.add_argument("--tag", help="output file tag (default: run)")
    common.add_argument("--seed", type=int, help="global seed")
    common.add_argument("--data-dir", help=f"CIFAR-10 directory (default: ${DATA_DIR_ENV} or ./data)")
    parser = argparse.ArgumentParser(prog="fenet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args)
        paths = COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    for path in paths:
        print("wrote", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
