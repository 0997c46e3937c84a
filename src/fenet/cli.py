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
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import attacks, data, ensemble, filters as flt, model_io, nn, sensitivity
from .util import is_int, is_number

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
# A rule checks one field: rule(path, value) raises ConfigError naming the
# path, or the path of the item at fault inside the value.


def _expect(cond, message):
    if not cond:
        raise ConfigError(message)


def _leaf(test, message):
    """The rule that test(value) holds; a `{!r}` in the message shows the value."""
    def rule(path, value):
        if not test(value):
            raise ConfigError(f"{path}: " + message.format(value))
    return rule


def _int(minimum=None, note=""):
    """An integer >= minimum; with no minimum, the dataclass that owns the field checks its range."""
    at_least = "" if minimum is None else f" >= {minimum}"
    return _leaf(lambda v: is_int(v) and (minimum is None or v >= minimum), f"must be an integer{at_least}{note}")


def _one_of(choices):
    return _leaf(lambda v: v in choices, f"must be one of {', '.join(choices)}, got {{!r}}")


def _or_null(rule):
    return lambda path, value: value is None or rule(path, value)


def _list_of(rule, empty=None):
    """A list whose items each pass `rule` as path[i]; `empty` is the error for [] if [] is not allowed."""
    def check(path, value):
        _expect(isinstance(value, list), f"{path}: must be a list")
        for i, item in enumerate(value):
            rule(f"{path}[{i}]", item)
        _expect(value or empty is None, f"{path}: {empty}")
    return check


_SEED = _int(0)  # the seeds: each CSV's provenance line names every field with this rule
_PATH = _leaf(lambda v: isinstance(v, str) and v != "" and "\0" not in v, "must be a non-empty path")
_NAME = _leaf(lambda v: isinstance(v, str) and re.fullmatch(r"[\w.-]+", v),
              "must be a name of letters, digits, '_', '.' or '-'")
_OBJECT = _leaf(lambda v: isinstance(v, dict), "must be an object")
_FILTER = _one_of(tuple(flt.default_filters()))


def _filter_params(path, value):
    """An open map from filter name to parameters; FilterSpec checks the parameters."""
    _OBJECT(path, value)
    for name, params in value.items():
        _FILTER(path, name)
        _OBJECT(f"{path}.{name}", params)


def _member(path, value):
    _expect(isinstance(value, list) and len(value) == 2, f"{path}: expected [display_name, filter_name]")
    _NAME(f"{path}[0]", value[0])
    _FILTER(f"{path}[1]", value[1])


# One rule per leaf of DEFAULT_CONFIG, keyed by its dotted path. _validate
# adds the checks that span fields and builds what the commands build.
_RULES = {
    "seed": _SEED,
    "out_dir": _PATH,
    "tag": _NAME,
    "dataset.kind": _one_of(("synth", "cifar10")),
    "dataset.num_per_class": _int(1),
    "dataset.test_per_class": _int(1),
    "dataset.size": _int(8),
    "dataset.train_seed": _SEED,
    "dataset.test_seed": _SEED,
    "dataset.dir": _or_null(_PATH),
    "dataset.subset": _or_null(_int(0)),
    "dataset.subset_seed": _SEED,
    "filters": _list_of(_FILTER, "must list at least one filter"),
    "filter_params": _filter_params,
    "arch": _list_of(_OBJECT),  # nn.build_network checks each layer
    "train.learning_rates": _leaf(lambda v: isinstance(v, list) and all(map(is_number, v)),
                                  "must be a list of finite numbers"),
    "train.epochs_per_rate": _int(),
    "train.batch_size": _int(),
    "train.rng_seed": _SEED,
    "attack.method": _one_of(attacks.METHODS),
    "attack.epsilons": _list_of(_int(0, " (1/255 units)"), "must be non-empty"),
    "attack.norm": _leaf(lambda v: v in ("inf", "Inf", "2", 2, math.inf), "must be inf or 2, got {!r}"),
    "attack.steps": _int(),
    "attack.step_size": _leaf(lambda v: v is None or is_number(v), "must be null or a finite number"),
    "attack.random_init": _leaf(lambda v: isinstance(v, bool), "must be true or false"),
    "attack.bpda": _one_of(flt.BPDA_MODES),
    "attack.loss_sign": _one_of(("ascend", "paper_literal")),
    "attack.rng_seed": _SEED,
    "attack.source": _FILTER,
    "noise.epsilon_max": _int(1, " (1/255 units)"),
    "noise.samples_per_image": _int(),
    "noise.num_images": _int(),
    "noise.rng_seed": _SEED,
    "noise.select_k": _int(1),
    "models_dir": _or_null(_PATH),
    "ensemble.plan": _or_null(_one_of(tuple(ensemble.DEFAULT_ENSEMBLES))),
    "ensemble.members": _or_null(_list_of(_member, "must be non-empty")),
    "certify.num_inputs": _int(1),
    "certify.power_seed": _SEED,
}
_SEED_FIELDS = tuple(path for path, rule in _RULES.items() if rule is _SEED)


def _lookup(cfg, path: str):
    return functools.reduce(dict.__getitem__, path.split("."), cfg)


def _merge(cfg: dict, override: dict, path: str = "") -> None:
    """Write `override` into `cfg`: a block key by key; a field, or any key inside an open map, whole."""
    in_map = path.partition(".")[0] in _RULES
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        _expect(key in cfg or in_map, f"{here}: unknown field")
        if here in _RULES or in_map:
            cfg[key] = value
        else:
            _expect(isinstance(value, dict), f"{here}: must be an object")
            _merge(cfg[key], value, here)


def _apply_override(cfg: dict, expr: str) -> None:
    path, eq, raw = expr.partition("=")
    _expect(eq, f"--set {expr!r}: expected dotted.path=value")
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer too long to read: the text itself
        value = raw
    parent, _, key = path.rpartition(".")
    node = cfg
    for k in filter(None, parent.split(".")):  # makes a missing open-map entry; _merge rejects any other
        node = node.setdefault(k, {}) if isinstance(node, dict) else None
    _expect(isinstance(node, dict), f"{path}: unknown field")
    if path not in _RULES and isinstance(DEFAULT_CONFIG.get(path), dict):
        node[key] = copy.deepcopy(DEFAULT_CONFIG[path])  # an object replaces a block; omitted keys keep defaults
    _merge(node, {key: value}, parent)


def load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as e:  # unreadable, or not JSON in UTF-8
            raise ConfigError(f"--config: {args.config}: {e}") from None
        _expect(isinstance(file_cfg, dict), f"--config: {args.config}: top level must be an object")
        _merge(cfg, file_cfg)
    for expr in args.overrides:
        _apply_override(cfg, expr)
    flags = {"out_dir": args.out_dir, "tag": args.tag, "seed": args.seed}
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    if args.data_dir is not None:
        cfg["dataset"]["dir"] = args.data_dir
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    """Each field's rule, the checks that span fields, then all that the commands build from the config."""
    for path, rule in _RULES.items():
        rule(path, _lookup(cfg, path))
    filters = cfg["filters"]
    _expect(cfg["attack"]["source"] in filters, "attack.source: must be one of the listed filters")
    _expect(cfg["noise"]["select_k"] <= len(filters),
            f"noise.select_k: must be <= the {len(filters)} listed filters")
    members = cfg["ensemble"]["members"]
    _expect(members is not None or cfg["ensemble"]["plan"] is not None,
            "ensemble.members: give members when plan is null")
    names = [name for name, _ in members or ()]
    for i, name in enumerate(names):
        # certify rows name each member by its display name
        _expect(names.index(name) == i, f"ensemble.members[{i}]: duplicate display name {name!r}")
    _bank(cfg)
    _train_config(cfg)
    for eps in cfg["attack"]["epsilons"]:
        _attack_config(cfg, eps)
    noise = _noise_config(cfg)
    _expect(noise.samples_per_image * noise.num_images >= 2,
            "noise: correlate needs samples_per_image x num_images >= 2")


def _dataclass(cls, cfg, block: str, **per_255):
    """cls from the block's same-named fields, `per_255` ones scaled from 1/255 units; errors name the block."""
    values = {f.name: cfg[block][f.name] for f in dataclasses.fields(cls) if f.name not in per_255}
    try:
        return cls(**values, **{name: value / 255 for name, value in per_255.items()})
    except (ArithmeticError, TypeError, ValueError) as e:
        raise ConfigError(f"{block}: {e}") from None


def _train_config(cfg) -> nn.TrainConfig:
    return _dataclass(nn.TrainConfig, cfg, "train")


def _attack_config(cfg, eps_255: int) -> attacks.AttackConfig:
    return _dataclass(attacks.AttackConfig, cfg, "attack", radius=eps_255)


def _noise_config(cfg) -> sensitivity.NoiseConfig:
    return _dataclass(sensitivity.NoiseConfig, cfg, "noise", epsilon_max=cfg["noise"]["epsilon_max"])


# ----------------------------------------------------------- shared resources


def _bank(cfg) -> dict:
    """The default filter bank, each filter's parameters updated from filter_params."""
    bank = flt.default_filters()
    for name, params in cfg["filter_params"].items():
        try:
            bank[name] = flt.FilterSpec(bank[name].kind, {**bank[name].params, **params})
        except ValueError as e:
            raise ConfigError(f"filter_params.{name}: {e}") from None
    return bank


def _output_shape(bank, name, in_shape) -> tuple:
    """The shape filter `name` gives in_shape images; a parameter that does not fit them is a config error."""
    try:
        return flt.output_shape(bank[name], in_shape)
    except ValueError as e:  # the message starts with the parameter at fault
        raise ConfigError(f"filter_params.{name}.{e}") from None


def _correlate_bank(cfg, in_shape) -> dict:
    """Ordered column -> spec map for in_shape images; a repeated filter gets a suffixed column."""
    bank = _bank(cfg)
    out = {}
    for name in cfg["filters"]:
        key, n = name, 1
        while key in out:
            n += 1
            key = f"{name}_{n}"
        _output_shape(bank, name, in_shape)
        out[key] = bank[name]
    return out


def _unique_filters(cfg) -> list:
    names = cfg["filters"]
    _expect(len(set(names)) == len(names), "filters: duplicate names; only the correlate command accepts duplicates")
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
        _expect(len(ds.images) > 0, "dataset.subset: leaves no images")
    return ds


def _models_dir(cfg) -> str:
    return cfg["models_dir"] or os.path.join(cfg["out_dir"], "models")


def _check_output_dirs(cfg, command: str) -> None:
    """Fail before any work if a directory the command writes names a file, or lies under one."""
    dirs = {"out_dir": cfg["out_dir"]}
    if command == "train":
        dirs["models_dir"] = _models_dir(cfg)
    for field, path in dirs.items():
        head = os.path.abspath(path)
        while not os.path.lexists(head):
            head = os.path.dirname(head)
        _expect(os.path.isdir(head), f"{field}: {path}: not a directory")


def _model_path(cfg, filter_name: str) -> str:
    return os.path.join(_models_dir(cfg), f"{filter_name}.fenet")


def _load_submodel(cfg, bank, display_name, filter_name, in_shape) -> ensemble.SubModel:
    """The saved model of filter_name, checked to take what the filter gives in_shape images."""
    path = _model_path(cfg, filter_name)
    if not os.path.isfile(path):
        raise ConfigError(f"models_dir: {path}: missing model file; run the train command first")
    net = model_io.load_network(path)
    shape = _output_shape(bank, filter_name, in_shape)
    _expect(net.input_shape == shape,
            f"models_dir: {path}: the model takes {net.input_shape} inputs, the filter gives {shape}")
    return ensemble.SubModel(display_name, bank[filter_name], net, bpda=cfg["attack"]["bpda"])


def _ensemble_submodels(cfg, bank, in_shape) -> list:
    """One sub-model per (display_name, filter_name) pair; explicit members win over the plan."""
    pairs = cfg["ensemble"]["members"] or ensemble.DEFAULT_ENSEMBLES[cfg["ensemble"]["plan"]]
    return [_load_submodel(cfg, bank, name, filter_name, in_shape) for name, filter_name in pairs]


# ------------------------------------------------------------- CSV provenance

def _provenance_line(cfg) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    seeds = " ".join(f"{path}={_lookup(cfg, path)}" for path in _SEED_FIELDS)
    return f"# config sha256={digest} {seeds}\n"


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
        _build_network(cfg, _output_shape(bank, name, train_ds.image_shape),
                       train_ds.num_classes, cfg["seed"] + i)
        for i, name in enumerate(names)
    ]
    os.makedirs(_models_dir(cfg), exist_ok=True)
    trained = ensemble.train_submodels([bank[name] for name in names], nets, train_ds, tcfg)
    rows = ["filter,rate_index,learning_rate,epoch,mean_loss"]
    for name, (net, log) in zip(names, trained):
        model_io.save_network(net, _model_path(cfg, name))
        for ri, rate, epoch, loss in log:
            rows.append(f"{name},{ri},{rate:.6g},{epoch},{loss:.10g}")
    return _write_outputs(cfg, "train", {"": "\n".join(rows) + "\n"})


def cmd_correlate(cfg) -> list:
    test_ds = _dataset(cfg, "test")
    bank = _correlate_bank(cfg, test_ds.image_shape)
    ncfg = _noise_config(cfg)
    try:
        matrix = sensitivity.pearson_matrix(sensitivity.sample_sensitivities(bank, test_ds, ncfg), tuple(bank))
    except ValueError as e:
        raise ConfigError(f"noise: {e}") from None
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
    targets = {name: _load_submodel(cfg, bank, name, name, test_ds.image_shape)
               for name in _unique_filters(cfg)}
    rows = _attack_rows(cfg, targets, test_ds)
    return _write_outputs(cfg, "attack", {"": attacks.accuracy_table_csv(rows)})


def cmd_transfer(cfg) -> list:
    test_ds = _dataset(cfg, "test")
    bank = _bank(cfg)
    load = functools.partial(_load_submodel, cfg, bank, in_shape=test_ds.image_shape)
    source = load(cfg["attack"]["source"], cfg["attack"]["source"])
    targets = {name: load(name, name) for name in _unique_filters(cfg)}
    epsilons = [eps / 255 for eps in cfg["attack"]["epsilons"]]
    rows = attacks.transfer_eval(source, targets, test_ds, epsilons, _attack_config(cfg, cfg["attack"]["epsilons"][0]))
    return _write_outputs(cfg, "transfer", {"": attacks.accuracy_table_csv(rows)})


def cmd_ensemble_eval(cfg) -> list:
    test_ds = _dataset(cfg, "test")
    bank = _bank(cfg)
    subs = _ensemble_submodels(cfg, bank, test_ds.image_shape)
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
    bank = _bank(cfg)
    subs = _ensemble_submodels(cfg, bank, test_ds.image_shape)
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
        _check_output_dirs(cfg, args.command)
        paths = COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    for path in paths:
        print("wrote", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
