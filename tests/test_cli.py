"""End-to-end checks of the command-line pipeline on a tiny synthetic run."""

import json
import math
import os

import numpy as np
import pytest

from fenet import cli, data, filters as flt, model_io, nn

from conftest import params_of

TINY_ARCH = [{"kind": "Flatten"}, {"kind": "Dense", "out_features": None}]

BASE = [
    "--set", "dataset.num_per_class=8",
    "--set", "dataset.test_per_class=5",
    "--set", "dataset.size=8",
    "--set", 'filters=["identity","grayscale","downsize"]',
    "--set", 'filter_params={"downsize":{"target":[4,4]}}',
    "--set", 'train={"learning_rates":[0.1,0.01],"epochs_per_rate":3,"batch_size":8,"rng_seed":3}',
    "--set", 'arch=[{"kind":"Flatten"},{"kind":"Dense","out_features":null}]',
]


def run_cli(command, out_dir, *extra) -> int:
    return cli.main([command, *BASE, "--out-dir", str(out_dir), "--tag", "t", *extra])


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config sha256=")
    return lines[0], lines[1], [line.split(",") for line in lines[2:]]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    assert run_cli("train", out) == 0
    return out


def test_train_writes_models_log_and_config_copy(run_dir):
    for name in ("identity", "grayscale", "downsize"):
        assert os.path.isfile(run_dir / "models" / f"{name}.fenet")
    header, columns, rows = read_rows(run_dir / "train_t.csv")
    assert columns == "filter,rate_index,learning_rate,epoch,mean_loss"
    assert len(rows) == 3 * 6
    copied = json.loads((run_dir / "train_t.config.json").read_text())
    assert copied["train"]["rng_seed"] == 3
    assert "seed=0" in header and "train.rng_seed=3" in header


def test_training_log_smoothed_loss_is_monotone(run_dir):
    _, _, rows = read_rows(run_dir / "train_t.csv")
    for name in ("identity", "grayscale", "downsize"):
        losses = [float(r[4]) for r in rows if r[0] == name]
        smoothed = [np.mean(losses[max(0, i - 2):i + 1]) for i in range(len(losses))]
        assert all(b <= a + 1e-9 for a, b in zip(smoothed, smoothed[1:]))


def test_model_headers_match_filter_output_shapes(run_dir):
    specs = {
        "identity": flt.filter_spec("identity"),
        "grayscale": flt.filter_spec("grayscale"),
        "downsize": flt.filter_spec("downsize", target=(4, 4)),
    }
    for name, spec in specs.items():
        net = model_io.load_network(run_dir / "models" / f"{name}.fenet")
        assert tuple(net.input_shape) == flt.output_shape(spec, (8, 8, 3))


def test_zero_epoch_schedule_persists_initial_weights(tmp_path):
    assert run_cli("train", tmp_path, "--set", "train.epochs_per_rate=0") == 0
    saved = model_io.load_network(tmp_path / "models" / "identity.fenet")
    fresh = nn.build_network(TINY_ARCH, (8, 8, 3), 4, seed=0)
    for a, b in zip(params_of(saved), params_of(fresh)):
        assert np.array_equal(a, b)
    _, _, rows = read_rows(tmp_path / "train_t.csv")
    assert rows == []


def test_attack_epsilon_zero_reproduces_clean_accuracy(run_dir):
    assert run_cli("attack", run_dir, "--set", 'attack={"method":"fgsm","epsilons":[0,4],"steps":1}') == 0
    _, columns, rows = read_rows(run_dir / "attack_t.csv")
    assert columns == "epsilon,model_name,accuracy"
    test_ds = data.synth_shapes(5, size=8, seed=202)
    net = model_io.load_network(run_dir / "models" / "identity.fenet")
    clean = float(np.mean(net.classify_batch(test_ds.images) == test_ds.labels))
    by_key = {(r[0], r[1]): float(r[2]) for r in rows}
    assert by_key[("0", "identity")] == clean
    assert len(rows) == 2 * 3


def test_transfer_table_covers_every_target(run_dir):
    assert run_cli("transfer", run_dir, "--set", 'attack={"method":"fgsm","epsilons":[4],"steps":1}') == 0
    _, _, rows = read_rows(run_dir / "transfer_t.csv")
    assert [r[1] for r in rows] == ["identity", "grayscale", "downsize"]


def test_correlate_duplicate_filter_has_unit_correlation(tmp_path):
    rc = cli.main([
        "correlate", *BASE, "--out-dir", str(tmp_path), "--tag", "t",
        "--set", 'filters=["identity","identity","grayscale"]',
        "--set", 'noise={"epsilon_max":20,"samples_per_image":3,"num_images":8,"rng_seed":0,"select_k":2}',
    ])
    assert rc == 0
    _, columns, rows = read_rows(tmp_path / "correlate_t.csv")
    assert columns == "filter,identity,identity_2,grayscale"
    matrix = {r[0]: [float(v) for v in r[1:]] for r in rows}
    assert matrix["identity"][1] == 1.0
    assert matrix["identity_2"][0] == 1.0


def test_ensemble_eval_emits_vote_and_score_columns(run_dir):
    rc = run_cli(
        "ensemble-eval", run_dir,
        "--set", 'ensemble={"plan":null,"members":[["a","identity"],["b","grayscale"]]}',
        "--set", 'attack={"epsilons":[2],"steps":2}',
    )
    assert rc == 0
    _, columns, rows = read_rows(run_dir / "ensemble-eval_t.csv")
    assert columns == "epsilon,vote,score,a,b"
    assert rows[0][0] == "2"
    for value in rows[0][1:]:
        assert 0.0 <= float(value) <= 1.0


def test_named_plan_resolves_to_its_stock_members(tmp_path):
    plan_filters = ("--set", 'filters=["identity","discretize","lowpass","octree16"]')
    assert run_cli("train", tmp_path, *plan_filters) == 0
    rc = run_cli(
        "ensemble-eval", tmp_path, *plan_filters,
        "--set", 'attack={"epsilons":[2],"steps":2}',
    )
    assert rc == 0
    _, columns, _ = read_rows(tmp_path / "ensemble-eval_t.csv")
    assert columns == "epsilon,vote,score,original,lowpass,octree16"


def test_certify_radius_and_pair_bounds_recompute(run_dir):
    rc = run_cli(
        "certify", run_dir,
        "--set", 'ensemble={"plan":null,"members":[["a","identity"],["b","grayscale"]]}',
        "--set", "certify.num_inputs=10",
    )
    assert rc == 0
    _, columns, rows = read_rows(run_dir / "certify_t.csv")
    assert columns == "input_id,submodel,margin,lipschitz,radius"
    assert len(rows) == 10 * 2
    by_input = {}
    for input_id, name, margin, lip, radius in rows:
        margin, lip, radius = float(margin), float(lip), float(radius)
        expected = margin / (math.sqrt(2.0) * lip) if margin > 0 else 0.0
        assert radius == pytest.approx(expected, rel=1e-9)
        by_input.setdefault(input_id, {})[name] = (margin, lip, radius)
    _, pair_columns, pair_rows = read_rows(run_dir / "certify_t_pairs.csv")
    assert pair_columns == "input_id,submodel_a,submodel_b,bound"
    assert len(pair_rows) == 10
    for input_id, name_a, name_b, bound in pair_rows:
        (m1, l1, _), (m2, l2, _) = by_input[input_id][name_a], by_input[input_id][name_b]
        expected = (m1 * m2) / (2.0 * l1 * l2) if m1 > 0 and m2 > 0 else 0.0
        assert float(bound) == pytest.approx(expected, rel=1e-9)


def test_rerun_is_byte_identical(run_dir, tmp_path):
    args = ("--set", 'attack={"method":"fgsm","epsilons":[0,4],"steps":1}')
    assert run_cli("attack", run_dir, *args) == 0
    first = (run_dir / "attack_t.csv").read_bytes()
    assert run_cli("attack", run_dir, *args) == 0
    assert (run_dir / "attack_t.csv").read_bytes() == first

    # A different out_dir changes only the provenance line, not the body.
    assert run_cli("train", tmp_path) == 0
    assert run_cli("attack", tmp_path, *args) == 0
    body = first.split(b"\n", 1)[1]
    other = (tmp_path / "attack_t.csv").read_bytes().split(b"\n", 1)[1]
    assert other == body


def test_unknown_config_field_exits_nonzero(tmp_path, capsys):
    rc = run_cli("train", tmp_path, "--set", "train.rng_sed=1")
    assert rc == 2
    assert "train.rng_sed" in capsys.readouterr().err


def test_unknown_filter_names_the_index(tmp_path, capsys):
    rc = run_cli("train", tmp_path, "--set", 'filters=["identitty"]')
    assert rc == 2
    assert "filters[0]" in capsys.readouterr().err


def test_bad_attack_field_reports_its_path(tmp_path, capsys):
    rc = run_cli("attack", tmp_path, "--set", "attack.steps=0")
    assert rc == 2
    assert "attack:" in capsys.readouterr().err


def test_bpda_off_is_a_config_error(tmp_path, capsys):
    rc = run_cli("attack", tmp_path, "--set", 'attack.bpda="off"')
    assert rc == 2
    assert "config error: attack.bpda: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, minimum",
    [
        ("certify.num_inputs", 1),
        ("certify.power_seed", 0),
        ("noise.select_k", 1),
        ("dataset.num_per_class", 1),
        ("dataset.test_per_class", 1),
        ("dataset.size", 8),
        ("dataset.subset", 0),
        ("seed", 0),
        ("dataset.train_seed", 0),
        ("dataset.test_seed", 0),
        ("dataset.subset_seed", 0),
        ("train.rng_seed", 0),
        ("attack.rng_seed", 0),
        ("noise.rng_seed", 0),
        # the dataclass owns the range, config load only the type
        ("train.epochs_per_rate", None),
        ("train.batch_size", None),
        ("attack.steps", None),
        ("noise.samples_per_image", None),
        ("noise.num_images", None),
    ],
)
@pytest.mark.parametrize("value", ["x", "null", "1.5", "true", "-1"])
def test_integer_field_rejects_non_integers_at_config_load(tmp_path, capsys, field, minimum, value):
    if field == "dataset.subset" and value == "null":
        value = '"null"'  # JSON null means the whole split
    rc = run_cli("train", tmp_path, "--set", f"{field}={value}")
    assert rc == 2
    err = capsys.readouterr().err
    if minimum is None and value == "-1":
        # the range error is the dataclass's, named by its config block
        assert err.startswith(f"config error: {field.split('.')[0]}: ")
    else:
        at_least = "" if minimum is None else f" >= {minimum}"
        assert err == f"config error: {field}: must be an integer{at_least}\n"
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ('attack.random_init="no"', "attack.random_init: must be true or false"),
        ("attack.random_init=1", "attack.random_init: must be true or false"),
        ("attack.random_init=null", "attack.random_init: must be true or false"),
        ('attack.step_size="0.01"', "attack.step_size: must be null or a finite number"),
        ("attack.step_size=true", "attack.step_size: must be null or a finite number"),
        ("attack.step_size=NaN", "attack.step_size: must be null or a finite number"),
        ('train.learning_rates=["0.1",true]', "train.learning_rates: must be a list of finite numbers"),
        ("train.learning_rates=[0.1,true]", "train.learning_rates: must be a list of finite numbers"),
        ("train.learning_rates=[0.1,Infinity]", "train.learning_rates: must be a list of finite numbers"),
        ("train.learning_rates=0.1", "train.learning_rates: must be a list of finite numbers"),
    ],
)
def test_mistyped_attack_and_train_fields_fail_at_config_load(tmp_path, capsys, override, message):
    # bool("no") is True and float("0.01") parses, so a cast would accept these
    assert run_cli("train", tmp_path, "--set", override) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "models").exists()


def test_integer_step_size_and_false_random_init_load():
    args = cli._parser().parse_args(["attack", "--set", "attack.epsilons=[0]",
                                     "--set", "attack.step_size=1", "--set", "attack.random_init=false"])
    acfg = cli._attack_config(cli.load_config(args), 0)
    assert acfg.step_size == 1 and acfg.random_init is False


def test_select_k_above_filter_count_is_a_config_error(tmp_path, capsys):
    assert run_cli("correlate", tmp_path, "--set", "noise.select_k=4") == 2
    assert capsys.readouterr().err == "config error: noise.select_k: must be <= the 3 listed filters\n"


def test_duplicate_ensemble_display_name_is_a_config_error(tmp_path, capsys):
    # certify rows name each member by its display name, so a repeat would
    # make two members' rows indistinguishable
    members = '[["a","identity"],["a","grayscale"]]'
    assert run_cli("certify", tmp_path, "--set", f"ensemble.members={members}") == 2
    assert capsys.readouterr().err.startswith("config error: ensemble.members[1]: duplicate display name")


def test_set_override_does_not_leak_into_the_next_call(tmp_path, capsys):
    assert run_cli("attack", tmp_path, "--set", "attack.steps=0") == 2
    assert "config error: attack: " in capsys.readouterr().err
    # no models exist, so a clean config gets past load and fails on them
    assert run_cli("attack", tmp_path) == 2
    assert "missing model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ('{"kind":"Dense","out_features":-1}', "out_features must be positive"),
        ('{"kind":"Dense","out_feature":4}', "out_feature"),
        ('{"kind":"Dense2"}', "unknown layer kind"),
    ],
)
def test_bad_arch_entry_is_a_config_error(tmp_path, capsys, entry, message):
    rc = run_cli("train", tmp_path, "--set", f'arch=[{{"kind":"Flatten"}},{entry}]')
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: arch[1]: ") and message in err


def test_arch_shape_mismatch_is_a_config_error(tmp_path, capsys):
    rc = run_cli("train", tmp_path, "--set", 'arch=[{"kind":"Dense","out_features":null}]')
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: arch: Dense expects a flat input")


def test_arch_is_checked_for_every_filter_before_any_training(tmp_path, capsys):
    # a valid 5x5 kernel fits the 8x8 identity output but not the 4x4 downsize
    arch = ('arch=[{"kind":"Conv2D","out_channels":2,"kernel":[5,5],"stride":1,"padding":"valid"},'
            '{"kind":"Flatten"},{"kind":"Dense","out_features":null}]')
    rc = run_cli("train", tmp_path, "--set", 'filters=["identity","downsize"]', "--set", arch)
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: arch: input (4, 4, 3) smaller than kernel (5, 5)"
    )
    assert not (tmp_path / "models").exists()
    assert not (tmp_path / "train_t.csv").exists()


def test_fixed_step_size_accepts_epsilon_zero(run_dir):
    # a fixed step with a ladder that starts at 0, as in scripts/desk_config.json
    rc = run_cli("attack", run_dir, "--tag", "step",
                 "--set", 'attack={"epsilons":[0,2],"steps":2,"step_size":0.004}')
    assert rc == 0
    _, _, rows = read_rows(run_dir / "attack_step.csv")
    test_ds = data.synth_shapes(5, size=8, seed=202)
    net = model_io.load_network(run_dir / "models" / "identity.fenet")
    clean = float(np.mean(net.classify_batch(test_ds.images) == test_ds.labels))
    by_key = {(r[0], r[1]): float(r[2]) for r in rows}
    assert by_key[("0", "identity")] == clean
    assert len(rows) == 2 * 3


def test_step_size_above_a_later_epsilon_fails_at_config_load(tmp_path, capsys):
    # every rung is checked before the command runs, not only the first
    rc = run_cli("attack", tmp_path, "--set", 'attack={"epsilons":[2,1],"step_size":0.005}')
    assert rc == 2
    assert "config error: attack: step_size 0.005 exceeds radius" in capsys.readouterr().err


def test_missing_models_exit_nonzero(tmp_path, capsys):
    rc = run_cli("attack", tmp_path)
    assert rc == 2
    assert "missing model" in capsys.readouterr().err


def test_duplicate_filters_rejected_outside_correlate(tmp_path, capsys):
    rc = run_cli("train", tmp_path, "--set", 'filters=["identity","identity"]')
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err
