"""End-to-end checks of the command-line pipeline on a tiny synthetic run."""

import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fenet import cli, data, ensemble, filters as flt, model_io, nn

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


# ------------------------------------------------- training in worker processes

CONV_ARCH = ('arch=[{"kind":"Conv2D","out_channels":2,"kernel":[3,3],"stride":1,"padding":"same"},'
             '{"kind":"ReLU"},{"kind":"Flatten"},{"kind":"Dense","out_features":null}]')


class JobFailed(Exception):
    pass


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: count)


def train_with_timeout(seconds=120):
    """cli.main(["train", ...]) in ./out, from a thread, so a hang fails instead of blocking."""
    box = {}

    def run():
        try:
            box["rc"] = run_cli("train", "out")
        except BaseException as e:  # handed to the caller, which checks its type
            box["error"] = e

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"train did not finish within {seconds} s"
    return box


@pytest.mark.parametrize("arch", [CONV_ARCH, None])
def test_workers_and_in_process_training_write_the_same_bytes(tmp_path, monkeypatch, arch):
    trainer_pids = []
    train = nn.train

    def recording_train(*args, **kwargs):
        with open(tmp_path / "pids", "a") as fh:  # the workers' pids reach the parent through the file
            fh.write(f"{os.getpid()}\n")
        return train(*args, **kwargs)

    def no_pickling(self, protocol):
        raise TypeError("the workers must inherit the dataset through fork, not unpickle a copy")

    monkeypatch.setattr(nn, "train", recording_train)
    monkeypatch.setattr(data.Dataset, "__reduce_ex__", no_pickling)
    outputs = {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        work = tmp_path / str(cpus)  # the same relative out_dir, so the same config hash
        work.mkdir()
        monkeypatch.chdir(work)
        assert run_cli("train", "out", *(["--set", arch] if arch else [])) == 0
        assert multiprocessing.active_children() == []
        out = work / "out"
        outputs[cpus] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        trainer_pids.append((tmp_path / "pids").read_text().split())
        (tmp_path / "pids").unlink()
    assert sorted(outputs[1]) == ["models/downsize.fenet", "models/grayscale.fenet", "models/identity.fenet",
                                  "train_t.config.json", "train_t.csv"]
    assert outputs[1] == outputs[2]
    in_process, workers = trainer_pids
    assert in_process == [str(os.getpid())] * 3
    assert len(workers) == 3 and str(os.getpid()) not in workers


SLOW_JOB_S = 30  # a job that sleeps this long must not delay a failure


def test_a_failing_job_raises_its_own_error_and_writes_no_model(tmp_path, monkeypatch):
    train = nn.train
    test_pid = os.getpid()

    def fail_on_grayscale(net, dataset, cfg, augment):
        if net.input_shape[-1] == 1:
            raise JobFailed("grayscale")
        if os.getpid() != test_pid:  # in a worker, where the jobs beside the failing one must be stopped
            time.sleep(SLOW_JOB_S)
        return train(net, dataset, cfg, augment)

    monkeypatch.setattr(nn, "train", fail_on_grayscale)
    monkeypatch.chdir(tmp_path)
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        start = time.monotonic()
        box = train_with_timeout()
        assert isinstance(box.get("error"), JobFailed), box
        assert time.monotonic() - start < SLOW_JOB_S / 2
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.rglob("*.fenet")) and not list(tmp_path.rglob("*.csv"))


SLOW_TRAIN = f"""
import os, sys, time
from fenet import cli, ensemble, nn

def slow(net, dataset, cfg, augment):
    open(f"started-{{os.getpid()}}", "w").close()
    time.sleep({SLOW_JOB_S})

ensemble._usable_cpus = lambda: 2
nn.train = slow
sys.exit(cli.main(sys.argv[1:]))
"""


def start_slow_training(tmp_path):
    """`fenet train` in a subprocess whose two workers sleep; returns it and the workers' pids."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    # stderr goes to a file: the workers inherit it, and a pipe would stay open while any of them lives
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", SLOW_TRAIN, "train", *BASE, "--out-dir", "out", "--tag", "t"],
                                cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, stderr=err)
    deadline = time.monotonic() + 60
    while len(markers := list(tmp_path.glob("started-*"))) < 2:  # both workers are training
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            pytest.fail(f"the workers did not start: {(tmp_path / 'stderr').read_text()}")
        time.sleep(0.05)
    return proc, [int(m.name.split("-")[1]) for m in markers]


def test_ctrl_c_stops_training_at_once(tmp_path):
    proc, workers = start_slow_training(tmp_path)
    try:
        proc.send_signal(signal.SIGINT)  # to the parent alone: the workers do not see it
        proc.wait(timeout=SLOW_JOB_S / 2)  # raises TimeoutExpired if it waits for the jobs
    finally:
        proc.kill()
    assert proc.returncode != 0 and "KeyboardInterrupt" in (tmp_path / "stderr").read_text()
    for pid in workers:
        with pytest.raises(ProcessLookupError):  # the worker has exited and been reaped
            os.kill(pid, 0)
    assert not list(tmp_path.rglob("*.fenet"))


def is_running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="the workers follow a killed parent on Linux only")
def test_the_workers_end_when_training_is_killed(tmp_path):
    proc, workers = start_slow_training(tmp_path)
    proc.kill()  # SIGKILL: the parent gets no chance to terminate its workers
    proc.wait()
    deadline = time.monotonic() + SLOW_JOB_S / 2
    while any(map(is_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(is_running, workers))


def test_a_worker_that_dies_breaks_the_pool_instead_of_hanging(tmp_path, monkeypatch):
    monkeypatch.setattr(nn, "train", lambda *args, **kwargs: os._exit(3))
    monkeypatch.chdir(tmp_path)
    use_cpus(monkeypatch, 2)
    box = train_with_timeout()
    assert isinstance(box.get("error"), BrokenProcessPool), box
    assert multiprocessing.active_children() == []
    assert not list(tmp_path.rglob("*.fenet"))


def test_importing_the_cli_loads_no_process_pool_machinery():
    code = ("import sys, fenet.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


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


def test_attack_rows_are_the_diagonal_of_the_transfer_matrix(run_dir):
    # each filter's attack row is the row of the transfer run whose source is that filter
    attack = 'attack={"epsilons":[0,4],"steps":2}'
    filters = ("identity", "grayscale", "downsize")
    assert run_cli("attack", run_dir, "--tag", "diag", "--set", attack) == 0
    _, _, rows = read_rows(run_dir / "attack_diag.csv")
    diagonal = {}
    for source in filters:
        rc = run_cli("transfer", run_dir, "--tag", f"from_{source}", "--set", attack, "--set", f"attack.source={source}")
        assert rc == 0
        _, _, transfer_rows = read_rows(run_dir / f"transfer_from_{source}.csv")
        diagonal.update({(eps, name): acc for eps, name, acc in transfer_rows if name == source})
    assert [(eps, name) for eps, name, _ in rows] == [(eps, name) for eps in "04" for name in filters]
    assert rows == [[eps, name, diagonal[eps, name]] for eps, name, _ in rows]


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


def test_outputs_written_over_longer_files_hold_exactly_the_new_bytes(tmp_path):
    argv = ["correlate", *BASE, "--tag", "t", "--set",
            'noise={"epsilon_max":20,"samples_per_image":3,"num_images":8,"rng_seed":0,"select_k":2}']
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    assert cli.main([*argv, "--out-dir", str(fresh)]) == 0
    stale.mkdir()
    names = ("correlate_t.csv", "correlate_t.config.json")
    for name in names:
        (stale / name).write_bytes(b"stale\n" * 1000)
    os.link(stale / names[1], tmp_path / "hard.json")
    # the CSV is a symlink to a file outside the output directory
    (tmp_path / "elsewhere.csv").write_bytes(b"stale\n" * 1000)
    (stale / names[0]).unlink()
    (stale / names[0]).symlink_to(tmp_path / "elsewhere.csv")
    inode = os.stat(stale / names[1]).st_ino
    assert cli.main([*argv, "--out-dir", str(stale)]) == 0
    fresh_csv, stale_csv = (fresh / names[0]).read_bytes(), (tmp_path / "elsewhere.csv").read_bytes()
    # the provenance line hashes out_dir, so only the body can be compared across directories
    assert stale_csv.split(b"\n", 1)[1] == fresh_csv.split(b"\n", 1)[1]
    assert (stale / names[0]).is_symlink()
    assert os.stat(stale / names[1]).st_ino == inode
    copied = (tmp_path / "hard.json").read_bytes()
    assert copied == (json.dumps(json.loads(copied), indent=2, sort_keys=True) + "\n").encode()


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
        ('{"kind":"Conv2D","out_channels":2,"kernel":3,"stride":1.5}', "stride must be positive and an integer, got 1.5"),
        ('{"kind":"Conv2D","out_channels":2.5,"kernel":3}', "out_channels must be positive and an integer, got 2.5"),
        ('{"kind":"Conv2D","out_channels":2,"kernel":[3,true]}', "kernel must be positive and an integer, got True"),
        ('{"kind":"AvgPool2D","pool":true}', "pool must be positive and an integer, got True"),
        ('{"kind":"Dense","out_features":"x"}', "out_features must be positive and an integer, got 'x'"),
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


def test_duplicate_filters_are_a_config_error_in_every_command(tmp_path, capsys):
    for command in cli.COMMANDS:
        rc = run_cli(command, tmp_path, "--set", 'filters=["identity","grayscale","identity"]')
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: filters: duplicate names")
    assert os.listdir(tmp_path) == []


def config_paths(node=cli.DEFAULT_CONFIG, prefix=""):
    """(dotted path, default) for every block and field of the config."""
    for key, value in node.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from config_paths(value, f"{prefix}{key}.")


CONFIG_PATHS = {path for path, _ in config_paths()}
LEAVES = sorted(path for path, value in config_paths() if not (isinstance(value, dict) and value))


def test_rule_table_has_one_rule_per_leaf_and_the_seeds_in_provenance_order():
    assert sorted(cli._FIELDS) == LEAVES
    for path, (default, rule) in cli._FIELDS.items():
        rule(path, default)
    # the provenance line names the seeds in this order
    assert cli._SEED_FIELDS == ("seed", "dataset.train_seed", "dataset.test_seed", "dataset.subset_seed",
                                "train.rng_seed", "attack.rng_seed", "noise.rng_seed", "certify.power_seed")


def load(*argv, command="correlate"):
    return cli.load_config(cli._parser().parse_args([command, *argv]))


def test_set_object_replaces_a_block_and_defaults_fill_it(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"train": {"rng_seed": 9, "batch_size": 2}}))
    cfg = load("--config", str(path), "--set", 'train={"batch_size":4}')
    assert cfg["train"] == dict(cli.DEFAULT_CONFIG["train"], batch_size=4)
    cfg = load("--config", str(path), "--set", "train.batch_size=4")
    assert cfg["train"] == dict(cli.DEFAULT_CONFIG["train"], rng_seed=9, batch_size=4)


def test_set_into_filter_params_matches_the_whole_map_form():
    one = load(*BASE, "--set", 'filter_params.lowpass={"sigma":3}')
    whole = load(*BASE, "--set", 'filter_params={"downsize":{"target":[4,4]},"lowpass":{"sigma":3}}')
    assert one == whole
    assert one["filter_params"] == {"downsize": {"target": [4, 4]}, "lowpass": {"sigma": 3}}
    assert load(*BASE, "--set", "filter_params.lowpass.sigma=3") == whole
    deeper = load(*BASE, "--set", "filter_params.downsize.target=[2,3]")
    assert deeper["filter_params"] == {"downsize": {"target": [2, 3]}}
    with pytest.raises(cli.ConfigError, match=r"^filter_params: must be one of .*, got 'lowpas'$"):
        load("--set", 'filter_params.lowpas={"sigma":3}')


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("downsize", '{"target":[4.7,4]}', "downsize target must be two integers >= 1, (H, W), got [4.7, 4]"),
        ("downsize", '{"target":5}', "downsize target must be two integers >= 1, (H, W), got 5"),
        ("octree16", '{"max_colors":1.5}', "octree max_colors must be an integer >= 2, got 1.5"),
        ("octree16", '{"depth":7.5}', "octree depth must be an integer in [1, 8], got 7.5"),
        ("lowpass", '{"sigma":"x"}', "lowpass sigma must be a finite number > 0, got 'x'"),
        ("highpass", '{"sigma":true}', "highpass sigma must be a finite number > 0, got True"),
    ],
)
def test_mistyped_filter_parameter_fails_at_config_load(tmp_path, capsys, name, params, message):
    assert run_cli("train", tmp_path, "--set", f"filter_params.{name}={params}") == 2
    assert capsys.readouterr().err == f"config error: filter_params.{name}: {message}\n"
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("command", ["train", "correlate"])
def test_sigma_whose_square_underflows_fails_at_config_load(tmp_path, capsys, command):
    # 2 * 1e-200**2 is 0 in float64: the mask would be NaN at its center
    assert run_cli(command, tmp_path, "--set", "filter_params.lowpass.sigma=1e-200") == 2
    assert capsys.readouterr().err == (
        "config error: filter_params.lowpass: lowpass sigma must be a number > 0"
        " whose float64 square is finite and > 0, got 1e-200\n"
    )
    assert os.listdir(tmp_path) == []


def test_correlate_needs_two_noise_samples_at_config_load(tmp_path, capsys):
    rc = run_cli("correlate", tmp_path, "--set", "noise.num_images=1", "--set", "noise.samples_per_image=1")
    assert rc == 2
    assert capsys.readouterr().err == "config error: noise: correlate needs samples_per_image x num_images >= 2\n"
    assert not (tmp_path / "correlate_t.csv").exists()


@pytest.mark.parametrize(
    "command, overrides, path",
    [
        ("correlate", ["attack.epsilons=5"], "attack.epsilons"),
        ("correlate", ['filter_params={"lowpass":5}'], "filter_params.lowpass"),
        ("correlate", ["ensemble.members=5"], "ensemble.members"),
        ("correlate", ["dataset=5"], "dataset"),
        ("train", ["arch=5"], "arch"),
        ("correlate", ["ensemble.plan=[1]"], "ensemble.plan"),
        ("correlate", ['filters=[["a"]]'], "filters[0]"),
        ("correlate", ["out_dir=null"], "out_dir"),
        ("train", ["models_dir=5"], "models_dir"),
        ("correlate", ['tag="a/b"'], "tag"),
        ("correlate", ['filters="identity"'], "filters"),
        ("correlate", ["noise.num_images=1", "noise.samples_per_image=1"], "noise"),
        ("correlate", ["train.rng_seed.x=1"], "train.rng_seed.x"),
        ("correlate", ["seed=1" + "0" * 5000], "seed"),
        ("train", ["dataset.subset=0"], "dataset.subset"),
        ("train", ["filter_params.downsize.target=[16,16]"], "filter_params.downsize.target"),
        ("correlate", ["filter_params.downsize.target=[4,9]"], "filter_params.downsize.target"),
    ],
)
def test_bad_value_exits_2_naming_its_path(tmp_path, monkeypatch, capsys, command, overrides, path):
    # no --out-dir or --tag: those flags would replace the out_dir and tag under test
    monkeypatch.chdir(tmp_path)
    argv = [command, *BASE]
    for override in overrides:
        argv += ["--set", override]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command, out_dir, models_dir, blocker, error",
    [
        ("correlate", "out", None, "out", "out_dir: out"),
        ("correlate", "out/sub", None, "out", "out_dir: out/sub"),  # under the file
        ("train", "out", None, "out", "out_dir: out"),
        ("train", "out", "m", "m", "models_dir: m"),
        ("train", "out", None, "out/models", "models_dir: out/models"),  # the default, out_dir/models
        ("correlate", "out", None, "out -> gone", "out_dir: out"),  # a dangling symlink
        ("train", "out", "m", "m -> gone", "models_dir: m"),
    ],
)
def test_output_dir_that_names_a_file_fails_before_any_work(tmp_path, monkeypatch, capsys, command, out_dir,
                                                            models_dir, blocker, error):
    monkeypatch.chdir(tmp_path)
    blocker, _, link_target = blocker.partition(" -> ")
    os.makedirs(os.path.dirname(blocker) or ".", exist_ok=True)
    if link_target:
        os.symlink(link_target, blocker)
    else:
        with open(blocker, "w") as fh:
            fh.write("x")
    argv = [command, *BASE, "--out-dir", out_dir, "--tag", "t"]
    if models_dir:
        argv += ["--set", f"models_dir={json.dumps(models_dir)}"]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {error}: not a directory\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_model_that_does_not_take_the_filter_output_is_a_config_error(run_dir, capsys):
    # the run_dir models take 8x8 images; 12x12 ones reach the identity model unchanged
    rc = run_cli("attack", run_dir, "--set", "dataset.size=12", "--set", 'attack={"epsilons":[4],"steps":1}')
    assert rc == 2
    path = run_dir / "models" / "identity.fenet"
    assert capsys.readouterr().err == (
        f"config error: models_dir: {path}: the model takes (8, 8, 3) inputs, the filter gives (12, 12, 3)\n"
    )


@pytest.mark.parametrize("classes", [2, 5])
def test_model_whose_class_count_is_not_the_datasets_is_a_config_error(tmp_path, capsys, classes):
    # the synthetic data has 4 classes; a model with fewer or more fails before any attack or CSV
    path = tmp_path / "models" / "identity.fenet"
    path.parent.mkdir()
    model_io.save_network(nn.build_network(TINY_ARCH, (8, 8, 3), classes, seed=0), str(path))
    for command in ("attack", "transfer", "ensemble-eval", "certify"):
        rc = run_cli(command, tmp_path, "--set", 'filters=["identity"]', "--set", "noise.select_k=1",
                     "--set", 'attack={"epsilons":[4],"steps":1}',
                     "--set", 'ensemble={"plan":null,"members":[["a","identity"]]}', "--set", "certify.num_inputs=2")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: models_dir: {path}: the model has {classes} classes, the dataset 4\n"
        )
    assert os.listdir(tmp_path) == ["models"]


# Arbitrary JSON, kept small: the fuzz is of the config boundary, not of sizes.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
FILTER_PARAMS = [
    f"filter_params.{name}.{param}"
    for name, spec in sorted(flt.default_filters().items())
    for param in [*flt._PARAMS.get(spec.kind, ()), "bogus"]
]


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@pytest.mark.parametrize("target", LEAVES + FILTER_PARAMS)
@settings(max_examples=30, deadline=None)
@given(value=JSON, via_file=st.booleans())
def test_any_json_in_one_field_loads_or_names_a_config_path(fuzz_config, target, value, via_file):
    # load only: a legal config such as dataset.num_per_class=10**9 needs unbounded time to run
    keys = target.split(".")
    if via_file:
        nested = value
        for key in reversed(keys):
            nested = {key: nested}
        fuzz_config.write_text(json.dumps(nested))
        argv = ["--config", str(fuzz_config)]
    elif target in FILTER_PARAMS:  # one entry of the open map, holding the one parameter
        argv = ["--set", f"{'.'.join(keys[:2])}={json.dumps({keys[2]: value})}"]
    else:
        argv = ["--set", f"{target}={json.dumps(value)}"]
    try:
        load(*argv)
    except cli.ConfigError as e:
        head = re.sub(r"\[\d+\]", "", str(e).split(": ", 1)[0])
        assert head in CONFIG_PATHS or re.fullmatch(r"filter_params\.\w+", head), str(e)
