"""scripts/golden_csvs.py --diff: every differing CSV, config copy or model is named, and the exit code gates."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_csvs", os.path.join(ROOT, "scripts", "golden_csvs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root, files):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)


BASE = {
    "desk/certify_mincorr.csv": b"# config\ninput_id,margin\n0,1.5\n1,0.25\n",
    "desk/models/identity.fenet": b"FENET\x00\x01",
    "test09/train_t.csv": b"# config\nfilter,loss\nidentity,0.5\n",
}


def test_identical_directories_pass(golden, tmp_path, capsys):
    write(tmp_path / "a", BASE)
    write(tmp_path / "b", BASE)
    assert golden.diff_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == 0
    assert capsys.readouterr().out == "3 output(s) identical\n"


def test_moved_csv_changed_model_and_one_sided_files_fail(golden, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, {**BASE, "desk/models/lowpass.fenet": b"FENET\x00\x02"})
    write(b, {
        **BASE,
        "desk/certify_mincorr.csv": b"# config\ninput_id,margin\n0,1.5\n1,0.2500000001\n",
        "desk/models/identity.fenet": b"FENET\x00\x03",
        "desk/extra.csv": b"x\n1\n",
    })
    assert golden.diff_dirs(str(a), str(b)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"desk/extra.csv: only in {b}",
        f"desk/models/lowpass.fenet: only in {a}",
        "desk/certify_mincorr.csv: max abs diff 1e-10, max rel diff 4e-10",
        "desk/models/identity.fenet: model bytes differ",
        "1 output(s) identical",
    ]


def test_one_sided_file_alone_fails(golden, tmp_path, capsys):
    write(tmp_path / "a", BASE)
    write(tmp_path / "b", {**BASE, "desk/models/octree16.fenet": b"FENET"})
    assert golden.diff_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == 1
    assert "desk/models/octree16.fenet: only in" in capsys.readouterr().out


def test_config_copies_are_hashed_and_a_reformatted_one_fails(golden, tmp_path, capsys):
    config = b'{\n  "seed": 0,\n  "tag": "mincorr"\n}\n'
    write(tmp_path / "a", {**BASE, "desk/certify_mincorr.config.json": config})
    write(tmp_path / "b", {**BASE, "desk/certify_mincorr.config.json": b'{"seed": 0, "tag": "mincorr"}'})
    assert "desk/certify_mincorr.config.json" in golden.outputs(str(tmp_path / "a"))
    assert golden.diff_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == 1
    assert capsys.readouterr().out.splitlines() == [
        "desk/certify_mincorr.config.json: config bytes differ",
        "3 output(s) identical",
    ]


def test_loadable_models_with_one_moved_weight_report_the_parameter_diff(golden, tmp_path, capsys):
    from fenet.model_io import save_network
    from fenet.nn import Dense, Flatten, Network

    a, b = tmp_path / "a", tmp_path / "b"
    write(a, BASE)
    write(b, BASE)
    net = Network([Flatten(), Dense(2)], (2, 2, 1), 2, seed=0)
    weight = net.layers[1].params[0]
    weight[1, 0] = 0.5
    save_network(net, a / "desk/models/lowpass.fenet")
    weight[1, 0] += 2**-20
    save_network(net, b / "desk/models/lowpass.fenet")
    assert golden.diff_dirs(str(a), str(b)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "desk/models/lowpass.fenet: max abs diff 9.54e-07, max rel diff 1.91e-06",
        "3 output(s) identical",
    ]
