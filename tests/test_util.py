"""util.rewrite: an output written over an older, longer one keeps the inode and links.
util.keep_freed_heap: the malloc policy that keeps training from page-faulting every step."""

import json
import os
import subprocess
import sys
import types

import pytest

from fenet import cli, util
from fenet.util import rewrite


def test_a_shorter_rewrite_leaves_exactly_the_new_bytes_in_the_same_inode(tmp_path):
    path = tmp_path / "out.csv"
    rewrite(path, b"a much longer first version\n" * 40)
    inode = os.stat(path).st_ino
    os.link(path, tmp_path / "hard.csv")
    rewrite(path, b"short\n")
    assert path.read_bytes() == b"short\n"
    assert os.stat(path).st_ino == inode
    assert (tmp_path / "hard.csv").read_bytes() == b"short\n"


def test_a_new_file_gets_the_mode_open_would_give(tmp_path):
    with open(tmp_path / "opened", "w"):
        pass
    rewrite(tmp_path / "rewritten", b"x")
    assert os.stat(tmp_path / "rewritten").st_mode == os.stat(tmp_path / "opened").st_mode


def test_a_symlinked_output_is_written_through(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"old bytes, longer than the new ones\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    rewrite(link, b"new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


@pytest.fixture
def fresh_policy():
    """keep_freed_heap as if this process had not called it yet; forgotten again afterwards."""
    util.keep_freed_heap.cache_clear()
    yield util.keep_freed_heap
    util.keep_freed_heap.cache_clear()


def test_the_malloc_policy_is_a_noop_without_mallopt(monkeypatch, fresh_policy):
    monkeypatch.setattr(util.ctypes, "CDLL", lambda name: types.SimpleNamespace())  # a libc without mallopt
    assert fresh_policy() is False


def test_two_cli_commands_set_the_malloc_policy_once(monkeypatch, fresh_policy, capsys):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(util.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    for _ in range(2):
        assert cli.main(["train", "--set", "no_such_field=1"]) == 2  # a config error: the policy comes first
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 64 MiB
    assert "no_such_field: unknown field" in capsys.readouterr().err


# One `fenet train` of one filter trains in-process; prints [exit code,
# minor page faults of the command, whether the malloc policy was set].
COUNT_FAULTS = """
import json, resource, sys
from fenet import cli, util
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, util.keep_freed_heap()]))
"""


def test_in_process_training_stops_page_faulting_its_temporaries_every_step(tmp_path):
    # 4 classes x 50 images in batches of 32 is 7 SGD steps per epoch, for 9 epochs.
    steps = 7 * 9
    src = os.path.dirname(os.path.dirname(util.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    argv = ["train", "--out-dir", str(tmp_path), "--set", 'filters=["identity"]', "--set", "noise.select_k=1",
            "--set", "dataset.num_per_class=50", "--set", "dataset.test_per_class=5"]
    proc = subprocess.run([sys.executable, "-c", COUNT_FAULTS, *argv], env=env, capture_output=True, text=True,
                          timeout=300)
    rc, faults, policy_set = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    if not policy_set:
        pytest.skip("this C library has no glibc mallopt")
    # Without the policy each step faults its freed numpy temporaries in
    # again (about 550 faults per step on Linux x86-64, glibc 2.36); with
    # it, all but the first steps reuse the heap (about 17 per step, most of
    # them start-up).
    assert faults / steps < 100
