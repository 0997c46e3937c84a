"""util.rewrite: an output written over an older, longer one keeps the inode and links."""

import os

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
