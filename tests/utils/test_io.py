"""Tests for the shared atomic-write helper (nn checkpoints + serving
snapshots both write through it)."""

import os
import stat

import pytest

from repro.utils.io import atomic_write


class TestAtomicWrite:
    def test_writes_the_file(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_write(path) as fh:
            fh.write(b"payload")
        assert path.read_bytes() == b"payload"

    def test_text_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_write(path, mode="w") as fh:
            fh.write("line\n")
        assert path.read_text() == "line\n"

    def test_rejects_other_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            with atomic_write(tmp_path / "x", mode="a"):
                pass

    def test_failure_preserves_previous_contents(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write(b"half-written new conten")
                raise RuntimeError("crash mid-write")
        assert path.read_bytes() == b"old"

    def test_no_temp_litter_on_success_or_failure(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_write(path) as fh:
            fh.write(b"ok")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                raise RuntimeError("boom")
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_mode_follows_the_umask(self, tmp_path):
        # The temporary file is created 0600; the written file must get
        # the mode a plain open() would, not stay owner-only.
        path = tmp_path / "out.bin"
        old = os.umask(0o022)
        try:
            with atomic_write(path) as fh:
                fh.write(b"ok")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_temp_file_lives_in_the_target_directory(self, tmp_path):
        # os.replace is only atomic within a filesystem; the temp file must
        # be created next to the target, not in the global tmpdir.
        path = tmp_path / "out.bin"
        with atomic_write(path) as fh:
            names = os.listdir(tmp_path)
            assert names and all(n != "out.bin" for n in names)
            fh.write(b"ok")
        assert path.read_bytes() == b"ok"
