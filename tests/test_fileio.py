import os
import sys
import threading

import pytest

from stylecast import fileio
from stylecast.fileio import atomic_write_bytes


def test_concurrent_writers_leave_one_complete_file(tmp_path):
    target = tmp_path / "out.bin"
    payloads = [bytes([i]) * (1 << 20) for i in range(4)]
    start = threading.Barrier(len(payloads))
    errors = []

    def writer(data):
        try:
            start.wait(timeout=10)
            for _ in range(20):
                atomic_write_bytes(target, data)
        except Exception as exc:  # reported through the list, read below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_bytes() in payloads
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        atomic_write_bytes(target, b"new")
    assert os.listdir(tmp_path) == ["out.bin"]
    assert target.read_bytes() == b"old"


def test_mode_matches_a_plain_create(tmp_path):
    plain = tmp_path / "plain.bin"
    plain.write_bytes(b"x")
    atomic_write_bytes(tmp_path / "atomic.bin", b"x")
    assert (tmp_path / "atomic.bin").stat().st_mode == plain.stat().st_mode


def test_data_is_fsynced_before_the_rename(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(fileio.os, "fsync", fsync)
    monkeypatch.setattr(fileio.os, "replace", replace)
    atomic_write_bytes(target, b"x" * 1000)
    assert events == [("fsync", 1000), ("replace", "out.bin")]
    assert target.read_bytes() == b"x" * 1000
