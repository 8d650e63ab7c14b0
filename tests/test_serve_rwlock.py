"""RWLock: shared readers, exclusive writers, writer preference."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import LockNestingError, ReproError
from repro.serve.rwlock import RWLock


def test_readers_overlap():
    lock = RWLock()
    inside = threading.Barrier(2, timeout=5)
    done = []

    def reader():
        with lock.read_locked():
            inside.wait()  # both readers hold the lock at the same time
            done.append(True)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert done == [True, True]


def test_writer_is_exclusive():
    lock = RWLock()
    counter = {"value": 0}

    def writer():
        for _ in range(500):
            with lock.write_locked():
                seen = counter["value"]
                counter["value"] = seen + 1

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert counter["value"] == 4 * 500  # no lost updates under contention


def test_writer_blocks_readers():
    lock = RWLock()
    lock.acquire_write()
    observed = []

    def reader():
        with lock.read_locked():
            observed.append("read")

    t = threading.Thread(target=reader)
    t.start()
    time.sleep(0.05)
    assert observed == []  # reader waits while the writer holds the lock
    lock.release_write()
    t.join(timeout=5)
    assert observed == ["read"]


def test_waiting_writer_blocks_new_readers():
    """Writer preference: once a writer queues, fresh readers line up behind it."""
    lock = RWLock()
    lock.acquire_read()
    order = []

    def writer():
        lock.acquire_write()
        order.append("write")
        lock.release_write()

    def late_reader():
        with lock.read_locked():
            order.append("read")

    w = threading.Thread(target=writer)
    w.start()
    time.sleep(0.05)  # writer is now waiting on the held read lock
    r = threading.Thread(target=late_reader)
    r.start()
    time.sleep(0.05)
    assert order == []  # the late reader must not sneak past the waiting writer
    lock.release_read()
    w.join(timeout=5)
    r.join(timeout=5)
    assert order[0] == "write"


def test_read_lock_released_on_exception():
    lock = RWLock()
    try:
        with lock.read_locked():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    lock.acquire_write()  # would deadlock if the read side leaked
    lock.release_write()


def _in_thread(body, timeout: float = 5.0):
    """Run *body* on a fresh thread; fail rather than hang if it blocks."""
    outcome = []

    def run():
        try:
            body()
        except BaseException as err:  # noqa: BLE001 - reported to the test
            outcome.append(err)
        else:
            outcome.append(None)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "nested acquisition blocked instead of raising"
    return outcome[0]


@pytest.mark.parametrize(
    "outer_mode, inner_mode, same_lock",
    [
        ("write", "write", True),
        ("write", "read", True),
        ("read", "read", True),
        ("read", "write", True),
        ("read", "read", False),
        ("write", "write", False),
        ("read", "write", False),
    ],
    ids=[
        "write-then-write",
        "write-then-read",
        "read-then-read",
        "read-then-write",
        "second-lock-read",
        "second-lock-write",
        "second-lock-mixed",
    ],
)
def test_nested_acquisition_raises_at_once(outer_mode, inner_mode, same_lock):
    """A thread holding any RWLock that asks for one more gets a typed error
    before blocking, and both locks stay usable afterwards."""
    outer = RWLock("outer")
    inner = outer if same_lock else RWLock("inner")

    def nest():
        with getattr(outer, f"{outer_mode}_locked")():
            with pytest.raises(LockNestingError) as excinfo:
                getattr(inner, f"acquire_{inner_mode}")()
            assert isinstance(excinfo.value, ReproError)
            assert ("again" in str(excinfo.value)) == same_lock

    assert _in_thread(nest) is None

    def reuse():
        for lock in (outer, inner):
            with lock.write_locked():
                pass
            with lock.read_locked():
                pass

    assert _in_thread(reuse) is None  # another thread: nothing leaked
    reuse()  # this thread too, taking the locks one after the other


def test_release_without_hold_raises():
    lock = RWLock()
    with pytest.raises(LockNestingError):
        lock.release_read()
    with pytest.raises(LockNestingError):
        lock.release_write()
    with lock.write_locked():  # the refused releases changed nothing
        pass

