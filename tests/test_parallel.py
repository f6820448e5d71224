import threading
import time

import pytest

from banachgap import _parallel


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_results_come_back_in_index_order(monkeypatch, cpus, count):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)

    def work(i):
        time.sleep(0.001 * ((count - i) % 3))  # chunks finish out of order
        return i * i

    assert _parallel.run_chunks(count, work) == [i * i for i in range(count)]


def test_pool_thread_error_reaches_the_caller(monkeypatch):
    # the caller's chunk waits until a pool thread has failed on its own
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    failed = threading.Event()

    def work(i):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=30.0)
            return i
        failed.set()
        raise FloatingPointError("pool thread failed")

    with pytest.raises(FloatingPointError, match="pool thread"):
        _parallel.run_chunks(3, work)


def test_helpers_finish_before_the_caller_sees_its_error(monkeypatch):
    # the caller's own chunk fails at once; the pool thread's chunk is still
    # running, and has finished by the time the error reaches the caller
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    started, done = threading.Event(), threading.Event()

    def work(i):
        if threading.current_thread() is threading.main_thread():
            assert started.wait(timeout=30.0)
            raise ValueError("caller failed")
        started.set()
        time.sleep(0.05)
        done.set()

    with pytest.raises(ValueError, match="caller failed"):
        _parallel.run_chunks(2, work)
    assert done.is_set()
