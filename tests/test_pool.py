import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from looptopo import forward_model, pool
from looptopo.errors import ValidationError
from looptopo.forward_model import (FrequencySet, default_frequencies,
                                    visibilities_closed_form_batch)
from looptopo.pool import ordered_map

FREQS = default_frequencies()


@pytest.fixture
def two_workers(monkeypatch):
    """The pooled path, whatever the CPU count of the machine."""
    monkeypatch.setattr(pool, "WORKERS", 2)


def loops(n, seed=3):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-50, 50, (n, 2)), rng.uniform(500, 5000, n),
                            rng.uniform(4, 20, n), rng.uniform(0, 5, n),
                            rng.uniform(0, np.pi, n), rng.uniform(-0.05, 0.05, n)])


class TestOrderedMap:
    def test_results_in_order(self, two_workers):
        def square(i):
            time.sleep(0.002 * (20 - i))  # later items finish first
            return i * i

        assert ordered_map(square, range(20)) == [i * i for i in range(20)]

    def test_items_run_side_by_side(self, two_workers):
        both = threading.Barrier(2, timeout=20)

        def meet(_):
            both.wait()  # each of the two items waits until the other has started
            return threading.get_ident()

        idents = ordered_map(meet, range(2))
        assert len(set(idents)) == 2 and threading.get_ident() in idents

    def test_earliest_failure_is_raised(self, two_workers):
        finished = []

        def fn(i):
            if i == 0:
                time.sleep(0.05)  # item 3 fails first, in time
                raise KeyError(i)
            if i == 3:
                raise ValueError(i)
            finished.append(i)

        with pytest.raises(KeyError, match="0"):
            ordered_map(fn, range(6))
        assert sorted(finished) == [1, 2, 4, 5]  # every item ran before the raise

    def test_each_item_runs_in_the_callers_context(self, two_workers):
        with np.errstate(under="raise"):
            settings = ordered_map(lambda _: np.geterr()["under"], range(8))
        assert settings == ["raise"] * 8
        assert ordered_map(lambda _: np.geterr()["under"], range(8)) == ["ignore"] * 8

    @pytest.mark.parametrize("workers, items", [(1, 5), (2, 1), (2, 0)])
    def test_inline(self, monkeypatch, workers, items):
        monkeypatch.setattr(pool, "WORKERS", workers)
        caller, seen = threading.get_ident(), []

        def fn(i):
            seen.append(i)
            if i == 1:
                raise ValueError(i)
            return threading.get_ident()

        if items < 2:
            assert ordered_map(fn, range(items)) == [caller] * items
        else:  # inline, the first failure stops the map
            with pytest.raises(ValueError):
                ordered_map(fn, range(items))
            assert seen == [0, 1]

    def test_every_item_runs_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows
        monkeypatch.setattr(pool, "WORKERS", 4)
        monkeypatch.setattr(pool, "_helpers", None)  # a pool of three, dropped after
        ran, out = [], []

        def item(i):
            ran.append(i)
            return float(np.sqrt(np.full(64, float(i * i))).sum())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: out.append(ordered_map(item, range(3000))))
            worker.start()
            worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert sorted(ran) == list(range(3000))
        assert out == [[64.0 * i for i in range(3000)]]

    def test_nested_map_on_a_pool_thread_finishes(self, two_workers):
        # an inner map whose helper would wait behind the outer item runs on its own
        out = ordered_map(lambda i: ordered_map(lambda j: (i, j), range(3)), range(2))
        assert out == [[(i, j) for j in range(3)] for i in range(2)]


class TestPooledKernel:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch, two_workers):
        monkeypatch.setattr(forward_model, "CLOSED_FORM_CHUNK", 2)

    def test_earliest_refused_chunk_names_its_row(self):
        # rows 3 and 6 sit in chunks 1 and 3; their centre phases overflow at (1, 1),
        # where the envelope is about 5e-199 of the flux
        freqs = FrequencySet(np.array([(0.01, 0.02), (1.0, 1.0)]))
        thetas = np.tile([0, 0, 1000, 8, 5, 0.5, 0.05], (8, 1))
        thetas[[3, 6], 0] = 1e308
        with pytest.raises(ValidationError, match=r"^row 3: a phase or the envelope is out"):
            visibilities_closed_form_batch(thetas, freqs)
        with pytest.raises(ValidationError, match=r"^row 2: "):  # row 6 is refused too
            visibilities_closed_form_batch(thetas[4:], freqs)

    def test_callers_errstate_holds_in_every_chunk(self, monkeypatch):
        monkeypatch.setattr(forward_model, "CLOSED_FORM_CHUNK", 256)
        thetas = np.tile([0, 0, 1000, 8, 5, 0.5, 0.05], (600, 1))
        thetas[300, 3] = 1000.0  # its envelope underflows at the outer frequencies
        for rows in (thetas, thetas[300:301]):
            with np.errstate(under="raise"), pytest.raises(FloatingPointError):
                visibilities_closed_form_batch(rows, FREQS)
        visibilities_closed_form_batch(thetas, FREQS)  # no raise under the default

    def test_bytes_do_not_depend_on_the_workers(self, monkeypatch):
        thetas = loops(41)
        pooled = visibilities_closed_form_batch(thetas, FREQS)
        monkeypatch.setattr(pool, "WORKERS", 1)
        assert pooled.tobytes() == visibilities_closed_form_batch(thetas, FREQS).tobytes()


def _kernel_in_child(conn, thetas):
    fresh = pool._helpers is None
    conn.send((fresh, visibilities_closed_form_batch(thetas, FREQS).tobytes()))


def test_fork_child_starts_its_own_pool(two_workers):
    # the parent's pool threads do not exist in a forked child
    thetas = loops(1000)
    parent = visibilities_closed_form_batch(thetas, FREQS)
    assert pool._helpers is not None
    context = multiprocessing.get_context("fork")
    recv, send = context.Pipe(duplex=False)
    child = context.Process(target=_kernel_in_child, args=(send, thetas))
    child.start()
    try:
        assert recv.poll(60), "the forked child did not answer"
        assert recv.recv() == (True, parent.tobytes())
    finally:
        child.join(10)
        child.kill()
        child.join()
