"""Tests for resources and stores."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Resource, Simulator, Store


def test_resource_serialises_beyond_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2, name="units")
    finish = []

    def job(name):
        yield from res.use(10)
        finish.append((name, sim.now))

    for i in range(4):
        sim.process(job(i))
    sim.run()
    # Two jobs run in [0,10], the next two in [10,20].
    assert finish == [(0, 10), (1, 10), (2, 20), (3, 20)]


def test_resource_release_wakes_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def job(name, think):
        yield sim.timeout(think)
        yield res.acquire()
        order.append(name)
        yield sim.timeout(5)
        res.release()

    sim.process(job("a", 0))
    sim.process(job("b", 1))
    sim.process(job("c", 2))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_release_idle_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_utilisation_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def job():
        yield from res.use(50)
        yield sim.timeout(50)

    sim.process(job())
    sim.run()
    assert res.utilisation() == pytest.approx(0.5)


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer():
        yield sim.timeout(1)
        store.put("x")
        store.put("y")
        yield sim.timeout(1)
        store.put("z")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == ["x", "y", "z"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer():
        yield store.get()
        times.append(sim.now)

    def producer():
        yield sim.timeout(42)
        store.put(1)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert times == [42]


def test_bounded_store_drops_new_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.put(1)
    assert store.put(2)
    assert not store.put(3)
    assert store.dropped == 1
    assert store.peek_all() == [1, 2]


def test_bounded_store_drop_oldest_policy():
    sim = Simulator()
    store = Store(sim, capacity=2, drop_oldest=True)
    store.put(1)
    store.put(2)
    assert store.put(3)
    assert store.peek_all() == [2, 3]
    assert store.dropped == 1


def test_store_remove_specific_item():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    assert store.remove("a")
    assert not store.remove("missing")
    assert store.peek_all() == ["b"]


# -- callback requests (Resource.request) -----------------------------------
def test_request_and_acquire_share_one_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="unit")
    order = []

    def hold(name, start):
        yield sim.timeout(start)
        yield res.acquire()
        order.append((name, sim.now))
        yield sim.timeout(4)
        res.release()

    def granted(name):
        order.append((name, sim.now))
        sim._schedule(4, res.release)

    def ask(name, start):
        yield sim.timeout(start)
        res.request(granted, name)

    sim.process(hold("event-a", 0))
    sim.process(ask("callback-b", 1))
    sim.process(hold("event-c", 2))
    sim.process(ask("callback-d", 3))
    sim.run()
    assert order == [("event-a", 0), ("callback-b", 4), ("event-c", 8),
                     ("callback-d", 12)]
    assert res.in_use == 0 and res.total_acquires == 4


def test_request_grant_runs_one_hop_later_like_an_acquire_resume():
    """An immediate grant and a release hand-off both schedule the
    callback where a parked process would resume: after everything
    already queued for this instant."""
    sim = Simulator()
    res = Resource(sim, capacity=1, name="unit")
    log = []

    def kick():
        ticket = res.request(log.append, "granted")
        assert ticket.triggered
        sim._schedule_now(log.append, "queued-before-grant-ran")
        log.append("request returned")
        waiting = res.request(log.append, "handed over")
        assert not waiting.triggered
        res.release()
        assert waiting.triggered
        log.append("release returned")

    sim._schedule_now(kick)
    sim.run()
    assert log == ["request returned", "release returned", "granted",
                   "queued-before-grant-ran", "handed over"]
    assert res.in_use == 1


def test_cancel_request_before_grant_removes_it():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="unit")
    calls = []
    res.request(calls.append, "first")
    waiting = res.request(calls.append, "second")
    assert res.queue_length == 1
    res.cancel(waiting)
    assert res.queue_length == 0
    res.release()
    sim.run()
    assert calls == ["first"]
    assert res.in_use == 0


def test_cancel_request_after_grant_returns_the_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="unit")
    first = res.request(lambda _arg: None)
    res.cancel(first)           # granted at once, owner gone
    assert res.in_use == 0
    res.request(lambda _arg: None)
    waiting = res.request(lambda _arg: None)
    res.release()               # hands the slot to ``waiting``
    assert waiting.triggered
    res.cancel(waiting)
    assert res.in_use == 0
    with pytest.raises(SimulationError):
        res.release()


def test_request_utilisation_matches_acquire():
    def run(use_request):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def job(start):
            yield sim.timeout(start)
            if use_request:
                done = sim.event()
                res.request(lambda _arg: done.succeed())
                yield done
            else:
                yield res.acquire()
            yield sim.timeout(30)
            res.release()

        for start in (0, 5, 10):
            sim.process(job(start))
        sim.run(until=100)
        return res.utilisation(), res.total_acquires

    assert run(True) == run(False)
    assert run(True)[0] == pytest.approx((30 + 30 + 30) / (100 * 2))
