"""Capacity-limited resources and FIFO stores.

A :class:`Resource` models a bank of identical servers (e.g. the four
BMO units, or a memory channel).  Processes acquire a slot, hold it for
a service time, and release it; waiters queue FIFO.  Callback code
that is not a process (the BMO executor's dataflow) asks for a slot
with :meth:`Resource.request` instead: it queues in the same FIFO as
the event waiters and is handed a released slot the same way.

A :class:`Store` is an unbounded-or-bounded FIFO of items with blocking
``get`` — used for request queues between pipeline stages.

Both primitives are **cancellation-safe**: a process killed while
parked on :meth:`Resource.acquire` or :meth:`Store.get` (fault
injection, ``Process.interrupt``, generator teardown) must withdraw
its pending request with :meth:`Resource.cancel` / :meth:`Store.cancel`
— otherwise the dead waiter would later be granted a slot that is
never released (permanent capacity leak) or handed an item that
silently vanishes from the pipeline.  The :meth:`Resource.use` and
:meth:`Store.take` helpers do this automatically.
"""

from collections import deque
from typing import Any, Callable, Deque, Optional, Union

from repro.common.errors import SimulationError
from repro.sim.engine import SimEvent, Simulator


class Ticket:
    """A pending :meth:`Resource.request`; pass it to
    :meth:`Resource.cancel` to withdraw it.

    ``triggered`` turns true when the slot is granted, mirroring the
    grant event of :meth:`Resource.acquire`.
    """

    __slots__ = ("fn", "arg", "triggered")
    #: A ticket cannot fail; :meth:`Resource.cancel` reads this like a
    #: grant event's ``_exc``.
    _exc = None

    def __init__(self, fn: Callable[[Any], None], arg: Any,
                 triggered: bool = False) -> None:
        self.fn = fn
        self.arg = arg
        self.triggered = triggered


#: What :meth:`Resource.request` returns for a slot granted at once —
#: shared, so the uncontended path allocates nothing.
GRANTED = Ticket(None, None, triggered=True)


class Resource:
    """FIFO resource with ``capacity`` identical slots."""

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: FIFO of grant events (:meth:`acquire`) and tickets
        #: (:meth:`request`).
        self._waiters: Deque[Union[SimEvent, Ticket]] = deque()
        self._acquire_name = f"{name}.acquire"
        # Utilisation accounting.
        self._busy_time = 0.0
        self._last_change = 0.0
        self.total_acquires = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def _account(self) -> None:
        self._busy_time += self._in_use * (self.sim.now - self._last_change)
        self._last_change = self.sim.now

    def acquire(self) -> SimEvent:
        """Return an event that fires once a slot is granted."""
        event = SimEvent(self.sim, self._acquire_name)
        # _account(), inlined: this is the write path's hottest
        # resource call.
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_acquires += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def request(self, fn: Callable[[Any], None], arg: Any = None) -> Ticket:
        """Callback form of :meth:`acquire`: call ``fn(arg)`` once a
        slot is granted.

        The call is scheduled for the current instant, in the same
        same-instant slot where :meth:`acquire`'s grant event would
        resume its waiter: at once if a slot is free, otherwise from
        the :meth:`release` that hands the slot over.  Requests and
        :meth:`acquire` waiters share one FIFO.  The holder releases
        the slot with :meth:`release`.  Returns a :class:`Ticket` for
        :meth:`cancel`.
        """
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_acquires += 1
            self.sim._schedule_now(fn, arg)
            return GRANTED
        ticket = Ticket(fn, arg)
        self._waiters.append(ticket)
        return ticket

    def release(self) -> None:
        """Free one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self.total_acquires += 1
            waiter = self._waiters.popleft()
            if waiter.__class__ is Ticket:
                waiter.triggered = True
                self.sim._schedule_now(waiter.fn, waiter.arg)
            else:
                waiter.succeed()
        else:
            self._in_use -= 1

    def cancel(self, grant: Union[SimEvent, Ticket]) -> None:
        """Withdraw a pending :meth:`acquire` or :meth:`request` whose
        waiter died.

        If the grant never fired the waiter is simply removed from the
        queue.  If it *did* fire (the slot was handed over in the same
        instant the waiter was killed, so nobody will release it), the
        slot is given back.  Call this exactly once, only from the
        cancellation path of the owner of ``grant``.  A cancelled
        request's callback may still be scheduled; its owner must
        ignore it.
        """
        if not grant.triggered:
            try:
                self._waiters.remove(grant)
            except ValueError:
                pass
            return
        if grant._exc is not None:
            return
        self.release()

    def use(self, service_ns: float):
        """Process helper: acquire, hold for ``service_ns``, release.

        Safe against exceptions thrown into the process at any point:
        before the grant the pending acquire is cancelled; after it the
        slot is released exactly once.
        """
        grant = self.acquire()
        try:
            yield grant
        except BaseException:
            self.cancel(grant)
            raise
        try:
            yield self.sim.delay(service_ns)
        finally:
            self.release()

    def utilisation(self) -> float:
        """Time-averaged fraction of capacity in use so far."""
        self._account()
        if self.sim.now <= 0:
            return 0.0
        return self._busy_time / (self.sim.now * self.capacity)


class Store:
    """FIFO queue of items with blocking ``get`` and optional bound.

    ``put`` on a full bounded store returns ``False`` and drops the
    item (this models the Janus pre-execution request queue's
    drop-on-full policy, paper §4.6) unless ``drop_oldest`` is set, in
    which case the oldest buffered item is discarded to make room.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = "", drop_oldest: bool = False):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.drop_oldest = drop_oldest
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._get_name = f"{name}.get"
        self.dropped = 0
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> bool:
        """Enqueue ``item``; returns ``False`` if it was dropped."""
        if self._getters:
            self.total_puts += 1
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            if self.drop_oldest:
                self._items.popleft()
                self.dropped += 1
            else:
                self.dropped += 1
                return False
        self.total_puts += 1
        self._items.append(item)
        return True

    def get(self) -> SimEvent:
        """Return an event yielding the next item (FIFO)."""
        event = SimEvent(self.sim, self._get_name)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def cancel(self, event: SimEvent) -> None:
        """Withdraw a pending :meth:`get` whose waiter died.

        An untriggered getter is removed from the queue so a later
        ``put`` cannot hand its item to a dead event.  A getter that
        already received an item (killed in the same instant) hands
        the item to the next live getter, or puts it back at the front
        of the queue — nothing vanishes.
        """
        if not event.triggered:
            try:
                self._getters.remove(event)
            except ValueError:
                pass
            return
        if event._exc is not None:
            return
        if self._getters:
            self._getters.popleft().succeed(event.value)
        else:
            self._items.appendleft(event.value)

    def take(self):
        """Process helper: cancellation-safe blocking get."""
        event = self.get()
        try:
            item = yield event
        except BaseException:
            self.cancel(event)
            raise
        return item

    def peek_all(self):
        """Snapshot of buffered items (for coalescing logic)."""
        return list(self._items)

    def remove(self, item: Any) -> bool:
        """Remove a specific buffered item (used when coalescing)."""
        try:
            self._items.remove(item)
            return True
        except ValueError:
            return False
