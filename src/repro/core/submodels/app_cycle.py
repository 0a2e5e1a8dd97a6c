"""The application cycle as a replay group.

Three firings in four of a steady-state run belong to the application's
compute/I-O cycle (``compute_phase_end``, ``app_io_end``, paper Fig. 2c)
and its background write (``start_write_app``, ``write_app``, Fig. 2b).
They draw no random numbers, and the rest of the model observes their
places only through three activities, each of which needs a token the
cycle never writes:

* ``to_coordination`` reads ``app_compute`` and needs ``quiescing``;
* ``dump_chkpt`` reads ``io_idle`` and needs ``dumping``;
* ``start_write_chkpt`` consumes ``io_idle`` and needs ``enable_chkpt``.

While none of those three places holds a token, the incremental kernel
may fire the four members through :func:`app_cycle_group`'s handlers
instead of its cascade (see :class:`~repro.san.model.ReplayGroup`).
Each handler applies one member's marking change exactly as its arcs
and gates do and names what the cascade would reconcile next. The
explicit activities stay the model: the full kernel fires them, and so
does the incremental kernel whenever an observer is armed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...san import InputGate, ReplayGroup, SANModel
from . import names

__all__ = ["APP_CYCLE_MEMBERS", "APP_CYCLE_OBSERVERS", "app_cycle_group"]

#: The members, in the order the handlers below refer to them.
APP_CYCLE_MEMBERS = ("compute_phase_end", "app_io_end", "start_write_app", "write_app")
COMPUTE_END, IO_END, START_WRITE, WRITE = range(len(APP_CYCLE_MEMBERS))

#: Places whose tokens arm an observer of the cycle's places.
APP_CYCLE_OBSERVERS = (names.QUIESCING, names.DUMPING, names.ENABLE_CHKPT)


def app_cycle_group(model: SANModel) -> Optional[ReplayGroup]:
    """The replay group of ``model``'s application cycle, or ``None``
    when the model has no cycle (a pure-compute workload).

    The handlers capture the model's own places; the kernel samples
    the members' clocks from the activities' own distributions.
    """
    present = {activity.name for activity in model.activities}
    if not present.issuperset(APP_CYCLE_MEMBERS):
        return None
    app_compute = model.place(names.APP_COMPUTE)
    app_io = model.place(names.APP_IO)
    app_pending = model.place(names.APP_DATA_PENDING)
    execution = model.place(names.EXECUTION)
    io_idle = model.place(names.IO_IDLE)
    io_writing_app = model.place(names.IO_WRITING_APP)
    arming = tuple(model.place(name) for name in APP_CYCLE_OBSERVERS)

    def unobserved(state) -> bool:
        for place in arming:
            if place.tokens:
                return False
        return True

    # Each handler returns the timed members whose clocks the cascade
    # would reconcile as enabled, in definition order, then
    # `start_write_app` when it is enabled; the kernel skips a clock
    # that is already running. Token moves bypass the dirty sink: no
    # activity outside the group can change its enabling through them
    # while the cycle is unobserved.
    def compute_phase_end(state) -> Tuple[int, ...]:
        app_compute.tokens -= 1
        app_compute.version += 1
        app_io.tokens += 1
        app_io.version += 1
        if app_compute.tokens and execution.tokens:
            return (COMPUTE_END, IO_END)
        return (IO_END,)

    def app_io_end(state) -> Tuple[int, ...]:
        app_io.tokens -= 1
        app_io.version += 1
        app_compute.tokens += 1
        app_compute.version += 1
        # The queue_background_write gate.
        app_pending.tokens += 1
        app_pending.version += 1
        follow: Tuple[int, ...] = (COMPUTE_END,) if execution.tokens else ()
        if app_io.tokens:
            follow += (IO_END,)
        if io_idle.tokens:
            follow += (START_WRITE,)
        return follow

    def start_write_app(state) -> Tuple[int, ...]:
        io_idle.tokens -= 1
        io_idle.version += 1
        app_pending.tokens -= 1
        app_pending.version += 1
        io_writing_app.tokens += 1
        io_writing_app.version += 1
        if io_idle.tokens and app_pending.tokens:
            return (WRITE, START_WRITE)
        return (WRITE,)

    def write_app(state) -> Tuple[int, ...]:
        io_writing_app.tokens -= 1
        io_writing_app.version += 1
        io_idle.tokens += 1
        io_idle.version += 1
        follow: Tuple[int, ...] = (WRITE,) if io_writing_app.tokens else ()
        if app_pending.tokens:
            follow += (START_WRITE,)
        return follow

    return ReplayGroup(
        "app_cycle",
        members=APP_CYCLE_MEMBERS,
        quiet=InputGate(
            "app_cycle_unobserved", predicate=unobserved, reads=APP_CYCLE_OBSERVERS
        ),
        writes=(
            names.APP_COMPUTE,
            names.APP_IO,
            names.APP_DATA_PENDING,
            names.IO_IDLE,
            names.IO_WRITING_APP,
        ),
        fire=(compute_phase_end, app_io_end, start_write_app, write_app),
    )
