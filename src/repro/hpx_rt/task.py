"""Task objects for the simulated HPX scheduler.

A task body is a callable ``fn(worker) -> generator | None``, or
``fn(worker, arg)`` when the task carries an argument.  If it returns a
generator, the worker drives it (the body can ``yield`` simulator events,
e.g. ``worker.cpu(...)`` or a future's ``wait()``); a plain callable models
a zero-internal-wait task.

The two most frequent kinds of runtime work need no :class:`Task` at all:
a parcel to execute and a received HPX message to decode sit on the
scheduler queue as the :class:`~repro.hpx_rt.parcel.Parcel` or
:class:`~repro.hpx_rt.parcel.HpxMessage` itself, and the worker dispatches
on the entry's class.  Other runtime-internal tasks (parcel-queue drains)
take the argument form with a bound method as ``fn``: a queued task then
costs the slotted :class:`Task`, the bound method and the argument it
already had, with no per-task closure, cell or defaults tuple.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Task", "NO_ARG"]

#: ``Task.arg`` of a task whose body takes the worker only
NO_ARG: Any = object()


class Task:
    """One unit of work for a worker thread."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Callable, arg: Any = NO_ARG):
        self.fn = fn
        self.arg = arg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.fn!r}>"
