"""Discrete-event simulation kernel.

A small, self-contained, generator-based discrete-event simulation engine
in the style of simpy (which is not available in this environment).  The
paper's simulator runs in integer "clocks" of 1 ms; this kernel keeps time
as a float but all built-in machine models use millisecond units.

Public surface:

- :class:`Environment` -- event loop, clock, process spawning.
- :class:`Event` / :class:`Timeout` / :class:`AllOf` / :class:`AnyOf` --
  awaitable events yielded from process generators.
- :class:`Join` -- a counted AllOf: fires where an AllOf over its
  arrivals would, with two heap entries instead of one per arrival.
- :class:`Process` -- a running generator; itself awaitable.
- :class:`Interrupt` -- exception thrown into an interrupted process.
- :class:`Resource` -- FIFO multi-server resource (used for CPUs).
- :class:`Store` -- FIFO message queue between processes.
- :class:`RandomStreams` -- named, independently-seeded RNG streams.
- :class:`monitor` -- time-weighted and tally statistics collectors.
"""

from repro.des.engine import Environment, StopSimulation
from repro.des.events import AllOf, AnyOf, Event, Interrupt, Join, Timeout
from repro.des.process import Process
from repro.des.resources import Request, Resource, Store
from repro.des.rng import RandomStreams
from repro.des.monitor import Counter, Tally, TimeWeighted

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "Interrupt",
    "Join",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "StopSimulation",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
]
