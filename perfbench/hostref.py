"""Host speed reference: a fixed pure-Python loop, timed on request.

The hosts this benchmark runs on are often shared, and their
throughput can move by tens of percent over seconds and minutes.
``run.py`` keeps this helper in a process of its own and asks it for a
sample between runs; scaling each timing by the reference time taken
around it cancels much of that movement.

The loop is a small discrete-event simulation built like the
program's own engine: generator processes resumed through event
callbacks, a heap of ``(time, key, event)`` tuples, and a shared dict
the processes claim keys in.  It imports nothing from the program and
runs in its own interpreter, so no change to the program can move it.

Protocol: each line read from stdin asks for one sample; the helper
answers with the sample's seconds on one line of stdout.  End of input
stops it.

    python3 perfbench/hostref.py
"""

from __future__ import annotations

import heapq
import random
import sys
import time
import typing

#: processes per sample (one sample takes about 45 ms on a 2 GHz Xeon core)
PROCESSES = 1400
#: steps each process takes
STEPS = 12
#: keys the processes claim
KEYS = 2048
#: keys a process holds before it releases the oldest two
HELD = 4


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self, value: object = None) -> None:
        self.callbacks: typing.Optional[list] = []
        self.value = value


class _Engine:
    def __init__(self) -> None:
        self.now = 0.0
        self.queue: list = []
        self.key = 0

    def timeout(self, delay: float, value: object = None) -> _Event:
        event = _Event(value)
        self.key += 1
        heapq.heappush(self.queue, (self.now + delay, self.key, event))
        return event

    def step(self) -> None:
        self.now, _key, event = heapq.heappop(self.queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)


class _Process:
    __slots__ = ("generator",)

    def __init__(self, engine: _Engine, generator: typing.Generator) -> None:
        self.generator = generator
        engine.timeout(0.0).callbacks.append(self.resume)

    def resume(self, event: _Event) -> None:
        try:
            target = self.generator.send(event.value)
        except StopIteration:
            return
        target.callbacks.append(self.resume)


def _worker(
    engine: _Engine, rng: random.Random, owners: dict, ident: int
) -> typing.Generator:
    held: typing.Dict[int, int] = {}
    for step in range(STEPS):
        key = rng.randrange(KEYS)
        if owners.get(key, ident) == ident:
            owners[key] = ident
            held[key] = step
        yield engine.timeout(rng.expovariate(1.0), key)
        if len(held) > HELD:
            for oldest in sorted(held, key=held.__getitem__)[:2]:
                owners.pop(oldest, None)
                del held[oldest]


def reference_loop() -> int:
    """The fixed work one sample times; returns the keys still held."""
    rng = random.Random(7)
    engine = _Engine()
    owners: typing.Dict[int, int] = {}
    for ident in range(PROCESSES):
        _Process(engine, _worker(engine, rng, owners, ident))
    while engine.queue:
        engine.step()
    return len(owners)


def main() -> int:
    for _request in sys.stdin:
        started = time.perf_counter()
        reference_loop()
        print(repr(time.perf_counter() - started), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
