"""Event order of the per-step join against per-cohort done events.

A step waits on one :class:`~repro.des.Join` that its cohorts' DPNs
decrement.  The reference below is the design the join replaced: every
cohort fires its own done event when its scan completes, and the step
waits on an ``AllOf`` over them.  Both must resume every process, and
grant every resource, at the same simulated time and in the same order
-- same-instant ties included, which are common because DPN quanta lie
on a lattice of ``obj_time / DD`` ms and CN costs are whole ms.
"""

import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Event, Join, Resource
from repro.machine import DataPlacement, MachineConfig, SharedNothingMachine
from repro.obs.recorder import TraceRecorder


class _Log(TraceRecorder):
    """Every trace record and test mark, in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.records: typing.List[typing.Tuple[typing.Any, ...]] = []

    def emit(self, time: float, kind: str, **fields: typing.Any) -> None:
        self.records.append((time, kind, tuple(sorted(fields.items()))))


class _DoneEvent(Event):
    """One cohort's completion as it was: succeeded at the arrival.

    It stands in for the step's join on a single cohort, so the DPN's
    decrement-and-release on the last arrival fires it directly.
    """

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self.pending = 1

    def arrive(self) -> None:
        self.pending -= 1
        if not self.pending:
            self.release()

    def release(self) -> None:
        self.succeed()


def _reference_wait(env, machine, execution):
    """Submit the cohorts with one done event each; wait on their AllOf."""
    done = []
    for cohort in execution.cohorts:
        cohort.join = _DoneEvent(env)
        done.append(machine.data_nodes[cohort.node_id].submit(cohort))
    return env.all_of(done)


def _join_wait(env, machine, execution):
    for cohort in execution.cohorts:
        machine.data_nodes[cohort.node_id].submit(cohort)
    return execution.join


def _reference_run_step(env, machine, execution):
    """The step executor as it was before the join (same trace marks)."""
    trace = env.trace
    trace.emit(
        env.now, "txn.step_start", txn=execution.txn_id,
        file=execution.file_id, step=execution.step_index,
        cost=execution.declared_cost,
    )
    yield from machine.control_node.send_message()
    yield _reference_wait(env, machine, execution)
    yield from machine.control_node.receive_message()
    trace.emit(
        env.now, "txn.step_end", txn=execution.txn_id,
        file=execution.file_id, step=execution.step_index,
    )


def _grab(env, log, lock, name, hold_ms):
    """Take the shared resource, log the grant, hold it, let it go."""
    request = lock.request()
    yield request
    log.emit(env.now, "test.grant", proc=name)
    yield env.timeout(hold_ms)
    lock.release(request)


def _simulate(scenario, reference):
    """Run ``scenario`` and return the ordered log of everything seen."""
    env = Environment()
    log = _Log()
    env.trace = log
    config = MachineConfig(dd=1, num_files=16)
    placement = DataPlacement(config, dd_overrides=scenario["dd"])
    machine = SharedNothingMachine(env, config, placement=placement)
    lock = Resource(env, capacity=1, name="test.lock")

    def transaction(name, start, steps):
        yield env.timeout(start)
        log.emit(env.now, "test.resume", proc=name, at="start")
        for index, (file_id, cost, bare, hold_ms) in enumerate(steps):
            execution = machine.begin_step(name, file_id, cost, index)
            if bare:
                # wait on the cohorts alone: resumes right at the join
                wait = _reference_wait if reference else _join_wait
                yield wait(env, machine, execution)
            elif reference:
                yield from _reference_run_step(env, machine, execution)
            else:
                yield from machine.run_step(execution)
            log.emit(env.now, "test.resume", proc=name, at=index)
            yield from _grab(env, log, lock, name, hold_ms)

    def competitor(name, sleeps):
        for index, (sleep_ms, cn_ms, hold_ms) in enumerate(sleeps):
            yield env.timeout(sleep_ms)
            log.emit(env.now, "test.resume", proc=name, at=index)
            if cn_ms:
                yield from machine.control_node.consume(cn_ms, "test")
            yield from _grab(env, log, lock, name, hold_ms)

    for number, (start, steps) in enumerate(scenario["txns"]):
        env.process(transaction(number, start, steps))
    for number, sleeps in enumerate(scenario["competitors"]):
        env.process(competitor(f"c{number}", sleeps))
    env.run()
    return log.records


# -- the scenarios -------------------------------------------------------------

#: step costs in objects: zero-cost steps, whole objects, and costs
#: whose last quantum is partial at every DD
COSTS = (0.0, 0.5, 1.0, 1.3, 2.0, 2.75, 4.0)
#: a lattice point: a multiple of the 125 ms DD = 8 quantum, nudged by
#: a few whole CN milliseconds (messages cost 2 ms each)
LATTICE = st.builds(
    lambda k, nudge: 125.0 * k + nudge,
    st.integers(0, 40),
    st.sampled_from((0, 0, 0, 2, 4, 6, 7, 9)),
)

STEP = st.tuples(
    st.integers(0, 7),  # file: files 0-7 overlap on the 8 nodes
    st.sampled_from(COSTS),
    st.booleans(),  # wait on the cohorts alone, or the whole step
    st.sampled_from((0, 0, 1, 2, 125)),  # hold of the shared lock
)
TXN = st.tuples(
    st.sampled_from((0.0, 0.0, 125.0, 250.0, 2.0)),  # same-instant starts
    st.lists(STEP, min_size=1, max_size=4),
)
SLEEP = st.tuples(
    LATTICE,
    st.sampled_from((0, 0, 1, 2)),  # a whole-ms CN slice after waking
    st.sampled_from((0, 1, 125)),
)
SCENARIO = st.fixed_dictionaries({
    "dd": st.dictionaries(st.integers(0, 7), st.integers(1, 8)),
    "txns": st.lists(TXN, min_size=1, max_size=5),
    "competitors": st.lists(
        st.lists(SLEEP, min_size=1, max_size=6), max_size=3
    ),
})


class TestJoinOrder:
    @settings(max_examples=300, deadline=None)
    @given(SCENARIO)
    def test_resumptions_and_grants_match_per_cohort_events(self, scenario):
        assert _simulate(scenario, reference=False) == _simulate(
            scenario, reference=True
        )

    def test_tie_after_the_last_arrival_keeps_its_place(self):
        """A wake-up due at the instant the last cohort finishes, and
        popped after it, still runs ahead of the step's waiter.

        One DD = 1 step scans one object from t = 2 to 1002 and then
        takes the lock.  The competitor's timer, set at t = 500, pops
        at t = 1002 right after the cohort's last quantum; it yields a
        zero-delay timeout and then takes the lock too.  The timeout is
        scheduled after the cohort's completion, so with per-cohort
        events the completion's AllOf -- and the join's relay -- come
        behind it: the competitor gets the lock first.  A join that
        fired at the last arrival would hand it to the step instead.
        """
        for reference in (True, False):
            env = Environment()
            machine = SharedNothingMachine(env, MachineConfig(dd=1))
            lock = Resource(env, capacity=1, name="test.lock")
            holders = []

            def step():
                yield env.timeout(2)
                execution = machine.begin_step(1, 0, 1.0)
                wait = _reference_wait if reference else _join_wait
                yield wait(env, machine, execution)
                request = lock.request()
                yield request
                holders.append(("step", env.now))

            def competitor():
                yield env.timeout(500)
                yield env.timeout(502)
                yield env.timeout(0)
                request = lock.request()
                yield request
                holders.append(("competitor", env.now))
                lock.release(request)

            env.process(step())
            env.process(competitor())
            env.run()
            assert holders == [("competitor", 1002.0), ("step", 1002.0)], (
                "reference" if reference else "join"
            )


class TestJoin:
    def test_zero_cost_step_reads_triggered_before_its_heap_entry(self):
        env = Environment()
        machine = SharedNothingMachine(env, MachineConfig(dd=4))
        execution = machine.begin_step(1, 0, cost=0.0)
        join = _join_wait(env, machine, execution)
        assert join.triggered and not join.processed
        assert join.pending == 0
        env.run()
        assert join.processed and env.now == 0.0

    def test_one_join_per_step_shared_by_its_cohorts(self):
        env = Environment()
        machine = SharedNothingMachine(env, MachineConfig(dd=8))
        execution = machine.begin_step(1, 0, cost=8.0)
        assert {id(c.join) for c in execution.cohorts} == {id(execution.join)}
        assert execution.join.pending == 8

    def test_join_takes_two_heap_entries(self):
        env = Environment()
        join = Join(env, 3)
        join.arrive()
        join.arrive()
        assert not join.triggered and not env._queue
        join.arrive()
        assert join.triggered and len(env._queue) == 1  # the relay
        env.step()
        assert not join.processed and len(env._queue) == 1  # the join
        env.step()
        assert join.processed

    def test_join_needs_an_arrival(self):
        with pytest.raises(ValueError):
            Join(Environment(), 0)

    def test_release_twice_is_an_error(self):
        join = Join(Environment(), 1)
        join.arrive()
        with pytest.raises(RuntimeError):
            join.release()
