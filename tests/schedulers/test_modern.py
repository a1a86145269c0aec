"""Behavioural and end-to-end tests for the modern scheduler arena.

Mirrors tests/core/test_schedulers.py: each policy's characteristic
decisions are exercised through the real lifecycle (admission, lock
requests, commit) with deterministic mini-workloads, then every family
is put through full audited simulations at each declustering degree and
through the pool-size determinism check.
"""

import json

import pytest

from repro.core import LOWScheduler, SerializabilityAuditor
from repro.des import Environment
from repro.machine import ControlNode, MachineConfig
from repro.runner import ParallelRunner, RunSpec, WorkloadSpec
from repro.schedulers import (
    ConflictPredictScheduler,
    ConflictReorderScheduler,
    DGCCScheduler,
)
from repro.sim import run_simulation
from repro.txn import (
    AccessMode,
    BatchTransaction,
    Step,
    experiment1_workload,
)

MODERN = ("DGCC", "CAR", "PRED")


def make_txn(txn_id, spec, arrival=0.0):
    steps = [
        Step(f, AccessMode.EXCLUSIVE if op == "w" else AccessMode.SHARED, c)
        for f, op, c in spec
    ]
    return BatchTransaction(txn_id, steps, arrival)


class Harness:
    """Drives scheduler lifecycles as simulation processes."""

    def __init__(self, scheduler_cls, config=None, **scheduler_kwargs):
        self.env = Environment()
        self.config = config or MachineConfig(retry_delay_ms=50.0)
        self.cn = ControlNode(self.env, self.config)
        self.scheduler = scheduler_cls(
            self.env, self.config, self.cn, **scheduler_kwargs
        )
        self.trace = []

    def lifecycle(self, txn, hold_ms=100.0):
        """Admit, acquire each file at first need, hold, then commit."""

        def proc():
            yield from self.scheduler.admit(txn)
            self.trace.append((self.env.now, "admitted", txn.txn_id))
            for file_id in txn.files:
                yield from self.scheduler.acquire(txn, file_id)
                self.trace.append((self.env.now, "locked", txn.txn_id, file_id))
            yield self.env.timeout(hold_ms)
            yield from self.scheduler.commit(txn)
            self.trace.append((self.env.now, "committed", txn.txn_id))

        return self.env.process(proc(), name=f"txn-{txn.txn_id}")

    def admit_only(self, txn):
        """Admit and stay live forever (for partition inspection)."""

        def proc():
            yield from self.scheduler.admit(txn)
            self.trace.append((self.env.now, "admitted", txn.txn_id))

        return self.env.process(proc(), name=f"admit-{txn.txn_id}")

    def run(self, until=None):
        self.env.run(until=until)

    def events(self, kind):
        return [t for t in self.trace if t[1] == kind]


class TestDGCC:
    def test_full_batch_seals_until_drained(self):
        h = Harness(DGCCScheduler, batch_size=2)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.lifecycle(make_txn(2, [(1, "w", 1.0)]))
        h.lifecycle(make_txn(3, [(2, "w", 1.0)]))
        h.run()
        commits = dict((t[2], t[0]) for t in h.events("committed"))
        assert set(commits) == {1, 2, 3}
        # txn 3 found the batch sealed: admitted only after 1 and 2 left
        admit3 = next(t[0] for t in h.events("admitted") if t[2] == 3)
        assert admit3 >= max(commits[1], commits[2])
        # two epochs drained: {1, 2} and then {3}
        assert h.scheduler._epoch == 2

    def test_unfilled_batch_keeps_admitting(self):
        h = Harness(DGCCScheduler, batch_size=8)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]), hold_ms=200.0)
        h.lifecycle(make_txn(2, [(1, "w", 1.0)]), hold_ms=200.0)
        h.run(until=50.0)
        # both admitted immediately: no quorum wait at light load
        assert {t[2] for t in h.events("admitted")} == {1, 2}

    def test_conflicting_writes_follow_admission_order(self):
        h = Harness(DGCCScheduler)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        locked2 = next(t[0] for t in h.events("locked") if t[2] == 2)
        assert locked2 >= commit1  # the graph successor waited

    def test_dependency_components_partition_the_batch(self):
        h = Harness(DGCCScheduler)
        h.admit_only(make_txn(1, [(0, "w", 1.0), (1, "r", 1.0)]))
        h.admit_only(make_txn(2, [(1, "w", 1.0), (2, "w", 1.0)]))
        h.admit_only(make_txn(3, [(5, "w", 1.0)]))
        h.run()
        components = h.scheduler.dependency_components()
        assert components == [frozenset({1, 2}), frozenset({3})]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            Harness(DGCCScheduler, batch_size=0)


class TestCAR:
    def test_conflicts_co_locate_and_independents_spread(self):
        h = Harness(ConflictReorderScheduler, num_queues=2)
        h.admit_only(make_txn(1, [(0, "w", 1.0)]))
        h.admit_only(make_txn(2, [(0, "w", 1.0)]))
        h.admit_only(make_txn(3, [(5, "w", 1.0)]))
        h.run()
        assert h.scheduler.queue_snapshot() == [
            frozenset({1, 2}),
            frozenset({3}),
        ]

    def test_queue_mates_run_serially_in_admission_order(self):
        h = Harness(ConflictReorderScheduler, num_queues=2)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        locked2 = next(t[0] for t in h.events("locked") if t[2] == 2)
        assert locked2 >= commit1

    def test_conflict_predecessor_delay_triggers_repartition(self):
        h = Harness(ConflictReorderScheduler, num_queues=2)
        scheduler = h.scheduler

        def t1():  # queue 0; holds file 0 briefly
            txn = make_txn(1, [(0, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield from scheduler.acquire(txn, 0)
            yield h.env.timeout(100.0)
            yield from scheduler.commit(txn)
            h.trace.append((h.env.now, "committed", 1))

        def t2():  # queue 1; declares file 1 but acquires it late
            txn = make_txn(2, [(1, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield h.env.timeout(300.0)
            yield from scheduler.acquire(txn, 1)
            yield h.env.timeout(50.0)
            yield from scheduler.commit(txn)
            h.trace.append((h.env.now, "committed", 2))

        def t3():  # queue 0 behind t1; then hits t2's declaration on file 1
            txn = make_txn(3, [(0, "w", 1.0), (1, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield from scheduler.acquire(txn, 0)
            yield from scheduler.acquire(txn, 1)
            yield from scheduler.commit(txn)
            h.trace.append((h.env.now, "committed", 3))

        for proc in (t1, t2, t3):
            h.env.process(proc(), name=proc.__name__)
        h.run()
        assert {t[2] for t in h.events("committed")} == {1, 2, 3}
        # t3's first wait on t2's declared-but-unlocked file was
        # staleness evidence, and forced a re-partition
        assert scheduler._repartitions >= 1
        commit2 = next(t[0] for t in h.events("committed") if t[2] == 2)
        commit3 = next(t[0] for t in h.events("committed") if t[2] == 3)
        assert commit3 >= commit2  # admission order won on file 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Harness(ConflictReorderScheduler, num_queues=0)


class TestPRED:
    def test_uncontested_admission_is_immediate(self):
        h = Harness(ConflictPredictScheduler, threshold=0.01)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.run()
        # nobody else declared file 0: score 0, no deferral
        assert h.scheduler._defers_total == 0
        assert len(h.events("committed")) == 1

    def test_hot_declaration_defers_until_commit(self):
        h = Harness(ConflictPredictScheduler, threshold=0.4, max_defers=5)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]), hold_ms=200.0)
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        # fresh model: p(file 0) = 1/2 > 0.4, so txn 2 waited out txn 1
        assert h.scheduler._defers_total >= 1
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        admit2 = next(t[0] for t in h.events("admitted") if t[2] == 2)
        assert admit2 >= commit1

    def test_starvation_cap_admits_regardless(self):
        h = Harness(ConflictPredictScheduler, threshold=0.01, max_defers=0)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]), hold_ms=500.0)
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        admit2 = next(t[0] for t in h.events("admitted") if t[2] == 2)
        assert admit2 < commit1  # admitted into the hot mix anyway
        assert len(h.events("committed")) == 2

    def test_completions_lower_the_estimate(self):
        h = Harness(ConflictPredictScheduler)
        assert h.scheduler.conflict_probability(0) == pytest.approx(1 / 2)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.run()
        assert h.scheduler.conflict_probability(0) == pytest.approx(1 / 3)

    def test_waits_count_once_per_file(self):
        h = Harness(ConflictPredictScheduler, threshold=1.0)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]), hold_ms=400.0)
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        # txn 2 met txn 1's lock, then (once txn 1 left) nothing: one
        # conflict observation however long txn 1 held the file
        assert h.scheduler._conflicts.get(0) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Harness(ConflictPredictScheduler, threshold=0.0)
        with pytest.raises(ValueError):
            Harness(ConflictPredictScheduler, threshold=1.5)
        with pytest.raises(ValueError):
            Harness(ConflictPredictScheduler, max_defers=-1)


# -- no retry polling ---------------------------------------------------------


def delay_behind_declaration(h, hold_ms):
    """Txn 1 declares files 0 and 1, locks 0, works ``hold_ms``, then
    locks 1; txn 2, admitted just after it, requests file 1 meanwhile and
    DELAYs behind txn 1's declaration."""
    scheduler = h.scheduler
    first = make_txn(1, [(0, "w", 1.0), (1, "w", 1.0)])
    second = make_txn(2, [(1, "w", 1.0)])

    def run_first():
        yield from scheduler.admit(first)
        yield from scheduler.acquire(first, 0)
        yield h.env.timeout(hold_ms)
        yield from scheduler.acquire(first, 1)
        yield from scheduler.commit(first)
        h.trace.append((h.env.now, "committed", 1))

    def run_second():
        yield h.env.timeout(1.0)
        yield from scheduler.admit(second)
        yield from scheduler.acquire(second, 1)
        h.trace.append((h.env.now, "locked", 2, 1))
        yield from scheduler.commit(second)
        h.trace.append((h.env.now, "committed", 2))

    h.env.process(run_first(), name="first")
    h.env.process(run_second(), name="second")


def cn_busy_ms(h):
    return sum(h.cn.cpu_ms_by_category.values())


class TestNoRetryPolling:
    """A modern DELAY is re-evaluated when a transaction leaves, never on
    the ``retry_delay_ms`` timer."""

    @pytest.mark.parametrize(
        "scheduler_cls, kwargs",
        [
            (DGCCScheduler, {}),
            (ConflictPredictScheduler, {"threshold": 1.0}),
            (ConflictReorderScheduler, {}),
        ],
        ids=["DGCC", "PRED", "CAR"],
    )
    def test_delay_cost_does_not_grow_with_the_wait(
        self, scheduler_cls, kwargs
    ):
        costs = []
        for hold_ms in (400.0, 40_000.0):
            h = Harness(scheduler_cls, **kwargs)
            delay_behind_declaration(h, hold_ms)
            h.run()
            commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
            locked2 = next(t[0] for t in h.events("locked") if t[2] == 2)
            assert locked2 >= commit1
            costs.append((h.scheduler.stats.delays.total, cn_busy_ms(h)))
        # one DELAY, re-evaluated once when txn 1 leaves: no polling
        assert costs[0] == costs[1]
        assert costs[0][0] == 1

    def test_car_cross_queue_delay_does_not_poll(self):
        """The conflict-predecessor path (after the queue gate) waits for
        a leave too."""
        costs = []
        for idle_ms in (300.0, 30_000.0):
            h = Harness(ConflictReorderScheduler, num_queues=2)
            scheduler = h.scheduler

            def t1():  # queue 0; holds file 0 briefly
                txn = make_txn(1, [(0, "w", 1.0)])
                yield from scheduler.admit(txn)
                yield from scheduler.acquire(txn, 0)
                yield h.env.timeout(100.0)
                yield from scheduler.commit(txn)

            def t2(idle_ms=idle_ms):  # queue 1; declares file 1 early
                txn = make_txn(2, [(1, "w", 1.0)])
                yield from scheduler.admit(txn)
                yield h.env.timeout(idle_ms)
                yield from scheduler.acquire(txn, 1)
                yield from scheduler.commit(txn)

            def t3():  # queue 0 behind t1; then hits t2's declaration
                txn = make_txn(3, [(0, "w", 1.0), (1, "w", 1.0)])
                yield from scheduler.admit(txn)
                yield from scheduler.acquire(txn, 0)
                yield from scheduler.acquire(txn, 1)
                yield from scheduler.commit(txn)
                h.trace.append((h.env.now, "committed", 3))

            for proc in (t1, t2, t3):
                h.env.process(proc(), name=proc.__name__)
            h.run()
            assert len(h.events("committed")) == 1
            costs.append((scheduler.stats.delays.total, cn_busy_ms(h)))
        assert costs[0] == costs[1]
        assert costs[0][0] == 2  # one gate wait, one predecessor wait

    def test_car_repartition_wakes_moved_waiters(self):
        h = Harness(ConflictReorderScheduler, num_queues=2)
        scheduler = h.scheduler

        def run(txn_id, files, start_ms, hold_ms):
            txn = make_txn(txn_id, [(f, "w", 1.0) for f in files])

            def proc():
                yield h.env.timeout(start_ms)
                yield from scheduler.admit(txn)
                for file_id in files:
                    yield from scheduler.acquire(txn, file_id)
                h.trace.append((h.env.now, "locked", txn_id))
                yield h.env.timeout(hold_ms)
                yield from scheduler.commit(txn)
                h.trace.append((h.env.now, "committed", txn_id))

            h.env.process(proc(), name=f"t{txn_id}")

        def repartition_at_150():
            yield h.env.timeout(150.0)
            scheduler._repartition()

        run(1, [10], 0.0, 300.0)  # A: queue 0, runs until ~300
        run(2, [11], 0.0, 100.0)  # B: queue 1, gone by ~100
        run(3, [12], 1.0, 1000.0)  # M: queue 0 behind A
        run(4, [10], 2.0, 10.0)  # W: queue 0 behind A and M (conflicts A)
        h.env.process(repartition_at_150())
        h.run()
        locked = {t[2]: t[0] for t in h.events("locked")}
        committed = {t[2]: t[0] for t in h.events("committed")}
        # the re-partition moved M to the emptied queue 1: M starts at
        # once, and W, now right behind A, starts when A leaves rather
        # than after M's long run
        assert 150.0 <= locked[3] < committed[1]
        assert committed[1] <= locked[4] < committed[3]

    def test_paper_schedulers_keep_the_retry_fallback(self):
        """LOW's DELAY is re-submitted every ``retry_delay_ms`` (the
        paper's "after some delay"), so its cost grows with the wait."""
        delays = []
        for idle_ms in (400.0, 4_000.0):
            h = Harness(LOWScheduler, k=2)
            heavy = make_txn(1, [(9, "w", 49.0), (0, "w", 1.0)])
            light = make_txn(2, [(0, "w", 1.0)])

            def run_heavy():
                yield from h.scheduler.admit(heavy)
                yield from h.scheduler.admit(light)
                # E(q_heavy) > E(p_light): delayed until light commits
                yield from h.scheduler.acquire(heavy, 0)

            def run_light(idle_ms=idle_ms):
                yield h.env.timeout(idle_ms)
                yield from h.scheduler.acquire(light, 0)
                yield from h.scheduler.commit(light)

            h.env.process(run_heavy())
            h.env.process(run_light())
            h.run()
            delays.append(h.scheduler.stats.delays.total)
        # one re-evaluation per retry period (plus the evaluation's own
        # CN time): ten times the wait, about ten times the delays
        assert delays[0] > 1
        assert delays[1] > 5 * delays[0]

    def test_delayed_probe_counts_delayed_modern_waiters(self):
        h = Harness(DGCCScheduler, batch_size=2)
        delay_behind_declaration(h, 400.0)

        def third():  # arrives to find the two-member batch sealed
            yield h.env.timeout(2.0)
            yield h.lifecycle(make_txn(3, [(5, "w", 1.0)], arrival=2.0))

        h.env.process(third(), name="third")
        probes = h.scheduler.timeseries_probes()
        delayed = probes["sched.delayed"]["probe"]
        h.run(until=200.0)
        # txn 2 DELAYed behind txn 1, txn 3 waiting for the epoch drain
        assert delayed(h.env.now) == 2.0
        assert probes["sched.blocked"]["probe"](h.env.now) == 0.0
        h.run()
        assert delayed(h.env.now) == 0.0
        assert {t[2] for t in h.events("committed")} == {1, 2, 3}


# -- full-simulation guarantees ----------------------------------------------


def quick(scheduler, rate=0.6, dd=1, num_files=16, seed=7,
          duration=150_000, **kwargs):
    return run_simulation(
        scheduler,
        experiment1_workload(rate, num_files=num_files),
        MachineConfig(dd=dd, num_files=num_files),
        seed=seed,
        duration_ms=duration,
        warmup_ms=0.0,
        **kwargs,
    )


class TestSerializability:
    @pytest.mark.parametrize("scheduler", MODERN)
    @pytest.mark.parametrize("dd", [1, 2, 4, 8])
    def test_audit_clean_at_every_dd(self, scheduler, dd):
        auditor = SerializabilityAuditor()
        result = quick(scheduler, dd=dd, auditor=auditor)
        assert result.completed > 5, f"{scheduler} stalled at DD={dd}"
        assert auditor.committed_count > 5
        assert auditor.is_serializable(), auditor.find_cycle()

    @pytest.mark.parametrize(
        "scheduler", ["DGCC(B=4)", "CAR(Q=2)", "PRED(T=0.25)"]
    )
    def test_parameterised_variants_audit_clean(self, scheduler):
        auditor = SerializabilityAuditor()
        result = quick(scheduler, dd=2, auditor=auditor)
        assert result.completed > 5
        assert auditor.is_serializable(), auditor.find_cycle()


class TestDeterminism:
    def test_pool_sizes_yield_byte_identical_results(self):
        specs = [
            RunSpec(
                scheduler=scheduler,
                workload=WorkloadSpec.make("exp1", 0.8, num_files=16),
                config=MachineConfig(dd=2),
                seed=3,
                duration_ms=20_000.0,
                warmup_ms=0.0,
            )
            for scheduler in MODERN + ("DGCC(B=4)", "CAR(Q=2)", "PRED(T=0.25)")
        ]
        serial = ParallelRunner(pool_size=1, progress=None).run_batch(
            specs, label="modern-pool1"
        )
        pooled = ParallelRunner(pool_size=3, progress=None).run_batch(
            specs, label="modern-pool3"
        )
        a = [json.dumps(r.to_dict(), sort_keys=True) for r in serial]
        b = [json.dumps(r.to_dict(), sort_keys=True) for r in pooled]
        assert a == b
