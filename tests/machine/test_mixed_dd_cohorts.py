"""Round-robin service with mixed declustering degrees on one node.

Per-file DD overrides (partial declustering) put cohorts with different
quantum sizes in the same ring -- the realistic case the paper's
placement discussion motivates.  The node must honour each cohort's own
quantum and stay work-conserving.
"""

import pytest

from repro.des import Environment
from repro.machine import DataPlacement, MachineConfig, SharedNothingMachine
from repro.machine.data_node import Cohort, DataProcessingNode


class TestMixedQuanta:
    def test_different_quanta_share_one_node(self):
        """A DD=1 cohort (quantum 1 obj) and a DD=4 cohort (quantum
        0.25 obj) interleave per their own quanta."""
        env = Environment()
        node = DataProcessingNode(env, node_id=0, obj_time_ms=100.0)
        coarse = Cohort(env, txn_id=1, file_id=0, node_id=0,
                        objects=2.0, quantum_objects=1.0)
        fine = Cohort(env, txn_id=2, file_id=1, node_id=0,
                      objects=0.5, quantum_objects=0.25)
        done_c = node.submit(coarse)
        done_f = node.submit(fine)
        finish = {}
        done_c.callbacks.append(lambda e: finish.setdefault("coarse", env.now))
        done_f.callbacks.append(lambda e: finish.setdefault("fine", env.now))
        env.run()
        # service: coarse 100 (1 obj), fine 25, coarse 100, fine 25 -> fine
        # done at 250; coarse done at 250+... coarse has 2 obj: quanta at
        # t=100 (1st), then fine 25, then coarse 2nd quantum ends 225,
        # then fine's 2nd ends 250.  Coarse finished at 225.
        assert finish["coarse"] == pytest.approx(225.0)
        assert finish["fine"] == pytest.approx(250.0)
        # work conservation: total busy time equals total work
        assert env.now == pytest.approx(250.0)

    def test_per_file_override_through_machine(self):
        """A machine with one wide file and one narrow file produces
        cohorts whose quanta match their own file's DD."""
        env = Environment()
        config = MachineConfig(dd=1, num_files=16)
        placement = DataPlacement(config, dd_overrides={0: 4})
        machine = SharedNothingMachine(env, config, placement=placement)
        wide = machine.begin_step(txn_id=1, file_id=0, cost=4.0)
        narrow = machine.begin_step(txn_id=2, file_id=1, cost=4.0)
        assert len(wide.cohorts) == 4
        assert all(c.quantum_objects == 0.25 for c in wide.cohorts)
        assert len(narrow.cohorts) == 1
        assert narrow.cohorts[0].quantum_objects == 1.0

    def test_overridden_step_runs_end_to_end(self):
        env = Environment()
        config = MachineConfig(dd=1, num_files=16)
        placement = DataPlacement(config, dd_overrides={0: 8})
        machine = SharedNothingMachine(env, config, placement=placement)
        done_at = {}

        def driver(env, machine, txn_id, file_id):
            step = machine.begin_step(txn_id, file_id, cost=8.0)
            yield from machine.run_step(step)
            done_at[txn_id] = env.now

        def sequential(env, machine):
            # run the wide scan alone (a DD=8 file overlaps every node,
            # so concurrency would just measure sharing, not speedup)
            yield from machine.run_step(machine.begin_step(1, 0, cost=8.0))
            done_at[1] = env.now
            yield from machine.run_step(machine.begin_step(2, 1, cost=8.0))
            done_at[2] = env.now - done_at[1]

        env.process(sequential(env, machine))
        env.run()
        assert done_at[1] == pytest.approx(1000.0 + 4.0, rel=0.05)
        assert done_at[2] == pytest.approx(8000.0 + 4.0, rel=0.05)
