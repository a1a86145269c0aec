"""Facade assembling the shared-nothing machine of Fig. 1.

One control node plus ``num_nodes`` data-processing nodes and the data
placement.  The facade also implements the paper's execution model of one
step: CN sends the transaction to the file's home node, the step is split
into DD cohorts served round-robin on the DD nodes holding the file's
partitions, the cohorts drain back to the home node and the transaction
returns to the CN.

The transaction waits for its cohorts on one :class:`~repro.des.Join`
per step, two heap entries in all, not on a done event per cohort and
an AllOf (DD + 1 entries).  The join needs its relay event to resume
the transaction at the heap position the AllOf had: same-instant ties
are common, and results must stay byte-identical through them.
"""

from __future__ import annotations

import typing

from repro.des import Environment, Join
from repro.machine.config import MachineConfig
from repro.machine.control_node import ControlNode
from repro.machine.data_node import Cohort, DataProcessingNode
from repro.machine.placement import DataPlacement
from repro.obs.profile import profiled_calls
from repro.obs.timeseries import (
    gauge,
    size_hist,
    utilisation_hist,
    windowed_rate,
)


class StepExecution:
    """One step's scan: its cohorts, their live progress (which drives
    the WTPG T0-weight updates) and the join the transaction waits on."""

    __slots__ = (
        "txn_id",
        "file_id",
        "step_index",
        "declared_cost",
        "cohorts",
        "join",
        "_total_objects",
    )

    def __init__(
        self,
        txn_id: int,
        file_id: int,
        step_index: int,
        declared_cost: float,
        cohorts: typing.List[Cohort],
        join: Join,
    ) -> None:
        self.txn_id = txn_id
        self.file_id = file_id
        self.step_index = step_index
        self.declared_cost = declared_cost
        self.cohorts = cohorts
        self.join = join
        # cohort demands are fixed at construction, so the denominator
        # of fraction_done() -- evaluated per WTPG node per scheduler
        # decision -- is summed once (same association as the property)
        self._total_objects = sum(c.objects for c in cohorts)

    @property
    def total_objects(self) -> float:
        return self._total_objects

    @property
    def scanned_objects(self) -> float:
        return sum(c.scanned for c in self.cohorts)

    def fraction_done(self) -> float:
        """Scanned fraction in [0, 1]; zero-cost steps count as done."""
        total = self._total_objects
        if total <= 0:
            return 1.0
        scanned = 0.0
        for cohort in self.cohorts:
            scanned += cohort.scanned
        fraction = scanned / total
        return fraction if fraction < 1.0 else 1.0


class SharedNothingMachine:
    """The machine model: CN + DPNs + placement + step executor."""

    def __init__(
        self,
        env: Environment,
        config: MachineConfig,
        placement: typing.Optional[DataPlacement] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.placement = placement or DataPlacement(config)
        self.control_node = ControlNode(env, config)
        self.data_nodes = [
            DataProcessingNode(env, node_id, config.obj_time_ms)
            for node_id in range(config.num_nodes)
        ]
        self._trace = env.trace
        cn = self.control_node
        self._send_message = profiled_calls(
            cn.send_message, env.profile, "machine.msg"
        )
        self._receive_message = profiled_calls(
            cn.receive_message, env.profile, "machine.msg"
        )

    def begin_step(
        self, txn_id: int, file_id: int, cost: float, step_index: int = 0
    ) -> StepExecution:
        """Create (but do not submit) the cohorts for one step."""
        nodes = self.placement.nodes_for(file_id)
        dd = len(nodes)
        join = Join(self.env, dd)
        per_cohort = cost / dd
        quantum = 1.0 / dd
        cohorts = [
            Cohort(
                self.env,
                txn_id=txn_id,
                file_id=file_id,
                node_id=node_id,
                objects=per_cohort,
                quantum_objects=quantum,
                join=join,
            )
            for node_id in nodes
        ]
        return StepExecution(txn_id, file_id, step_index, cost, cohorts, join)

    def run_step(self, execution: StepExecution) -> typing.Generator:
        """Process generator executing one begun step end to end.

        Finishes when every cohort has scanned its partition and the
        transaction is back at the CN.  Emits ``txn.step_start`` and
        ``txn.step_end`` when tracing.
        """
        env = self.env
        trace = self._trace
        if trace.enabled:
            trace.emit(
                env.now, "txn.step_start", txn=execution.txn_id,
                file=execution.file_id, step=execution.step_index,
                cost=execution.declared_cost,
            )
        # CN -> home node: one message send (cohort fan-out at the home
        # node is a DPN control overhead the paper ignores).
        yield from self._send_message()
        nodes = self.data_nodes
        for cohort in execution.cohorts:
            nodes[cohort.node_id].submit(cohort)
        yield execution.join
        # home node -> CN: one message receive.
        yield from self._receive_message()
        if trace.enabled:
            trace.emit(
                env.now, "txn.step_end", txn=execution.txn_id,
                file=execution.file_id, step=execution.step_index,
            )

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """CN signals plus fleet-level DPN utilisation/queue trajectories."""
        nodes = self.data_nodes
        probes = self.control_node.timeseries_probes()
        if not nodes:
            return probes
        probes["dpn.util.mean"] = {
            "probe": windowed_rate(
                lambda t: sum(node.busy.integral(t) for node in nodes),
                scale=1.0 / len(nodes),
            ),
            "unit": "frac",
            "hist": utilisation_hist(),
        }
        probes["dpn.queue.total"] = {
            "probe": gauge(
                lambda: sum(node.active_cohorts for node in nodes)
            ),
            "unit": "cohorts",
            "hist": size_hist(),
        }
        probes["dpn.backlog.objects"] = {
            "probe": gauge(
                lambda: sum(node.backlog_objects for node in nodes)
            ),
            "unit": "objects",
            "hist": size_hist(),
        }
        return probes

    def mean_dpn_utilisation(self) -> float:
        """Average utilisation across all data-processing nodes."""
        if not self.data_nodes:
            return 0.0
        return sum(n.utilisation() for n in self.data_nodes) / len(
            self.data_nodes
        )

    def reset_statistics(self) -> None:
        """Warm-up cutoff for every component's statistics."""
        self.control_node.reset_statistics()
        for node in self.data_nodes:
            node.reset_statistics()
