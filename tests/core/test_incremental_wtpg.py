"""Regression and property tests for the incremental WTPG hot path.

The scheduler hot path maintains topological levels and backward
suffix distances incrementally, evaluates hypothetical grants under an
apply/undo journal, and restricts transitive-fix sweeps to the edges a
new precedence path could force.  These tests pin all three against
their from-scratch references:

* restricted ``propagate_transitive_fixes(touched=...)`` applies the
  same fix list as the original full fixpoint sweep;
* random add/grant/remove sequences keep the maintained structures
  bit-for-bit equal to a scratch recompute (``check_invariants``), the
  critical path equal to an independent longest-path DP, and the
  journal-based hypothetical evaluation equal to the scratch-copy one;
* the base-delta E (live critical path raised by the journal's nodes)
  and LOW's verdict built on it equal a full recompute of every E, on
  the plain WTPG and on the resource-aware one.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import WTPG, LOWScheduler, ResourceAwareWTPG
from repro.des import Environment
from repro.machine import ControlNode, MachineConfig
from repro.txn import AccessMode, BatchTransaction, Step


def make_txn(txn_id, spec):
    """spec: list of (file, 'r'|'w', cost)."""
    steps = [
        Step(f, AccessMode.EXCLUSIVE if op == "w" else AccessMode.SHARED, c)
        for f, op, c in spec
    ]
    return BatchTransaction(txn_id, steps, arrival_time=0.0)


def reference_critical_path(wtpg):
    """Independent longest-path recompute (same DP as the maintained
    suffix distances, evaluated from scratch), inf on a cycle."""
    precedence = wtpg.precedence_edges()
    adjacency = {}
    for (i, j), _ in precedence.items():
        adjacency.setdefault(i, set()).add(j)
    if WTPG._has_cycle(adjacency):
        return math.inf
    longest = {}

    def suffix(node):
        if node in longest:
            return longest[node]
        best = 0.0
        for succ in sorted(adjacency.get(node, ())):
            cand = precedence[(node, succ)] + suffix(succ)
            if cand > best:
                best = cand
        longest[node] = best
        return best

    best = 0.0
    for txn_id in wtpg.txn_ids:
        value = wtpg.t0_weight(txn_id) + suffix(txn_id)
        if value > best:
            best = value
    return best


def full_hypothetical(wtpg, txn_id, file_id):
    """E of a grant recomputed from scratch on a private copy."""
    scratch = wtpg._scratch_copy()
    fixes = scratch.fixes_for_grant(txn_id, file_id)
    if scratch.creates_cycle(fixes):
        return math.inf
    for i, j in fixes:
        scratch.apply_fix(i, j)
    scratch.propagate_transitive_fixes(touched=fixes)
    return scratch.critical_path_length()


def resource_aware_wtpg():
    """T0 weights inflated by a fixed per-node backlog (rho > 0)."""
    return ResourceAwareWTPG(
        node_backlog=lambda node: 1.5 + node,
        nodes_for_file=lambda file_id: [file_id % 2, 2],
        rho=0.5,
    )


GRAPHS = {"plain": WTPG, "resource-aware": resource_aware_wtpg}


def check_hypotheticals(graph):
    """Every E on the graph, with and without a precomputed base, equals
    the scratch recompute and leaves the graph as it was."""
    base = graph.critical_path_length()
    for txn_id in graph.txn_ids:
        for file_id in graph.transaction(txn_id).files:
            before = graph_state(graph)
            value = graph.hypothetical_grant_critical_path(txn_id, file_id)
            with_base = graph.hypothetical_grant_critical_path(
                txn_id, file_id, base=base
            )
            # the journal rolled everything back
            assert graph_state(graph) == before
            expected = full_hypothetical(graph, txn_id, file_id)
            assert value == expected
            assert with_base == expected


def graph_state(wtpg):
    """Snapshot of everything a hypothetical evaluation must restore."""
    return (
        dict(wtpg._precedence),
        set(wtpg._conflicts),
        {k: set(v) for k, v in wtpg._succ.items()},
        {k: set(v) for k, v in wtpg._pred.items()},
        dict(wtpg._level),
        dict(wtpg._longest),
    )


class TestRestrictedPropagation:
    """Satellite regression: ``touched``-restricted sweeps apply the
    identical fix list as the original full fixpoint."""

    def _forced_chain(self):
        """T1 -> T2 -> T3 by precedence plus a still-open conflict
        (T1, T3): the Fig. 6 shape where a path forces an edge."""
        wtpg = WTPG()
        wtpg.add_transaction(make_txn(1, [(0, "w", 2.0), (2, "w", 1.0)]))
        wtpg.add_transaction(make_txn(2, [(0, "w", 1.0), (1, "w", 2.0)]))
        wtpg.add_transaction(make_txn(3, [(1, "w", 1.0), (2, "w", 2.0)]))
        return wtpg

    def test_restricted_matches_full_fixpoint(self):
        wtpg = self._forced_chain()
        # grant F0 to T1 and F1 to T2 without propagation, so the
        # conflict edge (T1, T3) is left for the sweep to force
        wtpg.grant(1, 0, propagate=False)
        new_edges = wtpg.grant(2, 1, propagate=False)
        assert new_edges == [(2, 3)]

        full = wtpg._scratch_copy()
        applied_full = full.propagate_transitive_fixes(touched=None)
        applied_restricted = wtpg.propagate_transitive_fixes(
            touched=new_edges
        )

        assert sorted(applied_restricted) == sorted(applied_full)
        assert (1, 3) in [tuple(f) for f in applied_restricted]
        assert wtpg.precedence_edges() == full.precedence_edges()
        assert set(wtpg._conflicts) == set(full._conflicts)
        wtpg.check_invariants()

    def test_restricted_sweep_after_every_grant_is_complete(self):
        """Keeping the graph propagated grant-by-grant (what the
        schedulers do) ends in the same state as one full sweep."""
        wtpg = self._forced_chain()
        reference = wtpg._scratch_copy()
        reference.grant(1, 0, propagate=False)
        reference.grant(2, 1, propagate=False)
        reference.propagate_transitive_fixes(touched=None)

        wtpg.grant(1, 0)  # propagates restricted internally
        wtpg.grant(2, 1)
        assert wtpg.precedence_edges() == reference.precedence_edges()
        assert set(wtpg._conflicts) == set(reference._conflicts)

    def test_empty_touched_is_a_no_op(self):
        wtpg = self._forced_chain()
        assert wtpg.propagate_transitive_fixes(touched=[]) == []


# -- randomized driver --------------------------------------------------------

NUM_FILES = 4

txn_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_FILES - 1),
        st.sampled_from(["r", "w"]),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    min_size=1,
    max_size=4,
)

# an op is (kind, pick, spec): kind 0 = add, 1 = grant, 2 = remove;
# ``pick`` indexes into the live ids / file pool deterministically
op_strategy = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=63),
    txn_specs,
)
ops_strategy = st.lists(op_strategy, min_size=1, max_size=20)
#: longer sequences build graphs where E(q) rises above the base
long_ops_strategy = st.lists(op_strategy, min_size=8, max_size=30)


def drive(wtpg, ops, after_each):
    """Interpret a random op sequence against the live graph."""
    next_id = 1
    for kind, pick, spec in ops:
        ids = wtpg.txn_ids
        if kind == 0 or not ids:
            wtpg.add_transaction(make_txn(next_id, spec))
            next_id += 1
        elif kind == 1:
            txn_id = ids[pick % len(ids)]
            file_id = pick % NUM_FILES
            if file_id in wtpg.transaction(txn_id).read_set:
                fixes = wtpg.fixes_for_grant(txn_id, file_id)
                if not wtpg.creates_cycle(fixes):
                    wtpg.grant(txn_id, file_id)
        else:
            wtpg.remove_transaction(ids[pick % len(ids)])
        after_each(wtpg)


class TestIncrementalMatchesRecompute:
    """Satellite property test: the incremental maintenance path agrees
    with the from-scratch references after every operation."""

    @given(ops=ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_levels_suffixes_and_critical_path(self, ops):
        wtpg = WTPG()

        def check(graph):
            graph.check_invariants()  # maintained vs recomputed, exact
            assert graph.critical_path_length() == reference_critical_path(
                graph
            )

        drive(wtpg, ops, check)

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_journal_hypothetical_matches_scratch_copy(self, ops):
        drive(WTPG(), ops, check_hypotheticals)

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_resource_aware_hypothetical_matches_scratch_copy(self, ops):
        """The base-delta E reads the subclass's T0 weights (rho > 0)."""
        drive(resource_aware_wtpg(), ops, check_hypotheticals)

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cycle_verdicts_match_full_dfs(self, ops):
        wtpg = WTPG()

        def check(graph):
            for txn_id in graph.txn_ids:
                txn = graph.transaction(txn_id)
                for file_id in txn.files:
                    fixes = graph.fixes_for_grant(txn_id, file_id)
                    adjacency = {
                        node: set(succ)
                        for node, succ in graph._succ.items()
                    }
                    for i, j in fixes:
                        adjacency.setdefault(i, set()).add(j)
                    assert graph.creates_cycle(fixes) == WTPG._has_cycle(
                        adjacency
                    )

        drive(wtpg, ops, check)


def make_low(make_graph):
    env = Environment()
    config = MachineConfig()
    low = LOWScheduler(env, config, ControlNode(env, config), k=2)
    low.wtpg = make_graph()
    return low


def reference_verdict(low, txn, file_id):
    """(E(q), grant?) of Fig. 7 with every E recomputed from scratch."""
    wtpg = low.wtpg
    mode = txn.mode_for(file_id)
    e_q = full_hypothetical(wtpg, txn.txn_id, file_id)
    if math.isinf(e_q):
        return e_q, False
    opponents = low._conflicting_declarations(txn, file_id, mode)
    return e_q, all(
        e_q <= full_hypothetical(wtpg, other_id, file_id)
        for other_id in opponents
    )


class TestLOWVerdict:
    """LOW's decision computes one base critical path and grants on
    ``E(q) == base`` without any E(p): the verdict must equal the one
    read off a full recompute of every E."""

    @pytest.mark.parametrize("make_graph", GRAPHS.values(), ids=list(GRAPHS))
    @given(ops=long_ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_verdict_matches_full_recompute(self, make_graph, ops):
        low = make_low(make_graph)

        def check(graph):
            for txn_id in graph.txn_ids:
                txn = graph.transaction(txn_id)
                for file_id in txn.files:
                    assert low._e_verdict(
                        txn, file_id, txn.mode_for(file_id)
                    ) == reference_verdict(low, txn, file_id)

        drive(low.wtpg, ops, check)

    def test_one_ulp_above_the_base_still_compares_every_e_p(self):
        """E(q) exceeds the base by one ulp and E(p) equals the base:
        q is delayed, so no tolerance may round E(q) down to the base."""
        low = make_low(WTPG)
        epsilon = math.ulp(11.0)
        t1 = make_txn(1, [(1, "w", 10.0), (0, "w", 1.0)])
        t2 = make_txn(2, [(0, "w", epsilon)])
        for txn in (t1, t2):
            low.wtpg.add_transaction(txn)
        assert low.wtpg.critical_path_length() == 11.0
        assert full_hypothetical(low.wtpg, 2, 0) == 11.0
        verdict = low._e_verdict(t1, 0, AccessMode.EXCLUSIVE)
        assert verdict == (11.0 + epsilon, False)
        assert verdict == reference_verdict(low, t1, 0)

    def test_e_q_at_the_base_grants_without_evaluating_e_p(self, monkeypatch):
        low = make_low(WTPG)
        t1 = make_txn(1, [(0, "w", 5.0)])
        t2 = make_txn(2, [(1, "w", 9.0), (0, "w", 1.0)])
        for txn in (t1, t2):
            low.wtpg.add_transaction(txn)
        calls = []
        evaluate = low.wtpg.hypothetical_grant_critical_path

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(
            low.wtpg, "hypothetical_grant_critical_path", counted
        )
        # granting F0 to T1 adds T1 -> T2 of weight 1: 5 + 1 < 10 = base
        assert low._e_verdict(t1, 0, AccessMode.EXCLUSIVE) == (10.0, True)
        assert calls == [(1, 0)]
