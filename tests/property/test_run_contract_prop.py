"""Property: every experiment runner ends in a measurement or a typed error.

Whatever the pod count, fleet shape or fault rate, a runner returns a
measurement whose invariants hold, or raises a :class:`ReproError`. It
never ends in a bare traceback. Counts below one are rejected before
anything runs; counts beyond the fleet's capacity raise a
:class:`SchedulingError` whose ``.reasons`` account for every unplaced pod.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, SchedulingError
from repro.measure.chaos import run_chaos
from repro.measure.experiment import ExperimentRunner
from repro.measure.fleet import run_locality_ablation
from repro.measure.recovery import run_recovery
from repro.sim.faults import transient_plan

#: the chaos invariants that hold whether or not the run converged
CHAOS_ALWAYS = {
    "accounting_verifies",
    "backoff_counter_balances",
    "fault_counter_balances",
    "zygote_fallbacks_balance",
    "no_leaked_sandboxes",
    "no_leaked_memory",
}

#: kubelet default pods per node (the locality ablation's node shape)
DEFAULT_MAX_PODS = 500


def _run(runner, count, nodes, max_pods, rate, seed):
    if runner == "deploy":
        return ExperimentRunner(seed=seed).run(
            "crun-wamr", count, nodes=nodes, max_pods=max_pods
        )
    if runner == "recovery":
        plan = transient_plan(
            seed=seed, pull_probability=rate, compile_probability=rate
        )
        return run_recovery(count=count, seed=seed, plan=plan)
    if runner == "chaos":
        return run_chaos(count=count, seed=seed, rate=rate)
    return run_locality_ablation(count=count, nodes=nodes, seed=seed)


def _unplaced(runner, count, nodes, max_pods):
    """Pods the first failing placement leaves without a node (0: none)."""
    if runner == "deploy":
        return max(0, count - nodes * max_pods)
    if runner == "locality":
        # The seed pod is placed first; it finds no node only on an
        # empty fleet, and the wave fits on any non-empty one.
        return 1 if nodes == 0 else max(0, count - nodes * DEFAULT_MAX_PODS)
    return 0  # one default node: room for every count drawn here


@settings(max_examples=40, deadline=None)
@given(
    runner=st.sampled_from(["deploy", "recovery", "chaos", "locality"]),
    count=st.integers(min_value=-1, max_value=10),
    nodes=st.integers(min_value=0, max_value=3),
    max_pods=st.integers(min_value=0, max_value=6),
    rate=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_runner_ends_in_measurement_or_typed_error(
    runner, count, nodes, max_pods, rate, seed
):
    try:
        m = _run(runner, count, nodes, max_pods, rate, seed)
    except SchedulingError as err:
        unplaced = _unplaced(runner, count, nodes, max_pods)
        assert count >= 1 and unplaced > 0, err
        assert sum(err.reasons.values()) == unplaced
        return
    except ReproError as err:
        assert count < 1, err
        return
    assert count >= 1 and _unplaced(runner, count, nodes, max_pods) == 0

    if runner == "deploy":
        assert m.ready_fraction == 1.0
        assert sum(u.pods for u in m.per_node) == count
    elif runner == "recovery":
        assert len(m.timeline) <= count
        assert m.converged == (len(m.timeline) == count)
    elif runner == "chaos":
        failing = [
            c.name for c in m.invariants if c.name in CHAOS_ALWAYS and not c.passed
        ]
        assert not failing, failing
        assert {c.name for c in m.invariants} >= CHAOS_ALWAYS
    else:
        assert sum(m.placement_with.values()) == count
        assert sum(m.placement_without.values()) == count
