"""Unit tests for the deterministic fault-injection plan."""

import pytest

from repro.errors import FaultInjected, SimulationError
from repro.sim.faults import (
    GUEST_RUNTIME_POINTS,
    FaultPlan,
    FaultPoint,
    FaultSpec,
    ambient,
    fault_scope,
    full_lifecycle_plan,
    transient_plan,
)


def test_spec_validation():
    with pytest.raises(SimulationError):
        FaultSpec(FaultPoint.IMAGE_PULL, probability=1.5)
    with pytest.raises(SimulationError):
        FaultSpec(FaultPoint.IMAGE_PULL, probability=-0.1)
    with pytest.raises(SimulationError):
        FaultSpec(FaultPoint.IMAGE_PULL, probability=0.5, max_occurrences=-1)
    with pytest.raises(SimulationError):
        FaultPlan(
            [
                FaultSpec(FaultPoint.IMAGE_PULL, probability=0.5),
                FaultSpec(FaultPoint.IMAGE_PULL, probability=0.2),
            ]
        )


def test_unarmed_points_never_fire():
    plan = FaultPlan([FaultSpec(FaultPoint.IMAGE_PULL, probability=1.0)])
    assert plan.check(FaultPoint.ENGINE_COMPILE, "pod-1") is None
    assert plan.check(FaultPoint.MAIN_EXEC, "pod-1") is None
    # Unarmed checks don't even count as draws.
    assert plan.checks == 0


def test_probability_edges():
    always = FaultPlan([FaultSpec(FaultPoint.IMAGE_PULL, probability=1.0)])
    never = FaultPlan([FaultSpec(FaultPoint.IMAGE_PULL, probability=0.0)])
    for i in range(20):
        assert always.check(FaultPoint.IMAGE_PULL, f"pod-{i}") is not None
        assert never.check(FaultPoint.IMAGE_PULL, f"pod-{i}") is None
    assert always.count(FaultPoint.IMAGE_PULL) == 20
    assert never.count(FaultPoint.IMAGE_PULL) == 0


def test_budget_limits_total_firings():
    plan = FaultPlan(
        [FaultSpec(FaultPoint.IMAGE_PULL, probability=1.0, max_occurrences=3)]
    )
    fired = [
        plan.check(FaultPoint.IMAGE_PULL, f"pod-{i}") for i in range(10)
    ]
    assert sum(1 for f in fired if f is not None) == 3
    # The three that fired have 1-based occurrence numbers.
    assert [f.occurrence for f in fired if f is not None] == [1, 2, 3]
    assert plan.count(FaultPoint.IMAGE_PULL) == 3
    assert plan.summary() == {"image.pull": 3}


def test_same_seed_same_pattern():
    def pattern(seed):
        plan = transient_plan(seed=seed)
        return tuple(
            plan.check(point, f"pod-{i}") is not None
            for point in (FaultPoint.IMAGE_PULL, FaultPoint.ENGINE_COMPILE)
            for i in range(50)
        )

    assert pattern(7) == pattern(7)
    assert pattern(7) != pattern(8)


def test_outcome_independent_of_check_order():
    """Per-(point, key) streams: interleaving doesn't change outcomes."""
    keys = [f"pod-{i}" for i in range(30)]

    forward = FaultPlan([FaultSpec(FaultPoint.IMAGE_PULL, probability=0.4)], seed=3)
    backward = FaultPlan([FaultSpec(FaultPoint.IMAGE_PULL, probability=0.4)], seed=3)
    got_fwd = {k: forward.check(FaultPoint.IMAGE_PULL, k) is not None for k in keys}
    got_bwd = {
        k: backward.check(FaultPoint.IMAGE_PULL, k) is not None
        for k in reversed(keys)
    }
    assert got_fwd == got_bwd


def test_retry_draws_next_value_of_same_stream():
    """Same (point, key) re-checked draws the stream's next value, so a
    transient fault can clear on a later attempt — deterministically."""
    plan = FaultPlan([FaultSpec(FaultPoint.IMAGE_PULL, probability=0.5)], seed=11)
    outcomes = [
        plan.check(FaultPoint.IMAGE_PULL, "pod-1") is not None for _ in range(64)
    ]
    again = FaultPlan([FaultSpec(FaultPoint.IMAGE_PULL, probability=0.5)], seed=11)
    outcomes2 = [
        again.check(FaultPoint.IMAGE_PULL, "pod-1") is not None for _ in range(64)
    ]
    assert outcomes == outcomes2
    # With p=0.5 over 64 draws, both outcomes must occur.
    assert True in outcomes and False in outcomes


def test_raise_if_fires_carries_classification():
    plan = FaultPlan(
        [
            FaultSpec(
                FaultPoint.ENGINE_COMPILE,
                probability=1.0,
                transient=False,
                message="compiler segfault",
            )
        ]
    )
    with pytest.raises(FaultInjected) as excinfo:
        plan.raise_if_fires(FaultPoint.ENGINE_COMPILE, "pod-9")
    exc = excinfo.value
    assert exc.point == "engine.compile"
    assert exc.transient is False
    assert "compiler segfault" in str(exc)
    assert "pod-9" in str(exc)


def test_fired_log_records_every_injection():
    plan = FaultPlan([FaultSpec(FaultPoint.CRI_RPC, probability=1.0)])
    with pytest.raises(FaultInjected):
        plan.raise_if_fires(FaultPoint.CRI_RPC, "RunPodSandbox/p1")
    with pytest.raises(FaultInjected):
        plan.raise_if_fires(FaultPoint.CRI_RPC, "CreateContainer/p1")
    assert [f.key for f in plan.fired] == [
        "RunPodSandbox/p1",
        "CreateContainer/p1",
    ]
    assert all(f.point is FaultPoint.CRI_RPC for f in plan.fired)
    assert plan.checks == 2


# -- structured fault context (message + metric) ------------------------------


def test_raise_if_fires_carries_structured_context():
    plan = FaultPlan(
        [FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0, max_occurrences=2)]
    )
    with pytest.raises(FaultInjected):
        plan.raise_if_fires(FaultPoint.GUEST_TRAP, "pod-7")
    with pytest.raises(FaultInjected) as excinfo:
        plan.raise_if_fires(FaultPoint.GUEST_TRAP, "pod-7")
    exc = excinfo.value
    # The message alone (what a pod's status_message shows) pins down the
    # injection site, the victim, and which occurrence this was.
    assert "point=guest.trap" in str(exc)
    assert "key=pod-7" in str(exc)
    assert "occurrence=2" in str(exc)
    assert exc.point == "guest.trap"
    assert exc.key == "pod-7"
    assert exc.occurrence == 2
    assert exc.transient is True


def test_fired_metric_counts_by_point_and_kind():
    from repro import obs

    def fired(point, kind):
        fam = obs.default_registry().get("repro_faults_fired_total")
        assert fam is not None  # always=True: registered even when disabled
        return fam.labels(point, kind).value

    before_t = fired("image.pull", "transient")
    before_p = fired("engine.instantiate", "permanent")
    plan = FaultPlan(
        [
            FaultSpec(FaultPoint.IMAGE_PULL, probability=1.0, max_occurrences=2),
            FaultSpec(
                FaultPoint.ENGINE_INSTANTIATE,
                probability=1.0,
                transient=False,
                max_occurrences=1,
            ),
        ]
    )
    for _ in range(3):  # third check is over budget: no fire, no count
        plan.check(FaultPoint.IMAGE_PULL, "p")
    plan.check(FaultPoint.ENGINE_INSTANTIATE, "p")
    assert fired("image.pull", "transient") == before_t + 2
    assert fired("engine.instantiate", "permanent") == before_p + 1


def test_arms_any():
    plan = FaultPlan(
        [
            FaultSpec(FaultPoint.GUEST_TRAP, probability=0.5),
            FaultSpec(FaultPoint.WASI_SYSCALL, probability=0.0),
        ]
    )
    assert plan.arms_any((FaultPoint.GUEST_TRAP,))
    assert plan.arms_any(GUEST_RUNTIME_POINTS)
    # probability=0 counts as unarmed for bypass decisions.
    assert not plan.arms_any((FaultPoint.WASI_SYSCALL,))
    assert not plan.arms_any((FaultPoint.IMAGE_PULL,))


# -- ambient fault context ----------------------------------------------------


class TestFaultScope:
    def test_scope_arms_and_disarms(self):
        plan = FaultPlan([FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0)])
        assert ambient() is None
        with fault_scope(plan, "pod-1"):
            assert ambient() == (plan, "pod-1")
        assert ambient() is None

    def test_none_plan_is_noop(self):
        with fault_scope(None, "pod-1"):
            assert ambient() is None

    def test_scope_cleared_on_exception(self):
        plan = FaultPlan([])
        with pytest.raises(RuntimeError):
            with fault_scope(plan, "pod-1"):
                raise RuntimeError("guest blew up")
        assert ambient() is None

    def test_nested_scope_rejected(self):
        plan = FaultPlan([])
        with fault_scope(plan, "outer"):
            with pytest.raises(SimulationError):
                with fault_scope(plan, "inner"):
                    pass
        assert ambient() is None


# -- full-lifecycle plan ------------------------------------------------------


def test_full_lifecycle_plan_arms_every_stage():
    plan = full_lifecycle_plan(seed=3, rate=0.25)
    for point in (
        FaultPoint.IMAGE_PULL,
        FaultPoint.ENGINE_COMPILE,
        FaultPoint.GUEST_TRAP,
        FaultPoint.GUEST_EXHAUST,
        FaultPoint.WASI_SYSCALL,
        FaultPoint.ZYGOTE_CORRUPT,
        FaultPoint.CACHE_CORRUPT,
        FaultPoint.METRICS_SCRAPE,
        FaultPoint.PROBE_LIVENESS,
        FaultPoint.PROBE_READINESS,
    ):
        spec = plan.spec(point)
        assert spec is not None and spec.transient and spec.probability == 0.25
        assert spec.max_occurrences == 40
    inst = plan.spec(FaultPoint.ENGINE_INSTANTIATE)
    assert inst is not None and not inst.transient and inst.max_occurrences == 5


def test_full_lifecycle_plan_total_firings_bounded():
    plan = full_lifecycle_plan(seed=1, rate=1.0, budget_per_point=2,
                               permanent_budget=1)
    for point in FaultPoint:
        for i in range(100):
            plan.check(point, f"k{i}")
    assert plan.count(FaultPoint.GUEST_TRAP) == 2
    assert plan.count(FaultPoint.ENGINE_INSTANTIATE) == 1
    assert len(plan.fired) == 10 * 2 + 1
