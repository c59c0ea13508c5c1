"""SimConfig consolidation tests.

The frozen :class:`~repro.sim.config.SimConfig` value object must (a)
validate knob combinations, (b) be the only way to configure a
``Simulator`` (no per-knob keyword arguments), and (c) thread through
``run_experiment`` / ``replicate`` so congested (hop transport,
link-capacity, non-strict) experiments work end-to-end.
"""

import dataclasses
import inspect

import pytest

from repro import DeparturePolicy, SimConfig, Simulator
from repro.analysis import replicate, run_experiment
from repro.core import GreedyScheduler
from repro.errors import WorkloadError
from repro.network import topologies
from repro.obs import CountersProbe
from repro.workloads import BatchWorkload, ClosedLoopWorkload


def _setup(n=8, seed=0):
    g = topologies.clique(n)
    wl = ClosedLoopWorkload(g, num_objects=4, k=2, rounds=2, seed=seed)
    return g, wl


# -- the value object ----------------------------------------------------

def test_defaults_match_simulator_defaults():
    cfg = SimConfig()
    assert cfg.departure_policy is DeparturePolicy.EAGER
    assert cfg.object_speed_den == 1
    assert cfg.strict is True
    assert cfg.one_txn_per_node is False
    assert cfg.node_egress_capacity is None
    assert cfg.transport == "direct"
    assert cfg.link_capacity is None
    assert cfg.max_time is None
    assert cfg.probe is None


def test_frozen():
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.strict = False


@pytest.mark.parametrize("bad", [
    dict(link_capacity=1),                      # requires transport="hop"
    dict(transport="hop", link_capacity=0),     # capacity >= 1
    dict(object_speed_den=0),
    dict(object_speed_den=-2),
    dict(node_egress_capacity=0),               # capacity >= 1
    dict(node_egress_capacity=-1),
    dict(max_time=-1),
    dict(faults="drop=0.1"),                    # must be a FaultPlan
    dict(faults=42),
])
def test_validation(bad):
    with pytest.raises(WorkloadError):
        SimConfig(**bad)


def test_validation_messages_name_the_value():
    """validate() errors must quote the offending value (debuggability)."""
    with pytest.raises(WorkloadError, match="-3"):
        SimConfig(object_speed_den=-3)
    with pytest.raises(WorkloadError, match="-7"):
        SimConfig(max_time=-7)


def test_validate_is_public_and_idempotent():
    cfg = SimConfig(transport="hop", link_capacity=2, max_time=100)
    cfg.validate()  # explicit re-check of a valid config is a no-op
    from repro.faults import FaultPlan
    SimConfig(faults=FaultPlan(drop_prob=0.1)).validate()


def test_replace():
    cfg = SimConfig().replace(transport="hop", link_capacity=2)
    assert cfg.transport_kind == "hop" and cfg.link_capacity == 2


# -- Simulator integration ----------------------------------------------

def test_simulator_accepts_config_object():
    g, wl = _setup()
    cfg = SimConfig(object_speed_den=2, strict=False)
    sim = Simulator(g, GreedyScheduler(), wl, config=cfg)
    assert sim.config.object_speed_den == 2
    assert sim.object_speed_den == 2
    assert sim.strict is False


def test_simulator_takes_only_config():
    params = list(inspect.signature(Simulator.__init__).parameters)
    assert params == ["self", "graph", "scheduler", "workload", "config"]


@pytest.mark.parametrize("kwarg", [
    dict(object_speed_den=2),
    dict(hop_motion=True),
    dict(probe=None),
])
def test_simulator_rejects_override_kwargs(kwarg):
    g, wl = _setup()
    with pytest.raises(TypeError, match=next(iter(kwarg))):
        Simulator(g, GreedyScheduler(), wl, **kwarg)


def test_all_knobs_accepted_through_config():
    g, wl = _setup()
    sim = Simulator(
        g, GreedyScheduler(), wl,
        config=SimConfig(
            departure_policy=DeparturePolicy.LAZY,
            object_speed_den=2,
            strict=False,
            one_txn_per_node=False,
            node_egress_capacity=4,
            transport="hop",
            link_capacity=3,
            max_time=500,
        ),
    )
    cfg = sim.config
    assert cfg.departure_policy is DeparturePolicy.LAZY
    assert cfg.object_speed_den == 2
    assert cfg.strict is False
    assert cfg.node_egress_capacity == 4
    assert cfg.transport_kind == "hop" and cfg.link_capacity == 3
    assert cfg.max_time == 500
    sim.run()


def test_probe_threads_through_config():
    g, wl = _setup()
    probe = CountersProbe()
    Simulator(g, GreedyScheduler(), wl, config=SimConfig(probe=probe)).run()
    assert probe.counters["commits"] > 0


# -- run_experiment / replicate threading --------------------------------

def test_run_experiment_congested_config_end_to_end():
    """Hop transport + unit link capacity, non-strict, through
    run_experiment."""
    g = topologies.grid([4, 4])
    wl = BatchWorkload.uniform(g, num_objects=6, k=2, seed=0)
    res = run_experiment(
        g, GreedyScheduler(), wl,
        config=SimConfig(transport="hop", link_capacity=1, strict=False),
    )
    assert res.makespan > 0
    assert res.metrics.num_txns == len(res.trace.txns) > 0
    assert res.deadline_misses >= 0  # deferral accounting exposed


def test_replicate_threads_config():
    g = topologies.clique(6)

    def experiment(seed, config=None):
        wl = ClosedLoopWorkload(g, num_objects=3, k=2, rounds=2, seed=seed)
        res = run_experiment(g, GreedyScheduler(), wl, config=config)
        assert res.trace.object_speed_den == 2  # config actually arrived
        return {"makespan": res.makespan}

    aggs = replicate(experiment, [0, 1, 2], config=SimConfig(object_speed_den=2))
    assert aggs["makespan"].n == 3
