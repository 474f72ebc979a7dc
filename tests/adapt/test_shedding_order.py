"""Which component each shedding path picks when the two orders disagree.

The platform has one victim order, ``repro.faults.recovery.shed_order_key``:
the largest contract priority *number* goes first (lower number = higher
priority), name as tie-break.  The declarative ``shed_lowest_priority``
and ``rebalance`` actions use it.  The imperative ``ImportanceShedding``
rule of :mod:`repro.core.adaptation` ranks by the ``importance``
property instead.  The fleet below declares the two orders the opposite
way round, so each test pins which component its path takes.
"""

import pytest

from repro.adapt import AdaptationController
from repro.cluster import Cluster
from repro.core import AdaptationManager, ComponentState, ImportanceShedding
from repro.faults.recovery import shed_order_key
from repro.sim.engine import MSEC

from conftest import deploy, make_descriptor_xml

#: HIPRI0 outranks LOPRI0 by priority but is the *less* important one.
FLEET = {"HIPRI0": (1, 1), "LOPRI0": (4, 10)}


def fleet_xml():
    return [make_descriptor_xml(
        name, cpuusage=0.05, priority=priority,
        properties=[("importance", "Integer", str(importance))])
        for name, (priority, importance) in FLEET.items()]


@pytest.fixture
def shedding_platform(platform):
    for xml in fleet_xml():
        deploy(platform, xml)
    platform.run_for(5 * MSEC)
    return platform


def states(platform):
    return {name: platform.drcr.component_state(name) for name in FLEET}


def test_key_orders_by_priority_number_not_importance(shedding_platform):
    active = shedding_platform.drcr.registry.active()
    assert [c.name for c in sorted(active, key=shed_order_key)] \
        == ["HIPRI0", "LOPRI0"]


def test_declarative_action_sheds_largest_priority_number(
        shedding_platform):
    controller = AdaptationController(shedding_platform)
    outcome = controller.execute({"action": "shed_lowest_priority"})
    assert outcome == "shed LOPRI0"
    assert states(shedding_platform) == {
        "HIPRI0": ComponentState.ACTIVE,
        "LOPRI0": ComponentState.DISABLED}


def test_importance_shedding_suspends_lowest_importance(
        shedding_platform):
    manager = AdaptationManager(shedding_platform.framework, rules=[
        ImportanceShedding(pressure_predicate=lambda statuses: True)])
    manager.poll()
    manager.close()
    assert states(shedding_platform) == {
        "HIPRI0": ComponentState.SUSPENDED,
        "LOPRI0": ComponentState.ACTIVE}


def test_rebalance_moves_the_shedding_victim_first():
    cluster = Cluster(("node0", "node1"), seed=5)
    try:
        for xml in fleet_xml():
            cluster.deploy(xml, node="node0")
        cluster.run_for(20 * MSEC)
        controller = AdaptationController(cluster=cluster)
        outcome = controller.execute({"action": "rebalance",
                                      "node": "node0"})
        assert outcome == "rebalance node0: moved LOPRI0"
        cluster.run_for(20 * MSEC)
        assert cluster.deployments == {"HIPRI0": "node0",
                                       "LOPRI0": "node1"}
    finally:
        cluster.shutdown()
