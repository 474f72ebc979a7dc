"""Change-driven snapshot versions of a cluster node.

``ClusterNode.snapshot_version`` rebuilds and diffs the node's export
only after the DRCR registry's ``change_mark`` moved.  The version must
keep its meaning -- it moves iff the export differs from the cached
copy when it is observed -- so these tests pin:

* the version on one node: stable while nothing changes, bumped by
  every kind of write that feeds the export, not bumped by a write
  that leaves the export as it was;
* the mark itself: every write path that can change the export moves
  it (registry membership and lifecycle state, placement, application
  groups, live-property writes);
* an oracle over a seeded federation run (deploys, an application, a
  migration, a crash and failover, a join, management writes, a
  placement swap and implementations that write live properties from
  ``compute_ns`` and ``on_command``): whenever the gate is closed at
  an observation, a fresh export equals the cached snapshot.

Needs pytest only (no Hypothesis): the cluster smoke job runs it.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.node import ClusterNode
from repro.cluster.transport import MessageTransport
from repro.core import ComponentState
from repro.core.application import ApplicationDescriptor
from repro.core.component import DRComComponent, LifecycleToken
from repro.core.descriptor import ComponentDescriptor
from repro.core.placement import BestFitPlacement, FirstFitPlacement
from repro.core.policies import UtilizationBoundPolicy
from repro.core.registry import ComponentRegistry
from repro.hybrid.container import make_container_factory
from repro.hybrid.context import LiveProperties
from repro.hybrid.implementation import (
    ImplementationRegistry,
    RTImplementation,
)
from repro.rtos.kernel import KernelConfig
from repro.sim.engine import MSEC, Simulator

from conftest import make_descriptor_xml

QUIET = "test.snapshot.Quiet"
WRITER = "test.snapshot.Writer"


class Quiet(RTImplementation):
    """Burns its WCET and writes no property."""


class Writer(RTImplementation):
    """Writes live properties from ``compute_ns`` -- visible while the
    job computes, before ``execute`` -- and from ``on_command``."""

    def compute_ns(self, ctx):
        ctx.properties["jobs"] = ctx.properties.get("jobs", 0) + 1
        return super().compute_ns(ctx)

    def on_command(self, ctx, command):
        ctx.properties["commands"] = ctx.properties.get("commands", 0) + 1
        return None


def container_factory():
    implementations = ImplementationRegistry()
    implementations.register(QUIET, Quiet)
    implementations.register(WRITER, Writer)
    return make_container_factory(implementation_registry=implementations)


def entry(xml):
    descriptor = ComponentDescriptor.from_xml(xml)
    return {"name": descriptor.name, "descriptor_xml": xml,
            "state": ComponentState.ACTIVE.value, "bundle": None}


def make_node(num_cpus=1, **kwargs):
    sim = Simulator(seed=5)
    node = ClusterNode("node0", sim, MessageTransport(sim),
                       kernel_config=KernelConfig(num_cpus=num_cpus),
                       container_factory=container_factory(), **kwargs)
    node.start_timer(MSEC)
    return node


def fresh(node):
    return {"components": node.export_entries(),
            "applications": node.drcr.applications()}


def deploy(node, name, bincode=QUIET, **kwargs):
    kwargs.setdefault("frequency", 100)
    node.management.deploy_entry(entry(make_descriptor_xml(
        name, bincode=bincode, **kwargs)))
    node.run_for(2 * MSEC)


def component_entry(node, name):
    _version, snapshot = node.snapshot()
    return next(item for item in snapshot["components"]
                if item["name"] == name)


class TestSnapshotVersion:
    def test_stable_while_nothing_changes(self):
        node = make_node()
        deploy(node, "QUIE00", properties=[("gain", "Integer", "1")])
        version, snapshot = node.snapshot()
        node.run_for(50 * MSEC)  # five quiet jobs
        for _ in range(3):
            assert node.snapshot() == (version, snapshot)
        assert node.snapshot()[1] is snapshot

    def test_deploy_and_undeploy_bump(self):
        node = make_node()
        empty = node.snapshot_version()
        deploy(node, "QUIE00")
        deployed = node.snapshot_version()
        assert deployed > empty
        node.management.undeploy("QUIE00")
        assert node.snapshot_version() > deployed
        assert node.snapshot()[1]["components"] == []

    def test_suspend_and_resume_bump(self):
        node = make_node()
        deploy(node, "QUIE00")
        active = node.snapshot_version()
        node.management.manage("QUIE00", "suspend")
        suspended = node.snapshot_version()
        assert suspended > active
        assert component_entry(node, "QUIE00")["state"] == "suspended"
        node.management.manage("QUIE00", "resume")
        assert node.snapshot_version() > suspended
        assert component_entry(node, "QUIE00")["state"] == "active"

    def test_placement_change_alone_bumps(self):
        # Under a 0.5 per-CPU admission cap, BIG00 is re-pinned to
        # CPU 1 and refused.  Swapping the placement service re-pins
        # it to CPU 0 and admission refuses it again: no lifecycle
        # state moves, only the exported runoncpu does.
        node = make_node(num_cpus=2,
                         internal_policy=UtilizationBoundPolicy(cap=0.5),
                         placement=BestFitPlacement())
        deploy(node, "LOAD00", cpuusage=0.3)
        deploy(node, "LOAD01", cpuusage=0.2)
        deploy(node, "BIG000", cpuusage=0.4)
        assert node.drcr.component_state("BIG000") \
            is ComponentState.UNSATISFIED
        before = node.snapshot_version()
        assert 'runoncpu="1"' in \
            component_entry(node, "BIG000")["descriptor_xml"]
        node.drcr.set_placement_service(FirstFitPlacement())
        assert node.drcr.component_state("BIG000") \
            is ComponentState.UNSATISFIED
        assert node.snapshot_version() == before + 1
        assert 'runoncpu="0"' in \
            component_entry(node, "BIG000")["descriptor_xml"]

    def test_job_that_writes_a_property_bumps(self):
        node = make_node()
        deploy(node, "WRIT00", bincode=WRITER)
        node.run_for(10 * MSEC)  # the first job
        version = node.snapshot_version()
        jobs = component_entry(node, "WRIT00")["properties"]["jobs"]
        node.run_for(10 * MSEC)  # one 100 Hz job
        assert node.snapshot_version() == version + 1
        assert component_entry(node, "WRIT00")["properties"]["jobs"] \
            == jobs + 1

    def test_set_property_to_a_new_value_bumps(self):
        node = make_node()
        deploy(node, "QUIE00", properties=[("gain", "Integer", "1")])
        version = node.snapshot_version()
        node.management.manage("QUIE00", "set_property", "gain", 7)
        node.run_for(20 * MSEC)  # the RT task polls at its next job
        assert node.snapshot_version() == version + 1
        assert component_entry(node, "QUIE00")["properties"]["gain"] == 7

    def test_set_property_to_the_same_value_does_not_bump(self):
        node = make_node()
        deploy(node, "QUIE00", properties=[("gain", "Integer", "1")])
        version = node.snapshot_version()
        mark = node.drcr.registry.change_mark
        node.management.manage("QUIE00", "set_property", "gain", 1)
        node.run_for(20 * MSEC)
        # The write opened the gate; the diff found nothing.
        assert node.drcr.registry.change_mark > mark
        assert node.snapshot_version() == version

    def test_application_groups_alone_bump(self):
        # Group writes that move no component: a regrouping, dropping
        # a group whose members are gone, and a bundle stop forgetting
        # member-less groups.
        node = make_node()
        deploy(node, "QUIE00")
        bundle = node.framework.install_bundle(
            {"Bundle-SymbolicName": "test.empty"})
        bundle.start()
        version = node.snapshot_version()
        node.drcr.define_application("grp", ["QUIE00"])
        node.drcr.define_application("gone", ["GONE00"])
        node.drcr.define_application("ghost", ["GHOS00"])
        assert node.snapshot_version() == version + 1
        assert node.snapshot()[1]["applications"] == {
            "grp": ["QUIE00"], "gone": ["GONE00"], "ghost": ["GHOS00"]}
        node.drcr.unregister_application("gone")
        assert node.snapshot_version() == version + 2
        bundle.stop()
        assert node.snapshot_version() == version + 3
        assert node.snapshot()[1]["applications"] == {"grp": ["QUIE00"]}


class TestChangeMark:
    """Every write that can alter the export moves the mark."""

    def make_component(self, name="MARK00"):
        descriptor = ComponentDescriptor.from_xml(make_descriptor_xml(name))
        return DRComComponent(descriptor, None, LifecycleToken("t"))

    def test_registry_membership_and_state(self):
        registry = ComponentRegistry()
        component = self.make_component()
        marks = [registry.change_mark]
        registry.add(component)
        marks.append(registry.change_mark)
        component.state = ComponentState.UNSATISFIED
        marks.append(registry.change_mark)
        component.note_change()
        marks.append(registry.change_mark)
        registry.remove(component)
        marks.append(registry.change_mark)
        assert marks == sorted(set(marks)), marks
        component.note_change()  # unregistered: a no-op
        assert registry.change_mark == marks[-1]

    @pytest.mark.parametrize("write", [
        lambda props: props.__setitem__("a", 2),
        lambda props: props.__delitem__("a"),
        lambda props: props.setdefault("b", 3),
        lambda props: props.update(b=3),
        lambda props: props.__ior__({"b": 3}),
        lambda props: props.pop("a"),
        lambda props: props.popitem(),
        lambda props: props.clear(),
    ])
    def test_live_property_writes(self, write):
        calls = []
        props = LiveProperties({"a": 1}, lambda: calls.append(1))
        write(props)
        assert calls == [1]
        assert type(dict(props)) is dict

    def test_application_writes(self, platform):
        drcr = platform.drcr
        registry = drcr.registry

        def moved(action):
            mark = registry.change_mark
            action()
            return registry.change_mark > mark

        # register_application needs no mark of its own: its members'
        # registration and activation move the mark in the same call.
        application = ApplicationDescriptor("pair", [
            ComponentDescriptor.from_xml(
                make_descriptor_xml("APPM00", cpuusage=0.01))])
        assert moved(lambda: drcr.register_application(application))
        assert moved(lambda: drcr.unregister_application("pair"))
        assert moved(lambda: drcr.define_application("grp", ["X"]))
        assert moved(lambda: drcr.unregister_application("grp"))


# ----------------------------------------------------------------------
# the oracle: a closed gate never hides a change
# ----------------------------------------------------------------------
PORT = ("SNAP00", "RTAI.SHM", "Integer", 2)


def _watch(node, log):
    """Wrap one node's ``snapshot_version``: at every observation with a
    closed gate, a fresh export must equal the cached snapshot."""
    observe = node.snapshot_version

    def checked():
        closed = node._snapshot_mark == node.drcr.registry.change_mark
        version = observe()
        log["observations"] += 1
        if closed:
            log["closed"] += 1
            if fresh(node) != node._snapshot_cache:
                log["stale"].append((node.sim.now, node.name))
        return version
    node.snapshot_version = checked


def test_closed_gate_never_hides_a_change():
    log = {"observations": 0, "closed": 0, "stale": []}
    cluster = Cluster(("node0", "node1", "node2"), seed=11, num_cpus=2,
                      internal_policy_factory=lambda:
                          UtilizationBoundPolicy(cap=0.5),
                      container_factory=container_factory(),
                      heartbeat_interval_ns=10 * MSEC, miss_limit=3)
    try:
        for node in cluster.nodes.values():
            _watch(node, log)
        run = cluster.run_for
        # A wired application (synthetic bodies write every job), a
        # writer, quiet components with properties, a placement probe.
        cluster.deploy_application("pipe", [
            make_descriptor_xml("PROV00", cpuusage=0.1, frequency=50,
                                outports=[PORT]),
            make_descriptor_xml("CONS00", cpuusage=0.05, frequency=50,
                                inports=[PORT])], node="node0")
        cluster.deploy(make_descriptor_xml(
            "WRIT00", bincode=WRITER, cpuusage=0.05, frequency=40),
            node="node1")
        cluster.deploy(make_descriptor_xml(
            "QUIE00", bincode=QUIET, cpuusage=0.05, frequency=25,
            properties=[("gain", "Integer", "1")]), node="node1")
        for name, usage in (("LOAD00", 0.3), ("LOAD01", 0.2),
                            ("BIG000", 0.4)):
            cluster.deploy(make_descriptor_xml(
                name, bincode=QUIET, cpuusage=usage, frequency=20),
                node="node2")
        cluster.deploy(make_descriptor_xml(
            "QUIE01", bincode=QUIET, cpuusage=0.05, frequency=25),
            node="node2")
        run(60 * MSEC)
        # Management writes: a new value, the same value, a command
        # the writer's on_command sees; suspend and resume.
        cluster.manage("QUIE00", "set_property", "gain", 5)
        cluster.manage("QUIE00", "set_property", "gain", 5)
        cluster.manage("WRIT00", "set_property", "level", 3)
        run(45 * MSEC)
        cluster.manage("QUIE01", "suspend")
        run(35 * MSEC)
        cluster.manage("QUIE01", "resume")
        run(35 * MSEC)
        # Operator-side writes on one node that move no component:
        # group edits and a placement swap that re-pins the refused
        # BIG000 only.
        drcr = cluster.node("node2").drcr
        bundle = cluster.node("node2").framework.install_bundle(
            {"Bundle-SymbolicName": "test.empty"})
        bundle.start()
        drcr.define_application("quiet", ["QUIE01"])
        drcr.define_application("gone", ["GONE00"])
        run(25 * MSEC)
        drcr.define_application("ghost", ["GHOS00"])
        run(25 * MSEC)
        drcr.unregister_application("gone")
        run(25 * MSEC)
        bundle.stop()  # forgets the member-less "ghost"
        run(25 * MSEC)
        big = drcr.component("BIG000")
        assert big.state is ComponentState.UNSATISFIED
        assert big.contract.cpu == 1
        drcr.set_placement_service(FirstFitPlacement())
        run(25 * MSEC)
        # A migration, a join, then a crash and its failover.
        cluster.migrate("QUIE00", "node2")
        run(40 * MSEC)
        cluster.add_node("node3")
        _watch(cluster.node("node3"), log)
        run(30 * MSEC)
        cluster.crash_node("node0")
        run(150 * MSEC)
        cluster.manage("CONS00", "set_property", "gain", 9)
        run(60 * MSEC)

        assert cluster.membership.is_dead("node0")
        survivors = [cluster.node(name) for name in ("node1", "node2",
                                                     "node3")]
        homes = {component.name: node.name for node in survivors
                 for component in node.drcr.registry.all()}
        assert homes["PROV00"] == homes["CONS00"] != "node0"
        assert homes["QUIE00"] == "node2"
        assert big.state is ComponentState.UNSATISFIED
        assert big.contract.cpu == 0
        assert drcr.applications() == {"quiet": ["QUIE01"]}
    finally:
        cluster.shutdown()
    assert log["stale"] == []
    # The gate was exercised both ways.
    assert log["closed"] > 100
    assert log["observations"] - log["closed"] > 50
