"""The descriptor XML memo is exact over whole runs.

``ComponentDescriptor.to_xml`` renders once per placement: the text is
memoised keyed on ``contract.cpu``, because re-pinning the CPU
(``DRCR._apply_placement``) is the only write the runtime makes to a
descriptor after parsing.  These tests turn that premise into a
checked invariant over a seeded cluster run (placements, a re-pin of an
already exported descriptor, migrations, a crash and failover, a join)
and the chaos scenario of ``python -m repro --faults examples``:

* every descriptor created during the run still has every field it was
  parsed with, except ``contract.cpu``;
* every live descriptor's ``to_xml()`` equals a fresh, un-memoised
  render.
"""

import pytest

from repro.__main__ import CALC_XML, DISP_XML
from repro.cluster import Cluster
from repro.core import ComponentState
from repro.core.contracts import RealTimeContract
from repro.core.descriptor import ComponentDescriptor
from repro.core.placement import FirstFitPlacement
from repro.core.policies import UtilizationBoundPolicy
from repro.core.snapshot import export_state
from repro.faults import FaultEngine, example_plan
from repro.platform import build_platform
from repro.sim.engine import MSEC, SEC

from conftest import make_descriptor_xml

PORT = ("MEMO00", "RTAI.SHM", "Integer", 2)


def fields(descriptor):
    """Every parsed field of a descriptor and its contract."""
    contract = descriptor.contract
    own = {key: value for key, value in vars(descriptor).items()
           if key not in ("contract", "ports", "properties", "_xml_memo")}
    return {
        "descriptor": own,
        "ports": [{slot: getattr(port, slot)
                   for slot in ("name", "direction", "interface",
                                "data_type", "size")}
                  for port in descriptor.ports],
        "properties": [(prop.name, prop.type_name, prop.value)
                       for prop in descriptor.properties.values()],
        "contract": {slot: getattr(contract, slot)
                     for slot in RealTimeContract.__slots__
                     if slot != "stochastic"},
        "stochastic": (contract.stochastic.as_dict()
                       if contract.stochastic is not None else None),
    }


@pytest.fixture
def parsed(monkeypatch):
    """``[(descriptor, fields at construction)]`` for every descriptor
    built while the test runs."""
    created = []
    construct = ComponentDescriptor.__init__

    def recording(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        created.append((self, fields(self)))
    monkeypatch.setattr(ComponentDescriptor, "__init__", recording)
    return created


def check_invariant(created, live):
    """Only ``contract.cpu`` moved; memoised text == a fresh render.
    Returns how many descriptors were re-pinned."""
    assert created and live
    moved = 0
    for descriptor, before in created:
        after = fields(descriptor)
        moved += before["contract"].pop("cpu") \
            != after["contract"].pop("cpu")
        assert after == before, descriptor.name
    for descriptor in live:
        assert descriptor.to_xml() == descriptor._render_xml(), \
            descriptor.name
    return moved


def test_cluster_run_writes_only_the_placed_cpu(parsed):
    cluster = Cluster(("node0", "node1", "node2"), seed=23, num_cpus=2,
                      internal_policy_factory=lambda:
                          UtilizationBoundPolicy(cap=0.5),
                      heartbeat_interval_ns=10 * MSEC, miss_limit=3)
    try:
        run = cluster.run_for
        cluster.deploy_application("pipe", [
            make_descriptor_xml("PROV00", cpuusage=0.1, frequency=50,
                                outports=[PORT]),
            make_descriptor_xml("CONS00", cpuusage=0.05, frequency=50,
                                inports=[PORT],
                                properties=[("gain", "Integer", "1")])],
            node="node0")
        for index in range(6):
            cluster.deploy(make_descriptor_xml(
                "COMP%02d" % index, cpuusage=0.05 + 0.02 * index,
                frequency=20 + 5 * index, priority=3 + index))
        # BIG000 is placed on CPU 1, refused, exported, then re-pinned
        # to CPU 0 by a placement swap: its memo must follow.
        for name, usage in (("LOAD00", 0.3), ("LOAD01", 0.2),
                            ("BIG000", 0.4)):
            cluster.deploy(make_descriptor_xml(
                name, cpuusage=usage, frequency=20), node="node2")
        run(60 * MSEC)
        big = cluster.node("node2").drcr.component("BIG000")
        assert big.contract.cpu == 1
        assert 'runoncpu="1"' in big.descriptor.to_xml()
        cluster.node("node2").drcr.set_placement_service(
            FirstFitPlacement())
        assert big.state is ComponentState.UNSATISFIED
        assert big.contract.cpu == 0
        cluster.manage("CONS00", "set_property", "gain", 4)
        cluster.migrate("COMP01")
        cluster.migrate("COMP04")
        run(50 * MSEC)
        cluster.add_node("node3")
        cluster.crash_node("node0")
        run(200 * MSEC)
        assert cluster.membership.is_dead("node0")
        live = [component.descriptor for node in cluster.alive_nodes()
                for component in node.drcr.registry.all()]
        assert {"PROV00", "CONS00"} <= {d.name for d in live}
        assert check_invariant(parsed, live) >= 2
    finally:
        cluster.shutdown()


def test_chaos_run_writes_only_the_placed_cpu(parsed):
    # The --faults examples run: crash, overrun and watchdog eviction,
    # quarantine and re-admission, mailbox flood, resolver timeout.
    platform = build_platform(seed=2008)
    platform.start_timer(1 * MSEC)
    FaultEngine(platform, example_plan()).arm()
    for name, xml in (("demo.calc", CALC_XML), ("demo.disp", DISP_XML)):
        platform.install_and_start(
            {"Bundle-SymbolicName": name,
             "RT-Component": "OSGI-INF/c.xml"},
            resources={"OSGI-INF/c.xml": xml})
    exports = []
    for _ in range(10):
        platform.run_for(SEC // 10)
        exports.append(export_state(platform.drcr))
    live = [component.descriptor
            for component in platform.drcr.registry.all()]
    check_invariant(parsed, live)
    assert [entry["descriptor_xml"] for entry in exports[-1]
            ["components"]] == [d._render_xml() for d in live]
