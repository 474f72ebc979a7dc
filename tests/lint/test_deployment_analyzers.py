"""DRT6xx: deployment-plan analyzers.

Covers the plan parser (DRT600), the per-node hosting replay
(DRT601), N-1 failover capacity (DRT602), cross-node wiring
(DRT603), management-path latency (DRT604), and the rules-vs-topology
checks (DRT605/DRT606) -- plus the acceptance loops: every
``generate_defective_plan`` kind trips exactly its code, the
committed example plan is clean, and a live ``Cluster.export_plan()``
round-trips through the linter with zero DRT6xx findings.  The
incremental path (``PlanLintCache`` memo keys, the DRT602 headroom
shortcut) is checked against the cache-free one.
"""

import copy
import itertools
import json
import os
import random

import pytest

from repro.cluster.federation import Cluster
from repro.core.descriptor import ComponentDescriptor, ComponentProperty
from repro.core.ports import PortDirection, PortSpec
from repro.lint import Severity, deployment, lint_paths, lint_plan
from repro.lint.deployment import (
    PLAN_SCHEMA_VERSION, PlanLintCache, check_plan, lint_plan_source,
    looks_like_plan_file, parse_plan)
from repro.rtos.task import TaskType
from repro.sim.rng import RandomStreams
from repro.workloads import (
    PLAN_DEFECT_CODES, generate_component_set, generate_defective_plan)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXAMPLE_PLAN = os.path.join(REPO, "examples", "cluster_plan.json")


def xml(name, cpu_usage, frequency_hz=10.0, priority=10, cpu=0,
        deadline_ns=None, ports=(), properties=(), enabled=True):
    return ComponentDescriptor(
        name=name, implementation="test.%s" % name,
        task_type=TaskType.PERIODIC, cpu_usage=cpu_usage,
        frequency_hz=frequency_hz, priority=priority, cpu=cpu,
        deadline_ns=deadline_ns, ports=ports,
        properties=properties, enabled=enabled).to_xml()


def pinned(name, cpu_usage, cpu=0, priority=10):
    return xml(name, cpu_usage, cpu=cpu, priority=priority,
               properties=(ComponentProperty(
                   "drcom.placement", "String", "pinned"),))


def outport(name):
    return PortSpec(name, PortDirection.OUT, "RTAI.SHM", "Integer", 2)


def inport(name):
    return PortSpec(name, PortDirection.IN, "RTAI.SHM", "Integer", 2)


def plan_with(nodes=2, **extra):
    document = {
        "plan_version": PLAN_SCHEMA_VERSION,
        "nodes": [{"name": "node%d" % i, "num_cpus": 1}
                  for i in range(nodes)],
        "deployments": [],
    }
    document.update(extra)
    return document


def codes(result, family=None):
    found = [d.code for d in result.diagnostics]
    if family is not None:
        found = [c for c in found if c.startswith(family)]
    return sorted(set(found))


def deployment_findings(document):
    return lint_plan(document, families=("deployment",))


class TestPlanSniffing:
    def test_plan_version_marks_a_plan(self):
        assert looks_like_plan_file('{"plan_version": 1}')

    def test_nodes_plus_deployments_marks_a_plan(self):
        assert looks_like_plan_file(
            '{"nodes": [], "deployments": []}')

    def test_rule_documents_and_junk_are_not_plans(self):
        assert not looks_like_plan_file(
            '{"schema_version": 1, "rules": []}')
        assert not looks_like_plan_file("[1, 2]")
        assert not looks_like_plan_file("not json")


class TestPlanParsing:
    def test_invalid_json_is_drt600(self):
        diagnostics, units, sources = lint_plan_source("{nope")
        assert [d.code for d in diagnostics] == ["DRT600"]
        assert (units, sources) == (1, 1)

    def test_non_object_plan_is_drt600(self):
        result = deployment_findings(["not", "a", "plan"])
        assert codes(result) == ["DRT600"]

    @pytest.mark.parametrize("mutate, needle", [
        (lambda p: p.update(plan_version=99), "unsupported"),
        (lambda p: p.update(gremlins=1), "unknown top-level"),
        (lambda p: p.update(cap=-1.0), "'cap'"),
        (lambda p: p["nodes"].append({"name": "control"}), "reserved"),
        (lambda p: p["nodes"].append({"name": "node0"}), "duplicate"),
        (lambda p: p["nodes"].append(
            {"name": "nodeX", "num_cpus": 0}), "num_cpus"),
        (lambda p: p["deployments"].append(
            {"node": "ghost", "components": []}), "unknown node"),
        (lambda p: p.update(links=[
            {"src": "node0", "dst": "ghost"}]), "unknown endpoint"),
        (lambda p: p.update(links=[
            {"src": "node0", "dst": "node1",
             "latency_ns": -5}]), "links[0]"),
        (lambda p: p.update(applications={"app": ["GHOST0"]}),
         "no node deploys"),
    ])
    def test_schema_problems_are_drt600(self, mutate, needle):
        document = plan_with()
        mutate(document)
        result = deployment_findings(document)
        assert "DRT600" in codes(result)
        assert any(needle in d.message for d in result.diagnostics
                   if d.code == "DRT600")

    def test_duplicate_home_is_drt600(self):
        document = plan_with()
        text = xml("DUP000", 0.1)
        document["deployments"] = [
            {"node": "node0", "components": [{"xml": text}]},
            {"node": "node1", "components": [{"xml": text}]},
        ]
        result = deployment_findings(document)
        assert codes(result) == ["DRT600"]
        assert "both" in result.diagnostics[0].message

    def test_relative_source_without_base_dir_is_drt600(self):
        document = plan_with()
        document["deployments"] = [
            {"node": "node0", "components": ["nearby.xml"]}]
        result = deployment_findings(document)
        assert codes(result) == ["DRT600"]
        assert "no on-disk location" in result.diagnostics[0].message

    def test_unparseable_descriptor_is_excluded_not_fatal(self):
        document = plan_with()
        document["deployments"] = [
            {"node": "node0",
             "components": [{"xml": "<broken"},
                            {"xml": xml("OKC000", 0.1)}]}]
        result = deployment_findings(document)
        assert codes(result) == ["DRT600"]
        assert "excluded" in result.diagnostics[0].message


class TestHosting:
    def test_best_fit_spreads_over_cpus(self):
        document = plan_with(nodes=1)
        document["nodes"][0]["num_cpus"] = 2
        document["deployments"] = [{"node": "node0", "components": [
            {"xml": xml("FIT%03d" % i, 0.4, priority=10 + i)}
            for i in range(3)]}]
        assert codes(deployment_findings(document)) == []

    def test_pinned_beyond_cpu_count_is_drt601(self):
        document = plan_with(nodes=1)
        document["deployments"] = [{"node": "node0", "components": [
            {"xml": pinned("PIN000", 0.1, cpu=2)}]}]
        result = deployment_findings(document)
        assert codes(result) == ["DRT601"]
        assert "pinned to CPU 2" in result.diagnostics[0].message

    def test_pinned_oversubscription_is_drt601(self):
        document = plan_with(nodes=1)
        document["deployments"] = [{"node": "node0", "components": [
            {"xml": pinned("PIN000", 0.6)},
            {"xml": pinned("PIN001", 0.6, priority=11)}]}]
        result = deployment_findings(document)
        assert [d.code for d in result.diagnostics] == ["DRT601"]
        assert result.diagnostics[0].component == "PIN001"


class TestFailoverCapacity:
    def test_single_node_plans_skip_n1(self):
        document = plan_with(nodes=1)
        document["deployments"] = [{"node": "node0", "components": [
            {"xml": xml("ONE000", 0.9)}]}]
        assert codes(deployment_findings(document)) == []

    def test_application_groups_move_whole(self):
        # Two 0.3 members fit 0.45-loaded survivors separately, but
        # as one application group (0.6) neither survivor fits.
        document = plan_with(nodes=3)
        document["deployments"] = [
            {"node": "node0", "components": [
                {"xml": xml("GRP000", 0.3)},
                {"xml": xml("GRP001", 0.3, priority=11)}]},
            {"node": "node1", "components": [
                {"xml": xml("PAD000", 0.45)}]},
            {"node": "node2", "components": [
                {"xml": xml("PAD001", 0.45)}]},
        ]
        assert codes(deployment_findings(document)) == []
        document["applications"] = {"grp": ["GRP000", "GRP001"]}
        result = deployment_findings(document)
        assert codes(result) == ["DRT602"]
        assert "GRP000, GRP001" in result.diagnostics[0].component


class TestFailoverShortcut:
    """With a cache, DRT602 skips a loss when every survivor's headroom
    covers the lost node's whole load (plus a float margin); the
    cache-free path replays every loss.  ``cluster_ops`` never yields
    a DRT602, so these plans are the shortcut's coverage: on each one
    the two paths must give the same diagnostics."""

    @staticmethod
    def both(document):
        plan, _ = parse_plan(document)
        exact = [d.as_dict() for d in check_plan(plan)]
        cached = [d.as_dict() for d in check_plan(plan, PlanLintCache())]
        return exact, cached

    @staticmethod
    def random_plan(rng, serial):
        nodes = [{"name": "node%d" % index,
                  "num_cpus": rng.randint(1, 4),
                  "cap": rng.choice((0.4, 0.6, 0.75, 0.9, 1.0))}
                 for index in range(rng.choice((1, 2, 2, 3, 4, 5)))]
        deployments = []
        names = []
        for node in nodes:
            components = []
            for _ in range(rng.randint(0, 5)):
                name = "SH%04d" % next(serial)
                names.append(name)
                components.append({"xml": xml(
                    name, rng.choice((0.05, 0.1, 0.2, 0.35, 0.5, 0.8)),
                    enabled=rng.random() > 0.15)})
            if components:
                deployments.append({"node": node["name"],
                                    "components": components})
        applications = {}
        for index in range(rng.randint(0, 3)):
            if len(names) >= 2:
                # Random samples overlap, so groups merge transitively.
                applications["app%d" % index] = rng.sample(
                    names, min(len(names), rng.randint(2, 4)))
        return {"plan_version": PLAN_SCHEMA_VERSION, "nodes": nodes,
                "deployments": deployments, "applications": applications}

    @staticmethod
    def threshold_plan(delta, grouped, survivors):
        """The lost node ``node0`` carries 0.3 + 0.25; each survivor's
        headroom is that load plus ``delta``."""
        lost = [0.3, 0.25]
        load = sum(lost)
        nodes = [{"name": "node0", "num_cpus": 2, "cap": 1.0}]
        deployments = [{"node": "node0", "components": [
            {"xml": xml("LOST%02d" % index, usage, priority=10 + index)}
            for index, usage in enumerate(lost)]}]
        for index in range(1, survivors + 1):
            base = 0.1 * index
            nodes.append({"name": "node%d" % index, "num_cpus": 1,
                          "cap": base + load + delta})
            deployments.append({"node": "node%d" % index, "components": [
                {"xml": xml("BASE%02d" % index, base)}]})
        document = {"plan_version": PLAN_SCHEMA_VERSION, "nodes": nodes,
                    "deployments": deployments}
        if grouped:
            document["applications"] = {"lost": ["LOST00", "LOST01"]}
        return document

    @pytest.fixture
    def replays(self, monkeypatch):
        """Counts exact replays (one group split per replayed loss)."""
        count = [0]
        group = deployment._group_components

        def counted(members, applications):
            count[0] += 1
            return group(members, applications)

        monkeypatch.setattr(deployment, "_group_components", counted)
        return count

    def test_random_plans_agree_with_the_exact_replay(self, replays):
        rng = random.Random(602)
        serial = itertools.count()
        flagged = exact_replays = 0
        for _ in range(300):
            document = self.random_plan(rng, serial)
            plan, _ = parse_plan(document)
            before = replays[0]
            exact = [d.as_dict() for d in check_plan(plan)]
            exact_replays += replays[0] - before
            cached = [d.as_dict()
                      for d in check_plan(plan, PlanLintCache())]
            assert cached == exact, document
            flagged += any(d["code"] == "DRT602" for d in exact)
        # Both branches ran: some losses strand a group, and the
        # shortcut skipped a good share of the replays.
        assert flagged >= 20
        assert replays[0] - exact_replays < 0.8 * exact_replays

    @pytest.mark.parametrize("survivors", [1, 2])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_loads_at_the_shortcut_threshold(self, grouped, survivors):
        outcomes = set()
        for delta in (-2e-9, -1e-9, -5e-10, -1e-11, 0.0, 1e-11, 5e-10,
                      1e-9, 1.5e-9, 2e-9):
            exact, cached = self.both(
                self.threshold_plan(delta, grouped, survivors))
            assert cached == exact, delta
            outcomes.add(any(d["code"] == "DRT602" for d in exact))
        # Below the threshold a single survivor, or one group, strands;
        # two survivors split two single groups between them.
        assert outcomes == ({False} if survivors == 2 and not grouped
                            else {True, False})

    def test_the_lost_node_is_no_survivor(self):
        # node1 is the tightest node and node0 the only other one: when
        # node0 is lost, node1 is its only survivor, whatever node0's
        # own headroom.
        document = plan_with()
        document["nodes"][0]["num_cpus"] = 4
        document["deployments"] = [
            {"node": "node0", "components": [{"xml": xml("ROOMY0", 0.5)}]},
            {"node": "node1", "components": [{"xml": xml("TIGHT0", 0.7)}]}]
        exact, cached = self.both(document)
        assert cached == exact
        assert [d["component"] for d in exact
                if d["code"] == "DRT602"] == ["ROOMY0"]


class TestCrossNodeWiring:
    def wired_plan(self):
        document = plan_with()
        document["deployments"] = [
            {"node": "node0", "components": [
                {"xml": xml("SRC000", 0.1, ports=[outport("PRT000")])}
            ]},
            {"node": "node1", "components": [
                {"xml": xml("SNK000", 0.1, ports=[inport("PRT000")])}
            ]},
        ]
        return document

    def test_cross_node_only_provider_is_drt603(self):
        result = deployment_findings(self.wired_plan())
        assert codes(result) == ["DRT603"]
        assert result.diagnostics[0].component == "SNK000"

    def test_split_application_subsumes_member_findings(self):
        document = self.wired_plan()
        document["applications"] = {"wapp": ["SRC000", "SNK000"]}
        result = deployment_findings(document)
        assert [d.code for d in result.diagnostics] == ["DRT603"]
        assert result.diagnostics[0].component == "wapp"

    def test_same_node_provider_silences_the_inport(self):
        document = self.wired_plan()
        document["deployments"][1]["components"].append(
            {"xml": xml("SRC001", 0.1, priority=11,
                        ports=[outport("PRT000")])})
        assert codes(deployment_findings(document)) == []


class TestRulesAgainstTopology:
    def rules_plan(self, rules):
        document = plan_with()
        document["rules"] = [{"document": {
            "schema_version": 1, "rules": rules}}]
        return document

    def migrate_rule(self, name, dst, threshold, op=">"):
        return {"name": name, "priority": 10,
                "when": {"param": "deadline_miss_rate", "op": op,
                         "value": threshold, "for_epochs": 2},
                "then": [{"action": "migrate", "component": "TGT000",
                          "dst": dst}],
                "cooldown_ns": 100_000_000}

    def test_overlapping_migrations_are_drt606(self):
        result = deployment_findings(self.rules_plan([
            self.migrate_rule("go-left", "node0", 0.05),
            self.migrate_rule("go-right", "node1", 0.10)]))
        assert codes(result) == ["DRT606"]
        assert result.diagnostics[0].component == "TGT000"

    def test_disjoint_conditions_cannot_ping_pong(self):
        result = deployment_findings(self.rules_plan([
            self.migrate_rule("calm", "node0", 0.01, op="<"),
            self.migrate_rule("storm", "node1", 0.50, op=">")]))
        assert codes(result) == []

    def test_same_destination_cannot_ping_pong(self):
        result = deployment_findings(self.rules_plan([
            self.migrate_rule("one", "node0", 0.05),
            self.migrate_rule("two", "node0", 0.10)]))
        assert codes(result) == []

    def test_orphan_scope_and_target_are_drt605(self):
        result = deployment_findings(self.rules_plan([{
            "name": "ghost-drain", "priority": 10,
            "when": {"param": "deadline_miss_rate", "op": ">",
                     "value": 0.05, "node": "node9", "for_epochs": 2},
            "then": [{"action": "rebalance", "node": "node9",
                      "count": 1}],
            "cooldown_ns": 100_000_000}]))
        assert [d.code for d in result.diagnostics] \
            == ["DRT605", "DRT605"]

    def test_rule_parse_problems_belong_to_drt5xx(self):
        document = plan_with()
        document["rules"] = [{"document": {"schema_version": 1,
                                           "rules": "nope"}}]
        result = deployment_findings(document)
        assert codes(result) == []
        everything = lint_plan(document)
        assert any(c.startswith("DRT5")
                   for c in codes(everything))


class TestDefectivePlans:
    @pytest.mark.parametrize("kind", sorted(PLAN_DEFECT_CODES))
    def test_each_kind_trips_exactly_its_code(self, kind):
        document, expected = generate_defective_plan(kind)
        assert expected == PLAN_DEFECT_CODES[kind]
        result = deployment_findings(document)
        assert codes(result) == [expected]

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            generate_defective_plan("gremlins")

    @pytest.mark.parametrize("kind", sorted(PLAN_DEFECT_CODES))
    def test_defective_plans_parse_cleanly(self, kind):
        document, _ = generate_defective_plan(kind)
        result = deployment_findings(document)
        assert "DRT600" not in codes(result)


class TestPlanFilesOnDisk:
    def test_relative_sources_resolve_against_the_plan_dir(
            self, tmp_path):
        (tmp_path / "src.xml").write_text(
            xml("SRC000", 0.1, ports=[outport("PRT000")]))
        (tmp_path / "guard.rules.json").write_text(json.dumps({
            "schema_version": 1, "rules": [{
                "name": "guard", "priority": 10,
                "when": {"param": "deadline_miss_rate", "op": ">",
                         "value": 0.05, "for_epochs": 2},
                "then": [{"action": "rebalance", "node": "node0",
                          "count": 1}],
                "cooldown_ns": 100_000_000}]}))
        plan = plan_with()
        plan["deployments"] = [
            {"node": "node0", "components": ["src.xml"]},
            {"node": "node1",
             "components": [{"xml": xml("SNK000", 0.1)}]}]
        plan["rules"] = ["guard.rules.json"]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        result = lint_paths([str(plan_path)])
        assert codes(result, family="DRT6") == []
        # plan + two node units + one rule unit
        assert result.units == 4
        assert result.sources == 4

    def test_example_plan_is_clean_across_all_families(self):
        result = lint_paths([EXAMPLE_PLAN])
        assert result.diagnostics == []


class TestExportPlanRoundTrip:
    def test_live_fleet_exports_a_lint_clean_plan(self):
        cluster = Cluster(
            node_names=("node0", "node1", "node2"), seed=7)
        try:
            rng = RandomStreams(7)
            for descriptor in generate_component_set(
                    rng, "rt", 5, total_utilization=0.8):
                cluster.deploy(descriptor.to_xml())
            document = cluster.export_plan()
            assert document["plan_version"] == PLAN_SCHEMA_VERSION
            assert [n["name"] for n in document["nodes"]] \
                == ["node0", "node1", "node2"]
            result = lint_plan(document)
            assert codes(result, family="DRT6") == []
            assert result.by_severity(Severity.ERROR) == []
        finally:
            cluster.shutdown()


class TestPlanLintCache:
    """The cache shares parsed descriptors across plans, so it is only
    sound if no DRT checker mutates a descriptor it reads; and each
    memo entry is only sound if its key holds every input it reads."""

    def plans(self):
        with open(EXAMPLE_PLAN, encoding="utf-8") as handle:
            yield EXAMPLE_PLAN, json.load(handle)
        for kind in sorted(PLAN_DEFECT_CODES):
            yield kind, generate_defective_plan(kind)[0]
        wired = plan_with()
        wired["deployments"] = [
            {"node": "node0", "components": [
                {"xml": xml("SRC000", 0.2, ports=[outport("PRT000")])},
                {"xml": "<drt:component name="}]},
            {"node": "node1", "components": [
                {"xml": xml("SNK000", 0.2, ports=[inport("PRT000")])}]}]
        wired["applications"] = {"app": ["SRC000", "SNK000"]}
        yield "wired", wired

    def test_cached_lint_is_identical_and_read_only(self):
        for location, document in self.plans():
            cache = PlanLintCache()
            plan, _ = parse_plan(document, location, cache=cache)
            parsed = [comp.descriptor for comp in plan.components
                      if comp.descriptor is not None]
            assert parsed, location
            # Fresh renders: to_xml() is memoised per placement, so it
            # would not see a checker's write to another field.
            before = [descriptor._render_xml() for descriptor in parsed]
            reference = lint_plan(document, location)
            first = lint_plan(document, location, cache=cache)
            second = lint_plan(document, location, cache=cache)
            expected = [d.as_dict() for d in reference.diagnostics]
            assert [d.as_dict() for d in first.diagnostics] == expected
            assert [d.as_dict() for d in second.diagnostics] == expected
            assert (first.units, first.sources) \
                == (second.units, second.sources) \
                == (reference.units, reference.sources)
            # The lints read the very objects parsed above ...
            again, _ = parse_plan(document, location, cache=cache)
            reused = [comp.descriptor for comp in again.components
                      if comp.descriptor is not None]
            assert len(reused) == len(parsed)
            assert all(a is b for a, b in zip(reused, parsed))
            # ... and left every one of them as it was.
            assert [descriptor._render_xml() for descriptor in parsed] \
                == before, location

    @staticmethod
    def keyed_plan():
        """Three nodes whose findings hang on every key field: node0's
        one CPU cannot fit ROOMY1 after ROOMY0 (DRT601), and FASTCMD's
        2 ms deadline misses its command path over the 1.8 ms control
        link (DRT604); its seven-letter name is a per-source finding
        (DRT103) whose location moves with it."""
        document = plan_with(nodes=3)
        document["links"] = [{"src": "control", "dst": "node0",
                              "latency_ns": 1800000}]
        document["deployments"] = [
            {"node": "node0", "components": [
                {"xml": xml("ROOMY0", 0.6, priority=20)},
                {"xml": xml("ROOMY1", 0.6, priority=21)},
                {"xml": xml("FASTCMD", 0.05, frequency_hz=100.0,
                            priority=1, deadline_ns=2000000)}]},
            {"node": "node1", "components": [
                {"xml": xml("SRC000", 0.1, ports=[outport("PRT000")])}]},
            {"node": "node2", "components": [
                {"xml": xml("SNK000", 0.1, ports=[inport("PRT000")])}]}]
        return document

    @staticmethod
    def set_cap(document):
        document["nodes"][0]["cap"] = 0.55

    @staticmethod
    def set_num_cpus(document):
        document["nodes"][0]["num_cpus"] = 2

    @staticmethod
    def fast_link(document):
        document["links"][0]["latency_ns"] = 1000000

    @staticmethod
    def group_apps(document):
        document["applications"] = {"pipe": ["SRC000", "SNK000"]}

    @staticmethod
    def disable(document):
        document["deployments"][0]["components"][1] = {
            "xml": xml("ROOMY1", 0.6, priority=21, enabled=False)}

    @staticmethod
    def move(document):
        # Same XML, new home: its location and its control link change.
        fast = document["deployments"][0]["components"].pop()
        document["deployments"][1]["components"].insert(0, fast)

    @pytest.mark.parametrize("change", [
        "set_cap", "set_num_cpus", "fast_link", "group_apps", "disable",
        "move"])
    def test_every_key_field_is_part_of_the_key(self, change):
        base = self.keyed_plan()
        changed = copy.deepcopy(base)
        getattr(self, change)(changed)
        reference = [d.as_dict() for d in lint_plan(changed).diagnostics]
        # The change shows in the findings, so a key that left it out
        # would hand back the stale ones.
        assert reference != [d.as_dict()
                             for d in lint_plan(base).diagnostics]
        cache = PlanLintCache()
        lint_plan(base, cache=cache)
        for _ in range(2):
            result = lint_plan(changed, cache=cache)
            assert [d.as_dict() for d in result.diagnostics] == reference
            cache.rotate()

    def test_families_are_part_of_the_unit_key(self):
        document = self.keyed_plan()
        cache = PlanLintCache()
        lint_plan(document, families=("deployment", "admission"),
                  cache=cache)
        result = lint_plan(document, cache=cache)
        assert [d.as_dict() for d in result.diagnostics] \
            == [d.as_dict() for d in lint_plan(document).diagnostics]

    def test_rotation_bounds_the_cache(self):
        cache = PlanLintCache()
        document, _ = generate_defective_plan("no_n1_headroom")
        lint_plan(document, cache=cache)
        held = len(cache)
        assert held > 0
        for _ in range(3):
            cache.rotate()
            lint_plan(document, cache=cache)
            assert len(cache) == held
        cache.rotate()
        cache.rotate()
        assert len(cache) == 0
