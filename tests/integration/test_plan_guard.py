"""PlanGuard end to end: static veto agrees with runtime stranding.

The EXPERIMENTS C2 extension at fleet scope.  One two-node fleet is
built twice with identical deployments:

* **static arm** -- the :class:`~repro.cluster.federation.PlanGuard`
  is armed and asked to admit a wired application that would push the
  fleet past its N-1 failover capacity; the guard must veto it with a
  *new* DRT602 finding (the pre-existing fleet lints clean, so the
  differential blame is exact);
* **runtime arm** -- no guard: the same application deploys, the node
  is crashed, and failover strands exactly the component the static
  finding named.

Static analysis predicting the runtime outcome is the family's whole
claim; this test pins the agreement.  The last test pins that the
guard's incremental lint (its ``PlanLintCache``) changes no lint, no
verdict and no ``lint.plan_*`` counter over a seeded run of deploys,
undeploys, migrations, a crash and a join.
"""

import collections
import random

import pytest

from repro.cluster import Cluster
from repro.cluster.federation import ClusterError
from repro.core.descriptor import ComponentDescriptor
from repro.lint import lint_plan
from repro.sim.engine import MSEC

from conftest import make_descriptor_xml

PORT = ("WPT000", "RTAI.SHM", "Integer", 2)


def base_fleet(**kwargs):
    """Two one-CPU nodes carrying one 0.3 component each."""
    cluster = Cluster(("node0", "node1"), seed=11,
                      heartbeat_interval_ns=10 * MSEC, **kwargs)
    cluster.deploy(make_descriptor_xml("BAS000", cpuusage=0.3,
                                       priority=5), node="node0")
    cluster.deploy(make_descriptor_xml("BAS001", cpuusage=0.3,
                                       priority=5), node="node1")
    return cluster


def wired_app_xmls():
    """A 0.5-claim application: fits node0 live (0.8 total), but
    afterwards neither node's loss can be absorbed by the other."""
    return [
        make_descriptor_xml("WIR000", cpuusage=0.25, frequency=10,
                            priority=20, outports=[PORT]),
        make_descriptor_xml("WIR001", cpuusage=0.25, frequency=10,
                            priority=21, inports=[PORT]),
    ]


def test_plan_guard_vetoes_what_failover_would_strand():
    # --- static arm: the guard predicts the stranding -------------
    cluster = base_fleet()
    try:
        cluster.run_for(30 * MSEC)
        guard = cluster.install_plan_guard()

        findings = guard.check_deploy(wired_app_xmls(), "node0",
                                      application="wapp",
                                      members=["WIR000", "WIR001"])
        assert findings, "the guard must flag the capacity loss"
        assert {f.code for f in findings} == {"DRT602"}
        static_stranded = {f.component for f in findings}
        # Losing node0 strands BAS000 (the 0.5 group re-homes first);
        # losing node1 strands BAS001 against the 0.8-loaded node0.
        assert static_stranded == {"BAS000", "BAS001"}

        with pytest.raises(ClusterError) as excinfo:
            cluster.deploy_application("wapp", wired_app_xmls(),
                                       node="node0")
        assert "DRT602" in str(excinfo.value)
        assert "WIR000" not in cluster.deployments

        # Two checks and two rejections: the direct check_deploy
        # above plus the vetoed deploy_application.
        registry = cluster.sim.telemetry.registry("lint")
        assert registry.get("plan_checks_total").value == 2
        assert registry.get("plan_rejections_total").value == 2
        assert registry.get("plan_code.DRT602").value >= 2
    finally:
        cluster.shutdown()

    # --- runtime arm: no guard, the crash proves it ---------------
    cluster = base_fleet()
    try:
        home = cluster.deploy_application("wapp", wired_app_xmls(),
                                          node="node0")
        assert home == "node0"
        cluster.run_for(50 * MSEC)

        cluster.crash_node("node0")
        cluster.run_for(500 * MSEC)

        report = cluster.report()
        assert report["dead"] == ["node0"]
        failover = report["failovers"][-1]
        assert failover["node"] == "node0"
        # The application group re-homed whole; the singleton the
        # static finding named is exactly what got stranded.
        moved = set(failover["moved"])
        assert {"WIR000", "WIR001"} <= moved
        assert failover["unplaced"] == ["BAS000"]
        assert "BAS000" in static_stranded
    finally:
        cluster.shutdown()


def test_plan_guard_never_blocks_failover():
    cluster = base_fleet()
    try:
        cluster.run_for(30 * MSEC)
        cluster.install_plan_guard()
        cluster.crash_node("node1")
        cluster.run_for(500 * MSEC)

        # Failover completed despite the armed guard; the advisory
        # post-failover lint was recorded.
        report = cluster.report()
        assert report["dead"] == ["node1"]
        assert cluster.deployments["BAS001"] == "node0"
        registry = cluster.sim.telemetry.registry("lint")
        assert registry.get("plan_failover_checks_total").value == 1
    finally:
        cluster.shutdown()


def test_plan_guard_ignores_preexisting_debt():
    # A fleet that already lints DRT602 (0.7 + 0.7 on one-CPU nodes)
    # must still accept an unrelated small deployment: differential
    # blame, not absolute cleanliness.
    cluster = Cluster(("node0", "node1"), seed=11,
                      heartbeat_interval_ns=10 * MSEC)
    try:
        cluster.deploy(make_descriptor_xml("BIG000", cpuusage=0.7,
                                           priority=5), node="node0")
        cluster.deploy(make_descriptor_xml("BIG001", cpuusage=0.7,
                                           priority=5), node="node1")
        cluster.run_for(30 * MSEC)
        cluster.install_plan_guard()
        home = cluster.deploy(make_descriptor_xml(
            "TIN000", cpuusage=0.05, priority=9), node="node0")
        assert home == "node0"
        registry = cluster.sim.telemetry.registry("lint")
        assert registry.get("plan_rejections_total").value == 0
    finally:
        cluster.shutdown()


# ----------------------------------------------------------------------
# the guard's cache changes nothing
# ----------------------------------------------------------------------
def _as_dicts(diagnostics):
    return [diagnostic.as_dict() for diagnostic in diagnostics]


def _reference_check(cluster, fail_on, xmls, node, application=None,
                     members=None):
    """``check_deploy`` from first principles: two fresh exports and
    two cache-free lints, the differential blame by (code, component)."""
    baseline = lint_plan(cluster.export_plan(), location="<plan-guard>")
    candidate = cluster.export_plan()
    for deployment in candidate["deployments"]:
        if deployment["node"] == node:
            target = deployment
            break
    else:
        target = {"node": node, "components": []}
        candidate["deployments"].append(target)
    target["components"].extend({"xml": xml} for xml in xmls)
    if application is not None and members is not None:
        candidate["applications"][application] = list(members)
    result = lint_plan(candidate, location="<plan-guard>")
    known = {(d.code, d.component) for d in baseline.diagnostics}
    return [d for d in result.at_or_above(fail_on)
            if (d.code, d.component) not in known]


def _count_findings(counters, findings):
    for diagnostic in findings:
        counters["plan_code.%s" % diagnostic.code] += 1


def _checked_guard(cluster, log, counters):
    """Arm a guard whose every lint and every verdict is compared, as
    it is made, with the cache-free reference on the same fleet.
    ``counters`` accumulates the ``lint.plan_*`` counts the reference
    verdicts imply."""
    guard = cluster.install_plan_guard(fail_on="info")
    lint = guard._lint
    check_deploy = guard.check_deploy
    note_failover = guard.note_failover

    def checked_lint(document):
        result = lint(document)
        reference = lint_plan(document, location="<plan-guard>")
        assert _as_dicts(result.diagnostics) \
            == _as_dicts(reference.diagnostics)
        assert (result.units, result.sources) \
            == (reference.units, reference.sources)
        log.append(("lint", None, reference.codes()))
        return result

    def checked_deploy(xmls, node, application=None, members=None):
        expected = _reference_check(cluster, guard.fail_on, xmls, node,
                                    application, members)
        found = check_deploy(xmls, node, application=application,
                             members=members)
        assert _as_dicts(found) == _as_dicts(expected)
        counters["plan_checks_total"] += 1
        if expected:
            counters["plan_rejections_total"] += 1
        _count_findings(counters, expected)
        log.append(("check", node, sorted({d.code for d in found})))
        return found

    def checked_failover(dead):
        expected = lint_plan(cluster.export_plan(),
                             location="<plan-guard>"
                             ).at_or_above(guard.fail_on)
        found = note_failover(dead)
        assert _as_dicts(found) == _as_dicts(expected)
        counters["plan_failover_checks_total"] += 1
        _count_findings(counters, expected)
        log.append(("failover", dead, sorted({d.code for d in found})))
        return found

    guard._lint = checked_lint
    guard.check_deploy = checked_deploy
    guard.note_failover = checked_failover
    return guard


def _equivalence_fleet(rng):
    """Five nodes carrying fleet debt the guard must keep telling
    apart from new findings: a seven-character name (DRT103), a wired
    pair whose members migrate apart (DRT201/DRT603) and ten
    components drawn from the pool of later deploys."""
    cluster = Cluster(["node%d" % index for index in range(5)], seed=14,
                      heartbeat_interval_ns=10 * MSEC)
    pool = {}
    for index in range(24):
        # Rate-monotonic priorities: the guard runs at fail_on="info",
        # so an inverted pair (DRT304) would veto routine deploys.
        frequency = rng.choice((10, 20, 50))
        name = "EQ%04d" % index
        pool[name] = make_descriptor_xml(
            name, cpuusage=rng.choice((0.04, 0.06, 0.08)),
            frequency=frequency,
            priority=100 * (60 // frequency) + index)
    for index, name in enumerate(sorted(pool)[:10]):
        cluster.deploy(pool[name], node="node%d" % (index % 5))
    cluster.deploy(make_descriptor_xml(
        "EQLONG0", cpuusage=0.05, frequency=10, priority=390),
        node="node1")
    cluster.deploy(make_descriptor_xml(
        "EQSRC0", cpuusage=0.05, frequency=10, priority=391,
        outports=[PORT]), node="node3")
    cluster.deploy(make_descriptor_xml(
        "EQSNK0", cpuusage=0.05, frequency=10, priority=392,
        inports=[PORT]), node="node3")
    cluster.run_for(30 * MSEC)
    return cluster, pool


def test_cached_guard_verdicts_equal_cache_free_lints():
    rng = random.Random(14)
    cluster, pool = _equivalence_fleet(rng)
    log = []
    counters = collections.Counter(plan_checks_total=0,
                                   plan_rejections_total=0,
                                   plan_failover_checks_total=0)
    try:
        guard = _checked_guard(cluster, log, counters)

        def alive():
            return sorted(node.name for node in cluster.alive_nodes())

        def step_deploy():
            free = sorted(set(pool) - set(cluster.deployments))
            cluster.deploy(pool[rng.choice(free)],
                           node=rng.choice(alive()))

        def step_undeploy():
            cluster.undeploy(rng.choice(sorted(cluster.deployments)))

        def step_migrate():
            cluster.migrate(rng.choice(sorted(cluster.deployments)))

        def step_crash():
            cluster.crash_node("node2")
            cluster.run_for(150 * MSEC)
            assert cluster.report()["dead"] == ["node2"]

        def step_join():
            cluster.add_node("node5")

        def step_veto():
            # The fresh node fits a 0.97 claim, but no survivor could
            # re-home it: DRT602 and nothing else.
            loads = {name: 0.0 for name in alive()}
            for comp, home in cluster.deployments.items():
                if home in loads:
                    loads[home] += ComponentDescriptor.from_xml(
                        cluster.catalog[comp]["descriptor_xml"]
                    ).contract.cpu_usage
            assert loads.pop("node5") == 0.0
            assert min(loads.values()) > 0.03
            with pytest.raises(ClusterError) as excinfo:
                cluster.deploy(make_descriptor_xml(
                    "EQBIG0", cpuusage=0.97, frequency=10, priority=9),
                    node="node5")
            assert "DRT602" in str(excinfo.value)
            assert log[-1] == ("check", "node5", ["DRT602"])

        def step_unparseable():
            findings = guard.check_deploy(
                ['<drt:component name="EQBAD0" type="periodic">'],
                rng.choice(alive()))
            assert {"DRT100", "DRT600"} <= {d.code for d in findings}

        fixed = {12: step_crash, 24: step_join, 25: step_veto,
                 30: step_unparseable}
        steps = (step_deploy, step_deploy, step_undeploy, step_migrate,
                 step_migrate)
        for index in range(48):
            fixed.get(index, lambda: rng.choice(steps)())()
            cluster.run_for(20 * MSEC)
            # After every step, probe the guard on a fresh candidate.
            free = sorted(set(pool) - set(cluster.deployments))
            guard.check_deploy([pool[rng.choice(free)]],
                               rng.choice(alive()))

        kinds = [kind for kind, _, _ in log]
        assert kinds.count("failover") == 1
        assert kinds.count("check") >= 48
        assert kinds.count("lint") == 2 * kinds.count("check") + 1
        # The fleet debt was there to be told apart from new findings.
        linted = {code for kind, _, codes in log if kind == "lint"
                  for code in codes}
        assert {"DRT103", "DRT201"} <= linted
        entries = len(cluster.nodes) + len(cluster.catalog) + len(pool)
        assert len(guard.cache) <= 4 * entries
        # The guard's telemetry counts what the reference verdicts say.
        registry = cluster.sim.telemetry.registry("lint")
        recorded = {name: registry.get(name).value
                    for name in registry.names()
                    if name.startswith("plan_")}
        assert recorded == dict(counters)
        assert counters["plan_rejections_total"] >= 2
        assert {"plan_code.DRT602", "plan_code.DRT100",
                "plan_code.DRT600"} <= set(counters)
    finally:
        cluster.shutdown()
