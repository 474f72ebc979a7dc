"""The benchmark's three workloads, driven only through public APIs.

Each scenario is built from the seed in ``__init__`` (input generation,
not timed), assembles the system in the steps :meth:`setup_steps`
yields (timed together as ``setup_s``), and then yields its operations
from :meth:`ops`.  An operation is a zero-argument callable that makes
the public calls and advances simulated time; it returns a
post-condition callable, run untimed, that returns a list of problems.  :meth:`invariants` checks
the end-of-round invariants and :meth:`result` returns the round's
simulated-time results, which must repeat exactly for one seed.
"""

import random

from repro import build_platform
from repro.adapt.controller import AdaptationController
from repro.adapt.rules import parse_rule_document
from repro.cluster import Cluster
from repro.core.descriptor import ComponentDescriptor
from repro.core.lifecycle import ComponentState
from repro.core.management import MANAGEMENT_SERVICE_INTERFACE
from repro.hybrid.implementation import RTImplementation, \
    default_registry
from repro.monitor.service import ContractMonitor
from repro.rtos.load import apply_stress
from repro.rtos.task import TaskType
from repro.sim.engine import MSEC, SEC
from repro.sim.rng import RandomStreams
from repro.workloads import (
    BURSTY_EXEC_MAX_NS,
    BURSTY_EXEC_MIN_NS,
    deploy_component_set,
    generate_bursty_arrivals,
    generate_bursty_fleet,
    generate_component_set,
    generate_rule_set,
    uunifast,
)

_ADMITTED = (ComponentState.ACTIVE, ComponentState.SUSPENDED)

#: The section-4.2 pair (the same descriptors ``python -m repro`` runs).
CALC_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="CALC00" desc="simulated computing job, 1000 Hz"
               type="periodic" enabled="true" cpuusage="0.03">
  <implementation bincode="demo.Calculation"/>
  <periodictask frequence="1000" runoncpu="0" priority="2"/>
  <outport name="LATDAT" interface="RTAI.SHM" type="Integer" size="4"/>
</drt:component>
"""

DISP_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="DISP00" desc="latency display, rate 4"
               type="periodic" enabled="true" cpuusage="0.01">
  <periodictask frequence="250" runoncpu="0" priority="3"/>
  <implementation bincode="demo.Display"/>
  <inport name="LATDAT" interface="RTAI.SHM" type="Integer" size="4"/>
</drt:component>
"""


def _install(platform, name, xml):
    """Install and start a one-descriptor bundle."""
    return platform.install_and_start(
        {"Bundle-SymbolicName": "bench.%s" % name,
         "RT-Component": "OSGI-INF/c.xml"},
        resources={"OSGI-INF/c.xml": xml})


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _counter(telemetry, subsystem, name):
    return telemetry.registry(subsystem).counter(name).value


def node_invariants(drcr, kernel, label=""):
    """The ROADMAP node invariants, checked through public APIs:
    every ACTIVE component is wired, per-CPU declared utilization
    stays within the admission policy's cap, and the kernel holds a
    task exactly for the instantiated components."""
    problems = []
    registry = drcr.registry
    cap = getattr(drcr.internal_policy, "cap", 1.0)
    cpus = set()
    for component in registry.all():
        cpus.add(component.contract.cpu)
        name = component.name
        if component.state is ComponentState.ACTIVE:
            bound = set(component.bound_providers())
            for inport in component.descriptor.inports:
                providers = {provider.name for provider, _port
                             in registry.providers_of(inport)}
                if not providers & bound:
                    problems.append("%s%s: ACTIVE but inport %s unwired"
                                    % (label, name, inport.name))
        has_task = kernel.exists(component.descriptor.task_name)
        if has_task != component.is_instantiated:
            problems.append("%s%s: state %s but kernel task %s"
                            % (label, name, component.state.value,
                               "present" if has_task else "absent"))
    for cpu in sorted(cpus):
        used = registry.declared_utilization(cpu)
        if used > cap + 1e-9:
            problems.append("%scpu%d: declared utilization %.4f > cap %.4f"
                            % (label, cpu, used, cap))
    return problems


def _latency_samples(kernel, components):
    samples = []
    for component in components:
        if not component.is_instantiated:
            continue
        series = kernel.lookup(component.descriptor.task_name) \
            .stats.latency
        if series is not None:
            samples.extend(series.values)
    return sorted(samples)


def _op_kinds(choice, mix, blocks):
    """The client's op sequence: ``blocks`` blocks, each holding every
    ``(kind, count)`` of ``mix`` in a seeded order.  Fixed counts per
    block keep the op mix, and the fleet size, the same for every seed."""
    block = [kind for kind, count in mix for _ in range(count)]
    for _ in range(blocks):
        choice.shuffle(block)
        yield from block


def _exact_percentile(ordered, q):
    if not ordered:
        return 0
    index = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
    return ordered[index]


class _Scenario:
    """Shared plumbing: recorder, op bookkeeping, result skeleton."""

    name = None

    def __init__(self, seed, recorder):
        self.seed = seed
        self.recorder = recorder
        self.op_kinds = {}

    def _count(self, kind):
        self.op_kinds[kind] = self.op_kinds.get(kind, 0) + 1

    @property
    def sim(self):
        raise NotImplementedError

    def result(self):
        """Simulated-time results of the round (bit-identical for one
        seed): event count, simulated time, op mix and every telemetry
        instrument except the adaptation controller's host-timed
        action histogram."""
        telemetry = self.sim.telemetry.as_dict()
        adapt = telemetry.get("adapt")
        if adapt is not None:
            adapt.pop("action_latency_ns", None)
        return {
            "events": self.sim.processed_events,
            "sim_ns": self.sim.now,
            "ops": dict(sorted(self.op_kinds.items())),
            "telemetry": telemetry,
        }


# ----------------------------------------------------------------------
# node_steady
# ----------------------------------------------------------------------
class _HonestUniform(RTImplementation):
    """Execution time drawn from the declared uniform distribution."""

    def __init__(self, stream):
        self._stream = stream

    def compute_ns(self, ctx):
        return int(self._stream.uniform(BURSTY_EXEC_MIN_NS,
                                        BURSTY_EXEC_MAX_NS))


class _SporadicJob(RTImplementation):
    def compute_ns(self, ctx):
        return 50_000


def _ladder_fleet(rng, prefix, count, total_utilization, shortest_ms,
                  longest_ms, priority_base):
    """``count`` periodic components on a fixed ladder of periods,
    log-spaced over ``shortest_ms..longest_ms`` (whole ms), with
    rate-monotonic priorities from ``priority_base`` down.  The seed
    decides which component gets which period and splits the
    utilization (UUniFast), so every seed releases the same number of
    jobs per simulated second."""
    ratio = longest_ms / shortest_ms
    periods = [max(1, round(shortest_ms * ratio ** (index / (count - 1))))
               * MSEC for index in range(count)]
    stream = "bench/ladder/%s" % prefix
    rng.stream(stream).shuffle(periods)
    utilizations = uunifast(rng, stream, count, total_utilization)
    rank = {index: position for position, index in enumerate(
        sorted(range(count), key=lambda index: (periods[index], index)))}
    return [ComponentDescriptor(
        name="%s%03d" % (prefix, index),
        implementation="bench.%s.C%03d" % (prefix, index),
        task_type=TaskType.PERIODIC,
        description="benchmark fleet component",
        cpu_usage=utilizations[index],
        frequency_hz=SEC / periods[index],
        priority=priority_base + rank[index])
        for index in range(count)]


class NodeSteady(_Scenario):
    """One node in steady state, open-loop in simulated time.

    The section-4.2 CALC00 -> DISP00 pair plus a seeded fleet of 48
    periodic components and two honestly declared ``<stochastic>``
    components (a 1 kHz uniform-exectime task and a sporadic task whose
    arrivals are pre-scheduled from the seed with ``sim.schedule_at``),
    under the calibrated Table-1 latency model in stress mode, with a
    :class:`ContractMonitor` checking the declarations.  An operation
    is one fixed simulated-time segment."""

    name = "node_steady"
    FLEET = 48
    FLEET_UTILIZATION = 0.35
    SEGMENT_NS = 12_500_000
    SEGMENTS = 128

    def __init__(self, seed, recorder):
        super().__init__(seed, recorder)
        rng = RandomStreams(seed)
        generated, self.planted = generate_bursty_fleet(
            rng, "ns", count=1, total_utilization=0.01)
        self.descriptors = _ladder_fleet(
            rng, "NSC", self.FLEET, self.FLEET_UTILIZATION, 1, 100,
            priority_base=10) + [
            descriptor for descriptor in generated
            if descriptor.name in self.planted.values()]
        horizon = self.SEGMENT_NS * self.SEGMENTS
        self.arrivals = generate_bursty_arrivals(rng, "ns", horizon)
        self._bincodes = ["workload.ns.bursty", "workload.ns.sporadic"]

    @property
    def sim(self):
        return self.platform.sim

    def setup_steps(self):
        yield self._setup

    def _setup(self):
        exec_rng = RandomStreams(self.seed)
        default_registry.register(
            self._bincodes[0],
            lambda: _HonestUniform(exec_rng.stream("exec/ns")))
        default_registry.register(self._bincodes[1], _SporadicJob)
        platform = self.platform = build_platform(seed=self.seed)
        platform.start_timer(1 * MSEC)
        apply_stress(platform.kernel)
        _install(platform, "calc", CALC_XML)
        _install(platform, "disp", DISP_XML)
        deploy_component_set(platform.drcr, self.descriptors)
        kernel = platform.kernel
        sporadic_task = next(d.task_name for d in self.descriptors
                             if d.name == self.planted["sporadic"])

        def release():
            kernel.release_task(kernel.lookup(sporadic_task))

        for instant in self.arrivals:
            platform.sim.schedule_at(instant, release,
                                     label="bench:arrival")
        # Observe-only: a chance rejection of an honest declaration is
        # counted, but quarantines nothing, so every seed keeps the fleet.
        self.monitor = ContractMonitor(platform, epoch_ns=100 * MSEC,
                                       quarantine=False)
        self.monitor.start()

    def ops(self):
        run = self.recorder.wrap("platform.run_for", self.platform.run_for)

        def segment():
            run(self.SEGMENT_NS)

        for _ in range(self.SEGMENTS):
            self._count("segment")
            yield "segment", segment

    def invariants(self):
        drcr = self.platform.drcr
        problems = node_invariants(drcr, self.platform.kernel)
        disp = drcr.component("DISP00")
        if disp.state is not ComponentState.ACTIVE \
                or disp.bound_providers() != ["CALC00"]:
            problems.append("DISP00 not wired to CALC00")
        else:
            value = disp.container.ctx.read_inport("LATDAT")
            if not value or value[0] <= 0:
                problems.append("DISP00 received no data from CALC00")
        expected = 2 + len(self.descriptors)
        active = len(drcr.registry.active())
        if active != expected:
            problems.append("%d of %d components ACTIVE"
                            % (active, expected))
        return problems

    def result(self):
        result = super().result()
        telemetry = self.platform.telemetry
        drcr = self.platform.drcr
        samples = _latency_samples(self.platform.kernel,
                                   drcr.registry.all())
        result["sim_metrics"] = {
            "deadline_miss_ratio": _ratio(
                _counter(telemetry, "rtos", "deadline_misses_total"),
                _counter(telemetry, "rtos", "releases_total")),
            "dispatch_latency_p50_us":
                _exact_percentile(samples, 50) / 1e3,
            "dispatch_latency_p99_us":
                _exact_percentile(samples, 99) / 1e3,
            "latency_samples": len(samples),
        }
        return result

    def teardown(self):
        self.monitor.stop()
        self.platform.shutdown()
        for bincode in self._bincodes:
            default_registry.unregister(bincode)


# ----------------------------------------------------------------------
# node_churn
# ----------------------------------------------------------------------
_CHAIN_LETTERS = "ABCDEFGHJKLMNPQRSTUVWXYZ"


class NodeChurn(_Scenario):
    """One node under continuous arrival and departure, closed loop.

    A resident fleet of 40 dependency chains x 5 components (one bundle
    each, <= 10 Hz) takes one client's seeded mix of deploys (some
    oversized, which admission must refuse), undeploys that cascade
    down a chain, filtered management-service lookups with
    ``get_status``/``get_property``, and ``suspend``/``resume``/
    ``set_property`` writes.  Every op is followed by a fixed
    :data:`ADVANCE_NS` of simulated time."""

    name = "node_churn"
    CHAINS = 40
    CHAIN_LENGTH = 5
    UTILIZATION = 0.5
    #: Chain tails left out at set-up, so a deploy always has a
    #: departed component to bring back.
    INITIALLY_DEPARTED = 4
    BLOCKS = 150
    ADVANCE_NS = 2 * MSEC
    #: (kind, count) of one 20-op block of the client's mix.
    MIX = (("lookup_status", 6), ("lookup_property", 3),
           ("lookup_range", 2), ("undeploy", 2), ("deploy", 2),
           ("deploy_refused", 1), ("suspend", 1), ("resume", 1),
           ("set_property", 2))

    def __init__(self, seed, recorder):
        super().__init__(seed, recorder)
        rng = RandomStreams(seed)
        chains = [generate_component_set(
            rng, "%s%d" % (_CHAIN_LETTERS[index // 10], index % 10),
            self.CHAIN_LENGTH, self.UTILIZATION / self.CHAINS,
            chained=True, min_period_ns=100 * MSEC,
            max_period_ns=1 * SEC) for index in range(self.CHAINS)]
        # Rate-monotonic priorities across the whole fleet, not per
        # chain: at 0.5 utilization RM meets every deadline, so any miss
        # is an arrival breaking an admitted component's contract.
        periods = sorted({descriptor.contract.period_ns
                          for members in chains for descriptor in members})
        rank = {period: index + 1 for index, period in enumerate(periods)}
        self.chains = []
        for members in chains:
            for descriptor in members:
                descriptor.contract.priority = \
                    rank[descriptor.contract.period_ns]
            self.chains.append([(descriptor.name, descriptor.to_xml())
                                for descriptor in members])
        self.chain_of = {name: chain
                         for chain, members in enumerate(self.chains)
                         for name, _xml in members}
        self.xml_of = {name: xml for members in self.chains
                       for name, xml in members}

    @property
    def sim(self):
        return self.platform.sim

    def setup_steps(self):
        yield self._build
        for members in self.chains:
            for name, xml in members:
                if name not in self.departed:
                    yield lambda name=name, xml=xml: self._bring_back(
                        name, xml)

    def _bring_back(self, name, xml):
        self.bundles[name] = _install(self.platform, name, xml)

    def _build(self):
        self.platform = build_platform(seed=self.seed)
        self.platform.start_timer(1 * MSEC)
        self.bundles = {}
        self.departed = [members[-1][0] for members
                         in self.chains[:self.INITIALLY_DEPARTED]]
        self.suspended = set()
        #: Tasks ever suspended: a job frozen mid-run by ``suspend``
        #: finishes late by design, which is not a broken contract.
        self.ever_suspended_tasks = set()
        self.refused = 0
        self._choice = random.Random(self.seed)
        self._refused_seq = 0

    # -- helpers ---------------------------------------------------------
    def _state(self, name):
        return self.platform.drcr.component_state(name)

    def _chain_problems(self, chain):
        """Every installed member is admitted iff all its predecessors
        are installed (a departure cascades, an arrival restores)."""
        problems = []
        complete = True
        for name, _xml in self.chains[chain]:
            if name not in self.bundles:
                complete = False
                continue
            admitted = self._state(name) in _ADMITTED
            if admitted != complete:
                problems.append("%s: state %s, chain %s"
                                % (name, self._state(name).value,
                                   "complete" if complete else "broken"))
        return problems

    def _admitted_names(self):
        return [name for name in self.bundles
                if self._state(name) in _ADMITTED]

    def _management(self, name):
        registry = self.platform.framework.registry
        with self.recorder.span("osgi.get_reference"):
            reference = registry.get_reference(
                MANAGEMENT_SERVICE_INTERFACE, "(drcom.name=%s)" % name)
        return registry.get_service(reference)

    # -- operations --------------------------------------------------------
    def ops(self):
        run = self.platform.run_for
        span = self.recorder.span
        for kind in _op_kinds(self._choice, self.MIX, self.BLOCKS):
            self._forget_cascaded_suspensions()
            if kind == "resume" and not self.suspended:
                kind = "suspend"
            op = getattr(self, "_op_" + kind)()
            self._count(kind)

            def timed(op=op, kind=kind):
                with span("op." + kind):
                    check = op()
                    run(self.ADVANCE_NS)
                return check
            yield kind, timed

    def _op_lookup_status(self):
        name = self._choice.choice(self._admitted_names())

        def op():
            status = self._management(name).get_status()

            def check():
                if status["name"] != name \
                        or status["state"] != self._state(name).value:
                    return ["get_status(%s) = %r" % (name, status)]
                return []
            return check
        return op

    def _op_lookup_property(self):
        name = self._choice.choice(self._admitted_names())

        container = self.platform.drcr.component(name).container

        def op():
            value = self._management(name).get_property("gain")
            # Read back before simulated time advances: a queued
            # set_property may land at the component's next job.
            expected = container.get_property("gain")

            def check():
                return [] if value == expected else \
                    ["get_property(%s) = %r, container has %r"
                     % (name, value, expected)]
            return check
        return op

    def _op_lookup_range(self):
        bound = self._choice.randrange(1, 40)
        text = "(&(drcom.type=periodic)(drcom.priority<=%d))" % bound
        registry = self.platform.framework.registry

        def op():
            with self.recorder.span("osgi.get_references"):
                references = registry.get_references(
                    MANAGEMENT_SERVICE_INTERFACE, text)

            def check():
                wrong = [ref for ref in references
                         if ref.get_property("drcom.priority") > bound]
                return ["range lookup returned %d out-of-range"
                        % len(wrong)] if wrong else []
            return check
        return op

    def _op_undeploy(self):
        candidates = sorted(set(self._admitted_names()) - self.suspended)
        name = self._choice.choice(candidates)
        bundle = self.bundles.pop(name)
        self.departed.append(name)
        chain = self.chain_of[name]

        def op():
            with self.recorder.span("core.undeploy"):
                bundle.stop()
                bundle.uninstall()

            def check():
                problems = self._chain_problems(chain)
                if name in self.platform.drcr.registry:
                    problems.append("%s still registered" % name)
                return problems
            return check
        return op

    def _forget_cascaded_suspensions(self):
        self.suspended = {name for name in self.suspended
                          if name in self.bundles
                          and self._state(name)
                          is ComponentState.SUSPENDED}

    def _op_deploy(self):
        name = self.departed.pop(
            self._choice.randrange(len(self.departed)))
        xml = self.xml_of[name]
        chain = self.chain_of[name]

        def op():
            with self.recorder.span("core.deploy"):
                self._bring_back(name, xml)

            def check():
                return self._chain_problems(chain)
            return check
        return op

    def _op_deploy_refused(self):
        self._refused_seq += 1
        name = "RF%04d" % (self._refused_seq % 10000)
        xml = CALC_XML.replace("CALC00", name) \
            .replace('cpuusage="0.03"', 'cpuusage="0.9"') \
            .replace('frequence="1000"', 'frequence="5"') \
            .replace("LATDAT", "RFP%03d" % (self._refused_seq % 1000))
        drcr = self.platform.drcr

        def op():
            with self.recorder.span("core.deploy"):
                bundle = _install(self.platform, name, xml)
            state = drcr.component_state(name)
            bundle.stop()
            bundle.uninstall()

            def check():
                self.refused += 1
                if state in _ADMITTED:
                    return ["oversized %s was admitted" % name]
                return [] if name not in drcr.registry else \
                    ["%s still registered" % name]
            return check
        return op

    def _op_suspend(self):
        candidates = sorted(set(self._admitted_names()) - self.suspended)
        name = self._choice.choice(candidates)
        self.suspended.add(name)
        self.ever_suspended_tasks.add(
            self.platform.drcr.component(name).descriptor.task_name)

        def op():
            self._management(name).suspend()

            def check():
                state = self._state(name)
                return [] if state is ComponentState.SUSPENDED else \
                    ["suspend(%s) left %s" % (name, state.value)]
            return check
        return op

    def _op_resume(self):
        name = self._choice.choice(sorted(self.suspended))
        self.suspended.discard(name)

        def op():
            self._management(name).resume()

            def check():
                state = self._state(name)
                return [] if state is ComponentState.ACTIVE else \
                    ["resume(%s) left %s" % (name, state.value)]
            return check
        return op

    def _op_set_property(self):
        name = self._choice.choice(self._admitted_names())
        value = self._choice.randrange(1000)

        def op():
            self._management(name).set_property("gain", value)

            def check():
                state = self._state(name)
                return [] if state in _ADMITTED else \
                    ["set_property(%s) left %s" % (name, state.value)]
            return check
        return op

    def invariants(self):
        problems = node_invariants(self.platform.drcr,
                                   self.platform.kernel)
        for chain in range(len(self.chains)):
            problems.extend(self._chain_problems(chain))
        broken = self._contract_breaks()
        if broken:
            problems.append("%d deadline misses of never-suspended "
                            "components" % broken)
        return problems

    def _contract_breaks(self):
        """Deadline misses of components never suspended: arrivals must
        not break the contracts of admitted components (section 1)."""
        return sum(1 for record in self.platform.sim.trace
                   if record.category == "deadline_miss"
                   and record.task not in self.ever_suspended_tasks)

    def result(self):
        result = super().result()
        telemetry = self.platform.telemetry
        result["sim_metrics"] = {
            "deadline_miss_ratio": _ratio(
                _counter(telemetry, "rtos", "deadline_misses_total"),
                _counter(telemetry, "rtos", "releases_total")),
            "contract_breaks": self._contract_breaks(),
            "refused": self.refused,
            "resident": len(self.bundles),
        }
        return result

    def teardown(self):
        self.platform.shutdown()


# ----------------------------------------------------------------------
# cluster_ops
# ----------------------------------------------------------------------
class ClusterOps(_Scenario):
    """A 16-node federation under one closed-loop operator.

    ``install_plan_guard()`` lints every deploy (DRT6xx), a
    cluster-scope :class:`AdaptationController` runs the
    ``migration-rebalance`` rule set, and the operator sends seeded
    deploys, undeploys, migrations and remote ``get_status`` calls at
    a fixed :data:`ADVANCE_NS` spacing.  One node crashes a third of
    the way in (its components fail over) and a fresh node joins at two
    thirds.  The kernel timer is 10 ms and components run at <= 10 Hz.
    """

    name = "cluster_ops"
    NODES = 16
    RESIDENT = 48
    SPARE = 32
    UTILIZATION = 4.0
    BLOCKS = 24
    ADVANCE_NS = 20 * MSEC
    CRASH_ADVANCE_NS = 100 * MSEC
    #: (kind, count) of one 10-op block of the operator's mix.
    MIX = (("deploy", 3), ("undeploy", 3), ("migrate", 3), ("status", 1))

    def __init__(self, seed, recorder):
        super().__init__(seed, recorder)
        rng = RandomStreams(seed)
        total = self.RESIDENT + self.SPARE
        descriptors = _ladder_fleet(
            rng, "COC", total, self.UTILIZATION * total / self.RESIDENT,
            100, 1000, priority_base=1)
        self.xml_of = {d.name: d.to_xml() for d in descriptors}
        # Every fifth rung: three resident, two spare, so both sets
        # span the whole period ladder whatever the seed.
        by_period = sorted(descriptors,
                           key=lambda d: (d.contract.period_ns, d.name))
        self.resident = [d.name for position, d in enumerate(by_period)
                         if position % 5 in (0, 1, 3)]
        self.spare = [d.name for position, d in enumerate(by_period)
                      if position % 5 in (2, 4)]
        self.rules = parse_rule_document(
            generate_rule_set("migration-rebalance"))

    @property
    def sim(self):
        return self.cluster.sim

    def setup_steps(self):
        yield self._build
        for name in self.resident:
            yield lambda name=name: self.cluster.deploy(self.xml_of[name])
        yield lambda: self.cluster.run_for(50 * MSEC)

    def _build(self):
        cluster = self.cluster = Cluster(
            ["node%02d" % index for index in range(self.NODES)],
            seed=self.seed, timer_period_ns=10 * MSEC,
            heartbeat_interval_ns=10 * MSEC, miss_limit=3)
        guard = cluster.install_plan_guard()
        guard.check_deploy = self.recorder.wrap(
            "plan_guard.check_deploy", guard.check_deploy)
        self.controller = AdaptationController(cluster=cluster,
                                               rules=self.rules)
        self.controller.start()
        self.pool = list(self.spare)
        self.migrations = []
        self.failovers_ms = []
        self.crashed = None
        self._choice = random.Random(self.seed)

    def _schedule(self):
        """The block mix with the crash inserted a third of the way in
        and the join at two thirds."""
        kinds = list(_op_kinds(self._choice, self.MIX, self.BLOCKS))
        kinds.insert(2 * len(kinds) // 3, "join")
        kinds.insert(len(kinds) // 3, "crash")
        return kinds

    def ops(self):
        cluster = self.cluster
        span = self.recorder.span
        for kind in self._schedule():
            op = getattr(self, "_op_" + kind)()
            advance = self.CRASH_ADVANCE_NS if kind == "crash" \
                else self.ADVANCE_NS
            self._count(kind)

            def timed(op=op, kind=kind, advance=advance):
                with span("op." + kind):
                    check = op()
                    cluster.run_for(advance)
                return check
            yield kind, timed

    def _deployed(self):
        return sorted(self.cluster.deployments)

    def _op_deploy(self):
        name = self.pool.pop(self._choice.randrange(len(self.pool)))
        xml = self.xml_of[name]
        cluster = self.cluster

        def op():
            with self.recorder.span("cluster.deploy"):
                home = cluster.deploy(xml)

            def check():
                state = cluster.node(home).drcr.component_state(name)
                return [] if state is ComponentState.ACTIVE else \
                    ["deploy %s on %s: %s" % (name, home, state.value)]
            return check
        return op

    def _op_undeploy(self):
        name = self._choice.choice(self._deployed())
        self.pool.append(name)
        cluster = self.cluster

        def op():
            with self.recorder.span("cluster.undeploy"):
                home = cluster.undeploy(name)

            def check():
                return [] if name not in cluster.node(home).drcr.registry \
                    else ["undeploy %s: still on %s" % (name, home)]
            return check
        return op

    def _op_migrate(self):
        name = self._choice.choice(self._deployed())
        cluster = self.cluster

        def op():
            with self.recorder.span("cluster.migrate"):
                migration_id = cluster.migrate(name)

            def check():
                status = cluster.migration(migration_id)
                self.migrations.append(status)
                if not status["done"] or status["outcome"] != "restored":
                    return ["migration %s: %r" % (migration_id, status)]
                return []
            return check
        return op

    def _op_status(self):
        name = self._choice.choice(self._deployed())
        cluster = self.cluster

        def op():
            request = cluster.manage(name, "get_status")

            def check():
                reply = cluster.mgmt_replies.get(request)
                if reply is None:
                    return ["get_status(%s): no reply" % name]
                return []
            return check
        return op

    def _op_crash(self):
        cluster = self.cluster
        homes = sorted(set(cluster.deployments.values()))
        victim = self._choice.choice(homes)
        self.crashed = victim
        failovers = len(cluster.failovers)

        def op():
            crashed_at = cluster.sim.now
            cluster.crash_node(victim)

            def check():
                if not cluster.membership.is_dead(victim) \
                        or len(cluster.failovers) != failovers + 1:
                    return ["crash of %s not failed over" % victim]
                failover = cluster.failovers[-1]
                self.failovers_ms.append(
                    (failover["at_ns"] - crashed_at) / 1e6)
                problems = ["failover left %s unplaced" % name
                            for name in failover["unplaced"]]
                for name, home in failover["moved"].items():
                    state = cluster.node(home).drcr.component_state(name)
                    if state is not ComponentState.ACTIVE:
                        problems.append("failover %s -> %s: %s"
                                        % (name, home, state.value))
                return problems
            return check
        return op

    def _op_join(self):
        cluster = self.cluster
        name = "node%02d" % self.NODES

        def op():
            cluster.add_node(name)

            def check():
                node = cluster.node(name)
                return [] if node.alive \
                    and not cluster.membership.is_dead(name) \
                    else ["joined %s is not alive" % name]
            return check
        return op

    def invariants(self):
        cluster = self.cluster
        problems = []
        alive = {node.name for node in cluster.alive_nodes()}
        for name, home in sorted(cluster.deployments.items()):
            holders = [node for node in sorted(alive)
                       if name in cluster.node(node).drcr.registry]
            if holders != [home]:
                problems.append("%s: owners %r, home %s"
                                % (name, holders, home))
        for node in cluster.nodes.values():
            if node.name in alive:
                problems.extend(node_invariants(
                    node.drcr, node.kernel, label=node.name + "/"))
            elif node.drcr.registry.active():
                problems.append("dead %s still has ACTIVE components"
                                % node.name)
        problems.extend(
            "migration %s ended %s" % (status["id"], status["outcome"])
            for status in self.migrations
            if status["outcome"] != "restored")
        if self.crashed is None or len(self.failovers_ms) != 1:
            problems.append("expected exactly one failover")
        return problems

    def result(self):
        result = super().result()
        latencies = sorted(status["latency_ns"]
                           for status in self.migrations)
        telemetry = self.cluster.sim.telemetry
        result["sim_metrics"] = {
            "deadline_miss_ratio": _ratio(
                _counter(telemetry, "rtos", "deadline_misses_total"),
                _counter(telemetry, "rtos", "releases_total")),
            "migration_p50_ms": _exact_percentile(latencies, 50) / 1e6,
            "failover_ms": self.failovers_ms[0] if self.failovers_ms
            else 0.0,
            "migrations": len(latencies),
        }
        return result

    def teardown(self):
        self.controller.stop()
        self.cluster.shutdown()


SCENARIOS = {cls.name: cls for cls in (NodeSteady, NodeChurn, ClusterOps)}
