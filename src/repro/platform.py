"""One-call assembly of the whole stack.

A *platform* is the composed system the paper's testbed ran: a simulated
machine (simulator + dual-kernel RTOS), an OSGi framework on its Linux
side, and a DRCR attached to both.  Most examples, tests and benchmarks
start from :func:`build_platform`.
"""

from repro.core.drcr import DRCR
from repro.osgi.framework import Framework
from repro.rtos.kernel import KernelConfig, RTKernel
from repro.sim.engine import MSEC, Simulator


class Platform:
    """The assembled stack: simulator, kernel, framework, DRCR."""

    def __init__(self, sim, kernel, framework, drcr):
        self.sim = sim
        self.kernel = kernel
        self.framework = framework
        self.drcr = drcr

    @property
    def now(self):
        """Current simulated time (ns)."""
        return self.sim.now

    @property
    def telemetry(self):
        """The platform-wide :class:`~repro.telemetry.metrics.Telemetry`
        (owned by the simulator; shared by every subsystem)."""
        return self.sim.telemetry

    def export_trace(self, path, indent=None):
        """Write the run's Chrome trace-event JSON to ``path`` (open it
        in ``chrome://tracing`` or Perfetto); returns the document.
        Task-occupancy slices need ``sim.trace.scheduling = True`` set
        before the run."""
        from repro.telemetry.chrome import export_chrome_trace
        return export_chrome_trace(
            self.sim.trace, path, component_events=self.drcr.events,
            telemetry=self.sim.telemetry, indent=indent)

    def export_metrics(self, path):
        """Write the platform's metrics JSON to ``path``; returns the
        document."""
        from repro.telemetry.export import write_metrics_json
        return write_metrics_json(self.sim.telemetry, path)

    def run_for(self, duration_ns):
        """Advance simulated time by ``duration_ns``."""
        return self.sim.run_for(duration_ns)

    def start_timer(self, period_ns=MSEC):
        """Start the hardware timer (required before periodic tasks)."""
        self.kernel.start_timer(period_ns)

    def install_and_start(self, headers, resources=None, activator=None):
        """Install a bundle and start it (DRCom descriptors inside are
        deployed by the DRCR automatically)."""
        bundle = self.framework.install_bundle(headers, resources,
                                               activator)
        bundle.start()
        return bundle

    def shutdown(self):
        """Detach the DRCR and stop the framework."""
        self.drcr.detach()
        self.framework.shutdown()

    def __repr__(self):
        return "Platform(t=%dns, %r, %r)" % (self.now, self.framework,
                                             self.drcr)


def build_platform(seed=0, kernel_config=None, internal_policy=None,
                   container_factory=None, attach=True, telemetry=None):
    """Assemble a full platform.

    Parameters mirror the individual constructors; ``attach=False``
    leaves the DRCR detached (the caller wires listeners first).
    ``telemetry`` (a :class:`~repro.telemetry.metrics.Telemetry`) lets
    callers disable or share metric collection; default is a fresh,
    enabled instance.
    """
    sim = Simulator(seed=seed, telemetry=telemetry)
    kernel = RTKernel(sim, kernel_config or KernelConfig())
    framework = Framework(telemetry=sim.telemetry)
    drcr = DRCR(framework, kernel, internal_policy=internal_policy,
                container_factory=container_factory)
    if attach:
        drcr.attach()
    return Platform(sim, kernel, framework, drcr)
