"""Shared fixtures for the test suite.

Hypothesis runs under one of two profiles.  ``tier1`` (the default) is
derandomized: every run draws the same examples, so the suite cannot
fail at random.  ``explore`` (``pytest tests/property
--hypothesis-profile=explore``) draws fresh random examples, five times
each test's own ``max_examples``, to find what the fixed draw misses.

Only ``tests/property`` uses Hypothesis, so the rest of the suite also
runs where it is not installed (pytest alone).  The profiles live here
rather than in a ``tests/property/conftest.py`` because test modules
import helpers with ``from conftest import ...``, which a second
``conftest`` module would shadow.
"""

import pytest

from repro.core.policies import UtilizationBoundPolicy
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig, RTKernel
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC, Simulator

try:
    from hypothesis import is_hypothesis_test, settings
except ImportError:
    settings = None

#: How many times its own ``max_examples`` a test runs under ``explore``.
EXPLORE_SCALE = 5

#: Where ``@settings`` stores a test's own settings.  Hypothesis has no
#: public setter for it; the collection hook asserts it is there, so an
#: upgrade that moves it fails the explore run instead of silently
#: running it at 1x.
_OWN_SETTINGS = "_hypothesis_internal_use_settings"

if settings is not None:
    settings.register_profile("tier1", derandomize=True)
    settings.register_profile("explore", derandomize=False)
    # A --hypothesis-profile given on the command line must win.
    if settings.get_current_profile_name() == "default":
        settings.load_profile("tier1")


def pytest_collection_modifyitems(items):
    """Under ``explore``, scale every Hypothesis test's own
    ``max_examples`` (the tests pin theirs, which a profile cannot
    override)."""
    if settings is None or settings.get_current_profile_name() != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        if test is None or not is_hypothesis_test(test) or id(test) in scaled:
            continue
        own = getattr(test, _OWN_SETTINGS, None)
        assert isinstance(own, settings), (
            f"{item.nodeid}: Hypothesis no longer keeps a test's settings "
            f"in {_OWN_SETTINGS}; update tests/conftest.py")
        scaled.add(id(test))
        setattr(test, _OWN_SETTINGS, settings(
            own, max_examples=own.max_examples * EXPLORE_SCALE))


@pytest.fixture
def sim():
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def kernel(sim):
    """A single-CPU kernel with a zero-jitter latency model (tests make
    exact timing assertions)."""
    return RTKernel(sim, KernelConfig(latency_model=NullLatencyModel()))


@pytest.fixture
def kernel2(sim):
    """A dual-CPU kernel with zero-jitter latency."""
    return RTKernel(sim, KernelConfig(num_cpus=2,
                                      latency_model=NullLatencyModel()))


@pytest.fixture
def platform():
    """A full platform (zero-jitter kernel, timer already running)."""
    p = build_platform(
        seed=7,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()),
        internal_policy=UtilizationBoundPolicy(cap=1.0),
    )
    p.start_timer(1 * MSEC)
    return p


def make_descriptor_xml(name, *, task_type="periodic", enabled=True,
                        cpuusage=0.05, frequency=1000, priority=2, cpu=0,
                        outports=(), inports=(), properties=(),
                        bincode=None):
    """Compose DRCom descriptor XML for tests.

    ``outports``/``inports`` are iterables of (name, interface, type,
    size); ``properties`` of (name, type, value).
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(
        '<drt:component name="%s" desc="test component" type="%s" '
        'enabled="%s" cpuusage="%s">'
        % (name, task_type, "true" if enabled else "false", cpuusage))
    lines.append('  <implementation bincode="%s"/>'
                 % (bincode or "test.%s.Impl" % name))
    if task_type == "periodic":
        lines.append('  <periodictask frequence="%s" runoncpu="%d" '
                     'priority="%d"/>' % (frequency, cpu, priority))
    else:
        lines.append('  <aperiodictask runoncpu="%d" priority="%d"/>'
                     % (cpu, priority))
    for pname, iface, dtype, size in outports:
        lines.append('  <outport name="%s" interface="%s" type="%s" '
                     'size="%d"/>' % (pname, iface, dtype, size))
    for pname, iface, dtype, size in inports:
        lines.append('  <inport name="%s" interface="%s" type="%s" '
                     'size="%d"/>' % (pname, iface, dtype, size))
    for pname, ptype, value in properties:
        lines.append('  <property name="%s" type="%s" value="%s"/>'
                     % (pname, ptype, value))
    lines.append("</drt:component>")
    return "\n".join(lines)


def deploy(platform, xml, bundle_name=None):
    """Install+start a one-descriptor bundle; returns the bundle."""
    import re
    name = bundle_name or "test.bundle.%s" % re.search(
        r'name="([^"]+)"', xml).group(1)
    return platform.install_and_start(
        {"Bundle-SymbolicName": name, "RT-Component": "OSGI-INF/c.xml"},
        resources={"OSGI-INF/c.xml": xml})
