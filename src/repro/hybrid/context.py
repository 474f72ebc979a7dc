"""The execution context handed to component implementations.

An implementation's hooks receive an :class:`RTContext`: its window onto
the ports, properties and timing facts of its component.  Port access
maps straight onto the RT-domain kernel objects -- shared memory reads/
writes and mailbox polls -- never through the OSGi side (paper section
3.3: "the non real-time OSGi implementation will not directly interfere
with the inter task communication").
"""

from repro.core.ports import PortDirection, PortInterface
from repro.rtos.fifo import RTFifo
from repro.rtos.mailbox import Mailbox
from repro.rtos.shm import SharedMemory


class LiveProperties(dict):
    """A component's live property map: a dict that reports writes.

    Every mutating call runs ``on_change()`` after it, whoever makes
    it -- implementation hooks, the §3.2 ``SET_PROPERTY`` handler --
    so an exporter of live state (the cluster node's snapshot) learns
    that it may have moved instead of re-reading it to find out.
    Reads stay plain ``dict`` reads.
    """

    __slots__ = ("_on_change",)

    def __init__(self, values, on_change):
        super().__init__(values)
        self._on_change = on_change

    def __setitem__(self, key, value):
        dict.__setitem__(self, key, value)
        self._on_change()

    def __delitem__(self, key):
        dict.__delitem__(self, key)
        self._on_change()

    def __ior__(self, other):
        dict.update(self, other)
        self._on_change()
        return self

    def setdefault(self, key, default=None):
        value = dict.setdefault(self, key, default)
        self._on_change()
        return value

    def update(self, *args, **kwargs):
        dict.update(self, *args, **kwargs)
        self._on_change()

    def pop(self, *args):
        value = dict.pop(self, *args)
        self._on_change()
        return value

    def popitem(self):
        item = dict.popitem(self)
        self._on_change()
        return item

    def clear(self):
        dict.clear(self)
        self._on_change()


def _unobserved():
    """The ``on_change`` of a context nobody exports."""


class RTContext:
    """Per-component execution context (one per activation).

    ``on_change`` is called after every write to :attr:`properties`;
    the hybrid container passes
    :meth:`repro.core.component.DRComComponent.note_change`.
    """

    def __init__(self, descriptor, kernel, on_change=_unobserved):
        self.descriptor = descriptor
        self.kernel = kernel
        #: Live configuration properties.  Conceptually a shared segment
        #: owned by the RT side: the management part *reads* it directly
        #: but *writes* only through the command queue.
        self.properties = LiveProperties(descriptor.property_dict(),
                                         on_change)
        #: Kernel objects backing the ports (name -> SHM or Mailbox).
        self.port_objects = {}
        #: The RT task once started (set by the container).
        self.task = None
        #: Jobs completed since activation.
        self.job_index = 0
        #: When the component was activated (set by the container).
        self.activated_at = None
        #: Scheduling latency of the current job (ns).
        self.last_latency = None

    @property
    def name(self):
        """The component name."""
        return self.descriptor.name

    @property
    def contract(self):
        """The component's real-time contract."""
        return self.descriptor.contract

    def now(self):
        """Current simulated time (ns)."""
        return self.kernel.now

    # ------------------------------------------------------------------
    # port access
    # ------------------------------------------------------------------
    def _port(self, name, direction):
        for port in self.descriptor.ports:
            if port.name == name.upper() and port.direction is direction:
                obj = self.port_objects.get(port.name)
                if obj is None:
                    raise KeyError(
                        "port %s of %s is not bound" % (name, self.name))
                return port, obj
        raise KeyError("component %s has no %s named %r"
                       % (self.name, direction.value, name))

    def read_inport(self, name):
        """Read the current data of an inport.

        SHM ports return the whole segment (a list); mailbox ports
        return the next message or ``None`` (non-blocking poll).
        """
        port, obj = self._port(name, PortDirection.IN)
        if isinstance(obj, SharedMemory):
            return obj.read()
        if isinstance(obj, RTFifo):
            return obj.read()
        return obj.receive_external()

    def inport_age_ns(self, name):
        """Nanoseconds since the inport's SHM segment was written."""
        port, obj = self._port(name, PortDirection.IN)
        if not isinstance(obj, SharedMemory):
            raise TypeError("inport %s is not shared memory" % name)
        return obj.age_ns()

    def write_outport(self, name, values):
        """Write data to an outport.

        SHM ports take a full segment (list) or a scalar (broadcast to
        element 0); mailbox ports take one message.  Returns True when
        the write landed (mailbox sends may drop when full).
        """
        port, obj = self._port(name, PortDirection.OUT)
        if isinstance(obj, SharedMemory):
            if isinstance(values, (list, tuple)):
                obj.write(list(values), writer=self.name)
            else:
                obj.write_at(0, values, writer=self.name)
            return True
        if isinstance(obj, Mailbox):
            return obj.send_external(values)
        if isinstance(obj, RTFifo):
            return obj.put(values)
        raise TypeError("outport %s has unsupported backing %r"
                        % (name, obj))

    # ------------------------------------------------------------------
    # digital I/O (Figure 3: "connect to sensors or actuators")
    # ------------------------------------------------------------------
    def read_sensor(self, channel):
        """Sample a digital-I/O input channel."""
        dio = getattr(self.kernel, "dio", None)
        if dio is None:
            raise RuntimeError(
                "no DIO module attached; call repro.rtos.dio"
                ".attach_dio(kernel) first")
        return dio.read(channel)

    def write_actuator(self, channel, value):
        """Drive a digital-I/O output channel."""
        dio = getattr(self.kernel, "dio", None)
        if dio is None:
            raise RuntimeError(
                "no DIO module attached; call repro.rtos.dio"
                ".attach_dio(kernel) first")
        dio.write(channel, value)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def get_property(self, name, default=None):
        """Read a live property."""
        return self.properties.get(name, default)

    def status_snapshot(self):
        """Small status dict replies carry."""
        return {
            "job_index": self.job_index,
            "last_latency_ns": self.last_latency,
            "time_ns": self.now(),
        }

    def __repr__(self):
        return "RTContext(%s, job=%d)" % (self.name, self.job_index)


def bind_ports(ctx, kernel, bindings):
    """Create/attach the kernel objects backing a component's ports.

    Outports are *owned*: the SHM segment or mailbox is created (or
    attached, for an already-existing shared reference) under the port's
    own name -- the global communication reference of section 2.3.
    Inports attach to the provider's object named in the binding.
    """
    descriptor = ctx.descriptor
    for port in descriptor.outports:
        if port.interface is PortInterface.RTAI_SHM:
            obj = kernel.shm_alloc(port.name, port.data_type, port.size,
                                   owner=ctx.name)
        elif port.interface is PortInterface.RTAI_FIFO:
            obj = (kernel.lookup(port.name) if kernel.exists(port.name)
                   else kernel.fifo_create(port.name,
                                           capacity=port.size))
        else:
            if kernel.exists(port.name):
                obj = kernel.lookup(port.name)
            else:
                obj = kernel.mailbox(port.name, capacity=port.size)
        ctx.port_objects[port.name] = obj
    by_inport = {binding.inport.name: binding for binding in bindings}
    for port in descriptor.inports:
        binding = by_inport.get(port.name)
        if binding is None:
            raise KeyError("inport %s of %s has no binding"
                           % (port.name, ctx.name))
        if port.interface is PortInterface.RTAI_SHM:
            obj = kernel.shm_alloc(binding.kernel_object, port.data_type,
                                   port.size, owner=ctx.name)
        else:
            obj = kernel.lookup(binding.kernel_object)
        ctx.port_objects[port.name] = obj


def unbind_ports(ctx, kernel):
    """Release the kernel objects backing a component's ports."""
    descriptor = ctx.descriptor
    for port in descriptor.outports + descriptor.inports:
        obj = ctx.port_objects.pop(port.name, None)
        if obj is None:
            continue
        if isinstance(obj, SharedMemory):
            kernel.shm_free(obj.name, owner=ctx.name)
        elif isinstance(obj, (Mailbox, RTFifo)):
            # Mailboxes and FIFOs are owned by the outport side only.
            if port.direction is PortDirection.OUT \
                    and kernel.exists(obj.name):
                kernel.free_object(obj.name)
