"""The managed declarative real-time component.

A :class:`DRComComponent` is the DRCR's record of one deployed DRCom:
descriptor + lifecycle state + (when instantiated) the hybrid container
executing it and the port bindings connecting it.  Mutating the
lifecycle requires the DRCR's capability token; everything else is
read-only from outside, enforcing the paper's central-management rule
(section 2.2).
"""

from repro.core.errors import LifecycleError, NotManagedByDRCRError
from repro.core.lifecycle import (
    INSTANTIATED_STATES,
    ComponentState,
    can_transition,
)


class LifecycleToken:
    """Capability object proving the caller is the owning DRCR."""

    __slots__ = ("owner",)

    def __init__(self, owner):
        self.owner = owner


class DRComComponent:
    """One deployed declarative real-time component."""

    def __init__(self, descriptor, bundle, token):
        self.descriptor = descriptor
        self.bundle = bundle
        self._token = token
        #: Back-reference set by the owning ComponentRegistry so state
        #: changes keep its per-state index current.
        self._registry = None
        self._state = ComponentState.INSTALLED
        #: The hybrid container while instantiated, else None.
        self.container = None
        #: PortBindings where this component is the requirer.
        self.bindings = []
        #: OSGi registration of the management service while active.
        self.management_registration = None
        #: Why the component is currently unsatisfied/rejected.
        self.status_reason = ""

    # ------------------------------------------------------------------
    # identity / views
    # ------------------------------------------------------------------
    @property
    def state(self):
        """Current lifecycle state (Figure 1)."""
        return self._state

    @state.setter
    def state(self, value):
        # Every assignment -- _transition or a test shortcut -- funnels
        # through here so the registry's state index never goes stale.
        old = self._state
        self._state = value
        if self._registry is not None and old is not value:
            self._registry._state_changed(self, old, value)

    def note_change(self):
        """Mark the owning registry changed (see
        ``ComponentRegistry.change_mark``): the hybrid container's
        live-property map calls this after every write.  A no-op while
        unregistered."""
        registry = self._registry
        if registry is not None:
            registry.change_mark += 1

    @property
    def name(self):
        """The component's globally unique name."""
        return self.descriptor.name

    @property
    def contract(self):
        """The component's real-time contract."""
        return self.descriptor.contract

    @property
    def enabled(self):
        """Whether the component may be resolved (not DISABLED)."""
        return self.state not in (ComponentState.DISABLED,
                                  ComponentState.DISPOSED)

    @property
    def is_active(self):
        """Whether the RT task is running under contract."""
        return self.state is ComponentState.ACTIVE

    @property
    def is_instantiated(self):
        """Whether the RT task exists in the kernel at all."""
        return self.state in INSTANTIATED_STATES

    @property
    def provides(self):
        """Outport signatures this component offers when active."""
        return [port.signature() for port in self.descriptor.outports]

    @property
    def requires(self):
        """Inport signatures this component needs to activate."""
        return [port.signature() for port in self.descriptor.inports]

    def bound_providers(self):
        """Names of components currently feeding this one's inports."""
        return sorted({binding.provider for binding in self.bindings})

    def snapshot(self):
        """Plain-data status (used by the management interface)."""
        return {
            "name": self.name,
            "state": self.state.value,
            "bundle": self.bundle.symbolic_name if self.bundle else None,
            "contract": self.contract.as_dict(),
            "properties": self.descriptor.property_dict(),
            "providers": self.bound_providers(),
            "reason": self.status_reason,
        }

    # ------------------------------------------------------------------
    # lifecycle (DRCR-only)
    # ------------------------------------------------------------------
    def _transition(self, token, target, reason=""):
        """Move to ``target``; only the owning DRCR's token is accepted.

        Raises :class:`NotManagedByDRCRError` for a foreign/missing
        token and :class:`LifecycleError` for an illegal edge.
        """
        if token is not self._token:
            raise NotManagedByDRCRError(
                "component %s lifecycle is owned by its DRCR; direct "
                "transitions are not allowed" % self.name)
        if not can_transition(self.state, target):
            raise LifecycleError(
                "illegal transition %s -> %s for component %s"
                % (self.state.value, target.value, self.name))
        self.state = target
        self.status_reason = reason

    def __repr__(self):
        return "DRComComponent(%s, %s)" % (self.name, self.state.value)
