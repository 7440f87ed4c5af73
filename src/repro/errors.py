"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single type at their outermost layer.  Errors are
split along the tool-chain stages described in the paper: parsing a DiaSpec
design, semantically analyzing it, generating a framework from it, and
running the orchestrating application.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class DiaSpecError(ReproError):
    """Base class for errors in a DiaSpec design (syntax or semantics)."""


class DiaSpecSyntaxError(DiaSpecError):
    """A DiaSpec design could not be tokenized or parsed.

    Carries the source position so tooling can point at the offending text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SemanticError(DiaSpecError):
    """A DiaSpec design parsed but violates a semantic rule."""

    def __init__(self, message: str, declaration: str = ""):
        self.declaration = declaration
        if declaration:
            message = f"in declaration '{declaration}': {message}"
        super().__init__(message)


class SccViolationError(SemanticError):
    """A design violates the Sense-Compute-Control paradigm.

    Examples: a controller publishing a value, a controller feeding a
    context, a context issuing device actions, or a cycle among contexts.
    """


class DuplicateDeclarationError(SemanticError):
    """Two top-level declarations (or two facets) share a name."""


class UnknownNameError(SemanticError):
    """A declaration references a name that is not declared anywhere."""


class TypeMismatchError(SemanticError):
    """Two typed positions that must agree do not."""


class CodegenError(ReproError):
    """Framework generation failed for an analyzed design."""


class RuntimeOrchestrationError(ReproError):
    """Base class for errors during application execution."""


class BindingError(RuntimeOrchestrationError):
    """Entity binding failed (missing implementation, bad attributes...)."""


class DiscoveryError(RuntimeOrchestrationError):
    """A discovery request matched no entity when one was required."""


class DeliveryError(RuntimeOrchestrationError):
    """A data-delivery request could not be satisfied."""


class DeviceUnavailableError(DeliveryError):
    """A specific entity cannot serve reads right now.

    Raised when a device has failed, exhausted its supervised retry
    budget, or is quarantined.  Carries the originating ``entity_id`` so
    supervision layers (and ``app.component_errors``) can attribute the
    failure.  Subclasses :class:`DeliveryError` so pre-supervision code
    that catches the broad type keeps working.
    """

    def __init__(self, message: str, entity_id: Optional[str] = None):
        self.entity_id = entity_id
        super().__init__(message)


class CircuitOpenError(DeviceUnavailableError):
    """An entity's circuit breaker is open; the call was not attempted.

    Distinct from :class:`DeviceUnavailableError` proper: the runtime
    *chose* not to touch the device (fail-fast), rather than trying and
    failing.  Degraded-delivery policies treat both the same way.
    """


class ContextNotQueryableError(DeliveryError):
    """A query-driven pull targeted a context without ``when required``.

    Carries the ``context`` name so callers building query surfaces
    over many contexts can report exactly which one was misused.
    Subclasses :class:`DeliveryError` so existing broad handlers keep
    working.
    """

    def __init__(self, message: str, context: Optional[str] = None):
        self.context = context
        super().__init__(message)


class ShardError(RuntimeOrchestrationError):
    """A sharded-runtime worker failed or the coordinator lost it.

    Raised by :class:`repro.runtime.shard.ShardedRuntime` when a worker
    process dies, returns a malformed reply, or reports an exception
    while executing a shard command.  Carries the ``shard`` index so
    operators can correlate with the ``shard_*`` metric families.
    """

    def __init__(self, message: str, shard: Optional[int] = None):
        self.shard = shard
        if shard is not None:
            message = f"shard {shard}: {message}"
        super().__init__(message)


class PlacementError(RuntimeOrchestrationError):
    """The edge/cloud placement tier was misconfigured or misused.

    Raised when an entity cannot be assigned to an edge node (missing
    edge attribute, attribute value owned by no declared node, unknown
    node id in a deployment descriptor) or when a placement tier name
    is not one of the continuum tiers.  Carries the offending
    ``entity_id`` and/or ``node`` when the failure identified them.
    """

    def __init__(
        self,
        message: str,
        entity_id: Optional[str] = None,
        node: Optional[str] = None,
    ):
        self.entity_id = entity_id
        self.node = node
        super().__init__(message)


class TuningError(RuntimeOrchestrationError):
    """The live-tuning layer was misconfigured or misused.

    Raised for unknown knob names, knobs on a config section that is
    absent, a controller built with no knobs or started before its
    application, or an ``Application.apply_config`` that would change
    a structural (non-live) config field or retune a sharded
    application.
    """


class ActuationError(RuntimeOrchestrationError):
    """An action could not be issued to a device."""


class DeviceFailureError(RuntimeOrchestrationError):
    """A simulated device failure surfaced to the application layer."""


class ValueConformanceError(RuntimeOrchestrationError):
    """A runtime value does not conform to its declared DiaSpec type."""


class ComponentError(NamedTuple):
    """One contained component failure (``error_policy='isolate'``).

    ``entity_id`` is the originating entity when the failure carried one
    (a :class:`DeviceUnavailableError` raised mid-gather, say); ``None``
    for pure component-logic failures.
    """

    component: str
    error: Exception
    entity_id: Optional[str] = None
