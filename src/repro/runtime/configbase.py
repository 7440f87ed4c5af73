"""Shared protocol of the frozen configuration family.

Every section of :class:`~repro.runtime.config.RuntimeConfig`
(``CacheConfig``, ``BatchConfig``, ``ShardConfig``, ``PlacementConfig``,
``NetworkConfig``) and the config record itself
are frozen dataclasses.  Whoever re-tunes a running application — a
caller of ``Application.apply_config``, a tuning controller — derives
the neighbouring config from the running one through one uniform
contract:

* :meth:`ConfigBase.replace` — ``dataclasses.replace`` **plus a full
  re-validation** of the copy.  ``__post_init__`` checks re-run on
  construction, and :meth:`ConfigBase.validate` is re-invoked explicitly
  so subclasses can add cross-field checks beyond what construction
  enforces.  A replaced config is exactly as trustworthy as a freshly
  constructed one.
* :meth:`ConfigBase.validate` — explicit re-run of the construction
  checks on an existing instance (the default delegates to
  ``__post_init__``, which every config keeps idempotent).

The protocol is deliberately dependency-free: config modules across the
runtime and faults packages can adopt it without import cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Any

__all__ = ["ConfigBase"]


class ConfigBase:
    """Mixin giving a frozen config dataclass the uniform protocol."""

    def validate(self) -> None:
        """Re-run construction-time validation on this instance.

        The default re-invokes ``__post_init__`` (idempotent across the
        config family); subclasses add cross-field checks here.
        """
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def replace(self, **changes: Any) -> Any:
        """A copy with ``changes`` applied and **fully re-validated**.

        ``dataclasses.replace`` re-runs ``__post_init__``; the explicit
        :meth:`validate` call on top guarantees any subclass-level
        checks run too, so an invalid field combination can never ride
        in through a replace.
        """
        replaced = dataclasses.replace(self, **changes)
        replaced.validate()
        return replaced
