"""Binding times for entity binding.

"Depending on the area and orchestration scale, entity binding can occur
at configuration time, deployment time, launch time, or runtime"
(Section IV).  :class:`Deployment` models that spectrum: entities are
*staged* with a :class:`BindingTime`, and each phase of the deployment
life-cycle binds its stage into the application's registry.

* ``CONFIGURATION`` — bound as soon as staged (the design-time inventory);
* ``DEPLOYMENT`` — bound by :meth:`Deployment.deploy` (field installation);
* ``LAUNCH`` — bound by :meth:`Deployment.launch`, immediately before the
  application starts;
* ``RUNTIME`` — staged entities join a *running* application via
  :meth:`Deployment.bind_runtime` (or by registering directly), the usual
  mode in pervasive computing (Section IV.1).
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.errors import BindingError
from repro.runtime.device import DeviceInstance


class BindingTime(enum.Enum):
    CONFIGURATION = "configuration"
    DEPLOYMENT = "deployment"
    LAUNCH = "launch"
    RUNTIME = "runtime"


class Deployment:
    """Staged entity binding across the deployment life-cycle."""

    def __init__(self, application):
        self.application = application
        self._staged: Dict[BindingTime, List[DeviceInstance]] = {
            time: [] for time in BindingTime
        }
        self._phase = BindingTime.CONFIGURATION

    def stage(
        self,
        instance: DeviceInstance,
        when: BindingTime = BindingTime.DEPLOYMENT,
    ) -> DeviceInstance:
        """Declare that ``instance`` becomes available at phase ``when``.

        Configuration-time entities bind immediately.
        """
        if when is BindingTime.CONFIGURATION:
            self.application.bind_device(instance)
        else:
            self._staged[when].append(instance)
        return instance

    def deploy(self) -> int:
        """Bind every deployment-time entity; returns how many."""
        bound = self._bind_stage(BindingTime.DEPLOYMENT)
        self._phase = BindingTime.DEPLOYMENT
        return bound

    def launch(self) -> int:
        """Bind launch-time entities, then start the application."""
        if self._staged[BindingTime.DEPLOYMENT]:
            raise BindingError(
                "deployment-time entities are still staged; call deploy() "
                "before launch()"
            )
        bound = self._bind_stage(BindingTime.LAUNCH)
        self._phase = BindingTime.LAUNCH
        self.application.start()
        self._phase = BindingTime.RUNTIME
        return bound

    def bind_runtime(self) -> int:
        """Bind runtime-staged entities into the running application."""
        if not self.application.started:
            raise BindingError(
                "runtime binding requires a started application"
            )
        return self._bind_stage(BindingTime.RUNTIME)

    def _bind_stage(self, when: BindingTime) -> int:
        """Bind the stage as one column, in order: all of it, or (when
        a bind check fails) none of it, left staged for a retry."""
        staged = self._staged[when]
        self.application.bind_instances(staged)
        bound = len(staged)
        staged.clear()
        return bound

    @property
    def phase(self) -> BindingTime:
        return self._phase

    def staged_count(self, when: BindingTime) -> int:
        return len(self._staged[when])
