"""Binding times: configuration / deployment / launch / runtime (§IV)."""

import pytest

from repro.errors import BindingError
from repro.runtime.app import Application
from repro.runtime.binding import BindingTime, Deployment
from repro.runtime.component import Context
from repro.runtime.device import CallableDriver, DeviceInstance
from repro.sema.analyzer import analyze

DESIGN = """\
device Sensor { source reading as Float; }
context Sweep as Integer {
    when periodic reading from Sensor <1 min>
    always publish;
}
"""


class SweepImpl(Context):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def on_periodic_reading(self, readings, discover):
        self.sizes.append(len(readings))
        return len(readings)


def make_sensor(design, entity_id):
    return DeviceInstance(
        design.devices["Sensor"],
        entity_id,
        CallableDriver(sources={"reading": lambda: 1.0}),
    )


@pytest.fixture
def setup():
    design = analyze(DESIGN)
    app = Application(design)
    app.implement("Sweep", SweepImpl())
    return design, app, Deployment(app)


class TestStagingPhases:
    def test_configuration_binds_immediately(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "c1"),
                         BindingTime.CONFIGURATION)
        assert len(app.registry) == 1

    def test_deployment_binds_on_deploy(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "d1"), BindingTime.DEPLOYMENT)
        assert len(app.registry) == 0
        assert deployment.deploy() == 1
        assert len(app.registry) == 1

    def test_launch_binds_then_starts(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "l1"), BindingTime.LAUNCH)
        deployment.deploy()
        deployment.launch()
        assert app.started
        assert len(app.registry) == 1

    def test_launch_requires_deploy_first(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "d1"), BindingTime.DEPLOYMENT)
        with pytest.raises(BindingError, match="deploy"):
            deployment.launch()

    def test_runtime_binding_joins_running_app(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "d1"), BindingTime.DEPLOYMENT)
        deployment.stage(make_sensor(design, "r1"), BindingTime.RUNTIME)
        deployment.deploy()
        deployment.launch()
        app.advance(60)
        assert deployment.bind_runtime() == 1
        app.advance(60)
        sweep = app.implementation("Sweep")
        assert sweep.sizes == [1, 2]

    def test_runtime_binding_requires_started_app(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "r1"), BindingTime.RUNTIME)
        with pytest.raises(BindingError, match="started"):
            deployment.bind_runtime()

    def test_phase_tracking(self, setup):
        design, app, deployment = setup
        assert deployment.phase is BindingTime.CONFIGURATION
        deployment.deploy()
        assert deployment.phase is BindingTime.DEPLOYMENT
        deployment.launch()
        assert deployment.phase is BindingTime.RUNTIME

    def test_staged_count(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "r1"), BindingTime.RUNTIME)
        deployment.stage(make_sensor(design, "r2"), BindingTime.RUNTIME)
        assert deployment.staged_count(BindingTime.RUNTIME) == 2
        deployment.launch()
        deployment.bind_runtime()
        assert deployment.staged_count(BindingTime.RUNTIME) == 0

    def test_a_failed_stage_keeps_only_what_did_not_bind(self, setup):
        """Each instance leaves the stage as it binds: a collision on
        the second of three leaves two staged, and deploy() binds both
        once the conflict is gone."""
        design, app, deployment = setup
        app.bind_device(make_sensor(design, "d2"))
        for entity_id in ("d1", "d2", "d3"):
            deployment.stage(
                make_sensor(design, entity_id), BindingTime.DEPLOYMENT
            )
        with pytest.raises(BindingError, match="already registered"):
            deployment.deploy()
        assert deployment.staged_count(BindingTime.DEPLOYMENT) == 2
        app.unbind_device("d2")
        assert deployment.deploy() == 2
        assert app.registry.entity_ids() == ["d1", "d2", "d3"]
        assert deployment.staged_count(BindingTime.DEPLOYMENT) == 0
