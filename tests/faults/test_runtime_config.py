"""The RuntimeConfig record and the deprecated keyword shim."""

import pytest

from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.runtime.app import Application
from repro.runtime.clock import SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.sema.analyzer import analyze

DESIGN = """\
device Sensor {
    source reading as Float;
}

context Echo as Float {
    when provided reading from Sensor
    always publish;
}
"""


def design():
    return analyze(DESIGN)


class TestRuntimeConfig:
    def test_defaults_match_the_legacy_constructor(self):
        config = RuntimeConfig()
        assert config.clock is None
        assert config.error_policy == "raise"
        assert config.supervision is None
        assert config.supervision_overrides == {}
        assert not config.supervised()
        assert config.stale_policy == StalePolicy("skip")

    def test_invalid_error_policy_rejected(self):
        with pytest.raises(ValueError, match="error_policy"):
            RuntimeConfig(error_policy="pray")

    def test_policy_fields_are_type_checked(self):
        with pytest.raises(TypeError, match="StalePolicy"):
            RuntimeConfig(stale="last_known")
        with pytest.raises(TypeError, match="SupervisionPolicy"):
            RuntimeConfig(supervision="yes please")

    def test_replace_returns_an_updated_copy(self):
        base = RuntimeConfig()
        isolated = base.replace(error_policy="isolate")
        assert isolated.error_policy == "isolate"
        assert base.error_policy == "raise"

    def test_supervised_when_any_policy_present(self):
        policy = SupervisionPolicy()
        assert RuntimeConfig(supervision=policy).supervised()
        assert RuntimeConfig(
            supervision_overrides={"Sensor": policy}
        ).supervised()

    def test_describe_is_loggable(self):
        config = RuntimeConfig(
            clock=SimulationClock(),
            supervision=SupervisionPolicy(),
            supervision_overrides={"Sensor": SupervisionPolicy()},
        )
        summary = config.describe()
        assert summary["clock"] == "SimulationClock"
        assert summary["error_policy"] == "raise"
        assert summary["supervision"].startswith("SupervisionPolicy(")
        assert set(summary["supervision_overrides"]) == {"Sensor"}


class TestApplicationAcceptsConfig:
    def test_config_fields_reach_the_application(self):
        clock = SimulationClock()
        config = RuntimeConfig(
            clock=clock, name="Configured", error_policy="isolate"
        )
        app = Application(design(), config)
        assert app.clock is clock
        assert app.name == "Configured"
        assert app.config is config

    def test_default_config_when_omitted(self):
        app = Application(design())
        assert isinstance(app.config, RuntimeConfig)
        assert app.config.error_policy == "raise"


class TestLegacyKeywordShim:
    """The keyword route is gone: ``RuntimeConfig`` is the only way to
    configure an application, and a stray keyword is a plain
    ``TypeError``."""

    def test_config_plus_keywords_is_an_error(self):
        with pytest.raises(TypeError, match="error_policy"):
            Application(
                design(), RuntimeConfig(), error_policy="isolate"
            )

    def test_unknown_keyword_is_an_error_without_warning(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            with pytest.raises(TypeError, match="wibble"):
                Application(design(), wibble=1)
            with pytest.raises(TypeError, match="clock"):
                Application(design(), clock=SimulationClock())
