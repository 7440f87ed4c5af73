"""Audit of the supported public surface (`repro.api`).

Three contracts: every exported name resolves, every exported name is
documented in the README's public-surface table, and importing the
facade is silent — no DeprecationWarning may fire on the supported
import path, because that is the one place users cannot migrate away
from.
"""

import os
import subprocess
import sys

import repro.api as api

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


class TestExports:
    def test_every_name_is_importable(self):
        missing = [
            name for name in api.__all__ if not hasattr(api, name)
        ]
        assert missing == []

    def test_all_is_sorted_and_unique(self):
        assert list(api.__all__) == sorted(set(api.__all__))

    def test_no_undocumented_config_family_members(self):
        # The whole live-knob config family rides on the facade.
        for name in (
            "ConfigBase",
            "RuntimeConfig",
            "CacheConfig",
            "BatchConfig",
            "ShardConfig",
            "PlacementConfig",
            "NetworkConfig",
        ):
            assert name in api.__all__, name

    def test_tuning_surface_is_exported(self):
        for name in (
            "TuningController",
            "Knob",
            "KnobRegistry",
            "TuningError",
        ):
            assert name in api.__all__, name
            assert hasattr(api, name)


class TestReadmeDocumentsTheSurface:
    def test_every_export_appears_in_the_readme(self):
        with open(README, "r", encoding="utf-8") as handle:
            text = handle.read()
        undocumented = [
            name for name in api.__all__ if f"`{name}`" not in text
        ]
        assert undocumented == []


class TestImportIsWarningFree:
    def test_importing_the_facade_raises_no_deprecation_warning(self):
        # A fresh interpreter so no cached module hides a warning.
        result = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro.api",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
