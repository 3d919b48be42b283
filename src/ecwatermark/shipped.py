"""Access to the packaged demo configuration and scenario files."""

from __future__ import annotations

from importlib import resources

from .scenario import Scenario
from .switching import SwitchingConfig

SCENARIOS = ("nominal", "replay", "replay_static")


def _data_dir():
    return resources.files("ecwatermark").joinpath("data")


def data_text(name: str) -> str:
    return _data_dir().joinpath(name).read_text(encoding="utf-8")


def data_names() -> list[str]:
    return sorted(p.name for p in _data_dir().iterdir() if p.name.endswith(".json"))


def load_demo_config() -> SwitchingConfig:
    """The shared-secret file used by the documentation and the sweeps."""
    return SwitchingConfig.from_json(data_text("demo_config.json"), path="demo_config")


def load_scenario(name: str) -> Scenario:
    """One of the shipped closed-loop scenarios: nominal, replay, replay_static."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    fname = f"scenario_{name}.json"
    return Scenario.from_json(data_text(fname), path=fname)
