import json
from pathlib import Path

import pytest

from ran_topo.config import ExperimentConfig

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_config_round_trips(path):
    obj = json.loads(path.read_text())
    assert ExperimentConfig.from_dict(obj).to_dict() == obj


def test_empty_config_is_the_default_experiment():
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()
    default = json.loads((CONFIGS[0].parent / "default.json").read_text())
    assert ExperimentConfig.from_dict(default) == ExperimentConfig()
