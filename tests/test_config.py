import json
from pathlib import Path

import pytest

from ran_topo.config import CandidateConfig, ExperimentConfig, TrainConfig
from ran_topo.errors import ValidationError

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_config_round_trips(path):
    obj = json.loads(path.read_text())
    assert ExperimentConfig.from_dict(obj).to_dict() == obj


def test_empty_config_is_the_default_experiment():
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()
    default = json.loads((CONFIGS[0].parent / "default.json").read_text())
    assert ExperimentConfig.from_dict(default) == ExperimentConfig()


@pytest.mark.parametrize(
    "build",
    [
        lambda: CandidateConfig(k=2.5),  # GeoIndex.query would fail on it with a TypeError
        lambda: CandidateConfig(k=True),
        lambda: CandidateConfig(k=-1),
        lambda: TrainConfig(learning_rate=True),
        lambda: TrainConfig(epochs=True),
    ],
    ids=["fractional_k", "boolean_k", "negative_k", "boolean_learning_rate", "boolean_epochs"],
)
def test_library_callers_get_the_json_type_rules(build):
    with pytest.raises(ValidationError):
        build()
