"""The experiment config. ``ExperimentConfig``'s field defaults are the
package's only experiment defaults, so ``{}`` is ``configs/default.json``.
Each section is a frozen dataclass that checks its values when built."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ValidationError
from .graph import check_ratios

BAND_RULE = "band"
SITE_MEAN_RULE = "site_mean"
DROP_ROW = "drop_row"  # the missing_policy values
FILL_COLUMN_MEAN = "fill_column_mean"
TX_POWER_RANGE = (10.0, 50.0)  # what synth draws a cell's tx_power from


def _is(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_is(value, alt) for alt in kind)
    if isinstance(kind, list):
        return (isinstance(value, (list, tuple)) and len(value) == kind[1]
                and all(_is(v, kind[0]) for v in value))
    if kind is None:
        return value is None
    if isinstance(value, bool) != (kind is bool):  # true and false are no numbers
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _checked(obj, where: str, types: dict) -> dict:
    """``obj``, once it is a JSON object whose keys are all in ``types`` and
    whose values have their key's JSON type: int, float (any number), bool,
    str, dict, list, None (null), a tuple of alternatives, or ``[type, n]``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object, not {type(obj).__name__}")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ValidationError(f"unknown {where} keys {unknown}")
    for key, value in obj.items():
        if not _is(value, types[key]):
            raise ValidationError(f"{where}.{key} has the wrong JSON type or length: {value!r}")
    return obj


class _Section:
    """A section whose JSON keys are its ``TYPES``; a JSON array is a tuple field."""

    @classmethod
    def from_dict(cls, obj, where: str = "config"):
        obj = _checked(obj, where, cls.TYPES)
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in obj.items()})

    def to_dict(self) -> dict:
        fields = asdict(self).items()
        return {key: list(v) if isinstance(v, tuple) else v for key, v in fields if key in self.TYPES}


def check_cutoff(cutoff: float) -> None:
    if not 0.0 <= cutoff <= 1.0:  # also refuses NaN
        raise ValidationError(f"cutoff must be in [0, 1], got {cutoff!r}")


@dataclass(frozen=True)
class SynthConfig(_Section):
    """The synthetic network generator's settings (``data.synthetic``)."""

    TYPES = {
        "sites": int, "cells_per_site": [int, 2], "bbox": [float, 4], "radius_km": float, "bands": int,
        "feature_noise": float, "seed": int, "edge_rule": str, "site_mean_threshold": float,
    }

    sites: int = 300
    cells_per_site: tuple[int, int] = (3, 7)
    bbox: tuple[float, float, float, float] = (56.8, 57.8, 11.0, 13.0)  # lat min/max, lon min/max
    radius_km: float = 4.0
    bands: int = 6
    feature_noise: float = 1.0
    seed: int = 0
    edge_rule: str = BAND_RULE
    # site_mean rule only; default = twice the tx_power midpoint, so roughly
    # half of the close pairs qualify
    site_mean_threshold: float = TX_POWER_RANGE[0] + TX_POWER_RANGE[1]

    def __post_init__(self):
        (lat_min, lat_max, lon_min, lon_max), (lo, hi) = self.bbox, self.cells_per_site
        for broken, rule in (
            (self.sites < 2, "sites must be >= 2"),
            (not 1 <= lo <= hi, "cells_per_site must be a range with 1 <= lo <= hi"),
            (not self.radius_km > 0, "radius_km must be > 0"),
            (self.bands < 1, "bands must be >= 1"),
            (not 0 <= self.feature_noise < math.inf, "feature_noise must be finite and >= 0"),
            (not math.isfinite(self.site_mean_threshold), "site_mean_threshold must be finite"),
            (not (lat_min < lat_max and lon_min < lon_max), "bbox must have positive extent"),
            (max(abs(lat_min), abs(lat_max)) > 60 or max(abs(lon_min), abs(lon_max)) > 180,
             "bbox must lie within |lat| <= 60, |lon| <= 180"),
            (self.seed < 0, "seed must be >= 0"),
            (self.edge_rule not in (BAND_RULE, SITE_MEAN_RULE), f"unknown edge rule {self.edge_rule!r}"),
        ):
            if broken:
                raise ValidationError(rule)


@dataclass(frozen=True)
class CandidateConfig:
    """K = max number of candidates, m = max haversine distance in km."""

    k: int
    max_dist: float = math.inf

    def __post_init__(self):
        if not (_is(self.k, int) and self.k >= 0):
            raise ValidationError(f"K must be an integer >= 0, got {self.k!r}")
        if not self.max_dist >= 0:  # also refuses NaN
            raise ValidationError(f"max distance must be >= 0, got {self.max_dist!r}")

    @classmethod
    def from_dict(cls, obj, where: str = "candidate config") -> CandidateConfig:
        """From ``{"k": ..., "max_dist_km": ...}``; a null or missing distance means no cap."""
        _checked(obj, where, {"k": int, "max_dist_km": (float, None)})
        if "k" not in obj:
            raise ValidationError(f"{where} needs k")
        max_dist = obj.get("max_dist_km")
        return cls(k=obj["k"], max_dist=math.inf if max_dist is None else float(max_dist))

    def to_dict(self) -> dict:
        return {"k": self.k, "max_dist_km": None if self.max_dist == math.inf else self.max_dist}


@dataclass(frozen=True)
class TrainConfig(_Section):
    TYPES = {"epochs": int, "batch_size": int, "learning_rate": float,
             "resample_negatives": bool, "patience": (int, None)}
    # the synthetic default separates quickly; a short run keeps the model in
    # the paper-like regime instead of memorizing the box
    epochs: int = 6
    batch_size: int = 512
    learning_rate: float = 1e-3
    resample_negatives: bool = True
    patience: int | None = None

    def __post_init__(self):
        counts = (self.epochs, self.batch_size) + (() if self.patience is None else (self.patience,))
        if not all(_is(c, int) and c > 0 for c in counts):
            raise ValidationError("epochs, batch_size and patience (when set) must be positive integers")
        if not (_is(self.learning_rate, float) and 0 <= self.learning_rate < math.inf):
            raise ValidationError(f"learning_rate must be a finite number >= 0, got {self.learning_rate!r}")


@dataclass(frozen=True)
class NetworkFiles(_Section):
    """A network read from ``cells.csv`` and ``edges.csv``."""

    TYPES = {"cells_csv": str, "edges_csv": str, "missing_policy": str}

    cells_csv: str
    edges_csv: str
    missing_policy: str = DROP_ROW

    def __post_init__(self):
        if self.missing_policy not in (DROP_ROW, FILL_COLUMN_MEAN):
            raise ValidationError(f"unknown missing_policy {self.missing_policy!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. The JSON keys are the field names, except that
    ``data`` holds ``{"synthetic": ...}`` or the network files, ``split``
    holds ``{"ratios": ...}`` and ``dims`` holds ``{"h": hidden, "d": embed}``."""

    seed: int = 7
    data: SynthConfig | NetworkFiles = SynthConfig()
    split: tuple[float, float, float] = (0.9, 0.05, 0.05)  # train, validation, test
    filter: CandidateConfig = CandidateConfig(k=60, max_dist=4.0)  # the baseline and candidate_filtered mode
    hidden: int = 64
    embed: int = 64
    train: TrainConfig = TrainConfig()
    cutoff: float = 0.5

    def __post_init__(self):
        check_cutoff(self.cutoff)
        check_ratios(self.split)
        if min(self.hidden, self.embed) <= 0:  # init_params' rule, before any stage runs
            raise ValidationError(f"dims must be positive, got h={self.hidden} d={self.embed}")

    @classmethod
    def from_dict(cls, obj) -> ExperimentConfig:
        _checked(obj, "config", {
            "seed": int, "data": dict, "split": dict,
            "filter": dict, "dims": dict, "train": dict, "cutoff": float,
        })
        fields = {key: obj[key] for key in ("seed", "cutoff") if key in obj}
        if "data" in obj:
            data = _checked(obj["data"], "data", {"synthetic": dict, **NetworkFiles.TYPES})
            if set(data) == {"synthetic"}:
                fields["data"] = SynthConfig.from_dict(data["synthetic"], "data.synthetic")
            elif "synthetic" not in data and {"cells_csv", "edges_csv"} <= set(data):
                fields["data"] = NetworkFiles(**data)
            else:
                raise ValidationError(f"data needs 'synthetic' or 'cells_csv' and 'edges_csv', not {sorted(data)}")
        if "split" in obj:
            split = _checked(obj["split"], "split", {"ratios": [float, 3]})
            fields["split"] = tuple(split.get("ratios", cls.split))
        if "filter" in obj:
            fields["filter"] = CandidateConfig.from_dict(obj["filter"], "filter")
        if "dims" in obj:
            dims = _checked(obj["dims"], "dims", {"h": int, "d": int})
            fields.update(hidden=dims.get("h", cls.hidden), embed=dims.get("d", cls.embed))
        if "train" in obj:
            fields["train"] = TrainConfig.from_dict(obj["train"], "train")
        return cls(**fields)

    def to_dict(self) -> dict:
        synthetic = isinstance(self.data, SynthConfig)
        return {
            "seed": self.seed,
            "data": {"synthetic": self.data.to_dict()} if synthetic else self.data.to_dict(),
            "split": {"ratios": list(self.split)},
            "filter": self.filter.to_dict(),
            "dims": {"h": self.hidden, "d": self.embed},
            "train": self.train.to_dict(),
            "cutoff": self.cutoff,
        }
