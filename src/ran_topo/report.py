"""Confusion-count report shared by the candidate baseline and the models."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts for one evaluation mode; ``pairs`` and the ratios
    derive from them, a ratio with an empty denominator as 0."""

    mode: str
    cutoff: float
    pairs: int = field(init=False)
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float = field(init=False)
    precision: float = field(init=False)
    recall: float = field(init=False)
    auc: float | None

    def __post_init__(self):
        tp, fp, tn, fn = self.tp, self.fp, self.tn, self.fn
        total = tp + fp + tn + fn
        object.__setattr__(self, "pairs", total)
        for name, num, den in (("accuracy", tp + tn, total), ("precision", tp, tp + fp), ("recall", tp, tp + fn)):
            object.__setattr__(self, name, num / den if den else 0.0)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)
