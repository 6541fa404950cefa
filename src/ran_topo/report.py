"""Confusion-count report shared by the candidate baseline and the models."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


def safe_ratio(num: int, den: int) -> float:
    """num/den with 0 for an empty denominator, so reports stay numeric."""
    return num / den if den else 0.0


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts plus derived metrics for one evaluation mode."""

    mode: str
    cutoff: float
    pairs: int
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    auc: float | None

    @classmethod
    def from_counts(
        cls,
        mode: str,
        cutoff: float,
        tp: int,
        fp: int,
        tn: int,
        fn: int,
        auc: float | None,
    ) -> "EvalReport":
        total = tp + fp + tn + fn
        return cls(
            mode=mode,
            cutoff=cutoff,
            pairs=total,
            tp=tp,
            fp=fp,
            tn=tn,
            fn=fn,
            accuracy=safe_ratio(tp + tn, total),
            precision=safe_ratio(tp, tp + fp),
            recall=safe_ratio(tp, tp + fn),
            auc=auc,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)
