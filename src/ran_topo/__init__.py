"""Pre-deployment mobility-relation prediction for mobile radio networks.

Builds an attributed graph of cells, filters geographically plausible
neighbor candidates, and trains two inductive link predictors (a concat-MLP
baseline and a GraphSAGE-based GNN) to score cell pairs.
"""

from .candidate import CandidateConfig, candidates, candidates_for_new, geo_distance
from .graph import CellId, FeatureMatrix, NodeSplit, RanGraph, build_graph, remove_nodes, split_nodes
from .report import EvalReport

__version__ = "0.1.0"

__all__ = [
    "CandidateConfig",
    "CellId",
    "EvalReport",
    "FeatureMatrix",
    "NodeSplit",
    "RanGraph",
    "build_graph",
    "candidates",
    "candidates_for_new",
    "geo_distance",
    "remove_nodes",
    "split_nodes",
    "__version__",
]
