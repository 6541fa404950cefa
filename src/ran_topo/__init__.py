"""Pre-deployment mobility-relation prediction for mobile radio networks.

Builds an attributed graph of cells, filters geographically plausible
neighbor candidates, and trains two inductive link predictors (an MLP
baseline and a GraphSAGE-based GNN) to score cell pairs.
"""
