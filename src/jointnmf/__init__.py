"""Hybrid clustering of items with both content and connections.

Factorizes a feature-item matrix and an item-item similarity matrix
over a shared nonnegative embedding, with plain NMF and symmetric NMF
as special cases.  The package exports the fits and their options,
result and labels; the supporting pieces (graph and hypergraph
similarity construction, text preprocessing, clustering metrics and
citation recommendation) are its submodules, all imported here, so
jointnmf.recommend is the recommend module.
"""

from . import errors, factorize, graph, matrix, metrics, nls, recommend, textprep
from .factorize import (FactorizationResult, FactorizeOptions, hard_assign, joint_nmf, nmf,
                        nmf_each, symnmf)

__all__ = ["FactorizeOptions", "FactorizationResult", "joint_nmf", "nmf", "nmf_each", "symnmf",
           "hard_assign"]

__version__ = "0.1.0"
