"""IIM core: individual-model learning, adaptive selection, imputation."""
from .adaptive import adaptive_learn
from .iim import impute
from .linalg import make_grid, prefix_params, prefix_params_scratch
from .nn import collect_relation, knn_numpy, pairwise_dist

__all__ = [
    "adaptive_learn",
    "collect_relation",
    "impute",
    "knn_numpy",
    "make_grid",
    "pairwise_dist",
    "prefix_params",
    "prefix_params_scratch",
]
