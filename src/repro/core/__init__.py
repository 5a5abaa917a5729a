"""IIM core: individual-model learning, adaptive selection, imputation."""
from .adaptive import adaptive_learn, adaptive_reference
from .iim import combine_candidates, iim_impute, impute, learn_models
from .linalg import (
    DEFAULT_ALPHA,
    design,
    make_grid,
    prefix_params,
    prefix_params_scratch,
    predict,
    ridge_fit,
    ridge_solve,
    single_neighbor_phi,
)
from .nn import Relation, collect_relation, knn_join, knn_numpy, pairwise_dist

__all__ = [
    "DEFAULT_ALPHA",
    "Relation",
    "adaptive_learn",
    "adaptive_reference",
    "collect_relation",
    "combine_candidates",
    "design",
    "iim_impute",
    "impute",
    "knn_join",
    "knn_numpy",
    "learn_models",
    "make_grid",
    "pairwise_dist",
    "predict",
    "prefix_params",
    "prefix_params_scratch",
    "ridge_fit",
    "ridge_solve",
    "single_neighbor_phi",
]
