"""Synthetic paper datasets and missing-value injection."""
from .generators import DATASETS, DatasetSpec, attributes, generate
from .masking import inject_missing, split_complete

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "attributes",
    "generate",
    "inject_missing",
    "split_complete",
]
