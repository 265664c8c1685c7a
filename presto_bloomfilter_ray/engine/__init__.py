from .agg import (
    SketchAgg,
    build_sketch,
    grouped_sketch,
    merge_serialized_column,
    salted_grouped_sketch,
)
from .ops import (
    ContainsFilter,
    contains_column,
    from_base64,
    get_expected_insertions,
    get_false_positive_percentage,
    get_or_load,
    semi_join,
    to_base64,
)
from .http_service import HttpStore, SketchHTTPService
from .store import ActorKVStore, SketchStore, open_store

__all__ = [
    "HttpStore",
    "SketchHTTPService",
    "SketchAgg",
    "salted_grouped_sketch",
    "build_sketch",
    "grouped_sketch",
    "merge_serialized_column",
    "ContainsFilter",
    "semi_join",
    "contains_column",
    "to_base64",
    "from_base64",
    "get_expected_insertions",
    "get_false_positive_percentage",
    "get_or_load",
    "SketchStore",
    "ActorKVStore",
    "open_store",
]
