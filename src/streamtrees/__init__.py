"""Streaming decision trees with contested design choices exposed as flags,
plus the synthetic drift streams and prequential testbench to measure them."""

from .detectors import AdwinDetector
from .evaluate import (
    ComparisonReport,
    PrequentialResult,
    averaged_series,
    binomial_test,
    ci_lower,
    compare,
    prequential_run,
)
from .hat import HatConfig, HoeffdingAdaptiveTreeClassifier
from .schema import Instance, NominalAttribute, NumericAttribute, Schema
from .specparse import (
    OutOfScopeError,
    ParseError,
    StreamSpec,
    build_generator,
    build_stream,
    parse_stream_spec,
)
from .streams import (
    AbruptDriftGenerator,
    CellTable,
    HyperplaneGenerator,
    RecurrentConceptDriftStream,
    SeaGenerator,
    StaggerGenerator,
    apply_drift,
)
from .tree import (
    HoeffdingTreeClassifier,
    LearningLeaf,
    NodeStatistics,
    SplitDecision,
    SplitNode,
    StrategyConfig,
    entropy,
    evaluate_split,
    hoeffding_bound,
    perform_split,
)

__all__ = [
    "AbruptDriftGenerator",
    "AdwinDetector",
    "CellTable",
    "ComparisonReport",
    "HatConfig",
    "HoeffdingAdaptiveTreeClassifier",
    "HoeffdingTreeClassifier",
    "HyperplaneGenerator",
    "Instance",
    "LearningLeaf",
    "NodeStatistics",
    "NominalAttribute",
    "NumericAttribute",
    "OutOfScopeError",
    "ParseError",
    "PrequentialResult",
    "RecurrentConceptDriftStream",
    "Schema",
    "SeaGenerator",
    "SplitDecision",
    "SplitNode",
    "StaggerGenerator",
    "StrategyConfig",
    "StreamSpec",
    "apply_drift",
    "averaged_series",
    "binomial_test",
    "build_generator",
    "build_stream",
    "ci_lower",
    "compare",
    "entropy",
    "evaluate_split",
    "hoeffding_bound",
    "parse_stream_spec",
    "perform_split",
    "prequential_run",
]
