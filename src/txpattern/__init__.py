"""Subgraph-pattern features and price prediction for transaction graphs."""

from .backtest import (
    INTERVALS,
    DayTable,
    SplitSpec,
    decay_weights,
    horizon_sweep,
    run_backtest,
    window_sweep,
)
from .errors import TxPatternError
from .features import day_feature_table
from .ingest import parse_prices, parse_transactions, partition_daily
from .korder import occurrence_matrices, occurrence_matrix_oracle
from .regress import RegressorSpec, load_model, predict, save_model
from .synth import SynthSpec, generate, write_synth
from .txgraph import build_graph

__version__ = "0.1.0"

# the names the README's library example and the CLI subcommands use
__all__ = [
    "DayTable",
    "INTERVALS",
    "RegressorSpec",
    "SplitSpec",
    "SynthSpec",
    "TxPatternError",
    "build_graph",
    "day_feature_table",
    "decay_weights",
    "generate",
    "horizon_sweep",
    "load_model",
    "occurrence_matrices",
    "occurrence_matrix_oracle",
    "parse_prices",
    "parse_transactions",
    "partition_daily",
    "predict",
    "run_backtest",
    "save_model",
    "window_sweep",
    "write_synth",
]
