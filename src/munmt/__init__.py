"""Desk-scale multilingual unsupervised machine translation trainer.

Everything is driven by a single experiment config and a single top-level
seed; see ``munmt.cli`` for the command surface.
"""

from .config import ExperimentConfig, load_config
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .pipeline import run_pipeline
from .synthlang import BenchmarkConfig, build_benchmark

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "NumericError",
    "build_benchmark",
    "load_config",
    "run_pipeline",
    "__version__",
]
