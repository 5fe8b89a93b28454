"""Resonator factorization of bipolar product vectors, with capacity benchmarks.

The package exports what the experiment scripts, the benchmark and the
acceptance tests import; everything else lives in its submodule.
"""

from .vsa import bind, bundle, dot, random_bipolar, sign_to_bipolar, similarity, unbind
from .packing import pack_bipolar, packed_dot
from .factorizer import (
    FactorizerConfig,
    FactorizerState,
    VariantSpec,
    derive_streams,
    init_estimates,
    perturb_codebooks,
    run,
    step,
)
from .presets import load_preset_table, lookup_preset
from .bench import SweepConfig, make_instance, oracle_agreement, run_sweep, trial_seed_for
from .report import emit_report, report_to_csv_bytes

__version__ = "0.1.0"

__all__ = [
    "bind",
    "bundle",
    "dot",
    "random_bipolar",
    "sign_to_bipolar",
    "similarity",
    "unbind",
    "pack_bipolar",
    "packed_dot",
    "FactorizerConfig",
    "FactorizerState",
    "VariantSpec",
    "derive_streams",
    "init_estimates",
    "perturb_codebooks",
    "run",
    "step",
    "load_preset_table",
    "lookup_preset",
    "SweepConfig",
    "make_instance",
    "oracle_agreement",
    "run_sweep",
    "trial_seed_for",
    "emit_report",
    "report_to_csv_bytes",
    "__version__",
]
