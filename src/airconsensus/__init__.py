"""Average consensus over wireless multiple-access channels.

Simulator and analysis library for a two-signal consensus protocol that
exploits the additive superposition of simultaneous wireless
transmissions: each agent broadcasts its state and a constant companion
signal, and mixes its own state with the ratio of the two superposed
signals it receives. The update is row-stochastic whatever the (positive,
unknown) channel coefficients are, so the network always agrees; the
agreement value depends on the coefficients.

The top level exports what a scenario needs end to end; every other name
stays importable from its submodule (``airconsensus.protocol`` and so on).
"""

from .analysis import (
    decomposition_deviation,
    decomposition_matrices,
    fixed_point_residual,
    measure_rate,
    monte_carlo,
    stacked_arc_indicator,
    summarize_run,
)
from .channel import IID_PER_STEP, TIME_INVARIANT, ChannelModel, ConstantLaw, UniformLaw, sample
from .config import ConfigError, parse_config, preset
from .graph import complete_graph, step_size_bound
from .linalg import (
    dominant_left_eigenvector,
    graph_from_stochastic,
    is_primitive,
    is_row_stochastic,
    perron_matrix,
    second_eigenvalue_modulus,
)
from .protocol import CONVERGED, ProtocolConfig, effective_matrix, naive_matrix, run, spread

__version__ = "0.1.0"

__all__ = [
    "CONVERGED",
    "ChannelModel",
    "ConfigError",
    "ConstantLaw",
    "IID_PER_STEP",
    "ProtocolConfig",
    "TIME_INVARIANT",
    "UniformLaw",
    "complete_graph",
    "decomposition_deviation",
    "decomposition_matrices",
    "dominant_left_eigenvector",
    "effective_matrix",
    "fixed_point_residual",
    "graph_from_stochastic",
    "is_primitive",
    "is_row_stochastic",
    "measure_rate",
    "monte_carlo",
    "naive_matrix",
    "parse_config",
    "perron_matrix",
    "preset",
    "run",
    "sample",
    "second_eigenvalue_modulus",
    "spread",
    "stacked_arc_indicator",
    "step_size_bound",
    "summarize_run",
]
