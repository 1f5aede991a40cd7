"""Average consensus over wireless multiple-access channels.

Simulator and analysis library for a two-signal consensus protocol that
exploits the additive superposition of simultaneous wireless
transmissions: each agent broadcasts its state and a constant companion
signal, and mixes its own state with the ratio of the two superposed
signals it receives. The update is row-stochastic whatever the (positive,
unknown) channel coefficients are, so the network always agrees; the
agreement value depends on the coefficients.

The top level exports what a scenario needs end to end, each loaded from
its submodule on first use; every other name stays importable from its
submodule (``airconsensus.protocol`` and so on). Importing the package
alone loads no numpy, so the command line (``airconsensus.cli``) sets
numpy's BLAS thread count before numpy loads.
"""

from importlib import import_module

#: The submodule each exported name comes from.
_EXPORTS = {
    "decomposition_deviation": "analysis",
    "decomposition_matrices": "analysis",
    "fixed_point_residual": "analysis",
    "measure_rate": "analysis",
    "monte_carlo": "analysis",
    "stacked_arc_indicator": "analysis",
    "summarize_run": "analysis",
    "IID_PER_STEP": "channel",
    "TIME_INVARIANT": "channel",
    "ChannelModel": "channel",
    "ConstantLaw": "channel",
    "UniformLaw": "channel",
    "sample": "channel",
    "ConfigError": "config",
    "parse_config": "config",
    "preset": "config",
    "complete_graph": "graph",
    "step_size_bound": "graph",
    "dominant_left_eigenvector": "linalg",
    "graph_from_stochastic": "linalg",
    "is_primitive": "linalg",
    "is_row_stochastic": "linalg",
    "perron_matrix": "linalg",
    "second_eigenvalue_modulus": "linalg",
    "CONVERGED": "protocol",
    "ProtocolConfig": "protocol",
    "effective_matrix": "protocol",
    "naive_matrix": "protocol",
    "run": "protocol",
    "spread": "protocol",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    """An exported name, loaded from its submodule on first use."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
