"""Rendering helpers: text tables, figure series and the experiment index."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".tables": ("format_percentage", "format_table"),
        ".figures": ("FigureSeries", "cdf_series", "curve_series"),
        ".experiments": ("EXPERIMENTS", "Experiment", "get_experiment"),
        ".sweeps": ("format_sweep_table",),
    },
)
