"""The paper's evaluation: configurations, runner, tables, figures."""

from . import calibration
from .figures import FigureData, build_figure, figure_to_csv, render_figure
from .parallel import (
    CellResult,
    CellTask,
    default_jobs,
    run_cells,
    run_series_parallel,
)
from .progress import ProgressReporter
from .runner import (
    APPS,
    AppSpec,
    DataTemplate,
    ExperimentResult,
    run_configuration,
    run_series,
)
from .tables import ResponseTimeTable, TableCell, build_table, render_table, table_to_csv

__all__ = [
    "calibration",
    "FigureData",
    "build_figure",
    "render_figure",
    "figure_to_csv",
    "APPS",
    "AppSpec",
    "DataTemplate",
    "ExperimentResult",
    "run_configuration",
    "run_series",
    "CellResult",
    "CellTask",
    "default_jobs",
    "run_cells",
    "run_series_parallel",
    "ProgressReporter",
    "ResponseTimeTable",
    "TableCell",
    "build_table",
    "render_table",
    "table_to_csv",
]
