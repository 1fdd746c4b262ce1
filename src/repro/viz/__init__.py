"""Text-mode visualization and artifact export.

The paper's GUI component is out of scope (and matplotlib is unavailable
offline), so figures are regenerated as ASCII plots for the terminal plus
CSV artifacts for external plotting.
"""

from repro.viz.ascii import ascii_histogram, ascii_line_plot
from repro.viz.export import write_csv
from repro.viz.dashboard import render_dashboard, write_dashboard

__all__ = [
    "ascii_line_plot",
    "ascii_histogram",
    "write_csv",
    "render_dashboard",
    "write_dashboard",
]
