"""Threshold bootstrap percolation on two-dimensional lattices.

Exact neighbourhood geometry (critical thresholds, stable and quasi-stable
directions), closure dynamics on finite domains, droplet algorithms, the
random-permutation hitting-time process, and a declarative scenario runner.
"""

from .geometry import (
    Direction,
    ModelWarning,
    Neighbourhood,
    NeighbourhoodSpec,
    StabilityReport,
    build_neighbourhood,
    consecutive_directions,
    critical_threshold,
    quasi_stable_directions,
    stability_report,
    support_value,
)
from .dynamics import (
    Configuration,
    Domain,
    InfectionGraph,
    closure,
    closure_synchronous,
    infection_graph,
    is_closed,
    parse_grid_text,
    to_grid_text,
)
from .droplets import (
    Droplet,
    canonical_radii,
    droplet_algorithm,
    droplet_union,
    internally_filled,
    single_site_growth_check,
    smallest_containing,
)
from .quasidroplets import (
    DegenerateDropletError,
    ExtensionParams,
    ExtensionTrace,
    QuasiDroplet,
    extension_algorithm,
    u_extension,
)
from .process import (
    ProcessRecord,
    SweepSummary,
    run_once,
    run_sweep,
    summarise,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    figure3_counts,
    load_scenario,
    run_scenario,
)

__version__ = "0.1.0"
