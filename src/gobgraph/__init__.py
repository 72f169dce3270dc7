"""Threshold random graphs driven by uniform (and radially reweighted)
laws on generalized Orlicz balls: samplers, graph statistics, moment and
correlation estimators, and Monte Carlo threshold scans."""

from .edges import edge_count, edge_endpoints, edge_index
from .estimators import (MomentEstimate, NcTestReport, estimate_moments,
                         marginal_bound_check, nc_test, wilson_interval)
from .experiments import (Crossing, ScanConfig, ScanResult, ScanRow,
                          er_connectivity_oracle, resolve_grid, run_scan,
                          threshold_locator)
from .graph import (ComponentStats, ThresholdGraph, build_graph, components,
                    components_bfs, histogram_stats, small_component_mass,
                    threshold_sweep)
from .orlicz import (Cap, ExponentialDecay, GobSpec, Indicator, Linear,
                     PiecewiseLinearConvex, Power, PowerDecay)
from .rng import substream
from .samplers import (SamplerConfig, ValidationReport, exact_twin,
                       hit_and_run, ks_critical, make_sampler, sample_cube,
                       sample_lq_orthant, sample_shared_scale, sample_simplex,
                       sample_simplex_censored, start_point, validate_sampler)

__version__ = "0.1.0"
