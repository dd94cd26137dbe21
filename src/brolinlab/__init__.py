"""Orthogonal polynomials, their dynamics, and equilibrium measures."""

__version__ = "0.1.0"

from .convergence import (ConvergenceReport, HypothesisViolation, SweepConfig,
                          laplacian_pairing_check, mass_escape,
                          preimage_count, probe_ring, regularity_report,
                          report_from_json, report_to_csv, report_to_json,
                          run_sweep, weak_star_distance,
                          weak_star_distance_se, zero_distribution)
from .dynamics import (PolyDyn, RootSolveError, brolin_sample, capacity_julia,
                       escape_radius, filled_julia_grid,
                       functional_equation_residual, green_value, poly_roots,
                       preimages)
from .equilibrium import (EquilibriumResult, FrostmanReport, equilibrium_measure,
                          equilibrium_to_files, filled_hull, frostman_check,
                          outer_boundary_mask, reference_equilibrium,
                          support_gridset)
from .grids import (GridField, GridSet, Rectangle, gridfield_to_csv,
                    gridset_from_files, gridset_to_files, rasterize_circle,
                    rasterize_disk, rasterize_rectangle_outline,
                    rasterize_segment)
from .measures import (Density, EmpiricalMeasure, MeasureSpec,
                       MeasureSpecError, PrecisionExhaustedError,
                       QuadratureMeasure, capacity_from_energy,
                       default_node_count, empirical_from_csv,
                       empirical_to_csv, energy, make_quadrature,
                       measure_schema, potential, quadrature_from_csv,
                       quadrature_to_csv, validate_measure_dict)
from .orthopoly import (DegenerateQuadratureError, MinimalityReport,
                        OrthoBasis, basis_from_json, basis_to_json,
                        monic_minimality_check, orthonormal_basis)
from .testfunctions import (AnnularBump, RadialBump, TestFunctionSet,
                            WindowFunction, default_test_functions)

__all__ = [name for name in dir() if not name.startswith("_")]
