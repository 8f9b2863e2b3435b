"""Finite-difference solvers for 2D semilinear weakly coupled parabolic systems.

Second-order central (cds) and fourth-order compact (cfds) spatial schemes,
theta-weighted time stepping with inexact Newton/BiCGStab(2) solves, and
Richardson extrapolation in space and space-time, validated on a
manufactured-solution problem and a 10-species air-pollution model.
"""

from .grid import (Grid2D, TimeGrid, build_grid, build_time_grid, lex_index,
                   restrict, to_interior_grid, validate_field)
from .model import (ProblemSpec, MU_FAST, MU_STANDARD, make_example1,
                    make_example2, manufactured_forcing, manufactured_solution,
                    rotational_wind)
from .airchem import (RateSet, SPECIES, boundary_signal, rate_coefficients,
                      reaction_jacobian, reaction_rates)
from .cds import StencilMatrix
from .cfds import CompactCoefficients, compact_coefficients
from .krylov import KrylovBreakdown, KrylovReport, bicgstab_l, matvec
from .stepper import (SolverFailure, SolverReport, advance, average_counts,
                      boundary_fold, build_scheme, initial_field, integrate,
                      residual)
from .richardson import extrapolate_space, extrapolate_spacetime, re_weights
from .analysis import (ConvergenceRow, max_norm_error, positivity_scan,
                       probe_values, ratio_and_order, runge_order)

__version__ = "0.1.0"
