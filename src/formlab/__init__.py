"""Finite-state Dirichlet form solvers for semilinear equations with measure data."""

from .forms import (DirichletForm, FormError, GreenOperatorUndefined, Problem,
                    SignedMeasure, StateSpace, build_form, perturb)
from .drivers import Driver, DriverError, make_driver, truncate_data, yosida_regularize
from .catalog import (CATALOG, DescriptorError, build_catalog_problem,
                      catalog_ids, load_problem)
from .markov import (Chain, RevuzReport, build_chain, default_horizon_cap,
                     revuz_check)
from .bsde import (BsdeSolution, LadderTrace, MartingaleReport, SolverError,
                   martingale_residual_check, solve_finite_horizon,
                   solve_random_horizon_ladder)
from .elliptic import (METHODS, Check, EllipticSolution,
                       UnboundedSolutionError, duality_check,
                       green_bound_check, l1_bound_check, solve,
                       solve_elliptic_gauss_seidel, solve_elliptic_ladder,
                       solve_elliptic_mc, truncation_report, verify_solution)
from .convergence import StudyReport, boundary_exponent_fit, convergence_study, green_profile_1d

__version__ = "0.1.0"
