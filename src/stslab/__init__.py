"""Finite-difference laboratory for super-time-stepping schemes.

Prices European and digital payoffs under a stochastic-volatility model (2-D)
and under constant volatility (1-D) with stabilized explicit Runge-Kutta
integrators built on Chebyshev, Legendre and Gegenbauer recurrences, plus
implicit references.  The operator assembly exposes several upwinding
policies so the stability impact of exponential fitting regions can be
studied directly on spectra and time-convergence ladders.
"""

from .grids import (Grid1D, StretchKind, StretchSpec, make_cubic, make_grid,
                    make_sinh, make_uniform)
from .operators import (BsParams, HestonParams, StencilOperator, UpwindPolicy,
                        apply, assemble_bs, assemble_heston, fitting_factor,
                        peclet, to_sparse)
from .schemes import (ExplosionError, FamilyKind, InfeasibleStepError, RunLog,
                      SchemeFamily, StageCoefficients, explicit_euler,
                      make_coefficients, rkc, rkg, rkl, run_integrator,
                      select_stage_count, stability_extent,
                      stability_poly_eval, super_step)
from .implicit import (BandedLU, BandedMatrix, banded_factor,
                       crank_nicolson_run, operator_banded, trbdf2_run)
from .spectra import Spectrum, eigenvalues_dense, gershgorin_radius, write_spectrum
from .experiments import (BsScenario, ConvergenceStudy, DEFAULT_LADDER,
                          ExperimentReport, Payoff, PayoffKind, bs_closed_form,
                          bs_cubic_grid, bs_sinh_grid, bs_uniform_grid, call,
                          clean_threshold, default_bs_params,
                          default_heston_params, delta_surface, digital_range,
                          foulon_grid_v, foulon_grid_x, oscillation_metric,
                          payoff_eval, price_at_spot, put, rms_error, roi_mask,
                          run_bs_study, run_delta_comparison,
                          run_time_convergence)
from .cli import RunConfig, default_config, dispatch, main, parse_config

__version__ = "0.1.0"
