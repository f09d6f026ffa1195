"""Asymmetric energy diffusions, their symmetric conjugates, and dual
inclusion particles: simulators and exact cross-checks.

The package is organized around one change of variables: a non-local map
turns the asymmetric diffusion into a symmetric one whose moments are
computable through absorbed random walkers.  Every closed-form quantity is
exposed next to at least one independent numerical route to the same
number.
"""
from .core import (DOMAIN_TOL, SystemParams, as_particles, as_state, map_g,
                   map_g_inv, partial_energies)
from .errors import (ConfigError, DomainError, NumericalBlowup, ParameterError,
                     RouteMismatch, SimulationCap, SingularSystem, SiteError,
                     ToolkitError)
from .generators import (Workspace, apply_generator, intertwining_residual,
                         model_parts)
from .sde import (CAP, SdeConfig, ensemble_endpoint, simulate_trajectory,
                  stationary_estimate)
from .sip import final_state_counts, mc_absorption, sip_rates
from .duality import (DualityCheck, classical_D, classical_D_sigma,
                      generator_duality_residual, laguerre_d, orthogonal_D,
                      orthogonal_D_sigma, pochhammer,
                      semigroup_duality_check)
from .absorption import (AbsorptionResult, single_absorption_solve,
                         single_right_closed, two_particle_closed_form,
                         two_particle_solve)
from .moments import (TwoPointReport, one_point_moment, one_point_routes,
                      reversible_cdf_1d, reversible_mass, reversible_moment,
                      reversible_sampler, two_point_closed_form,
                      two_point_moment, two_point_report)

__version__ = "0.1.0"

__all__ = [
    "CAP", "DOMAIN_TOL", "__version__",
    "SystemParams", "as_state", "as_particles", "partial_energies",
    "map_g", "map_g_inv",
    "ToolkitError", "ParameterError", "DomainError", "NumericalBlowup",
    "SimulationCap", "SingularSystem", "ConfigError", "RouteMismatch",
    "SiteError",
    "Workspace", "model_parts", "apply_generator", "intertwining_residual",
    "SdeConfig", "simulate_trajectory", "stationary_estimate",
    "ensemble_endpoint",
    "sip_rates", "mc_absorption", "final_state_counts",
    "pochhammer", "laguerre_d", "classical_D", "orthogonal_D",
    "classical_D_sigma", "orthogonal_D_sigma",
    "generator_duality_residual", "DualityCheck", "semigroup_duality_check",
    "AbsorptionResult", "single_absorption_solve", "single_right_closed",
    "two_particle_solve", "two_particle_closed_form",
    "TwoPointReport", "one_point_moment", "one_point_routes",
    "two_point_moment", "two_point_closed_form", "two_point_report",
    "reversible_mass", "reversible_moment", "reversible_sampler",
    "reversible_cdf_1d",
]
