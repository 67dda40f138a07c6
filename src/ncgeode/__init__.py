"""Exact arithmetic for the noncommutative Lagrange series, the geode, and
their k-, t- and e-generalizations, with combinatorial and generating-function
cross-checks."""

from .coeffring import (EPoly, PolyT, binomial_polynomial,
                        elementary_of_multiple, epoly_evaluate,
                        EPOLY_RING, INT_RING, POLYT_RING)
from .ncsf import (NcsfSeries, annihilate, convert_basis, lagrange_transform,
                   negate_alphabet, phi_k, right_divide, right_quotient, series_inverse,
                   series_mul, series_power_binomial, sigma1, unit_series)
from .lagrange import (delta_coefficient, divisibility_check, eta_identities,
                       eta_t, free_cumulants, g_t, gamma_t, geode,
                       geode_by_division, gessel_gamma, h_t,
                       k_lagrange_direct, prime_series, solve_g, theta_t)
from .schroeder import (enumerate_prime_schroeder, enumerate_schroeder, g_e,
                        gamma_e, right_branch_partition, solve_xy_system)
from .gfseries import PowerSeries, closed_form, prefix_check, specialize_ncsf

__version__ = "0.1.0"

__all__ = [
    "EPoly", "PolyT", "binomial_polynomial", "elementary_of_multiple",
    "epoly_evaluate", "EPOLY_RING", "INT_RING", "POLYT_RING",
    "NcsfSeries", "annihilate", "convert_basis", "lagrange_transform",
    "negate_alphabet", "phi_k", "right_divide", "right_quotient", "series_inverse",
    "series_mul", "series_power_binomial", "sigma1", "unit_series",
    "delta_coefficient", "divisibility_check", "eta_identities", "eta_t",
    "free_cumulants", "g_t", "gamma_t", "geode", "geode_by_division",
    "gessel_gamma", "h_t", "k_lagrange_direct", "prime_series", "solve_g",
    "theta_t",
    "enumerate_prime_schroeder", "enumerate_schroeder", "g_e", "gamma_e",
    "right_branch_partition", "solve_xy_system",
    "PowerSeries", "closed_form", "prefix_check", "specialize_ncsf",
    "__version__",
]
