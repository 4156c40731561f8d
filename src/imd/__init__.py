"""Numerical toolkit for the mean-field imitative monomer-dimer model.

Exact finite-N Gibbs statistics of the monomer count, thermodynamic-limit
solvers (pressure, phase diagram, coexistence curve, critical point), Laplace
asymptotics of the pure partition function, and convergence checks for the
limiting laws of the monomer density.
"""

from .thermo import (
    ModelParams,
    g,
    g_derivative,
    p0,
    rate_function,
    tilde_p,
    variational_pressure,
)
from .exact import log_partition, monomer_law, pressure
from .phase import (
    classify,
    clt_variance,
    find_critical_point,
    solve_consistency,
    trace_gamma,
)
from .laplace import gaussian_rep_log_partition, laplace_approx, pure_asymptote_ratio
from .limits import (
    Gaussian,
    PointMass,
    Quartic,
    TwoPointMixture,
    coexistence_masses,
    convergence_study,
    ks_distance,
    scaled_law,
)

__version__ = "0.1.0"
