"""Exact finite-N Gibbs statistics of the monomer count on the complete graph.

The Hamiltonian depends on a dimer configuration D only through the monomer
density m = (N - 2|D|)/N, so the law of the monomer count S_N collapses to an
explicit weighted sum over the dimer number k = |D|:

    w_k = C(N, k) * N^{-k} * exp( N [ (h-J) m_k + J m_k^2 ] ),
    C(N, k) = N! / ( (N-2k)! 2^k k! ),   m_k = (N - 2k)/N,

with S_N = N - 2k supported on one parity class.  All weights are kept in log
space (they span e^{+-N} scales); probabilities are materialized only after a
log-sum-exp shift.  Construction is O(N) and exact for N up to 1e5 and beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .quadrature import log_integral, peaked_components
from .thermo import ModelParams

__all__ = [
    "MonomerLaw",
    "matching_count_log",
    "monomer_law",
    "log_partition",
    "pressure",
    "log_partition_pure",
    "mgf",
    "mgf_direct",
    "mean_density",
    "pure_pressure_derivative",
    "SmoothedDensity",
]


def matching_count_log(N: int, k) -> float:
    """log of the number of k-dimer matchings of the complete graph K_N,
    log[ N! / ((N-2k)! 2^k k!) ], via log-gamma."""
    kk = np.asarray(k)
    if np.any((kk < 0) | (2 * kk > N)):
        raise ValueError(f"dimer count k must satisfy 0 <= k <= N/2, got k={k}, N={N}")
    val = (
        gammaln(N + 1.0)
        - gammaln(N - 2.0 * kk + 1.0)
        - kk * math.log(2.0)
        - gammaln(kk + 1.0)
    )
    return float(val) if np.ndim(k) == 0 else val


@dataclass(frozen=True, eq=False)
class MonomerLaw:
    """Exact law of the monomer count S_N = N - 2k under the Gibbs measure."""

    N: int
    params: ModelParams
    log_weights: np.ndarray = field(repr=False)
    log_Z: float
    probabilities: np.ndarray = field(repr=False)

    @property
    def k_values(self):
        return np.arange(self.N // 2 + 1)

    @property
    def s_values(self):
        """Support of S_N, decreasing in k (same parity as N)."""
        return self.N - 2 * self.k_values

    @property
    def densities(self):
        return self.s_values / self.N

    def mean_s(self) -> float:
        return float(np.dot(self.probabilities, self.s_values))

    def central_moment(self, order: int) -> float:
        s = self.s_values - self.mean_s()
        return float(np.dot(self.probabilities, s**order))

    def write_csv(self, fh) -> None:
        _write_atom_csv(fh, "log_weight", self.k_values, self.s_values,
                        self.log_weights, self.probabilities)

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "h": self.params.h,
            "J": self.params.J,
            "log_Z": self.log_Z,
            "k": self.k_values.tolist(),
            "S": self.s_values.tolist(),
            "log_weight": self.log_weights.tolist(),
            "probability": self.probabilities.tolist(),
        }


def _write_atom_csv(fh, value_name: str, k, s, values, probabilities) -> None:
    """Write one atom per row as ``k,S,<value_name>,probability``.

    Integers are written in full and floats with 17 significant digits
    (``%.17g``, which round-trips every double), rows end in ``\\r\\n``: the
    same bytes as ``csv.writer`` with ``format(x, ".17g")`` cells.  Formatting
    Python scalars from ``.tolist()`` with one ``%`` per row avoids a csv
    writer call and four NumPy scalar conversions per atom.
    """
    rows = zip(k.tolist(), s.tolist(), values.tolist(), probabilities.tolist())
    fh.write(f"k,S,{value_name},probability\r\n")
    fh.write("".join(["%d,%d,%.17g,%.17g\r\n" % row for row in rows]))


def monomer_law(N: int, params: ModelParams) -> MonomerLaw:
    """Construct the exact monomer-count law for system size N."""
    if N < 1:
        raise ValueError(f"system size must be positive, got N={N}")
    k = np.arange(N // 2 + 1)
    m = (N - 2.0 * k) / N
    log_w = (
        matching_count_log(N, k)
        - k * math.log(N)
        + N * ((params.h - params.J) * m + params.J * m * m)
    )
    log_Z = float(logsumexp(log_w))
    probs = np.exp(log_w - log_Z)
    probs /= probs.sum()
    return MonomerLaw(N=N, params=params, log_weights=log_w, log_Z=log_Z, probabilities=probs)


def log_partition(N: int, params: ModelParams) -> float:
    """log Z_N for the full model."""
    return monomer_law(N, params).log_Z


def pressure(N: int, params: ModelParams) -> float:
    """Finite-N pressure density log(Z_N)/N."""
    return log_partition(N, params) / N


# (field, atom) cells per block in log_partition_pure: 256 KB per temporary
_CELLS = 1 << 15


def log_partition_pure(N: int, fields) -> np.ndarray | float:
    """log Z_N of the pure hard-core model (J = 0) at one or many external
    fields; vectorized over fields for quadrature callbacks.

    Fields are processed in blocks of max(1, _CELLS // (N//2 + 1)) rows, so
    the temporaries take O(_CELLS) memory whatever the number of fields (one
    row of N//2 + 1 cells when that exceeds _CELLS); each field's result is
    bitwise the same as from a single fields x atoms broadcast."""
    hs = np.atleast_1d(np.asarray(fields, dtype=np.float64))
    k = np.arange(N // 2 + 1)
    base = matching_count_log(N, k) - k * math.log(N)
    s = N - 2.0 * k
    rows = max(1, _CELLS // len(k))
    out = np.empty(len(hs))
    for i in range(0, len(hs), rows):
        out[i:i + rows] = logsumexp(base + hs[i:i + rows, None] * s, axis=1)
    return float(out[0]) if np.ndim(fields) == 0 else out


def _exp_or_overflow(log_val: float, t: float) -> float:
    if log_val > math.log(np.finfo(float).max):
        raise OverflowError(
            f"MGF exponent {log_val:.3g} overflows double precision at t={t}"
        )
    return math.exp(log_val)


def mgf(N: int, params: ModelParams, eta: float, u: float, t: float) -> float:
    """Moment generating function of (S_N - u) / N^eta under the Gibbs law.

    At J = 0 the ratio identity
        E exp(t (S_N - u)/N^eta) = e^{-t u / N^eta} Z0(h + t/N^eta) / Z0(h)
    is used; for J > 0 the expectation is summed directly (mgf_direct).
    Exponents that would overflow raise OverflowError instead of returning inf.
    """
    if eta < 0:
        raise ValueError(f"scaling exponent eta must be >= 0, got {eta}")
    if params.J != 0.0:
        return mgf_direct(N, params, eta, u, t)
    scale = N**eta
    log_val = (
        -t * u / scale
        + log_partition_pure(N, params.h + t / scale)
        - log_partition_pure(N, params.h)
    )
    return _exp_or_overflow(log_val, t)


def mgf_direct(N: int, params: ModelParams, eta: float, u: float, t: float) -> float:
    """Direct-sum route for the MGF (independent of the ratio identity).

    The sum runs over the log weights, not the probabilities, so atoms whose
    probability underflows never reach a log; at t = 0 it is exactly 1."""
    law = monomer_law(N, params)
    log_val = float(
        logsumexp(law.log_weights + t * (law.s_values - u) / N**eta) - law.log_Z
    )
    return _exp_or_overflow(log_val, t)


def mean_density(N: int, params: ModelParams) -> float:
    """E[m_N] = E[S_N]/N under the exact law."""
    return monomer_law(N, params).mean_s() / N


def pure_pressure_derivative(N: int, h: float, k: int) -> float:
    """Exact d^k/dh^k of the pure-model pressure log(Z0_N)/N, k = 0..4.

    The h-derivatives of log Z0_N are the cumulants of S_N, computed here by
    shifted-moment accumulation around the mean (raw moments of S_N ~ N^4
    lose too many digits).
    """
    if not 0 <= k <= 4:
        raise ValueError(f"derivative order must be in 0..4, got {k}")
    law = monomer_law(N, ModelParams(h=h, J=0.0))
    if k == 0:
        return law.log_Z / N
    if k == 1:
        return law.mean_s() / N
    mu2 = law.central_moment(2)
    if k == 2:
        return mu2 / N
    if k == 3:
        return law.central_moment(3) / N
    return (law.central_moment(4) - 3.0 * mu2 * mu2) / N


class SmoothedDensity:
    """Law of W / N^{1/2-eta} + (S_N - N u) / N^{1-eta} for an independent
    Gaussian W ~ N(0, 1/(2J)), J > 0.

    Two exact representations are carried side by side:

    * ``mixture``: the finite Gaussian mixture with component means
      (S_k - N u)/N^{1-eta} and common variance N^{2eta-1}/(2J), weighted by
      the exact monomer law;
    * ``analytic``: C_N exp(N F_N(x/N^eta + u)) with
      F_N(y) = -J y^2 + log(Z0_N(2Jy + h - J))/N and the normalizer C_N
      obtained by adaptive quadrature.

    The two routes share nothing beyond the matching counts, so their
    pointwise agreement is a strong consistency check of the whole stack.
    """

    def __init__(self, N: int, params: ModelParams, eta: float = 0.0, u: float = 0.0):
        if params.J <= 0.0:
            raise ValueError("Gaussian smoothing requires J > 0")
        if eta < 0:
            raise ValueError(f"scaling exponent eta must be >= 0, got {eta}")
        self.N = int(N)
        self.params = params
        self.eta = float(eta)
        self.u = float(u)
        self.law = monomer_law(N, params)
        self.component_means = (self.law.s_values - N * self.u) / N ** (1.0 - eta)
        self.component_var = N ** (2.0 * eta - 1.0) / (2.0 * params.J)
        self._log_norm = None

    # -- mixture route -----------------------------------------------------
    def log_mixture(self, x):
        xx = np.atleast_1d(np.asarray(x, dtype=np.float64))
        z = xx[:, None] - self.component_means[None, :]
        expo = -(z * z) / (2.0 * self.component_var)
        log_p = self.law.log_weights - self.law.log_Z
        out = logsumexp(
            log_p[None, :] + expo, axis=1
        ) - 0.5 * math.log(2.0 * math.pi * self.component_var)
        return out[0] if np.ndim(x) == 0 else out

    def mixture(self, x):
        return np.exp(self.log_mixture(x))

    # -- analytic route ----------------------------------------------------
    def _n_log_shape(self, y):
        """N * F_N(y) = -N J y^2 + log Z0_N(2 J y + h - J), vectorized in y."""
        yy = np.asarray(y, dtype=np.float64)
        fields = 2.0 * self.params.J * yy + self.params.h - self.params.J
        return -self.N * self.params.J * yy * yy + log_partition_pure(self.N, fields)

    @property
    def log_normalizer(self) -> float:
        """log C_N with C_N^{-1} = integral of exp(N F_N(x/N^eta + u)) dx."""
        if self._log_norm is None:
            pieces = peaked_components(self._n_log_shape, -1.0, 2.0)
            if not pieces:
                raise ValueError("normalization failed: no density mass located")
            log_int_y = logsumexp([log_integral(self._n_log_shape, a, b) for a, b in pieces])
            self._log_norm = -(self.eta * math.log(self.N) + float(log_int_y))
        return self._log_norm

    def log_analytic(self, x):
        xx = np.asarray(x, dtype=np.float64)
        y = xx / self.N**self.eta + self.u
        return self.log_normalizer + self._n_log_shape(y)

    def analytic(self, x):
        return np.exp(self.log_analytic(x))
