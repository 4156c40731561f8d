"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written against the definitions, not against
the library's formulas: matchings are enumerated as explicit edge sets, and
partition functions are summed term by term in plain floats.  The
exceptions, ``full_support_law``, ``full_support_scaled`` and
``full_support_ks``, are the monomer law, its scaled atoms and the KS
distance evaluated on every atom: the references for the windowed law.
"""

import itertools
import math

import numpy as np
from scipy.special import gammaln, logsumexp


def all_matchings(n):
    """All matchings of the complete graph on vertices 0..n-1, as frozensets
    of edges (i, j) with i < j.  Grows super-exponentially; keep n <= 8."""
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2)]
    matchings = [frozenset()]
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(edges, size):
            used = [v for e in combo for v in e]
            if len(set(used)) == 2 * size:
                matchings.append(frozenset(combo))
    return matchings


def dimer_count_histogram(n):
    """Number of matchings of K_n per dimer count."""
    hist = {}
    for m in all_matchings(n):
        hist[len(m)] = hist.get(len(m), 0) + 1
    return hist


def brute_partition(n, h, J):
    """Z_N summed configuration by configuration from the definition."""
    total = 0.0
    for matching in all_matchings(n):
        k = len(matching)
        density = (n - 2 * k) / n
        total += n ** (-k) * math.exp(n * ((h - J) * density + J * density**2))
    return total


def brute_monomer_distribution(n, h, J):
    """Exact law of the monomer count from the enumeration."""
    weights = {}
    for matching in all_matchings(n):
        k = len(matching)
        density = (n - 2 * k) / n
        w = n ** (-k) * math.exp(n * ((h - J) * density + J * density**2))
        s = n - 2 * k
        weights[s] = weights.get(s, 0.0) + w
    z = sum(weights.values())
    return {s: w / z for s, w in weights.items()}


def full_support_law(n, h, J):
    """(log weights, log Z, probabilities) of the monomer law over all
    n//2 + 1 atoms k: log-gamma matching counts, one logsumexp and one
    normalizing sum over the whole support, with no window."""
    k = np.arange(n // 2 + 1)
    m = (n - 2.0 * k) / n
    log_w = (gammaln(n + 1.0) - gammaln(n - 2.0 * k + 1.0) - k * math.log(2.0)
             - gammaln(k + 1.0) - k * math.log(n) + n * ((h - J) * m + J * m * m))
    log_z = float(logsumexp(log_w))
    probs = np.exp(log_w - log_z)
    probs /= probs.sum()
    return log_w, log_z, probs


def full_support_scaled(n, params, eta, u):
    """Positions and probabilities of every atom, in increasing order."""
    _, _, probs = full_support_law(n, params.h, params.J)
    s = n - 2 * np.arange(n // 2 + 1)
    return ((s - n * u) / n**eta)[::-1].copy(), probs[::-1].copy()


def full_support_ks(pos, probs, law):
    """KS distance over every atom: CDF limits at each one, and a mask over
    the whole support for the masses below a limit law's atoms."""
    right = np.cumsum(probs)
    right[-1] = 1.0
    left = right - probs
    lim_at = np.asarray(law.cdf(pos), dtype=np.float64)
    atoms = getattr(law, "atoms", ())
    if not atoms:
        return min(max(float(np.max(np.abs(right - lim_at))),
                       float(np.max(np.abs(left - lim_at)))), 1.0)
    lim_left = np.asarray(law.cdf(pos - np.spacing(np.abs(pos) + 1.0)))
    d = [float(np.max(np.abs(right - lim_at))), float(np.max(np.abs(left - lim_left)))]
    for a in atoms:
        d.append(abs(float(np.sum(probs[pos < a]))
                     - float(law.cdf(a - np.spacing(abs(a) + 1.0)))))
        d.append(abs(float(np.sum(probs[pos <= a])) - float(law.cdf(a))))
    return min(max(d), 1.0)


def full_support_masses(n, params, cut):
    """The two basin masses, the first summed over a mask of every atom
    whose density lies below the cut."""
    _, _, probs = full_support_law(n, params.h, params.J)
    dens = (n - 2 * np.arange(n // 2 + 1)) / n
    mass1 = float(np.sum(probs[dens < cut]))
    return mass1, 1.0 - mass1


def fixed_point_density(h, J, m0=0.5, sweeps=500):
    """Damped fixed-point iteration on m = g((2m-1)J + h) written from scratch
    (including its own g), as an oracle for the consistency solver."""

    def g_ref(x):
        ex = math.exp(x)
        return ex * (math.sqrt(ex * ex + 4.0) - ex) / 2.0

    m = m0
    for _ in range(sweeps):
        target = g_ref((2.0 * m - 1.0) * J + h)
        m = 0.5 * m + 0.5 * target
    return m
