"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written against the definitions, not against
the library's formulas: matchings are enumerated as explicit edge sets, and
partition functions are summed term by term in plain floats.  The
exceptions, ``full_support_law``, ``full_support_scaled`` and
``full_support_ks``, are the monomer law, its scaled atoms and the KS
distance evaluated on every atom: the references for the windowed law.
"""

import functools
import itertools
import math

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln, logsumexp, roots_hermitenorm


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


def tilted_log_mgf(log_z0, n, h, eta, u, t):
    """log E exp(t (S - u) / n^eta) under the J = 0 law at field h by the
    ratio identity E e^{t(S-u)/n^eta} = e^{-tu/n^eta} Z0(h + t/n^eta) / Z0(h):
    the weight of S is e^{hS} times a count, so the tilt shifts the field by
    t/n^eta.  ``log_z0(n, field)`` is the log pure partition function."""
    scale = n**eta
    return -t * u / scale + log_z0(n, h + t / scale) - log_z0(n, h)


@functools.lru_cache(maxsize=None)
def _hermite_squares(n):
    """x_j^2 over the n//2 positive roots x_j of the probabilists' Hermite
    polynomial He_n, the matching polynomial of K_n (Heilmann-Lieb: all its
    roots are real)."""
    return np.sort(roots_hermitenorm(n)[0])[n - n // 2:] ** 2


def hermite_log_partition_pure(n, h):
    """log Z0_n(h) = h n + sum_j log1p(x_j^2 e^{-2h} / n) over the positive
    roots x_j of He_n: the matching generating function of K_n factors over
    its roots.  Shares neither gammaln nor the log-weight sum with the
    library."""
    return h * n + float(np.sum(np.log1p(_hermite_squares(n) * math.exp(-2.0 * h) / n)))


def hermite_cumulants(n, h):
    """The cumulants kappa_1..kappa_4 of S = n - 2D at J = 0, field h.  The
    dimer count D is a sum of independent Bernoulli(p_j) with
    p_j = a_j / (1 + a_j), a_j = x_j^2 e^{-2h} / n, so each cumulant is a sum
    of Bernoulli cumulants, with no central-moment cancellation."""
    a = _hermite_squares(n) * math.exp(-2.0 * h) / n
    p = a / (1.0 + a)
    pq = p / (1.0 + a)  # p (1 - p)
    return (n - 2.0 * float(np.sum(p)), 4.0 * float(np.sum(pq)),
            -8.0 * float(np.sum(pq * (1.0 - 2.0 * p))),
            16.0 * float(np.sum(pq * (1.0 - 6.0 * pq))))


def hermite_berry_esseen(n, h):
    """Shevtsova's Berry-Esseen bound on the KS distance between the law of
    S = n - 2D at J = 0, field h, standardized by its exact mean and
    variance, and N(0, 1): 0.56 sum_j E|X_j - p_j|^3 / sigma^3 over the
    independent Bernoulli(p_j) summands X_j of D (hermite_cumulants), where
    E|X_j - p_j|^3 = p_j (1 - p_j) ((1 - p_j)^2 + p_j^2).  The factor -2 of
    S cancels in the ratio."""
    a = _hermite_squares(n) * math.exp(-2.0 * h) / n
    p = a / (1.0 + a)
    pq = p / (1.0 + a)  # p (1 - p)
    third = float(np.sum(pq * ((1.0 - p) ** 2 + p * p)))
    return 0.56 * third / float(np.sum(pq)) ** 1.5


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


def _reference_g(h):
    """g as the consistency solver below evaluated it: the rationalized form
    above h = -350, the printed difference below, one 0-d or n-d array route."""
    a = np.asarray(h, dtype=np.float64)
    rational = 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * np.exp(-2.0 * np.maximum(a, -350.0))))
    eh = np.exp(np.minimum(a, -350.0))
    return np.where(a > -350.0, rational, eh * (np.sqrt(eh * eh + 4.0) - eh) / 2.0)


def reference_consistency_roots(h, J):
    """A frozen copy of the consistency solver before the scan was cut at
    the spinodal densities: the 401-point scan, brentq on every sign change,
    then Newton to residual < 1e-13 with g' evaluated on every step, and
    polish results closer than 1e-9 merged.  The pin for the roots' bits."""
    if J == 0.0:
        return [float(_reference_g(h))]

    def residual(m):
        return m - _reference_g((2.0 * m - 1.0) * J + h)

    grid = np.linspace(0.0, 1.0, 401)
    res = residual(grid)
    roots = [float(m) for m in grid[res == 0.0]]
    for i in np.flatnonzero(res[:-1] * res[1:] < 0.0):
        roots.append(float(brentq(lambda m: float(residual(m)), grid[i], grid[i + 1],
                                  xtol=1e-15)))
    polished = []
    for m in roots:
        for _ in range(6):
            r = float(residual(m))
            gg = float(_reference_g((2.0 * m - 1.0) * J + h))
            d = 1.0 - 2.0 * J * (2.0 * gg * (1.0 - gg) / (2.0 - gg))
            if d == 0.0 or abs(r) < 1e-13:
                break
            m = min(max(m - r / d, 0.0), 1.0)
        polished.append(m)
    polished.sort()
    out = []
    for m in polished:
        if not out or m - out[-1] > 1e-9:
            out.append(m)
    return out


def stationary_count_mp(h, J, dps=30):
    """(roots, maxima): how many solutions m = g((2m-1)J + h) has in [0, 1]
    and how many of them are maxima of ptilde, at dps digits.

    The residual R(m) = m - g((2m-1)J + h) turns only where
    4J m^2 - (4J+1) m + 2 = 0 holds for g, so it is monotone between the two
    spinodal densities and each piece holds a root iff R changes sign on it.
    R rises on the outer pieces, whose roots are the maxima (ptilde' = -2J R).
    """
    with mpmath.workdps(dps):
        h, J = mpmath.mpf(h), mpmath.mpf(J)

        def residual(m):  # with 1 - g = 4t / (1 + sqrt(1 + 4t))^2, t = e^-2x, for x > 0
            x = (2 * m - 1) * J + h
            if x < 0:
                e = mpmath.exp(x)
                return m - e * (mpmath.sqrt(e * e + 4) - e) / 2
            t = mpmath.exp(-2 * x)
            return m - 1 + 4 * t / (1 + mpmath.sqrt(1 + 4 * t)) ** 2

        if J <= (3 + 2 * mpmath.sqrt(2)) / 4:
            return 1, 1  # below J_c the residual increases on all of [0, 1]
        cuts = []
        for sign in (-1, 1):
            g = (4 * J + 1 + sign * mpmath.sqrt((4 * J + 1) ** 2 - 32 * J)) / (8 * J)
            x = mpmath.log(g * g / (1 - g)) / 2
            cuts.append((x - h) / (2 * J) + mpmath.mpf(1) / 2)
        if not 0 < cuts[0] < cuts[1] < 1:
            return 1, 1  # a turn outside [0, 1]: R(0) < 0 < R(1) leaves one root
        signs = [mpmath.sign(residual(m)) for m in (mpmath.mpf(0), *cuts, mpmath.mpf(1))]
        pieces = [a != b for a, b in zip(signs, signs[1:])]
        return sum(pieces), pieces[0] + pieces[2]


def _falling_root(f_and_slope, lo, hi, tol):
    """The root of a decreasing f with f(lo) > 0 > f(hi): Newton steps that
    stay inside the bracket and at least halve the step before last, else
    bisection (Numerical Recipes' rtsafe), until a step is below tol."""
    step = last = hi - lo
    x = (lo + hi) / 2
    f, slope = f_and_slope(x)
    while True:
        if not lo < x - f / slope < hi or abs(2 * f) > abs(last * slope):
            last, step = step, (hi - lo) / 2
            x = lo + step
        else:
            last, step = step, f / slope
            x -= step
        if abs(step) < tol:
            return x
        f, slope = f_and_slope(x)
        if f > 0:
            lo = x
        elif f < 0:
            hi = x
        else:
            return x


def rate_sup_mp(h, J, dps=50):
    """(sup, (phi(c-), phi(c+))): sup over [0, 1] of (h - J) m + J m^2 - I(m)
    at dps digits, and the objective's slope phi at its turns c- and c+.

    phi = (h - J) + 2Jm - log m + log(1 - m)/2 is the objective's slope.
    It falls except between the roots c- < c+ of 4J m^2 - (4J+1) m + 2 = 0
    (J > J_c), so [0, c-] holds a maximum iff phi(c-) < 0 and [c+, 1] iff
    phi(c+) > 0; below J_c both cuts are 2 - sqrt 2.  Each maximum is solved
    to 1e-25 in u = log m or s = -log(1 - m), which keep m = e^-1000 and
    1 - m = e^-2000 apart from 0 and 1; the objective is flat there, so its
    value is good to far more digits.  The sup is taken over m = 0, 1, c-,
    c+ and the maxima.
    """
    with mpmath.workdps(dps):
        h, J = mpmath.mpf(h), mpmath.mpf(J)

        def objective(m):
            w = 1 - m
            rate = (m * mpmath.log(m) if m else 0) + (w * mpmath.log(w) / 2 if w else 0) + w / 2
            return (h - J) * m + J * m * m - rate

        def phi(m):
            return (h - J) + 2 * J * m - mpmath.log(m) + mpmath.log(1 - m) / 2

        def left(u):  # phi and dphi/du
            m = mpmath.exp(u)
            return (h - J) + 2 * J * m - u + mpmath.log1p(-m) / 2, 2 * J * m - 1 - m / (2 * (1 - m))

        def right(s):  # phi and dphi/ds, with w = 1 - m
            w = mpmath.exp(-s)
            return (h - J) + 2 * J * (1 - w) - mpmath.log1p(-w) - s / 2, 2 * J * w - w / (1 - w) - 0.5

        if J > (3 + 2 * mpmath.sqrt(2)) / 4:
            root = mpmath.sqrt((4 * J + 1) ** 2 - 32 * J)
            cuts = [(4 * J + 1 - root) / (8 * J), (4 * J + 1 + root) / (8 * J)]
        else:
            cuts = [2 - mpmath.sqrt(2)] * 2
        candidates = [mpmath.mpf(0), mpmath.mpf(1), *cuts]
        tol = mpmath.mpf(10) ** -25
        at_turns = phi(cuts[0]), phi(cuts[1])
        if at_turns[0] < 0:  # phi > 0 below u = h - J - 1
            candidates.append(mpmath.exp(_falling_root(left, h - J - 1, mpmath.log(cuts[0]), tol)))
        if at_turns[1] > 0:  # phi < 0 above s = 2(h + J) + 2
            s = _falling_root(right, -mpmath.log(1 - cuts[1]), 2 * (h + J) + 2, tol)
            candidates.append(-mpmath.expm1(-s))
        return max(objective(m) for m in candidates), at_turns


def height_gap_mp(h, J, x_seeds, dps=50):
    """ptilde(m2) - ptilde(m1) at (h, J) to dps digits, where m1 < m2 are the
    two maxima whose pure-model fields x = (2m-1)J + h lie near x_seeds.

    Each field solves x = h - J + 2J g(x) (the consistency equation in x),
    polished by findroot from its seed; p0 takes 1 - g from
    4 e^{-2x} / (1 + sqrt(1 + 4 e^{-2x}))^2 for x > 0, so neither the
    monomer-saturated maximum nor the sizes J of both pressures cost digits.
    """
    with mpmath.workdps(dps):
        h, J = mpmath.mpf(h), mpmath.mpf(J)

        def g(x):
            e = mpmath.exp(-2 * x)
            return 2 / (1 + mpmath.sqrt(1 + 4 * e))

        def one_minus_g(x):
            e = mpmath.exp(-2 * x)
            return 4 * e / (1 + mpmath.sqrt(1 + 4 * e)) ** 2

        def ptilde_at(x):
            m = (x - h + J) / (2 * J)
            q = one_minus_g(x)
            return -J * m * m - q / 2 - mpmath.log(q) / 2

        x1, x2 = (mpmath.findroot(lambda x: x - h + J - 2 * J * g(x), mpmath.mpf(x0))
                  for x0 in x_seeds)
        return ptilde_at(x2) - ptilde_at(x1)


def cut_scan_consistency_roots(h, J):
    """A frozen copy of the consistency solver that scanned the whole grid:
    the 401-point grid cut at the spinodal densities, evaluated as one array,
    brentq on every cell whose ends have residuals of opposite signs, then
    Newton to residual < 1e-13 (g' only where the residual is above it) and
    polish results closer than 1e-9 merged.  Its one change from that solver
    is the sign test, which compares signs where the solver multiplied the
    residuals (the product underflowed to -0.0 for a subnormal r(0)).  The
    pin for the bits of the piecewise walk."""
    if J == 0.0:
        return [float(_reference_g(h))]

    def residual(m):
        return m - _reference_g((2.0 * m - 1.0) * J + h)

    def g_prime(x):
        gg = float(_reference_g(x))
        return 2.0 * gg * (1.0 - gg) / (2.0 - gg)

    cuts = []
    if J >= (3.0 + 2.0 * math.sqrt(2.0)) / 4.0:
        j_c = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
        m_hi = (4.0 * J + 1.0 + 4.0 * math.sqrt((J - j_c) * (J - 1.0 / (16.0 * j_c)))) / (8.0 * J)
        for m in (1.0 / (2.0 * J * m_hi), m_hi):
            cuts.append((0.5 * math.log(m * m / (1.0 - m)) - h) / (2.0 * J) + 0.5)
    grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, 401), [c for c in cuts if 0.0 < c < 1.0]]))
    res = residual(grid)
    roots = [float(m) for m in grid[res == 0.0]]
    change = ((res[:-1] < 0.0) & (res[1:] > 0.0)) | ((res[:-1] > 0.0) & (res[1:] < 0.0))
    for i in np.flatnonzero(change):
        roots.append(float(brentq(lambda m: float(residual(m)), grid[i], grid[i + 1],
                                  xtol=1e-15)))
    polished = []
    for m in roots:
        for _ in range(6):
            r = float(residual(m))
            if abs(r) < 1e-13:
                break
            d = 1.0 - 2.0 * J * g_prime((2.0 * m - 1.0) * J + h)
            if d == 0.0:
                break
            m = min(max(m - r / d, 0.0), 1.0)
        polished.append(m)
    polished.sort()
    out = []
    for m in polished:
        if not out or m - out[-1] > 1e-9:
            out.append(m)
    return out


def log_pure_integral_mp(n, h, dps=50):
    """log of integral Psi(x)^n dx, Psi(x) = (x + e^h) e^{-x^2/2}, at dps
    digits through its binomial expansion: the odd moments vanish and
    the even ones give log Z0_n(h) - log sqrt(n / 2 pi), with
    Z0_n(h) = sum_k n! / (k! (n - 2k)! 2^k) n^-k e^{h (n - 2k)}, term by term
    over the matchings of K_n with k dimers."""
    with mpmath.workdps(dps):
        a, big_n = mpmath.exp(mpmath.mpf(h)), mpmath.mpf(n)
        z = mpmath.fsum(mpmath.factorial(n) / (mpmath.factorial(k) * mpmath.factorial(n - 2 * k)
                                               * 2**k * big_n**k) * a ** (n - 2 * k)
                        for k in range(n // 2 + 1))
        return mpmath.log(z) - mpmath.log(big_n / (2 * mpmath.pi)) / 2
