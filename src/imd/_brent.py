"""Brent's root finder (Brent 1973, ch. 4), ported line for line from scipy's
C brentq: the same double operations in the same order give the bits and errors
of scipy.optimize.brentq(f, a, b, xtol) at its default rtol and maxiter."""

import math

import numpy as np

_RTOL, _MAXITER = 4 * 2.220446049250313e-16, 100  # scipy's defaults


def _value(f, x, fx=None):
    if math.isnan(fx := float(f(x) if fx is None else fx)):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a, b, xtol=2e-12, fa=None, fb=None):
    """A root of f in [a, b], where f(a) and f(b) (fa and fb, if given) differ in sign."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _value(f, xpre, fa), _value(f, xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or nan, and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def _lane_values(f, x, active, fx=None):
    """f's values at the lanes' points x (fx, if given), checked for NaN in
    the active lanes as _value checks them."""
    fx = np.asarray(f(x) if fx is None else fx, dtype=np.float64)
    nan = active & np.isnan(fx)
    if nan.any():
        raise ValueError(f"The function value at x={float(x[nan][0])} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq_lanes(f, a, b, xtol=2e-12, fa=None, fb=None):
    """brentq on every lane of the 1-D arrays a and b at once: lane k gives
    brentq(f_k, a[k], b[k], xtol) to the bit, where f maps an array of
    points, one per lane, to f_k at each.

    Each branch of the scalar port is taken by np.where on the same double
    operations, so a lane's floats do not depend on the other lanes; a lane
    that has converged keeps its root, and f sees it there again until the
    last lane is done.  Where the scalar port catches ZeroDivisionError, a
    lane's step is inf, and it bisects.  An error of any one lane (a NaN
    value, ends of one sign, no convergence in 100 iterations) is raised
    with the scalar port's message.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = (np.array(v, dtype=np.float64) for v in np.broadcast_arrays(a, b))
    every = np.ones(xpre.shape, dtype=bool)
    fpre = _lane_values(f, xpre, every, fa)
    fcur = _lane_values(f, xcur, every, fb)
    root = np.where(fpre == 0, xpre, xcur)
    active = (fpre != 0) & (fcur != 0)
    if ((fpre[active] < 0) == (fcur[active] < 0)).any():
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = np.zeros_like(xpre)
    with np.errstate(all="ignore"):
        for _ in range(_MAXITER):
            if not active.any():
                return root
            bracket = (fpre != 0) & (fcur != 0) & ((fpre < 0) != (fcur < 0))
            xblk, fblk = np.where(bracket, xpre, xblk), np.where(bracket, fpre, fblk)
            spre, scur = np.where(bracket, xcur - xpre, spre), np.where(bracket, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + _RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = active & ((fcur == 0) | (np.abs(sbis) < delta))
            root = np.where(done, xcur, root)
            active &= ~done
            # interpolate where xpre == xblk, else extrapolate; a zero
            # divisor anywhere in the branch taken gives inf
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            denominator = dblk * dpre * (fblk - fpre)
            interpolate = xpre == xblk
            stry = np.where(
                interpolate,
                np.where(fcur - fpre == 0, math.inf, -fcur * (xcur - xpre) / (fcur - fpre)),
                np.where((xpre - xcur == 0) | (xblk - xcur == 0) | (denominator == 0), math.inf,
                         -fcur * (fblk * dblk - fpre * dpre) / denominator))
            bound, limit = 3 * np.abs(sbis) - delta, np.abs(spre)
            limit = np.where(bound < limit, bound, limit)  # min(limit, bound)
            tried = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            good = tried & (2 * np.abs(stry) < limit)  # a good short step
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            step = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            xcur = np.where(active, xcur + step, root)
            fcur = _lane_values(f, xcur, active)
    if active.any():
        raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
    return root
