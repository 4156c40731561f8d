"""imd._brent.brentq against scipy.optimize.brentq, its oracle: the same bits
on the library's own call sites and on random brackets, the same errors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from imd import exact, phase, thermo
from imd._brent import brentq
from imd.thermo import ModelParams


def same(f, a, b, **kw):
    """Both solvers' root as float.hex, or both errors' type and message."""
    out = []
    for solve in (brentq, scipy_brentq):
        try:
            x = solve(f, a, b, **kw)
            assert type(x) is float
            out.append(x.hex())
        except (ValueError, RuntimeError) as err:
            out.append((type(err), str(err)))
    assert out[0] == out[1], (a, b, kw, out)
    return out[0]


def cross_checked():
    """A stand-in for a module's brentq that checks each call against scipy,
    at the call's xtol and at the default, and records its arguments."""
    calls = []

    def both(f, a, b, **kw):
        calls.append((a, b, kw))
        same(f, a, b)
        return float.fromhex(same(f, a, b, **kw))

    return both, calls


@settings(max_examples=300)
@given(st.floats(min_value=-30.0, max_value=30.0), st.floats(min_value=0.0, max_value=1e3))
@example(0.0, 0.5)
@example(-0.41281739308863996, 2.0)  # gamma(2)
@example(3.0, 7.0)
@example(-20.0, 0.3)
@example(-30.0, 1e3)
@example(30.0, 1e3)
@example(-0.5, 40.0)
def test_consistency_residual_solves(h, J):
    both, calls = cross_checked()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermo, "brentq", both)
        roots = thermo.consistency_roots(ModelParams(h, J))
    assert roots
    assert all(kw == {"xtol": 1e-15} for _, _, kw in calls)


def test_critical_point_and_its_polish():
    # find_critical_point solves g'' = 0, and classify at the critical point
    # polishes the maximizer on ptilde'''
    both, calls = cross_checked()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase, "brentq", both)
        cp = phase.find_critical_point()
        report = phase.classify(ModelParams(cp.h_c, cp.J_c))
    assert report.kind == "critical"
    assert len(calls) == 2
    assert (calls[0][0], calls[0][1]) == (-3.0, 3.0)


@pytest.mark.parametrize("n, h, J", [(100, -0.41281739308863996, 2.0),
                                     (10**4, -0.41281739308863996, 2.0),
                                     (10**6, -0.41281739308863996, 2.0),
                                     (1000, -0.5, 8.0), (4000, 0.3, 1e3)])
def test_valley_digamma_solves(n, h, J):
    # exact._valley's d1, d2 and d3 return np.float64 from digamma/polygamma
    both, calls = cross_checked()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "brentq", both)
        valley = exact._valley(n, ModelParams(h, J))
    assert valley is not None
    assert len(calls) >= 2


FAMILIES = {
    "cubic": lambda c, s: lambda x: (x - c) ** 3 + s * (x - c),
    "atan": lambda c, s: lambda x: math.atan(s * (x - c)),
    "exp": lambda c, s: lambda x: math.exp(x) - math.exp(c),
    "float64": lambda c, s: lambda x: np.float64(x - c) * np.float64(s),
    "root": lambda c, s: lambda x: math.copysign(abs(x - c) ** 0.3, x - c),
    "step": lambda c, s: lambda x: 1.0 if x > c else -1.0,
    # values near 1e-300, whose slopes' products underflow to 0: scipy's C
    # divides by zero there, and the port bisects as C's inf or nan does
    "tiny": lambda c, s: lambda x: 1e-300 * s * (x - c) ** 3,
}


@settings(max_examples=1000)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-6.0, max_value=2.0),
       st.floats(min_value=-6.0, max_value=2.0), st.sampled_from([1e-15, 2e-12, 5e-324]))
def test_random_brackets(family, c, log_s, log_left, log_right, xtol):
    f = FAMILIES[family](c, 10.0**log_s)
    same(f, c - 10.0**log_left, c + 10.0**log_right, xtol=xtol)
    same(f, c + 10.0**log_right, c - 10.0**log_left, xtol=xtol)


def test_zero_at_an_end_returns_that_end():
    assert brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    assert same(lambda x: x - 1.0, 0.0, 1.0) == (1.0).hex()


def test_same_sign_ends_raise():
    with pytest.raises(ValueError, match="must have different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    same(lambda x: x * x + 1.0, -1.0, 1.0)


def test_nan_value_raises():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    same(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)


def test_no_convergence_in_100_iterations_raises():
    # a jump at 1.234567 bisected down from 1e300 needs about 1000 halvings
    def step(x):
        return 1.0 if x > 1.234567 else -1.0

    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(step, 0.0, 1e300, xtol=5e-324)
    same(step, 0.0, 1e300, xtol=5e-324)
