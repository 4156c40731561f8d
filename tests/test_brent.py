"""imd._brent.brentq against scipy.optimize.brentq, its oracle: the same bits
on the library's own call sites and on random brackets, the same errors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from imd import phase, thermo
from imd._brent import brentq
from imd.thermo import ModelParams


def outcome(solve, f, a, b, **kw):
    """The root as float.hex, or the error's type and message."""
    try:
        x = solve(f, a, b, **kw)
        assert type(x) is float
        return x.hex()
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def same(f, a, b, **kw):
    """Both solvers' root as float.hex, or both errors' type and message."""
    out = [outcome(solve, f, a, b, **kw) for solve in (brentq, scipy_brentq)]
    assert out[0] == out[1], (a, b, kw, out)
    return out[0]


def cross_checked():
    """A stand-in for a module's brentq that checks each call against scipy,
    at the call's xtol and at the default, and records its arguments with
    which of fa and fb it was handed.  A handed fa or fb must be f's own
    value at that end, bit for bit, and the port given it scipy's root."""
    calls = []

    def both(f, a, b, fa=None, fb=None, **kw):
        calls.append((a, b, kw, (fa is not None, fb is not None)))
        for x, fx in ((a, fa), (b, fb)):
            if fx is not None:
                assert float(fx).hex() == float(f(x)).hex(), (x, fx)
        same(f, a, b)
        root = same(f, a, b, **kw)
        assert outcome(brentq, f, a, b, fa=fa, fb=fb, **kw) == root
        return float.fromhex(root)

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
    assert all(kw == {"xtol": 1e-15} for _, _, kw, _ in calls)
    # every cell's end residuals are handed over, at both ends
    assert all(held == (True, True) for *_, held in calls)


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
    # the polish is handed the third derivatives its sign test computed
    assert [held for *_, held in calls] == [(False, False), (True, True)]


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


@settings(max_examples=500)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-6.0, max_value=2.0),
       st.floats(min_value=-6.0, max_value=2.0), st.sampled_from([1e-15, 2e-12, 5e-324]))
def test_held_end_values_change_nothing(family, c, log_s, log_left, log_right, xtol):
    # brentq(f, a, b, fa=f(a), fb=f(b)) is brentq(f, a, b) bit for bit, and
    # skips exactly the two end evaluations
    f = FAMILIES[family](c, 10.0**log_s)
    evaluated = []

    def counted(x):
        evaluated.append(x)
        return f(x)

    for a, b in ((c - 10.0**log_left, c + 10.0**log_right),
                 (c + 10.0**log_right, c - 10.0**log_left)):
        evaluated.clear()
        plain = outcome(brentq, counted, a, b, xtol=xtol)
        n_plain = len(evaluated)
        fa, fb = f(a), f(b)
        evaluated.clear()
        assert outcome(brentq, counted, a, b, xtol=xtol, fa=fa, fb=fb) == plain, (a, b)
        assert len(evaluated) == n_plain - 2


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
