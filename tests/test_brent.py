"""imd._brent.brentq against scipy.optimize.brentq, its oracle: the same bits
on the library's own call sites and on random brackets, the same errors; and
its lane-wise port brentq_lanes against both, lane by lane."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from imd import phase, thermo
from imd._brent import brentq, brentq_lanes
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


def lanes_of(functions):
    """One array function whose lane k is the scalar function functions[k]."""
    return lambda x: np.array([f(float(xk)) for f, xk in zip(functions, x)])


def lane_outcome(functions, a, b, **kw):
    """brentq_lanes' roots as float.hex, or its error's type and message."""
    try:
        x = brentq_lanes(lanes_of(functions), np.array(a), np.array(b), **kw)
        assert x.dtype == np.float64 and x.shape == (len(functions),)
        return [float(v).hex() for v in x]
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


# (family, c, log10 s, log10 left, log10 right, whether a is the left end)
lane = st.tuples(st.sampled_from(sorted(FAMILIES)), st.floats(min_value=-5.0, max_value=5.0),
                 st.floats(min_value=-3.0, max_value=3.0),
                 st.floats(min_value=-6.0, max_value=2.0),
                 st.floats(min_value=-6.0, max_value=2.0), st.booleans())


@settings(max_examples=80)
@given(st.lists(lane, min_size=1, max_size=4), st.sampled_from([1e-15, 2e-12, 5e-324]))
@example([("step", 1.234567, 0.0, 2.0, 2.0, False), ("cubic", 0.5, 0.0, -1.0, -1.0, True)],
         5e-324)
def test_lanes_are_scipy_per_lane(lanes, xtol):
    # each lane's root is scipy's bits, with or without its end values
    # handed over; a lane that scipy fails fails the call with one of the
    # failing lanes' errors
    functions = [FAMILIES[family](c, 10.0**log_s) for family, c, log_s, *_ in lanes]
    a = [c - 10.0**left if forward else c + 10.0**right for _, c, _, left, right, forward in lanes]
    b = [c + 10.0**right if forward else c - 10.0**left for _, c, _, left, right, forward in lanes]
    expected = [outcome(scipy_brentq, f, ak, bk, xtol=xtol) for f, ak, bk in zip(functions, a, b)]
    got = lane_outcome(functions, a, b, xtol=xtol)
    errors = [out for out in expected if isinstance(out, tuple)]
    if errors:
        assert got in errors, (got, expected)
        return
    assert got == expected
    fa, fb = ([f(x) for f, x in zip(functions, ends)] for ends in (a, b))
    assert lane_outcome(functions, a, b, xtol=xtol, fa=fa, fb=fb) == got
    # a lane's root does not depend on the other lanes
    assert lane_outcome(functions[:1], a[:1], b[:1], xtol=xtol) == got[:1]


def test_lanes_with_a_zero_at_an_end_return_that_end():
    lanes = [lambda x: x, lambda x: x - 1.0, lambda x: x - 0.25]
    x = brentq_lanes(lanes_of(lanes), np.zeros(3), np.ones(3))
    assert x[0] == 0.0 and x[1] == 1.0
    assert x.tolist() == [brentq(f, 0.0, 1.0) for f in lanes]


def test_lanes_raise_the_scalar_errors():
    def nan_above_half(x):
        return math.nan if x > 0.5 else -1.0

    def step(x):
        return 1.0 if x > 1.234567 else -1.0

    fine = (lambda x: x - 0.5, 0.0, 1.0)
    cases = [
        ((lambda x: x * x + 1.0, -1.0, 1.0), ValueError, "must have different signs"),
        ((nan_above_half, 0.0, 1.0), ValueError, "NaN"),
        ((step, 0.0, 1e300), RuntimeError, "100 iterations"),
    ]
    for (f, a, b), error, message in cases:
        for lanes in ([(f, a, b)], [fine, (f, a, b)]):
            functions, a_, b_ = zip(*lanes)
            with pytest.raises(error, match=message):
                brentq_lanes(lanes_of(functions), np.array(a_), np.array(b_), xtol=5e-324)
            assert lane_outcome(functions, a_, b_, xtol=5e-324) == outcome(
                brentq, f, a, b, xtol=5e-324)
    with pytest.raises(ValueError, match="xtol too small"):
        brentq_lanes(lanes_of([fine[0]]), np.zeros(1), np.ones(1), xtol=0.0)
