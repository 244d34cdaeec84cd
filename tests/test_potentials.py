import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptspec.chebdiff import build_grid
from ptspec.potentials import FAMILIES, PotentialSpec, evaluate, evaluate_on_grid

finite_x = st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(family=st.sampled_from(FAMILIES), x=finite_x)
def test_parity_antisymmetry(family, x):
    spec = PotentialSpec(family, 30.0)
    v = evaluate(spec, x)
    assert abs(evaluate(spec, -x) + v) <= 1e-14 * max(abs(v), 1e-300)


@settings(max_examples=200)
@given(family=st.sampled_from(FAMILIES), x=finite_x,
       strength=st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False))
def test_purely_imaginary_and_bounded(family, x, strength):
    v = evaluate(PotentialSpec(family, strength), x)
    assert v.real == 0.0
    assert abs(v) <= abs(strength) + 1e-12


@settings(max_examples=100)
@given(family=st.sampled_from(FAMILIES),
       x=st.floats(min_value=1e4, max_value=1e8))
def test_decay_at_infinity(family, x):
    v = evaluate(PotentialSpec(family, 30.0), x)
    assert abs(v) < 30.0 * 2.0 / x  # worst decay rate is ~1/|x|


def test_scarf2_peak_value():
    # max of sech(x) tanh(x) is 1/2 at x = asinh(1)
    peak = evaluate(PotentialSpec("scarf2", 30.0), math.asinh(1.0))
    assert peak == pytest.approx(15j)


def test_rational4_sample():
    assert evaluate(PotentialSpec("rational4", 30.0), 1.0) == pytest.approx(15j)


def test_rational3_uses_absolute_value():
    spec = PotentialSpec("rational3", 30.0)
    assert evaluate(spec, -2.0) == pytest.approx(-60j / 9)


def test_step_support_and_height():
    spec = PotentialSpec("step", 3.0)
    assert evaluate(spec, 1.0) == 3j
    assert evaluate(spec, -1.0) == -3j
    assert evaluate(spec, 2.6) == 0
    assert evaluate(spec, 0.0) == 0


def test_coulomb_tail():
    v = evaluate(PotentialSpec("coulomb_regulated", 10.0), 100.0)
    assert abs(v) == pytest.approx(10.0 * 100.0 / (1 + 100.0 ** 2))


def test_zero_strength_is_free_particle():
    grid = build_grid(10.0, 16)
    v = evaluate_on_grid(PotentialSpec("scarf2", 0.0), grid)
    assert np.all(v == 0)


def test_grid_samples_match_pointwise():
    grid = build_grid(5.0, 15)
    spec = PotentialSpec("rational4", 30.0)
    v = evaluate_on_grid(spec, grid)
    assert v.shape == (grid.n_nodes,)
    for xi, vi in zip(grid.nodes, v):
        assert vi == evaluate(spec, xi)


def test_extended_argument_stays_extended():
    with mpmath.workprec(113):
        v = evaluate(PotentialSpec("scarf2", 30.0), mpmath.mpf(1) / 3)
    assert isinstance(v, mpmath.mpc)
    assert complex(v) == pytest.approx(
        evaluate(PotentialSpec("scarf2", 30.0), 1.0 / 3.0))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        PotentialSpec("lorentzian", 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_argument_rejected(bad):
    with pytest.raises(ValueError):
        evaluate(PotentialSpec("scarf2", 30.0), bad)
