import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptspec.chebdiff import build_grid
from ptspec.hamiltonian import assemble
from ptspec.potentials import FAMILIES, PotentialSpec, odd_profile

finite_x = st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)
points = st.lists(finite_x, min_size=1, max_size=8).map(np.array)


@settings(max_examples=200)
@given(family=st.sampled_from(FAMILIES), x=points)
def test_parity_antisymmetry(family, x):
    f = odd_profile(family, x)
    assert np.all(np.abs(odd_profile(family, -x) + f)
                  <= 1e-14 * np.maximum(np.abs(f), 1e-300))


@settings(max_examples=200)
@given(family=st.sampled_from(FAMILIES), x=points)
def test_purely_imaginary_and_bounded(family, x):
    # V = i A f is purely imaginary because f is real; |f| <= 1 everywhere
    f = odd_profile(family, x)
    assert f.dtype == np.float64 and f.shape == x.shape
    assert np.all(np.abs(f) <= 1.0)


@settings(max_examples=100)
@given(family=st.sampled_from(FAMILIES),
       x=st.lists(st.floats(min_value=1e4, max_value=1e8),
                  min_size=1, max_size=8).map(np.array))
def test_decay_at_infinity(family, x):
    assert np.all(np.abs(odd_profile(family, x)) < 2.0 / x)  # worst is ~1/|x|


def test_scarf2_peak_value():
    # max of sech(x) tanh(x) is 1/2 at x = asinh(1)
    peak = odd_profile("scarf2", np.array([math.asinh(1.0)]))
    assert peak[0] == pytest.approx(0.5)


def test_scarf2_far_tail_is_zero():
    # past |x| = 710 cosh overflows a double: f is 0 there, with no warning
    x = np.array([-1e6, -711.0, 709.0, 711.0, 1e300])
    f = odd_profile("scarf2", x)
    assert np.all(f[[0, 1, 3, 4]] == 0.0)
    assert 0.0 < f[2] < 1e-300


def test_rational4_sample():
    assert odd_profile("rational4", np.array([1.0]))[0] == pytest.approx(0.5)


def test_rational3_uses_absolute_value():
    assert odd_profile("rational3", np.array([-2.0]))[0] == pytest.approx(-2.0 / 9)


def test_step_support_and_height():
    f = odd_profile("step", np.array([1.0, -1.0, 2.5, -2.5, 2.6, 0.0]))
    assert f.tolist() == [1.0, -1.0, 1.0, -1.0, 0.0, 0.0]


def test_coulomb_tail():
    f = odd_profile("coulomb_regulated", np.array([100.0]))
    assert f[0] == pytest.approx(100.0 / (1 + 100.0 ** 2))


def test_zero_strength_is_free_particle():
    # A = 0: K's even and odd blocks do not couple
    op = assemble(build_grid(10.0, 16), PotentialSpec("scarf2", 0.0))
    me = op.dim - op.dim // 2
    assert not np.any(op.matrix[me:, :me]) and not np.any(op.matrix[:me, me:])


def _pointwise(family, x):
    """f at one float, with the math module: the reference for the ufuncs."""
    if family == "scarf2":
        return 0.0 if abs(x) > 710.0 else math.tanh(x) / math.cosh(x)
    if family == "rational4":
        return x / (1 + x ** 4)
    if family == "rational3":
        return x / (1 + abs(x) ** 3)
    if family == "step":
        return math.copysign(1.0, x) if 0 < abs(x) <= 2.5 else 0.0
    return x / (1 + x ** 2)


def test_grid_samples_match_pointwise():
    # the ufuncs round differently from math's functions, by a few ulp; the
    # step and coulomb_regulated do the same arithmetic, so agree exactly
    for grid in (build_grid(5.0, 15), build_grid(1000.0, 64)):
        for family in FAMILIES:
            f = odd_profile(family, grid.nodes)
            ref = np.array([_pointwise(family, x) for x in grid.nodes])
            assert f.shape == grid.nodes.shape
            if family in ("step", "coulomb_regulated"):
                assert np.array_equal(f, ref)
            else:
                assert np.allclose(f, ref, rtol=8 * np.finfo(float).eps,
                                   atol=1e-300)


def test_extended_argument_stays_extended():
    x = [1.0 / 3.0, -2.0, 2.4, 40.0]
    with mpmath.workprec(113):
        nodes = np.empty(len(x), dtype=object)
        nodes[:] = [mpmath.mpf(1) / 3, mpmath.mpf(-2), mpmath.mpf("2.4"),
                    mpmath.mpf(40)]
        for family in FAMILIES:
            f = odd_profile(family, nodes)
            assert f.dtype == object and f.shape == nodes.shape
            assert all(isinstance(v, mpmath.mpf) for v in f)
            assert np.allclose([float(v) for v in f],
                               odd_profile(family, np.array(x)),
                               rtol=1e-15, atol=0.0)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        PotentialSpec("lorentzian", 1.0)
    with pytest.raises(ValueError):
        odd_profile("lorentzian", np.zeros(3))
