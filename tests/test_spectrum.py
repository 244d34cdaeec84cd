import numpy as np
import pytest

from ptspec.chebdiff import build_grid
from ptspec.eigensolver import eigenvalues
from ptspec.hamiltonian import assemble
from ptspec.potentials import PotentialSpec
from ptspec.spectrum import (
    BOUND,
    CONTINUUM_COMPLEX,
    CONTINUUM_REAL,
    UNRESOLVED,
    ClassificationPolicy,
    EigenRecord,
    SpectrumMeta,
    SpectrumResult,
    classify,
    transition_info,
)


def _operator(family, strength, half_width, n):
    return assemble(build_grid(half_width, n), PotentialSpec(family, strength))


def _classified(family="step", strength=3.0, half_width=10.0, n=255):
    op = _operator(family, strength, half_width, n)
    return classify(eigenvalues(op.matrix), op)


@pytest.fixture(scope="module")
def step_result():
    return _classified()


def test_records_sorted_and_counted(step_result):
    values = [r.value for r in step_result.records]
    assert values == sorted(values, key=lambda z: (z.real, z.imag))
    n_bound = sum(1 for r in step_result.records if r.label == BOUND)
    assert n_bound == 2 * step_result.bound_pairs


def test_step_small_grid_finds_one_pair(step_result):
    assert step_result.bound_pairs == 1
    upper = [r for r in step_result.records
             if r.label == BOUND and r.value.imag > 0]
    assert len(upper) == 1
    # coarse grid: the eigenvalue is only a rough anchor here
    assert upper[0].value == pytest.approx(0.837 + 2.590j, abs=0.05)
    assert upper[0].tail_ratio < 1e-2


def test_bound_records_have_conjugate_partners(step_result):
    records = step_result.records
    for i, r in enumerate(records):
        if r.label in (BOUND, CONTINUUM_COMPLEX):
            assert r.pair_index is not None
            partner = records[r.pair_index]
            assert partner.pair_index == i
            assert r.value == partner.value.conjugate()


@pytest.mark.parametrize("family, strength, half_width", [
    ("step", 3.0, 10.0),
    ("coulomb_regulated", 10.0, 100.0),
])
def test_pair_members_share_one_classification(family, strength, half_width):
    # double mode: pairs come from the real Schur blocks, exactly
    # conjugate, and one vector classifies both members
    result = _classified(family, strength, half_width, 255)
    paired = [r for r in result.records if r.pair_index is not None]
    assert paired
    for r in paired:
        partner = result.records[r.pair_index]
        assert r.value == partner.value.conjugate()
        assert (r.label, r.tail_ratio) == (partner.label, partner.tail_ratio)


def test_tail_ratio_range(step_result):
    for r in step_result.records:
        if r.tail_ratio is not None:
            assert 0.0 <= r.tail_ratio <= 1.0


def test_real_continuum_skips_vector_fetch(step_result):
    for r in step_result.records:
        if r.label == CONTINUUM_REAL:
            assert r.tail_ratio is None


def test_step_transition_location(step_result):
    info = transition_info(step_result)
    assert info is not None
    location, drop = info
    assert location == pytest.approx(10.2, abs=1.0)
    assert drop >= 6.0
    assert step_result.transition_point == location


def test_zero_strength_all_real():
    result = _classified(strength=0.0, n=127)
    assert result.bound_pairs == 0
    assert all(r.label == CONTINUUM_REAL for r in result.records)


def test_box_oracle_has_no_transition(cache):
    # A = 0: every level of the free box is real, exactly, so there is no
    # complex-to-real drop for the detector to find
    result = cache.get("scarf2", 0.0, 10.0, 511)
    assert result.transition_point is None
    assert all(r.value.imag == 0.0 for r in result.records)


def _synthetic_result(records, half_width=100.0):
    meta = SpectrumMeta(half_width=half_width, n_intervals=1023,
                       family="scarf2", strength=30.0,
                       precision_mode="double64", matrix_fro_norm=1e6)
    n_bound = sum(1 for r in records if r.label == BOUND)
    return SpectrumResult(records=tuple(records), bound_pairs=n_bound // 2,
                          transition_point=None, meta=meta,
                          policy=ClassificationPolicy())


def test_detect_transition_synthetic_drop():
    records = []
    for k in range(1, 30):
        re = float(k)
        im = 0.1 if re < 15 else 1e-14
        label = CONTINUUM_COMPLEX if re < 15 else CONTINUUM_REAL
        records.append(EigenRecord(value=complex(re, im), label=label))
    result = _synthetic_result(records)
    assert transition_info(result)[0] == pytest.approx(14.5)


def test_detect_transition_takes_first_qualifying_drop():
    # a second, equally deep drop at higher Re must not win
    records = []
    for k in range(1, 40):
        re = float(k)
        if re < 15 or 25 <= re < 30:
            im, label = 0.1, CONTINUUM_COMPLEX
        else:
            im, label = 1e-14, CONTINUUM_REAL
        records.append(EigenRecord(value=complex(re, im), label=label))
    result = _synthetic_result(records)
    assert transition_info(result)[0] == pytest.approx(14.5)


def test_detect_transition_absent_when_gradual():
    records = [
        EigenRecord(value=complex(k, 0.1 / k), label=CONTINUUM_COMPLEX)
        for k in range(1, 30)
    ]
    result = _synthetic_result(records)
    assert transition_info(result) is None


def test_detect_transition_needs_enough_records():
    records = [
        EigenRecord(value=complex(k, 0.1), label=CONTINUUM_COMPLEX)
        for k in range(1, 6)
    ]
    assert transition_info(_synthetic_result(records)) is None


def test_unresolved_never_counts_as_bound(step_result):
    for r in step_result.records:
        if r.label == UNRESOLVED:
            assert r.pair_index is None


def test_vector_over_residual_target_is_unresolved(step_result):
    # factors of A + I: the same vectors, every eigenvalue off by 1, so
    # each candidate's residual against A is 1 -- far above 1e-10 ||A||_F
    op = _operator("step", 3.0, 10.0, 255)
    shifted = eigenvalues(op.matrix + np.eye(op.dim))
    result = classify(shifted, op)
    candidates = [r for r in result.records
                  if abs(r.value.imag) > result.policy.vector_threshold]
    assert candidates
    assert all(r.label == UNRESOLVED for r in candidates)
    assert result.bound_pairs == 0
    assert len(candidates) == sum(
        1 for r in step_result.records if r.label != CONTINUUM_REAL)
