import numpy as np
import pytest

from ptspec.chebdiff import build_grid
from ptspec.eigensolver import eigenvalues
from ptspec.hamiltonian import assemble
from ptspec.potentials import PotentialSpec
from ptspec.precision import DOUBLE, to_complex128
from ptspec.spectrum import (
    BOUND,
    CONTINUUM_COMPLEX,
    CONTINUUM_REAL,
    UNRESOLVED,
    ClassificationPolicy,
    EigenRecord,
    _transition,
    classify,
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
    location, drop = step_result.transition_point, step_result.transition_drop
    assert location == pytest.approx(10.2, abs=1.0)
    assert drop >= 6.0


def test_zero_strength_all_real():
    result = _classified(strength=0.0, n=127)
    assert result.bound_pairs == 0
    assert all(r.label == CONTINUUM_REAL for r in result.records)


def test_box_oracle_has_no_transition(cache):
    # A = 0: every level of the free box is real, exactly, so there is no
    # complex-to-real drop for the detector to find
    result = cache.get("scarf2", 0.0, 10.0, 511)
    assert result.transition_point is None
    assert result.transition_drop is None
    assert all(r.value.imag == 0.0 for r in result.records)


def _synthetic_transition(records):
    # the floor of a double-precision run with ||A||_F = 1e6
    floor = DOUBLE.machine_epsilon ** 2 * 1e6
    return _transition(records, floor, ClassificationPolicy().jump_min_decades)


def test_detect_transition_synthetic_drop():
    records = []
    for k in range(1, 30):
        re = float(k)
        im = 0.1 if re < 15 else 1e-14
        label = CONTINUUM_COMPLEX if re < 15 else CONTINUUM_REAL
        records.append(EigenRecord(value=complex(re, im), label=label))
    assert _synthetic_transition(records)[0] == pytest.approx(14.5)


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
    assert _synthetic_transition(records)[0] == pytest.approx(14.5)


def test_detect_transition_absent_when_gradual():
    records = [
        EigenRecord(value=complex(k, 0.1 / k), label=CONTINUUM_COMPLEX)
        for k in range(1, 30)
    ]
    assert _synthetic_transition(records) is None


def test_detect_transition_needs_enough_records():
    records = [
        EigenRecord(value=complex(k, 0.1), label=CONTINUUM_COMPLEX)
        for k in range(1, 6)
    ]
    assert _synthetic_transition(records) is None


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
    # the residual that put each there is recorded: |lambda_A+I - lambda_A|
    # = 1 against ||A||_F, for a vector scaled to a largest entry of 1
    assert all(r.residual >= 1.0 / shifted.matrix_fro_norm for r in candidates)
    assert result.bound_pairs == 0
    assert len(candidates) == sum(
        1 for r in step_result.records if r.label != CONTINUUM_REAL)


# --- batched tail tests against the one-vector reference ------------------

def _tail_classification(absv, x, grid, policy):
    """Return (tail_ratio, is_bound) for one normalized |eigenvector|.

    The one-vector loop that ``classify`` replaced by array passes, kept
    as the reference.
    """
    L = grid.half_width
    edge = (1.0 - policy.tail_band_fraction) * L
    band = np.abs(x) >= edge
    tail_ratio = float(absv[band].max()) if band.any() else 0.0
    tail_ratio = min(tail_ratio, 1.0)

    right = absv[x >= edge][::-1]
    left = absv[x <= -edge]

    def non_increasing(seq, floor):
        if seq.size < 2:
            return True
        for a, b in zip(seq[:-1], seq[1:]):
            if b > a * (1.0 + policy.monotone_slack) and b > floor:
                return False
        return True

    if (
        tail_ratio < policy.bound_tail_threshold
        and non_increasing(right, policy.bound_tail_threshold)
        and non_increasing(left, policy.bound_tail_threshold)
    ):
        return tail_ratio, True

    relaxed_threshold = policy.relaxed_tail_coeff / (L * L)
    redge = (1.0 - policy.relaxed_band_fraction) * L
    fedge = (1.0 - 2.0 * policy.tail_band_fraction) * L

    def side_ok(mask, toward_positive):
        xs = x[mask]
        vs = absv[mask]
        if vs.size == 0 or vs.max() < policy.bound_tail_threshold:
            return True
        keep = vs > 0
        xs, vs = xs[keep], vs[keep]
        if xs.size < 4:
            return False
        logs = np.log(vs)
        r = np.corrcoef(xs, logs)[0, 1]
        slope = np.polyfit(xs, logs, 1)[0]
        decaying = slope < 0 if toward_positive else slope > 0
        return decaying and abs(r) > policy.relaxed_min_correlation

    if tail_ratio < relaxed_threshold:
        fit_right = (x >= redge) & (x < fedge)
        fit_left = (x <= -redge) & (x > -fedge)
        if (
            non_increasing(right, relaxed_threshold)
            and non_increasing(left, relaxed_threshold)
            and side_ok(fit_right, True)
            and side_ok(fit_left, False)
        ):
            return tail_ratio, True
    return tail_ratio, False


def _reference_tail(op, vector, policy):
    """(tail_ratio, is_bound) of one fetched vector by the reference loop."""
    absv = np.abs(op.grid_vector(vector))
    absv /= absv.max()
    x = to_complex128(op.grid.interior_nodes).real
    return _tail_classification(absv, x, op.grid, policy)


def _candidates(solution, policy):
    return np.flatnonzero(solution.eigenvalues.imag > policy.vector_threshold)


@pytest.mark.parametrize("family, strength, half_width", [
    ("scarf2", 30.0, 10.0),
    ("step", 3.0, 10.0),
    ("coulomb_regulated", 10.0, 100.0),
])
def test_batched_tail_tests_match_the_reference(family, strength, half_width):
    op = _operator(family, strength, half_width, 255)
    solution = eigenvalues(op.matrix)
    result = classify(solution, op)
    policy = result.policy
    ks, vectors, residuals = solution.eigenvectors(
        op.matrix, _candidates(solution, policy))
    by_value = {r.value: r for r in result.records}
    labels = set()
    for k, v, residual in zip(ks, vectors.T, residuals):
        record = by_value[complex(solution.eigenvalues[k])]
        tail_ratio, is_bound = _reference_tail(op, v, policy)
        assert record.tail_ratio == tail_ratio
        assert record.label == (BOUND if is_bound else CONTINUUM_COMPLEX)
        assert record.residual == residual
        partner = result.records[record.pair_index]
        assert (partner.tail_ratio, partner.residual) == (tail_ratio, residual)
        labels.add(record.label)
    assert labels == {BOUND, CONTINUUM_COMPLEX}


def test_a_vector_does_not_depend_on_its_batch():
    op = _operator("coulomb_regulated", 10.0, 100.0, 255)
    solution = eigenvalues(op.matrix)
    policy = ClassificationPolicy()
    ks, vectors, _ = solution.eigenvectors(op.matrix,
                                           _candidates(solution, policy))
    assert len(ks) > 100
    for c, k in enumerate(ks):
        _, alone, _ = solution.eigenvectors(op.matrix, [k])
        alone = alone[:, 0]
        # each is scaled to a largest entry of 1
        assert np.max(np.abs(alone - vectors[:, c])) <= 1e-13
        assert (_reference_tail(op, alone, policy)[1]
                == _reference_tail(op, vectors[:, c], policy)[1])


def test_records_carry_the_measured_residual(step_result):
    for r in step_result.records:
        if r.label in (BOUND, CONTINUUM_COMPLEX):
            assert 0.0 <= r.residual <= DOUBLE.residual_tol
            assert step_result.records[r.pair_index].residual == r.residual
        elif r.label == CONTINUUM_REAL:
            assert r.residual is None
