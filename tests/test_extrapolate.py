import numpy as np
import pytest

from ptspec import refdata
from ptspec.extrapolate import (
    InsufficientDataError,
    build_table,
    estimate_balmer,
    load_bound_sequence,
    richardson,
)


def test_order_one_removes_1_over_k():
    a = [1.0 + 1.0 / k for k in range(1, 10)]
    out = richardson(a, 1)
    assert np.allclose(out, 1.0, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_exact_annihilation_up_to_order(order):
    k = np.arange(1, 12, dtype=float)
    a = 7.0 + sum(((-2.0) ** j) / k ** j for j in range(1, order + 1))
    out = richardson(a, order)
    assert np.allclose(out, 7.0, atol=1e-8)


def test_shift_invariance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(10)
    assert np.allclose(richardson(a + 4.0, 3), richardson(a, 3) + 4.0)


def test_output_length_and_errors():
    a = list(range(1, 8))
    assert len(richardson(a, 2)) == 5
    with pytest.raises(ValueError):
        richardson(a, 0)
    with pytest.raises(ValueError):
        richardson(a, 6)
    with pytest.raises(InsufficientDataError):
        richardson([1.0, 2.0], 3)


def test_build_table_column_lengths():
    table = build_table(np.arange(1.0, 10.0))
    assert sorted(table.columns) == [1, 2, 3, 4, 5]
    for order, col in table.columns.items():
        assert len(col) == 9 - order


def test_build_table_short_input():
    table = build_table([1.0, 2.0, 3.0])
    assert sorted(table.columns) == [1, 2]
    with pytest.raises(InsufficientDataError):
        build_table([1.0])


def test_published_inputs_are_the_scaled_reference_states():
    # the tables' printed inputs: k^2 Re E_k and k^3 Im E_k, to 6 figures
    k = np.arange(1, 10, dtype=float)
    for scaled, printed in (
        (k ** 2 * np.array(refdata.REG_COULOMB_BOUND).real, refdata.REG_COULOMB_RE_INPUT),
        (k ** 3 * np.array(refdata.REG_COULOMB_BOUND).imag, refdata.REG_COULOMB_IM_INPUT),
    ):
        assert len(printed) == len(scaled)
        assert np.allclose(printed, scaled, rtol=1e-5, atol=0)


def test_reference_tables_reproduced():
    k = np.arange(1, 10, dtype=float)
    for scaled, reference in (
        (k ** 2 * np.array(refdata.REG_COULOMB_RE),
         refdata.REG_COULOMB_RE_EXTRAPOLANTS),
        (k ** 3 * np.array(refdata.REG_COULOMB_IM),
         refdata.REG_COULOMB_IM_EXTRAPOLANTS),
    ):
        table = build_table(scaled)
        for order, ref_col in reference.items():
            got = table.columns[order]
            assert len(got) == len(ref_col)
            for g, r in zip(got, ref_col):
                assert abs(g - r) / abs(r) < 5e-4  # 4 significant figures


def test_balmer_estimate_exact_synthetic():
    exact = [complex(25.0 / k ** 2, 61.0 / k ** 3) for k in range(1, 10)]
    estimate = estimate_balmer(exact)
    assert estimate.alpha == pytest.approx(25.0, abs=1e-10)
    assert estimate.beta == pytest.approx(61.0, abs=1e-10)
    assert estimate.alpha_spread < 1e-10
    assert len(estimate.alpha_by_order) == 5


def test_balmer_estimate_reference_data():
    estimate = estimate_balmer(refdata.REG_COULOMB_BOUND)
    assert 24.0 <= estimate.alpha <= 26.0
    assert 60.0 <= estimate.beta <= 63.0


def test_balmer_sign_of_im_ignored():
    upper = [complex(25.0 / k ** 2, 61.0 / k ** 3) for k in range(1, 8)]
    lower = [z.conjugate() for z in upper]
    assert estimate_balmer(lower).beta == pytest.approx(
        estimate_balmer(upper).beta)


def test_balmer_needs_three_states():
    with pytest.raises(InsufficientDataError):
        estimate_balmer([1 + 1j, 2 + 2j])


def test_load_bound_sequence(tmp_path):
    path = tmp_path / "bound.txt"
    path.write_text(
        "# deepest first\n"
        "0.83298288 3.90859038\n"
        "1.38356468, 2.10981263\n"
        "\n"
        "1.19465086 1.06386938  # k = 3\n"
    )
    seq = load_bound_sequence(path)
    assert seq == [
        complex(0.83298288, 3.90859038),
        complex(1.38356468, 2.10981263),
        complex(1.19465086, 1.06386938),
    ]


def test_load_bound_sequence_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        load_bound_sequence(path)
