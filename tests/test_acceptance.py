"""End-to-end acceptance criteria, each pinned to published reference data.

Every test delegates to the corresponding check in
ptspec.harness.reproduce and asserts its pass flag, so the CLI
``reproduce`` subcommand and this suite can never drift apart.  The
checks memoize their spectra, so a spectrum two criteria read is
computed once.

Expect about a minute in total: the slowest single job is the long-range
potential at L = 100 with N = 4095 (criterion 5, about 30 s on two cores,
most of it the real Schur decomposition of the PT form), and the
extended-precision residual check (criterion 9b, the real Schur form of a
random real 50 x 50 matrix) takes about 1.5 s.
"""

import ptspec.harness.reproduce as rep


def _assert_check(check):
    assert check.passed, check.line()


def test_criterion_01_box_oracle():
    _assert_check(rep.check_box_oracle())


def test_criterion_02_scarf2_bound_states_l10():
    _assert_check(rep.check_scarf2_bound_l10())


def test_criterion_03_scarf2_third_pair_l100():
    _assert_check(rep.check_scarf2_third_pair())


def test_criterion_04_transition_points():
    _assert_check(rep.check_transitions())


def test_criterion_05_bound_pair_uncovering():
    _assert_check(rep.check_pair_uncovering())


def test_criterion_06_continuum_collapse():
    _assert_check(rep.check_continuum_collapse())


def test_criterion_07_richardson_table_reproduction():
    _assert_check(rep.check_richardson_tables())


def test_criterion_08_balmer_estimate_reference():
    _assert_check(rep.check_balmer_reference())


def test_criterion_09a_balmer_synthetic_exact():
    _assert_check(rep.check_balmer_synthetic())


def test_criterion_09b_extended_precision_residuals():
    _assert_check(rep.check_extended_residuals())


def test_criterion_09c_full_scale_job_is_gated():
    # the full published configuration is provided but opt-in only
    config = rep.full_scale_config()
    assert config.n_intervals == 2 ** 14 - 1
    assert config.precision_mode == "extended128"
    assert 1000.0 in config.half_widths


def test_criterion_10_eigensolver_property_suite():
    _assert_check(rep.check_eigensolver_properties())
