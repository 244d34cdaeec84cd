import csv
import json

import pytest

from ptspec.harness.cli import main
from ptspec.harness.config import (
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from ptspec.harness.plotdata import PLOT_KINDS, emit_plot_data
from ptspec.harness.reproduce import full_scale_config, reproduce
from ptspec.harness.runner import persist, run_experiment, run_single
from ptspec.spectrum import ClassificationPolicy


def _small_config(**overrides):
    base = dict(
        family="step",
        strength=3.0,
        half_widths=(10.0,),
        n_intervals=129,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config ----------------------------------------------------------------

def test_config_round_trip_default():
    config = _small_config()
    assert parse_config(serialize_config(config)) == config


def test_config_round_trip_custom_policy():
    policy = ClassificationPolicy(bound_tail_threshold=1e-7,
                                  relaxed_tail_coeff=0.25, monotone_slack=1e-5)
    config = _small_config(half_widths=(10.0, 100.0), policy=policy,
                          precision_mode="extended128", output_format="json")
    assert parse_config(serialize_config(config)) == config


def test_config_file_round_trip(tmp_path):
    config = _small_config()
    path = tmp_path / "experiment.ini"
    path.write_text(serialize_config(config))
    assert load_config(path) == config


def test_config_partial_classification_section():
    text = (
        "[experiment]\n"
        "family = scarf2\nstrength = 30.0\nhalf_widths = 10.0\n"
        "n_intervals = 1023\n"
        "[classification]\n"
        "jump_min_decades = 8.0\n"
    )
    config = parse_config(text)
    assert config.policy.jump_min_decades == 8.0
    assert config.policy.relaxed_tail_coeff == 0.5  # untouched default


@pytest.mark.parametrize("overrides", [
    dict(family="unknown"),
    dict(half_widths=(10.0, 10.0)),    # repeated
    dict(n_intervals=3),         # too small
    dict(half_widths=()),
    dict(half_widths=(100.0, 10.0)),   # not ascending
    dict(half_widths=(-1.0,)),
    dict(output_format="xml"),
    dict(precision_mode="half"),
])
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        _small_config(**overrides)


def test_even_n_puts_a_node_at_the_origin():
    # the centre node of an even N sits at x = 0 exactly, where the step
    # takes sgn(0) = 0; the spectrum keeps its pairs and its transition
    config = _small_config(half_widths=(100.0,), n_intervals=1024)
    result, _ = run_single(config, 100.0)
    assert result.bound_pairs == 2
    assert abs(result.transition_point - 9.5) <= 1.0
    paired = [r for r in result.records if r.pair_index is not None]
    assert paired
    for r in paired:
        assert result.records[r.pair_index].value == r.value.conjugate()


def test_config_rejects_unknown_classification_key():
    text = (
        "[experiment]\n"
        "family = scarf2\nstrength = 30.0\nhalf_widths = 10.0\n"
        "n_intervals = 1023\n"
        "[classification]\n"
        "unknown_knob = 1\n"
    )
    with pytest.raises(ValueError):
        parse_config(text)


# --- runner ----------------------------------------------------------------

@pytest.fixture(scope="module")
def small_artifact():
    return run_experiment(_small_config())


def test_run_experiment_produces_results(small_artifact):
    assert not small_artifact.failures
    result = small_artifact.results[10.0]
    assert result.bound_pairs == 1
    assert set(small_artifact.timings[10.0]) == {
        "assemble", "eigensolve", "classify", "schur_threads",
        "process_threads"}


def test_persist_layout_and_schema(small_artifact, tmp_path):
    run_dir = persist(small_artifact, out_dir=tmp_path)
    csv_path = run_dir / "L10" / "eigenvalues.csv"
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im", "label", "tail_ratio"]
    assert len(rows) == 1 + len(small_artifact.results[10.0].records)
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["runs"]["L10"]["bound_pairs"] == 1
    assert "timing" not in summary  # timings live in their own file
    timing = json.loads((run_dir / "timing.json").read_text())["L10"]
    threads = small_artifact.timings[10.0]["process_threads"]
    # N=129 is a small solve: one LAPACK thread where the count can be set
    assert timing["schur_threads"] == (None if threads is None else 1)
    assert timing["process_threads"] == threads


def test_persisted_files_are_reproducible(small_artifact, tmp_path):
    first = persist(small_artifact, out_dir=tmp_path / "a")
    again = persist(run_experiment(_small_config()), out_dir=tmp_path / "b")
    assert ((first / "L10" / "eigenvalues.csv").read_bytes()
            == (again / "L10" / "eigenvalues.csv").read_bytes())
    assert ((first / "summary.json").read_bytes()
            == (again / "summary.json").read_bytes())


def test_failure_in_one_half_width_is_isolated(monkeypatch, tmp_path):
    import ptspec.harness.runner as runner
    real_eigenvalues = runner.eigenvalues
    calls = []

    def eigenvalues_failing_first(matrix, precision):
        calls.append(precision)
        if len(calls) == 1:  # serial sweep: the first call is L = 5
            raise ValueError("injected")
        return real_eigenvalues(matrix, precision=precision)

    monkeypatch.setattr(runner, "eigenvalues", eigenvalues_failing_first)
    artifact = run_experiment(_small_config(half_widths=(5.0, 10.0)))
    assert artifact.failures == {5.0: "ValueError: injected"}
    assert artifact.results[10.0].bound_pairs == 1
    run_dir = persist(artifact, out_dir=tmp_path)
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["failures"] == {"5.0": "ValueError: injected"}
    assert list(summary["runs"]) == ["L10"]
    assert (run_dir / "L10" / "eigenvalues.csv").exists()
    assert not (run_dir / "L5").exists()


# --- plot data -------------------------------------------------------------

def test_plot_data_schemas(small_artifact, tmp_path):
    result = small_artifact.results[10.0]
    paths = {kind: emit_plot_data(result, kind, tmp_path / f"{kind}.csv")
             for kind in PLOT_KINDS}
    with open(paths["complex_plane"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im", "label"]
    assert len(rows) == 1 + len(result.records)

    with open(paths["log_im"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "log10_abs_im", "kind"]
    assert rows[-1][2] == "transition"
    assert float(rows[-1][0]) == result.transition_point

    with open(paths["loglog_bound"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["log10_re", "log10_abs_im"]
    assert len(rows) == 1 + result.bound_pairs


def test_plot_data_empty_bound_set(tmp_path):
    artifact = run_experiment(_small_config(strength=0.0))
    path = emit_plot_data(artifact.results[10.0], "loglog_bound",
                          tmp_path / "empty.csv")
    assert path.read_text().strip() == "log10_re,log10_abs_im"


def test_plot_data_rejects_unknown_kind(small_artifact, tmp_path):
    with pytest.raises(ValueError):
        emit_plot_data(small_artifact.results[10.0], "histogram",
                       tmp_path / "x.csv")


# --- cli -------------------------------------------------------------------

def test_cli_classify_prints_csv(capsys):
    code = main(["classify", "--family", "step", "--strength", "3",
                 "--L", "10", "--N", "129"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,label,tail_ratio"
    labels = {line.split(",")[2] for line in lines[1:]}
    assert "bound" in labels


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_classify_prints_the_persisted_records(tmp_path, capsys, fmt):
    argv = ["classify", "--family", "step", "--strength", "3", "--L", "10",
            "--N", "129", "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip()
    persisted = f"{run_dir}/L10/eigenvalues.{fmt}"
    with open(persisted, newline="") as fh:
        assert printed == fh.read()


def test_cli_sweep_with_config(tmp_path, capsys):
    config = _small_config(output_dir=str(tmp_path / "runs"))
    path = tmp_path / "exp.ini"
    path.write_text(serialize_config(config))
    code = main(["sweep", "--config", str(path)])
    assert code == 0
    run_dir = capsys.readouterr().out.strip()
    assert (tmp_path / "runs") in list((tmp_path).iterdir())
    assert (tmp_path / "runs" / "step_A3_N129_double64" / "summary.json").exists()
    assert run_dir.endswith("step_A3_N129_double64")


def test_cli_sweep_needs_target(capsys):
    assert main(["sweep", "--N", "129"]) == 2


def test_cli_extrapolate(tmp_path, capsys):
    path = tmp_path / "bound.txt"
    path.write_text("".join(
        f"{25.0 / k ** 2} {61.0 / k ** 3}\n" for k in range(1, 10)))
    assert main(["extrapolate", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == pytest.approx(25.0, abs=1e-9)
    assert payload["beta"] == pytest.approx(61.0, abs=1e-9)


def test_cli_reproduce_tables(capsys):
    assert main(["reproduce", "--selector", "tables"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_reproduce_rejects_unknown_selector():
    with pytest.raises(ValueError):
        reproduce("everything")


def test_full_scale_config_shape():
    config = full_scale_config()
    assert config.n_intervals == 2 ** 14 - 1
    assert config.precision_mode == "extended128"
    assert max(config.half_widths) == 1000.0
