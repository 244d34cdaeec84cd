import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import os
import runpy
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from ptspec import eigensolver
from ptspec.harness.cli import main
from ptspec.harness.config import ExperimentConfig, parse_config, serialize_config
from ptspec.harness.reproduce import full_scale_config, reproduce
from ptspec.harness.runner import (COLUMNS, RunArtifact, persist, render,
                                   run_experiment, run_single)
from ptspec.spectrum import (BOUND, CONTINUUM_COMPLEX, CONTINUUM_REAL, UNRESOLVED,
                             ClassificationPolicy, EigenRecord, SpectrumResult)


def _small_config(**overrides):
    base = dict(
        family="step",
        strength=3.0,
        half_widths=(10.0,),
        n_intervals=129,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _output_to(artifact, directory):
    # the artifact as if its config had named ``directory`` as output_dir
    config = dataclasses.replace(artifact.config, output_dir=str(directory))
    return dataclasses.replace(artifact, config=config)


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
    assert parse_config(path) == config


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
    dict(precision_mode="quad"),
    dict(strength=math.nan),
    dict(strength=math.inf),
    dict(strength=-math.inf),
    dict(half_widths=(math.nan,)),     # nan <= 0 is False
    dict(half_widths=(10.0, math.inf)),
    # classification thresholds, built inside the test
    dict(policy=dict(bound_tail_threshold=math.nan)),
    dict(policy=dict(bound_tail_threshold=-1.0)),
    dict(policy=dict(bound_tail_threshold=0.0)),
    dict(policy=dict(vector_threshold=math.inf)),
    dict(policy=dict(vector_threshold=-0.05)),
    dict(policy=dict(tail_band_fraction=0.0)),
    dict(policy=dict(tail_band_fraction=1.0)),
    dict(policy=dict(relaxed_band_fraction=1.5)),
    dict(policy=dict(relaxed_min_correlation=1.001)),
    dict(policy=dict(relaxed_min_correlation=-0.1)),
    dict(policy=dict(relaxed_tail_coeff=-0.5)),
    dict(policy=dict(monotone_slack=math.nan)),
    dict(policy=dict(jump_min_decades=-6.0)),
])
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        if "policy" in overrides:
            overrides = dict(overrides,
                             policy=ClassificationPolicy(**overrides["policy"]))
        _small_config(**overrides)


@pytest.mark.parametrize("thresholds", [
    {}, dict(relaxed_min_correlation=0.0), dict(relaxed_min_correlation=1.0),
    dict(vector_threshold=0.0, relaxed_tail_coeff=0.0, monotone_slack=0.0,
         jump_min_decades=0.0),
    dict(tail_band_fraction=0.5, relaxed_band_fraction=0.999),
])
def test_classification_policy_accepts_its_range(thresholds):
    policy = ClassificationPolicy(**thresholds)
    assert _small_config(policy=policy).policy == policy


@pytest.mark.parametrize("name, mode", [
    ("double", "double64"), ("double64", "double64"),
    ("extended", "extended128"), ("extended128", "extended128"),
])
def test_one_spelling_per_precision_mode(tmp_path, name, mode):
    # the INI name and the CLI name of one mode persist one directory
    text = ("[experiment]\n"
            "family = step\nstrength = 3.0\nhalf_widths = 10.0\n"
            f"n_intervals = 65\nprecision = {name}\n"
            f"output_dir = {tmp_path}\n")
    config = parse_config(text)
    assert config.precision_mode == mode
    run_dir = persist(RunArtifact(config))
    assert run_dir.name == f"step_A3_N65_{mode}"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["config"]["precision"] == mode


def test_even_n_puts_a_node_at_the_origin():
    # the centre node of an even N sits at x = 0 exactly, where the step
    # takes sgn(0) = 0; the spectrum keeps its pairs and its transition
    config = _small_config(half_widths=(100.0,), n_intervals=1024)
    result, _ = run_single(config, 100.0)
    assert result.bound_pairs == 2
    assert abs(result.transition_point - 9.5) <= 1.0
    values = {r.value for r in result.records}
    paired = [r for r in result.records if r.value.imag]
    assert paired
    for r in paired:
        assert r.value.conjugate() in values


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
    # the stages' spans, in the order they ran, with their counters
    spans = small_artifact.spans[10.0]
    assert [s.name for s in spans] == [
        "hamiltonian.assemble", "eigensolver.schur", "eigensolver.vectors",
        "spectrum.tail_tests", "spectrum.transition", "harness.render"]
    assemble, schur, vectors, tails, _, rendered = spans
    assert [c.name for c in schur.children] == [
        "eigensolver.hessenberg", "eigensolver.qr"]
    assert [c.name for c in vectors.children] == [
        "eigensolver.backsub", "eigensolver.zy", "eigensolver.q", "eigensolver.residual"]
    for parent in (schur, vectors):
        assert sum(c.seconds for c in parent.children) <= parent.seconds
    assert not any(s.children for s in spans if s not in (schur, vectors))
    assert assemble.counters == {"d2_rows": 64}  # N=129: 128 interior nodes
    assert schur.counters["blocks"] == 1
    assert schur.counters["largest_block"] == 128
    assert schur.counters["qr_sweeps"] is None  # LAPACK reports none
    candidates = sum(r.value.imag > result.policy.vector_threshold
                     for r in result.records)
    assert vectors.counters == {"columns": candidates}
    assert tails.counters["candidates"] == candidates
    assert 0 <= tails.counters["relaxed_fits"] <= candidates
    assert rendered.counters == {
        "bytes": sum(map(len, small_artifact.files[10.0].values()))}


def test_run_single_renders_nothing(monkeypatch):
    # the reproduce cache keeps run_single's results, which need no files
    import ptspec.harness.runner as runner

    def render_refused(*args, **kwargs):
        raise AssertionError("run_single rendered")

    monkeypatch.setattr(runner, "render", render_refused)
    _, spans = run_single(_small_config(n_intervals=33), 10.0)
    assert "harness.render" not in [s.name for s in spans]


def test_persist_layout_and_schema(small_artifact, tmp_path):
    run_dir = persist(_output_to(small_artifact, tmp_path))
    csv_path = run_dir / "L10" / "eigenvalues.csv"
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im", "label", "tail_ratio", "residual"]
    assert len(rows) == 1 + len(small_artifact.results[10.0].records)
    for row in rows[1:]:
        # a measured residual wherever a vector was fetched, else empty
        if row[2] == "continuum_real":
            assert row[3:] == ["", ""]
        else:
            assert 0.0 <= float(row[4]) <= 1e-10
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["runs"]["L10"]["bound_pairs"] == 1
    assert "timing" not in summary  # timings live in their own file
    timing = json.loads((run_dir / "timing.json").read_text())
    environment = timing["environment"]
    assert set(environment) == {"numpy", "scipy", "mpmath", "cpu_count",
                                "openblas", "openblas_threads"}
    schur = timing["runs"]["L10"][1]
    assert schur["name"] == "eigensolver.schur"
    # the process's thread count is the environment's alone
    assert set(schur["counters"]) == {"blocks", "largest_block", "qr_sweeps",
                                      "schur_threads"}
    # N=129 is a small solve: one LAPACK thread where the count can be read
    lib = eigensolver._openblas()
    assert schur["counters"]["schur_threads"] == (
        None if lib.dhseqr is None or lib.get_threads is None else 1)
    # the rendered bytes are the bytes of the L's files
    rendered = timing["runs"]["L10"][-1]
    assert rendered["name"] == "harness.render"
    assert rendered["counters"]["bytes"] == sum(
        path.stat().st_size for path in (run_dir / "L10").iterdir())


def _fresh_interpreter(code, *args, env=()):
    """Run ``code`` in a new interpreter with this checkout's ``src`` on its
    path and the variables ``env`` added to its environment; returns its
    stdout, after asserting that it succeeded."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(eigensolver._openblas().dhseqr is None,
                    reason="numpy's library exports no LAPACKE_dhseqr")
def test_cli_run_imports_no_scipy_linalg(tmp_path):
    # scipy's LAPACK is a second library, slow to import, that no stage uses
    code = ("import sys\n"
            "import ptspec.harness.cli as cli\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "rc = cli.main(['classify', '--family', 'scarf2', '--strength', '30',"
            " '--L', '10', '--N', '33', '--out', sys.argv[1]])\n"
            "assert rc == 0 and 'scipy.linalg' not in sys.modules\n")
    _fresh_interpreter(code, tmp_path)
    assert len(list(tmp_path.rglob("timing.json"))) == 1


# what a double-precision run has no use for: the extended mode's library
# and kernel, the metadata lookups of a persisted run, numpy's masked
# arrays, the thread pool of concurrent parity blocks or half-widths, the
# reproduction suite with its reference data, and the extrapolation of
# bound-state sequences
UNUSED_BY_DOUBLE = ("mpmath", "importlib.metadata", "numpy.ma",
                    "concurrent.futures", "ptspec._fixed_schur",
                    "ptspec.harness.reproduce", "ptspec.refdata",
                    "ptspec.extrapolate")


def test_double_cli_runs_import_only_what_they_use():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from ptspec.harness.cli import main\n"
            "run = ['--family', 'scarf2', '--strength', '30', '--L', '10', '--N', '33']\n"
            "assert main(['spectrum', *run]) == 0\n"
            "assert main(['classify', *run]) == 0\n"
            "print([m for m in sys.argv[1:] if m in sys.modules and m not in before])\n")
    out = _fresh_interpreter(code, *UNUSED_BY_DOUBLE)
    assert out.splitlines()[-1] == "[]"


def test_extended_run_is_the_same_when_mpmath_loads_on_first_use(tmp_path):
    argv = ["classify", "--family", "scarf2", "--strength", "30", "--L", "10",
            "--N", "5", "--precision", "extended", "--out"]
    code = ("import sys\n"
            "from ptspec.harness.cli import main\n"
            "assert 'mpmath' not in sys.modules\n"
            "sys.exit(main(sys.argv[1:]))\n")
    _fresh_interpreter(code, *argv, tmp_path / "fresh")
    import mpmath  # noqa: F401  -- loaded before the run, as in this process

    assert main([*argv, str(tmp_path / "loaded")]) == 0
    fresh, loaded = (next((tmp_path / name).rglob("eigenvalues.csv")).read_bytes()
                     for name in ("fresh", "loaded"))
    assert fresh == loaded


def test_persisted_files_are_reproducible(small_artifact, tmp_path):
    first = persist(_output_to(small_artifact, tmp_path / "a"))
    again = persist(run_experiment(_small_config(
        output_dir=str(tmp_path / "b"))))
    assert ((first / "L10" / "eigenvalues.csv").read_bytes()
            == (again / "L10" / "eigenvalues.csv").read_bytes())
    assert ((first / "summary.json").read_bytes()
            == (again / "summary.json").read_bytes())


def _failing_at(half_width, exception):
    """A ``build_grid`` that raises ``exception`` for ``half_width`` only,
    whichever order the half-widths run in."""
    import ptspec.harness.runner as runner
    build_grid = runner.build_grid

    def build_grid_failing(width, *args, **kwargs):
        if width == half_width:
            raise exception
        return build_grid(width, *args, **kwargs)

    return build_grid_failing


def test_failure_in_one_half_width_is_isolated(monkeypatch, tmp_path):
    import ptspec.harness.runner as runner
    monkeypatch.setattr(runner, "build_grid", _failing_at(5.0, ValueError("injected")))
    artifact = run_experiment(_small_config(half_widths=(5.0, 10.0)))
    assert artifact.failures == {5.0: "ValueError: injected"}
    assert artifact.results[10.0].bound_pairs == 1
    run_dir = persist(_output_to(artifact, tmp_path))
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["failures"] == {"5.0": "ValueError: injected"}
    assert list(summary["runs"]) == ["L10"]
    assert (run_dir / "L10" / "eigenvalues.csv").exists()
    assert not (run_dir / "L5").exists()
    # the failed L's spans stay out of the other L's
    runs = json.loads((run_dir / "timing.json").read_text())["runs"]
    assert list(runs) == ["L10"]
    assert [s["name"] for s in runs["L10"]] == [
        "hamiltonian.assemble", "eigensolver.schur", "eigensolver.vectors",
        "spectrum.tail_tests", "spectrum.transition", "harness.render"]


# --- half-widths side by side ---------------------------------------------

def _spy_on_jobs(monkeypatch, get):
    """Replace ``runner.run_single`` by a spy; returns, per job, its
    half-width, the thread it ran on and OpenBLAS's count (``get()``) then."""
    import ptspec.harness.runner as runner
    jobs = []

    def spy(config, half_width):
        jobs.append((half_width, threading.get_ident(), get()))
        return run_single(config, half_width)

    monkeypatch.setattr(runner, "run_single", spy)
    return jobs


def _span_names(spans):
    return [(s.name, _span_names(s.children)) for s in spans]


def _count_pools(monkeypatch):
    """Record the arguments of every ``ThreadPoolExecutor`` started."""
    pools = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    return pools


@pytest.mark.parametrize("family, strength, half_widths, n", [
    ("coulomb_regulated", 10.0, (10.0, 100.0), 255),  # the benchmark's sweep
    ("scarf2", 0.0, (10.0, 12.0, 14.0), eigensolver._SERIAL_BELOW + 1),  # box
])
def test_sweep_runs_side_by_side_as_each_job_alone(two_threads, monkeypatch,
                                                   family, strength, half_widths, n):
    config = _small_config(family=family, strength=strength,
                           half_widths=half_widths, n_intervals=n)
    with eigensolver._one_thread():
        alone = {w: run_single(config, w) for w in half_widths}
    jobs = _spy_on_jobs(monkeypatch, two_threads)
    pools = _count_pools(monkeypatch)
    artifact = run_experiment(config)
    # one pool of two workers, the sweep's own: no L starts a nested one
    assert pools == [(2,)] and two_threads() == 2
    assert sorted(w for w, _, _ in jobs) == list(half_widths)
    assert {count for _, _, count in jobs} == {1}
    assert len({thread for _, thread, _ in jobs}) == 2
    assert not artifact.failures
    assert list(artifact.results) == list(artifact.spans) == list(half_widths)
    for w in half_widths:
        result, spans = alone[w]
        # bit for bit: repr round-trips every float and tells -0.0 from 0.0
        assert repr(artifact.results[w]) == repr(result)
        assert artifact.files[w] == render(result, "csv")
        assert _span_names(artifact.spans[w]) == [*_span_names(spans),
                                                  ("harness.render", [])]


def test_single_l_runs_alone_on_every_thread(two_threads, monkeypatch):
    # a lone L runs unchanged: on the calling thread, no pool, and its one
    # Schur block of order _SERIAL_BELOW on both threads, the path of the
    # benchmark's single-L step call (N=1023 on two threads)
    jobs = _spy_on_jobs(monkeypatch, two_threads)
    pools = _count_pools(monkeypatch)
    artifact = run_experiment(_small_config(
        n_intervals=eigensolver._SERIAL_BELOW + 1))
    assert pools == [] and two_threads() == 2
    assert jobs == [(10.0, threading.get_ident(), 2)]
    assert not artifact.failures
    schur = next(s for s in artifact.spans[10.0] if s.name == "eigensolver.schur")
    assert (schur.counters["blocks"], schur.counters["schur_threads"]) == (1, 2)


def test_more_jobs_than_cores_keep_their_own_results_and_spans(two_threads,
                                                               monkeypatch):
    # four workers on a 2-core machine, switching threads as often as the
    # interpreter allows: no job's spans or numbers may reach another's
    eigensolver._openblas().set_threads(4)  # the fixture restores the count
    config = _small_config(half_widths=tuple(float(w) for w in range(5, 13)),
                           n_intervals=65)
    with eigensolver._one_thread():
        alone = {w: run_single(config, w) for w in config.half_widths}
    jobs = _spy_on_jobs(monkeypatch, two_threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        artifact = run_experiment(config)
    finally:
        sys.setswitchinterval(interval)
    assert 2 <= len({thread for _, thread, _ in jobs}) <= 4
    assert not artifact.failures
    for w, (result, spans) in alone.items():
        assert repr(artifact.results[w]) == repr(result)
        assert _span_names(artifact.spans[w]) == [*_span_names(spans),
                                                  ("harness.render", [])]
    assert two_threads() == 4


def test_sweep_spans_report_the_threads_from_before_the_sweep(two_threads, tmp_path):
    artifact = run_experiment(_small_config(half_widths=(5.0, 10.0),
                                            output_dir=str(tmp_path)))
    timing = json.loads((persist(artifact) / "timing.json").read_text())
    assert timing["environment"]["openblas_threads"] == 2
    assert set(timing["runs"]) == {"L5", "L10"}
    for spans in timing["runs"].values():
        schur = next(s for s in spans if s["name"] == "eigensolver.schur")
        assert schur["counters"]["schur_threads"] == 1


def test_sweep_persists_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    # of order 512: alone on two threads it would take its Schur form on both
    code = ("import sys\n"
            "from ptspec.harness.cli import main\n"
            "sys.exit(main(['sweep', '--family', 'step', '--strength', '3',"
            " '--L', '10', '--L', '20', '--N', '513', '--out', sys.argv[1]]))\n")
    files = {}
    for threads in ("1", "2"):
        out = _fresh_interpreter(code, tmp_path / threads,
                                 env={"OPENBLAS_NUM_THREADS": threads})
        files[threads] = _files(out.strip())
        timing = json.loads(files[threads].pop(Path("timing.json")))
        process = timing["environment"]["openblas_threads"]
        for spans in timing["runs"].values():
            schur = next(s for s in spans if s["name"] == "eigensolver.schur")
            assert schur["counters"]["schur_threads"] == (None if process is None else 1)
    assert files["1"] == files["2"]


@pytest.mark.parametrize("exception", [ValueError("injected"),
                                       KeyboardInterrupt()],
                         ids=["recorded", "propagated"])
def test_thread_count_restored_after_a_sweep_in_which_a_job_raises(
        two_threads, monkeypatch, exception):
    import ptspec.harness.runner as runner
    jobs = _spy_on_jobs(monkeypatch, two_threads)
    monkeypatch.setattr(runner, "build_grid", _failing_at(5.0, exception))
    config = _small_config(half_widths=(5.0, 10.0))
    if isinstance(exception, Exception):
        artifact = run_experiment(config)
        assert artifact.failures == {5.0: "ValueError: injected"}
        assert list(artifact.results) == [10.0]
    else:
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config)
    assert {count for _, _, count in jobs} == {1}
    assert two_threads() == 2


def test_extended_sweep_runs_one_after_another(two_threads, monkeypatch):
    # mpmath's precision is process-wide: no pool, and no hold on OpenBLAS
    import mpmath
    jobs = _spy_on_jobs(monkeypatch, two_threads)
    artifact = run_experiment(_small_config(family="scarf2", strength=30.0,
                                            half_widths=(5.0, 10.0), n_intervals=9,
                                            precision_mode="extended128"))
    assert not artifact.failures and list(artifact.results) == [5.0, 10.0]
    assert jobs == [(5.0, threading.get_ident(), 2), (10.0, threading.get_ident(), 2)]
    assert mpmath.mp.prec == 53


# --- tools -----------------------------------------------------------------

STAGES = {"hamiltonian.assemble", "eigensolver.schur", "eigensolver.hessenberg",
          "eigensolver.qr", "eigensolver.vectors", "eigensolver.residual",
          "spectrum.tail_tests", "spectrum.transition", "harness.render"}


@pytest.mark.parametrize("case", [
    ("coulomb_regulated", 10.0, 100.0, 31, "double64"),
    ("scarf2", 30.0, 10.0, 9, "extended128"),
])
def test_stage_ladder_measures_a_case(case):
    # the ladder's per-case function, as its child interpreters run it
    ladder = Path(__file__).resolve().parent.parent / "tools" / "stage_ladder.py"
    record = runpy.run_path(str(ladder))["measure"](*case)
    assert set(record) == {"spans", "environment", "peak_rss_mb"}
    # double precision back-substitutes on T, then applies Z and the
    # Hessenberg reflectors; the extended kernel takes each vector by
    # inverse iteration on H, then applies its reflectors
    vectors = ({"eigensolver.backsub", "eigensolver.zy"} if case[-1] == "double64"
               else {"eigensolver.inverse_iteration"})
    assert set(record["spans"]) == STAGES | vectors | {"eigensolver.q"}
    assert all(stage["seconds"] >= 0 for stage in record["spans"].values())
    schur = record["spans"]["eigensolver.schur"]
    assert (schur["qr_sweeps"] is None) == (case[-1] == "double64")
    assert (record["spans"]["eigensolver.vectors"]["columns"]
            == record["spans"]["spectrum.tail_tests"]["candidates"] > 0)
    assert record["spans"]["harness.render"]["bytes"] > 0


def test_stage_ladder_measures_a_sweep():
    ladder = Path(__file__).resolve().parent.parent / "tools" / "stage_ladder.py"
    record = runpy.run_path(str(ladder))["measure_sweep"](31, [10.0, 100.0], 2)
    assert len(record["seconds"]) == 2 and min(record["seconds"]) > 0
    assert set(record["schur"]) == {"L10", "L100"}
    assert all(schur["largest_block"] == 30 for schur in record["schur"].values())


def test_stage_ladder_tells_when_a_sweep_difference_is_unresolved():
    ladder = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools"
                                / "stage_ladder.py"))
    seconds, difference = ladder["sweep_seconds"], ladder["sweep_difference"]
    assert seconds([4.0, 1.0, 3.0, 2.0, 5.0]) == {"seconds": 3.0, "q1": 2.0, "q3": 4.0}
    parent = seconds([1.0, 2.0, 3.0, 4.0, 5.0])  # interquartile range 2
    # medians 1.5 apart: within the wider range, though the change's is 1
    assert difference(seconds([3.5, 4.0, 4.5, 5.0, 5.5]), parent) == "unresolved"
    assert difference(parent, seconds([3.5, 4.0, 4.5, 5.0, 5.5])) == "unresolved"
    assert difference(seconds([5.5, 6.0, 6.5]), parent) == "+3.0000 s"
    assert difference(parent, seconds([5.5, 6.0, 6.5])) == "-3.0000 s"


def test_stage_ladder_cold_start_loads_nothing_a_double_run_does_not_use():
    root = Path(__file__).resolve().parent.parent
    cold_start = runpy.run_path(str(root / "tools" / "stage_ladder.py"))["cold_start"]
    record = cold_start("this", str(root))
    assert record["seconds"] > 0 and record["loaded"] == []


# --- plot data -------------------------------------------------------------

def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_plot_data_schemas(small_artifact, tmp_path):
    result = small_artifact.results[10.0]
    l_dir = persist(_output_to(small_artifact, tmp_path)) / "L10"
    rows = _rows(l_dir / "complex_plane.csv")
    assert rows[0] == ["re", "im", "label"]
    assert len(rows) == 1 + len(result.records)

    rows = _rows(l_dir / "log_im.csv")
    assert rows[0] == ["re", "log10_abs_im", "kind"]
    assert rows[-1][2] == "transition"
    assert float(rows[-1][0]) == result.transition_point

    rows = _rows(l_dir / "loglog_bound.csv")
    assert rows[0] == ["log10_re", "log10_abs_im"]
    assert len(rows) == 1 + result.bound_pairs


def test_plot_data_empty_bound_set(tmp_path):
    artifact = run_experiment(_small_config(strength=0.0,
                                            output_dir=str(tmp_path)))
    path = persist(artifact) / "L10" / "loglog_bound.csv"
    assert path.read_text().strip() == "log10_re,log10_abs_im"


def _csv_writer_files(result, output_format, labels=True):
    """One L's files as ``csv.writer`` and ``json.dump`` wrote them before
    ``render``: the reference for its bytes."""
    columns = COLUMNS if labels else COLUMNS[:2]
    rows = [(r.value.real, r.value.imag, r.label, r.tail_ratio,
             r.residual)[:len(columns)] for r in result.records]

    def table(header, rows):
        fh = io.StringIO(newline="")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        return fh.getvalue()

    name = f"eigenvalues.{output_format}"
    if output_format == "json":
        files = {name: json.dumps([dict(zip(columns, row)) for row in rows],
                                  indent=1) + "\n"}
    else:
        files = {name: table(columns, rows)}
    if not labels:
        return files

    def log10(x):
        return math.log10(abs(x) + 1e-300)

    log_im = [(z.real, log10(z.imag), "point") for z in result.continuum_values()]
    if result.transition_point is not None:
        log_im.append((result.transition_point, None, "transition"))
    files["complex_plane.csv"] = table(
        ("re", "im", "label"),
        [(r.value.real, r.value.imag, r.label) for r in result.records])
    files["log_im.csv"] = table(("re", "log10_abs_im", "kind"), log_im)
    files["loglog_bound.csv"] = table(
        ("log10_re", "log10_abs_im"),
        [(log10(z.real), log10(z.imag)) for z in result.bound_values()])
    return files


def _result(records, transition_point):
    return SpectrumResult(
        records=tuple(records),
        bound_pairs=sum(r.label == BOUND and r.value.imag > 0 for r in records),
        transition_point=transition_point,
        transition_drop=None if transition_point is None else 7.0,
        policy=ClassificationPolicy())


# every label; a None tail ratio and residual; -0.0 in either part; a zero
# Im, whose log10 is the floor's -300; values that need 17 digits; a
# residual that is nan or infinite, which JSON writes as NaN and Infinity
RECORDS = (
    EigenRecord(complex(-0.0, 0.0), CONTINUUM_REAL),
    EigenRecord(complex(0.1 + 0.2, -0.0), CONTINUUM_REAL),
    EigenRecord(complex(1.5, -0.25), BOUND, 3.2e-9, 2.5e-14),
    EigenRecord(complex(1.5, 0.25), BOUND, 3.2e-9, 2.5e-14),
    EigenRecord(complex(2.0, 1 / 3), CONTINUUM_COMPLEX, 0.31, 1e-15),
    EigenRecord(complex(3e5, 5e-324), UNRESOLVED, None, math.nan),
    EigenRecord(complex(4e5, 0.06), UNRESOLVED, None, math.inf),
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("records, transition_point", [
    (RECORDS, 2.5),
    ([r for r in RECORDS if r.label != BOUND], None),  # no bound pair
    ((), None),
], ids=["every-label", "no-bound-pair", "empty"])
def test_render_gives_the_bytes_csv_writer_gave(fmt, records, transition_point):
    result = _result(records, transition_point)
    assert render(result, fmt) == _csv_writer_files(result, fmt)
    assert (render(result, fmt, labels=False)
            == _csv_writer_files(result, fmt, labels=False))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_of_a_run_gives_the_bytes_csv_writer_gave(small_artifact, fmt):
    result = small_artifact.results[10.0]
    assert render(result, fmt) == _csv_writer_files(result, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_spectrum_prints_re_im_as_csv_writer_did(capsys, fmt):
    argv = ["--family", "step", "--strength", "3", "--L", "10", "--N", "129",
            "--format", fmt]
    assert main(["spectrum", *argv]) == 0
    printed = capsys.readouterr().out
    result, _ = run_single(_small_config(), 10.0)
    assert printed == _csv_writer_files(result, fmt, labels=False)[
        f"eigenvalues.{fmt}"]


def test_sweep_renders_each_half_width_on_the_thread_that_solved_it(
        two_threads, monkeypatch):
    import ptspec.harness.runner as runner
    jobs = _spy_on_jobs(monkeypatch, two_threads)
    solved, rendered = [], []
    qr, render_files = eigensolver._qr, runner.render

    def qr_spy(t, z):
        solved.append(threading.get_ident())
        return qr(t, z)

    def render_spy(result, output_format):
        rendered.append((result, threading.get_ident()))
        return render_files(result, output_format)

    monkeypatch.setattr(eigensolver, "_qr", qr_spy)
    monkeypatch.setattr(runner, "render", render_spy)
    artifact = run_experiment(_small_config(
        family="coulomb_regulated", strength=10.0, half_widths=(10.0, 100.0),
        n_intervals=255))
    assert not artifact.failures
    job_threads = {w: thread for w, thread, _ in jobs}
    assert len(set(job_threads.values())) == 2
    assert threading.get_ident() not in job_threads.values()
    # each worker ran one L's Schur decomposition, and rendered that L
    assert set(solved) == set(job_threads.values())
    assert len(rendered) == 2
    for result, thread in rendered:
        (w,) = [w for w, r in artifact.results.items() if r is result]
        assert thread == job_threads[w]


def test_a_render_failure_stays_in_its_half_width(monkeypatch, tmp_path, capsys):
    import ptspec.harness.runner as runner
    solve, render_files = runner.run_single, runner.render
    widths = []

    def run_single_spy(config, half_width):
        result, spans = solve(config, half_width)
        widths.append((result, half_width))
        return result, spans

    def render_failing(result, output_format):
        if [w for r, w in widths if r is result] == [5.0]:
            raise ValueError("injected")
        return render_files(result, output_format)

    monkeypatch.setattr(runner, "run_single", run_single_spy)
    monkeypatch.setattr(runner, "render", render_failing)
    assert main(["sweep", "--family", "step", "--strength", "3", "--L", "5",
                 "--L", "10", "--N", "129", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "L=5 failed: ValueError: injected\n"
    run_dir = Path(captured.out.strip())
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["failures"] == {"5.0": "ValueError: injected"}
    assert list(summary["runs"]) == ["L10"]
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "L10", "summary.json", "timing.json"]
    assert len(list((run_dir / "L10").iterdir())) == 4


# --- cli -------------------------------------------------------------------

def test_cli_classify_prints_csv(capsys):
    code = main(["classify", "--family", "step", "--strength", "3",
                 "--L", "10", "--N", "129"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,label,tail_ratio,residual"
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
    if fmt == "json":
        rows = json.loads(printed)
        assert all(set(row) == {"re", "im", "label", "tail_ratio", "residual"}
                   for row in rows)
        assert any(row["residual"] is not None for row in rows)


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


def _files(run_dir):
    return {path.relative_to(run_dir): path.read_bytes()
            for path in Path(run_dir).rglob("*") if path.is_file()}


def test_cli_classify_and_sweep_persist_one_layout(tmp_path, capsys):
    job = ["--family", "step", "--strength", "3", "--L", "10", "--N", "129"]
    assert main(["classify", *job, "--out", str(tmp_path / "classify")]) == 0
    classified = _files(capsys.readouterr().out.strip())
    assert main(["sweep", *job, "--out", str(tmp_path / "sweep")]) == 0
    swept = _files(capsys.readouterr().out.strip())
    assert set(classified) == set(swept) == {
        Path("summary.json"), Path("timing.json"),
        *(Path("L10") / f"{name}.csv" for name in (
            "eigenvalues", "complex_plane", "log_im", "loglog_bound"))}
    # the same job, so the same bytes wherever no time is recorded
    del classified[Path("timing.json")], swept[Path("timing.json")]
    assert classified == swept


def test_cli_classify_reports_and_persists_a_failure(monkeypatch, tmp_path,
                                                     capsys):
    import ptspec.harness.runner as runner

    def eigenvalues_failing(matrix, precision):
        raise ValueError("injected")

    monkeypatch.setattr(runner, "eigenvalues", eigenvalues_failing)
    assert main(["classify", "--family", "step", "--strength", "3", "--L", "10",
                 "--N", "129", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "L=10 failed: ValueError: injected\n"
    run_dir = Path(captured.out.strip())
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["failures"] == {"10.0": "ValueError: injected"}
    assert summary["runs"] == {}


def test_cli_classify_fails_a_matrix_whose_norm_overflows(tmp_path, capsys):
    # at A=1e160 ||K||_F^2 overflows a double, so no residual relative to
    # ||K||_F could be measured and no label defended: the L fails
    run = ["classify", "--family", "step", "--L", "10", "--N", "33"]
    assert main([*run, "--strength", "1e160", "--out", str(tmp_path / "over")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("L=10 failed: ValueError:")
    summary = json.loads((Path(captured.out.strip()) / "summary.json").read_text())
    assert list(summary["failures"]) == ["10.0"] and summary["runs"] == {}
    # at A=1e150 it runs, every fetched vector with a measured residual, and
    # without a warning (the suite makes warnings errors)
    assert main([*run, "--strength", "1e150", "--out", str(tmp_path / "runs")]) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    with open(run_dir / "L10" / "eigenvalues.csv", newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["label"] == "bound"]
    assert rows and all(0 < float(row["residual"]) <= 1e-10 for row in rows)


@pytest.mark.parametrize("action", ["error", "always"])
def test_a_half_width_too_small_for_double_fails_with_one_error(action, capsys):
    # at L=1e-300 and N=21 -d^2 overflows a double: the L fails with one
    # error that names L and N, raised before K is built, whatever the
    # warning filter; at L=1e300 its entries underflow to 0, which is kept
    message = ("ValueError: half-width L=1e-300 is too small for N=21: "
               "the second-derivative matrix overflows a double")
    run = ["classify", "--family", "scarf2", "--strength", "30", "--N", "21"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert main([*run, "--L", "1e-300"]) == 1
        artifact = run_experiment(ExperimentConfig(
            family="scarf2", strength=30.0, half_widths=(1e-300,), n_intervals=21))
        assert main([*run, "--L", "1e300"]) == 0
    assert not caught
    assert capsys.readouterr().err.splitlines()[0] == f"L=1e-300 failed: {message}"
    assert artifact.failures == {1e-300: message} and not artifact.results


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "scarf2", "--strength", "1", "--L", "10", "--L", "10",
     "--N", "33"],
    ["classify", "--family", "step", "--strength", "nan", "--L", "10",
     "--N", "33"],
    ["classify", "--family", "step", "--strength", "3", "--L", "10",
     "--N", "3"],
    ["sweep", "--config", "{bad_ini}"],
    ["classify", "--family", "step", "--strength", "3", "--L", "inf",
     "--N", "33"],
    ["spectrum", "--family", "step", "--strength", "3", "--L", "nan",
     "--N", "33"],
    ["sweep", "--family", "scarf2", "--strength=-inf", "--L", "10",
     "--N", "33"],
    ["sweep", "--config", "{nan_ini}"],
    *(["classify", "--family", "step", "--strength", "3", "--L", "10",
       "--N", "129", "--tail-threshold", threshold]
      for threshold in ("nan", "-1", "0", "inf")),
    ["sweep", "--config", "{band_ini}"],
    ["sweep", "--config", "{nan_threshold_ini}"],
    ["sweep", "--config", "{missing_ini}"],
    ["sweep", "--config", "{headless_ini}"],
    ["sweep", "--config", "{repeated_key_ini}"],
    ["sweep", "--config", "{no_family_ini}"],
    ["sweep", "--config", "{percent_ini}"],
    # the desk-scale checks write nothing, so --out has nowhere to go
    ["reproduce", "--selector", "box", "--out", "{runs}"],
    # a sweep needs a target: --config, or --family, --strength and an --L
    ["sweep", "--N", "129", "--out", "{runs}"],
])
def test_cli_bad_config_is_a_usage_error(argv, tmp_path, capsys):
    inis = {"missing_ini": tmp_path / "absent.ini", "runs": tmp_path / "runs"}
    for name, old, new in (
            ("bad_ini", "[classification]", "[classification]\nbogus = 1.0"),
            ("nan_ini", "strength = 3.0", "strength = nan"),
            ("band_ini", "tail_band_fraction = 0.05", "tail_band_fraction = 1.5"),
            ("nan_threshold_ini", "bound_tail_threshold = 1e-06",
             "bound_tail_threshold = nan"),
            ("headless_ini", "[experiment]\n", ""),
            ("repeated_key_ini", "strength = 3.0", "strength = 3.0\nstrength = 4.0"),
            ("no_family_ini", "family = step\n", ""),
            ("percent_ini", "output_format = csv", "output_format = csv%x")):
        text = serialize_config(_small_config(output_dir=str(tmp_path / "runs")))
        assert old in text
        inis[name] = tmp_path / f"{name}.ini"
        inis[name].write_text(text.replace(old, new))
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(**inis) for arg in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines[-1].startswith("ptspec: error: ")
    assert sum("error:" in line for line in lines) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()  # nothing ran


def test_half_widths_that_differ_past_six_digits_keep_their_own_files(tmp_path, capsys):
    assert main(["sweep", "--family", "step", "--strength", "3", "--L", "10",
                 "--L", "10.0000001", "--N", "33", "--out", str(tmp_path)]) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    assert sorted(p.name for p in run_dir.iterdir() if p.is_dir()) == [
        "L10", "L10.0000001"]
    summary = json.loads((run_dir / "summary.json").read_text())
    timing = json.loads((run_dir / "timing.json").read_text())
    assert list(summary["runs"]) == list(timing["runs"]) == ["L10", "L10.0000001"]


def test_strengths_that_differ_past_six_digits_keep_their_own_files(tmp_path, capsys):
    # the same job at A = 3 and 3.0000001 into one --out
    dirs = []
    for strength in ("3", "3.0000001"):
        assert main(["classify", "--family", "step", "--strength", strength,
                     "--L", "10", "--N", "33", "--out", str(tmp_path)]) == 0
        dirs.append(Path(capsys.readouterr().out.strip()))
    assert [d.name for d in dirs] == ["step_A3_N33_double64",
                                      "step_A3.0000001_N33_double64"]
    strengths = [json.loads((d / "summary.json").read_text())["config"]["strength"]
                 for d in dirs]
    assert strengths == [3.0, 3.0000001]


def test_cli_persists_the_thresholds_of_each_run(tmp_path, capsys):
    job = ["classify", "--family", "step", "--strength", "3", "--L", "10",
           "--N", "129"]
    for name, extra, threshold in (("default", [], 1e-6),
                                   ("relaxed", ["--tail-threshold", "0.5"], 0.5)):
        assert main([*job, *extra, "--out", str(tmp_path / name)]) == 0
        run_dir = Path(capsys.readouterr().out.strip())
        summary = json.loads((run_dir / "summary.json").read_text())
        policy = ClassificationPolicy(bound_tail_threshold=threshold)
        assert summary["config"]["classification"] == dataclasses.asdict(policy)


def test_runs_with_other_thresholds_keep_their_own_files(tmp_path, capsys):
    # the same job into one --out: each run keeps its own directory, and
    # the default run keeps the name it had before thresholds were in it
    job = ["classify", "--family", "step", "--strength", "3", "--L", "10",
           "--N", "129", "--out", str(tmp_path)]
    dirs = []
    for extra in ([], ["--tail-threshold", "0.5"], ["--tail-threshold", "1e-06"]):
        assert main([*job, *extra]) == 0
        dirs.append(Path(capsys.readouterr().out.strip()))
    assert [d.name for d in dirs] == [
        "step_A3_N129_double64", "step_A3_N129_double64_bound_tail_threshold0.5",
        "step_A3_N129_double64"]
    thresholds = [json.loads((d / "summary.json").read_text())["config"]
                  ["classification"]["bound_tail_threshold"] for d in dirs[:2]]
    assert thresholds == [1e-6, 0.5]


def test_cli_extrapolate(tmp_path, capsys):
    path = tmp_path / "bound.txt"
    path.write_text("".join(
        f"{25.0 / k ** 2} {61.0 / k ** 3}\n" for k in range(1, 10)))
    assert main(["extrapolate", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == pytest.approx(25.0, abs=1e-9)
    assert payload["beta"] == pytest.approx(61.0, abs=1e-9)


@pytest.mark.parametrize("text, message", [
    ("1 2\n3 4\n5 6 7\n", "expected two columns"),  # a malformed row
    ("1 2\n3 four\n5 6\n", "could not convert"),
    ("1 2\n3 4\n", "at least 3 bound states"),  # InsufficientDataError
    (None, "No such file"),
    ("1 2\nnan nan\n5 6\n7 8\n", "non-finite"),
])
def test_cli_extrapolate_bad_input_is_a_usage_error(text, message, tmp_path,
                                                    capsys):
    path = tmp_path / "bound.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        main(["extrapolate", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines[-1].startswith("ptspec: error: ") and message in lines[-1]
    assert sum("error:" in line for line in lines) == 1
    assert "Traceback" not in err


def test_cli_reproduce_tables(capsys):
    assert main(["reproduce", "--selector", "tables"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_cli_reproduce_reports_a_failed_check(monkeypatch, capsys):
    import ptspec.harness.reproduce as module
    # a comparison of numpy scalars, as several checks make, fails
    monkeypatch.setattr(module, "_table_agreement", lambda *args: np.float64(1.0))
    assert main(["reproduce", "--selector", "tables"]) == 1
    report = json.loads(capsys.readouterr().err)
    assert [(c["name"], c["passed"]) for c in report["failed"]] == [
        ("richardson_tables", False)]


def test_reproduce_rejects_unknown_selector():
    with pytest.raises(ValueError):
        reproduce("everything")


def test_reproduce_module_is_not_shadowed_by_its_function():
    import ptspec.harness.reproduce as module
    assert module.reproduce is reproduce


def test_reproduce_computes_each_spectrum_once(monkeypatch):
    import ptspec.harness.reproduce as module
    calls = []

    def run_single_counted(config, half_width):
        calls.append((config, half_width))
        return run_single(config, half_width)

    monkeypatch.setattr(module, "run_single", run_single_counted)
    module._spectrum.cache_clear()  # earlier tests may have filled it
    first, again = reproduce("box"), reproduce("box")
    assert first == again and first[0].passed
    assert len(calls) == 1


def test_full_scale_config_shape():
    config = full_scale_config()
    assert config.n_intervals == 2 ** 14 - 1
    assert config.precision_mode == "extended128"
    assert max(config.half_widths) == 1000.0
