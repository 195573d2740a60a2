"""Config loading, job execution, serialization, and exit codes."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import platform
import sys
import textwrap
import threading
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    band_joint,
    capped_threads,
    column_rows,
    read_report_tables,
    record_lapack_solves,
    row_sector,
)
from floqtrk import (
    ConfigError,
    InputError,
    EigenSystem,
    NumericError,
    FockSpec,
    __version__,
    cli,
    first_moment,
    floquet,
    joint_operator,
    lapack,
    sumrule,
    sumrule_qed,
)
from floqtrk.cli import (
    JobConfig,
    load_config,
    main,
    report_payload,
    run_hash_of,
    run_job,
    write_report,
)

TWO_LEVEL_MODEL = """\
model:
  kind: few_level
  energies: [0.0, 1.0]
  dipole: [[0.0, 1.0], [1.0, 0.0]]
"""

THREE_LEVEL_MODEL = """\
model:
  kind: few_level
  energies: [0.0, 0.3, 1.1]
  dipole:
    - [0.2, 0.5, 0.1]
    - [0.5, -0.1, 0.4]
    - [0.1, 0.4, 0.3]
"""


def config_file(tmp_path, text, name="job.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def test_static_defaults_are_echoed(tmp_path):
    """An empty grid model resolves to the documented defaults."""
    path = config_file(tmp_path, "job: static_trk\nmodel: {}\n")
    config = load_config(path)
    assert config.resolved == {
        "job": "static_trk",
        "model": {
            "kind": "grid",
            "n_electrons": 1,
            "grid": {"n_points": 201, "x_min": -10.0, "x_max": 10.0},
            "potential": {"kind": "harmonic", "omega": 1.0},
            "kinetic": "three_point",
        },
        "reference": "auto",
        "output": {"directory": "out", "formats": ["json", "csv"]},
    }


@pytest.mark.parametrize(
    "potential, expected",
    [
        ("harmonic", {"omega": 1.0}),
        ("soft_coulomb", {"charge": 1.0, "softening": 1.0}),
        ("box", {}),
        ("double_well", {"barrier": 1.0, "separation": 2.0}),
    ],
)
def test_two_electron_defaults_are_echoed(tmp_path, potential, expected):
    """Two-electron grids default to the sinc-DVR kinetic scheme; each
    potential and interaction kind echoes its own defaults."""
    path = config_file(
        tmp_path,
        f"job: static_trk\nmodel: {{n_electrons: 2, potential: {{kind: {potential}}},"
        " interaction: {kind: soft_coulomb}}\n",
    )
    model = load_config(path).resolved["model"]
    assert model == {
        "kind": "grid",
        "n_electrons": 2,
        "grid": {"n_points": 201, "x_min": -10.0, "x_max": 10.0},
        "potential": {"kind": potential, **expected},
        "kinetic": "sinc_dvr",
        "interaction": {"kind": "soft_coulomb", "strength": 1.0, "softening": 1.0},
    }


def test_section_defaults_are_echoed(tmp_path):
    """The drive, sambe, fock, qed and sweep sections echo their defaults."""
    floquet_job = load_config(
        config_file(
            tmp_path,
            "job: floquet\n" + TWO_LEVEL_MODEL + "drive: {omega: 0.5, components: [{amplitude: 0.1}]}\n",
        )
    )
    assert floquet_job.resolved["model"]["n_electrons"] == 1
    assert floquet_job.resolved["drive"]["components"] == [
        {"harmonic": 1, "amplitude": 0.1, "phase": 0.0}
    ]
    assert floquet_job.resolved["sambe"] == {"harmonic_cutoff": 8, "edge_tol": 1e-6, "n_max": None}
    qed_job = load_config(
        config_file(tmp_path, "job: qed\n" + TWO_LEVEL_MODEL + "fock: {omega_c: 0.9, g: 0.1}\n")
    )
    assert qed_job.resolved["fock"] == {"n_max": 8, "omega_c": 0.9, "g": 0.1}
    assert qed_job.resolved["qed"] == {"h0_diagnostic": False}
    sweep_job = load_config(
        config_file(tmp_path, SWEEP_JOB.replace("  job: floquet\n", ""))
    )
    assert sweep_job.resolved["sweep"]["job"] == "floquet"


def test_unknown_key_suggests_correction(tmp_path):
    """A misspelled key is rejected with the nearest valid name."""
    path = config_file(
        tmp_path,
        """\
        job: static_trk
        model:
          kind: grid
          potential:
            kind: harmonic
            omeag: 2.0
        """,
    )
    with pytest.raises(ConfigError, match="did you mean 'omega'"):
        load_config(path)


def test_missing_required_section(tmp_path):
    """A floquet job without a drive section names the missing section."""
    path = config_file(tmp_path, "job: floquet\n" + TWO_LEVEL_MODEL)
    with pytest.raises(ConfigError, match="requires section 'drive'"):
        load_config(path)


def test_unused_section_is_rejected(tmp_path):
    """A drive section under a static job is refused, not ignored."""
    path = config_file(
        tmp_path,
        "job: static_trk\n" + TWO_LEVEL_MODEL + "drive:\n  omega: 1.0\n",
    )
    with pytest.raises(ConfigError, match="not used by job kind 'static_trk'"):
        load_config(path)


def test_non_finite_number_is_rejected(tmp_path):
    """Infinite parameter values are configuration errors."""
    path = config_file(
        tmp_path,
        """\
        job: static_trk
        model:
          kind: grid
          potential:
            kind: harmonic
            omega: .inf
        """,
    )
    with pytest.raises(ConfigError, match="must be finite"):
        load_config(path)


def test_reference_validation(tmp_path):
    """The reference must be 'auto' or a non-negative integer."""
    for bad in ("-1", "foo"):
        path = config_file(
            tmp_path,
            "job: static_trk\n" + TWO_LEVEL_MODEL + f"reference: {bad}\n",
        )
        with pytest.raises(ConfigError, match="'auto' or a non-negative integer"):
            load_config(path)


def test_resolved_config_round_trips(tmp_path):
    """Dumping the resolved echo and reloading gives an equal config."""
    path = config_file(
        tmp_path,
        "job: floquet\n"
        + THREE_LEVEL_MODEL
        + textwrap.dedent(
            """\
            drive:
              omega: 5.0
              components:
                - {harmonic: 1, amplitude: 0.02}
            sambe:
              harmonic_cutoff: 3
              n_max: 4
            """
        ),
    )
    config = load_config(path)
    echo = config_file(tmp_path, yaml.safe_dump(config.resolved), name="echo.yaml")
    assert load_config(echo) == config
    assert JobConfig(resolved=config.resolved) == config


def zero_drive_config(tmp_path):
    return load_config(
        config_file(
            tmp_path,
            "job: floquet\n"
            + THREE_LEVEL_MODEL
            + "drive:\n  omega: 5.0\n  components: []\nsambe:\n  harmonic_cutoff: 2\n",
        )
    )


def test_zero_drive_floquet_job(tmp_path):
    """Without drive all three evaluations coincide and sidebands are empty."""
    config = zero_drive_config(tmp_path)
    report = run_job(config)
    assert [tag for tag, _ in report.reports] == ["static_trk", "sambe", "ffbz"]
    assert report.primary == "ffbz"
    by_tag = dict(report.reports)
    static_value = by_tag["static_trk"].value
    assert abs(by_tag["sambe"].value - static_value) <= 1e-10
    assert abs(by_tag["ffbz"].value - static_value) <= 1e-10
    ledger = by_tag["ffbz"].contributions
    assert np.all(np.abs(ledger.weight[ledger.n != 0]) <= 1e-12)
    assert abs(first_moment(report.density) - by_tag["ffbz"].value) <= 1e-12
    assert list(report.spectrum) == ["index", "quasienergy", "edge_weight"]
    assert report.spectrum["index"] == [0, 1, 2]
    assert report.warnings == ()
    assert report.run_hash == run_hash_of(config.resolved)
    assert report.version == __version__


def test_converge_over_harmonic_cutoff(tmp_path):
    """The window scan converges once deltas fall below the policy line."""
    config = load_config(
        config_file(
            tmp_path,
            "job: converge\n"
            + TWO_LEVEL_MODEL
            + textwrap.dedent(
                """\
                converge:
                  axis: harmonic_cutoff
                  values: [4, 6, 8, 10]
                drive:
                  omega: 0.35
                  components:
                    - {harmonic: 1, amplitude: 0.05}
                """
            ),
        )
    )
    report = run_job(config)
    assert report.primary == "ffbz"
    rows = report.convergence
    assert [row["harmonic_cutoff"] for row in rows] == [4, 6, 8, 10]
    assert rows[0]["delta"] is None
    assert [row["converged"] for row in rows] == [False, False, True, True]
    residuals = [abs(row["oracle_residual"]) for row in rows]
    assert all(a > b for a, b in zip(residuals, residuals[1:-1]))
    assert residuals[-1] <= 1e-8


def test_converge_over_photon_cutoff(tmp_path):
    """The Fock scan applies the stricter delta-plus-population policy."""
    config = load_config(
        config_file(
            tmp_path,
            "job: converge\n"
            + TWO_LEVEL_MODEL
            + textwrap.dedent(
                """\
                converge:
                  axis: fock_n_max
                  values: [4, 8, 16]
                fock:
                  omega_c: 0.9
                  g: 0.45
                """
            ),
        )
    )
    report = run_job(config)
    assert report.primary == "qed"
    rows = report.convergence
    assert [row["n_max"] for row in rows] == [4, 8, 16]
    assert [row["converged"] for row in rows] == [False, False, True]
    assert all("edge_population" in row for row in rows)


def test_converge_validation(tmp_path):
    """Converge jobs reject stray sections and bad value lists."""
    scan = (
        "converge:\n  axis: harmonic_cutoff\n  values: {values}\n"
        "drive:\n  omega: 0.35\n  components: [{{harmonic: 1, amplitude: 0.05}}]\n"
    )
    path = config_file(
        tmp_path,
        "job: converge\n"
        + TWO_LEVEL_MODEL
        + scan.format(values="[4, 6]")
        + "fock:\n  omega_c: 0.9\n  g: 0.1\n",
    )
    with pytest.raises(ConfigError, match="not used by job kind"):
        load_config(path)
    path = config_file(
        tmp_path, "job: converge\n" + TWO_LEVEL_MODEL + scan.format(values="[6, 4]")
    )
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_config(path)
    path = config_file(
        tmp_path, "job: converge\n" + TWO_LEVEL_MODEL + scan.format(values="[6]")
    )
    with pytest.raises(ConfigError, match="at least 2"):
        load_config(path)


SWEEP_JOB = """\
job: sweep
sweep:
  job: floquet
  path: drive.components.0.amplitude
  values: [0.0, 0.02, 0.05]
model:
  kind: grid
  grid:
    n_points: 61
    x_min: -10.0
    x_max: 10.0
drive:
  omega: 150.0
  components:
    - {harmonic: 1, amplitude: 0.0}
sambe:
  harmonic_cutoff: 2
"""


def test_sweep_runs_every_point(tmp_path):
    """A drive-amplitude sweep reruns the base job per value with a stable
    sum-rule value."""
    config = load_config(config_file(tmp_path, SWEEP_JOB))
    report = run_job(config)
    points = report.sweep_points
    assert [p.parameter_value for p in points] == [0.0, 0.02, 0.05]
    values = [p.report.primary_report().value for p in points]
    assert max(values) - min(values) <= 1e-7
    for point in points:
        assert point.report.config["job"] == "floquet"
    out = tmp_path / "sweep_out"
    written = {p.name for p in write_report(report, out, ["csv"])}
    assert "index.csv" in written
    for i in range(3):
        assert f"ledger_{i:03d}.csv" in written
        assert f"sticks_{i:03d}.csv" in written
    index_lines = (out / "index.csv").read_text().splitlines()
    assert index_lines[0] == "point,parameter_value,ledger_file,sticks_file"
    assert len(index_lines) == 4


def test_sweep_path_validation(tmp_path):
    """Sweep paths must point at an existing numeric model parameter."""
    bad_root = SWEEP_JOB.replace(
        "path: drive.components.0.amplitude", "path: output.directory"
    )
    with pytest.raises(ConfigError, match="must target a model"):
        load_config(config_file(tmp_path, bad_root))
    non_numeric = SWEEP_JOB.replace(
        "path: drive.components.0.amplitude", "path: model.kind"
    )
    with pytest.raises(ConfigError, match="numeric parameter"):
        load_config(config_file(tmp_path, non_numeric))
    typo = SWEEP_JOB.replace(
        "path: drive.components.0.amplitude", "path: drive.omeag"
    )
    with pytest.raises(ConfigError, match="did you mean 'omega'"):
        load_config(config_file(tmp_path, typo))


def test_sweep_resolves_each_point_once(tmp_path, monkeypatch):
    """Loading and running a sweep resolves the job once and each point
    once: the points load_config checks are the ones the sweep runs."""
    resolve, calls = cli._resolve, []

    def counted(raw, default_job=None):
        calls.append(raw["job"])
        return resolve(raw, default_job)

    monkeypatch.setattr(cli, "_resolve", counted)
    text = "job: sweep\nsweep: {job: static_trk, path: model.energies.1, values: [1.0, 2.0]}\n"
    report = run_job(load_config(config_file(tmp_path, text + TWO_LEVEL_MODEL)))
    assert [p.parameter_value for p in report.sweep_points] == [1.0, 2.0]
    assert calls == ["sweep", "static_trk", "static_trk"]


def test_run_hash_tracks_config_content(tmp_path):
    """Equal configs hash equal; any parameter change moves the hash."""
    config = zero_drive_config(tmp_path)
    again = zero_drive_config(tmp_path)
    assert run_hash_of(config.resolved) == run_hash_of(again.resolved)
    changed = json.loads(json.dumps(config.resolved))
    changed["drive"]["omega"] = 5.5
    assert run_hash_of(changed) != run_hash_of(config.resolved)


def test_written_reports_are_deterministic(tmp_path):
    """Two runs of one config write byte-identical payloads; timings stay
    in their own file."""
    config = zero_drive_config(tmp_path)
    dirs = []
    for name in ("a", "b"):
        report = run_job(config)
        target = tmp_path / name
        write_report(report, target, ["json", "csv"])
        dirs.append(target)
    first, second = dirs
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    assert (first / "ledger.csv").read_bytes() == (second / "ledger.csv").read_bytes()
    payload = json.loads((first / "report.json").read_text())
    assert "timings" not in payload
    assert payload["job"] == "floquet"
    assert payload["primary"] == "ffbz"
    assert payload["run_hash"] == run_hash_of(config.resolved)
    timings = json.loads((first / "timings.json").read_text())
    assert "total" in timings["timings"]


def test_csv_headers_and_shapes(tmp_path):
    """The CSV tables carry their documented headers."""
    config = zero_drive_config(tmp_path)
    report = run_job(config)
    out = tmp_path / "csv_out"
    write_report(report, out, ["csv"])
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert ledger[0] == "lambda,n,quasienergy_diff,dipole_fourier_abs2,contribution"
    sticks = (out / "sticks.csv").read_text().splitlines()
    assert sticks[0] == "omega,weight,lambda,n"
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "index,quasienergy,edge_weight"
    assert len(spectrum) == 4
    count = len(report.primary_report().contributions)
    assert len(ledger) == count + 1


def csv_numbers(path):
    """The body rows of a written CSV table, every cell parsed as a number."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return [[json.loads(cell) for cell in row] for row in rows[1:]]


VIEW_JOBS = {
    "floquet": "job: floquet\n"
    + THREE_LEVEL_MODEL
    + "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n"
    + "sambe: {harmonic_cutoff: 4}\n",
    "sweep": SWEEP_JOB,
    "qed": "job: qed\n" + TWO_LEVEL_MODEL + "fock: {n_max: 6, omega_c: 0.9, g: 0.1}\n",
}


@pytest.mark.parametrize("kind", sorted(VIEW_JOBS))
def test_csv_tables_are_the_report_rows(tmp_path, kind):
    """ledger.csv and sticks.csv hold exactly the rows report.json gives
    the primary ledger and the stick spectrum, for every sweep point too."""
    config = load_config(config_file(tmp_path, VIEW_JOBS[kind]))
    out = tmp_path / "out"
    write_report(run_job(config), out, ["json", "csv"])
    payload = json.loads((out / "report.json").read_text())
    if kind == "sweep":
        views = [(p["report"], f"_{i:03d}") for i, p in enumerate(payload["sweep"])]
    else:
        views = [(payload, "")]
    for report, suffix in views:
        columns = report["reports"][report["primary"]]["contributions"]
        ledger = column_rows(columns, sumrule.Ledger.HEADER)
        assert ledger
        assert csv_numbers(out / f"ledger{suffix}.csv") == ledger
        sticks = out / f"sticks{suffix}.csv"
        if kind == "qed":
            assert "spectral_density" not in report and not sticks.exists()
        else:
            rows = column_rows(report["spectral_density"], sumrule.SpectralDensity.HEADER)
            assert rows
            assert csv_numbers(sticks) == rows


def test_convergence_csv_blank_delta(tmp_path):
    """The first convergence row serializes its undefined delta as empty."""
    config = load_config(
        config_file(
            tmp_path,
            "job: converge\n"
            + TWO_LEVEL_MODEL
            + "converge:\n  axis: harmonic_cutoff\n  values: [4, 6]\n"
            + "drive:\n  omega: 0.35\n  components: [{harmonic: 1, amplitude: 0.05}]\n",
        )
    )
    report = run_job(config)
    out = tmp_path / "conv_out"
    write_report(report, out, ["csv"])
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "harmonic_cutoff,value,oracle_residual,delta,converged"
    assert lines[1].split(",")[3] == ""
    assert lines[2].split(",")[3] != ""


def test_qed_job_with_h0_diagnostic(tmp_path):
    """The optional uncoupled diagnostic adds a third report."""
    config = load_config(
        config_file(
            tmp_path,
            "job: qed\n"
            + TWO_LEVEL_MODEL
            + "fock:\n  n_max: 6\n  omega_c: 0.9\n  g: 0.1\n"
            + "qed:\n  h0_diagnostic: true\n",
        )
    )
    report = run_job(config)
    assert [tag for tag, _ in report.reports] == ["static_trk", "qed", "qed_h0"]
    assert report.primary == "qed"
    assert list(report.spectrum) == ["index", "energy"]
    by_tag = dict(report.reports)
    assert abs(by_tag["qed_h0"].value - by_tag["static_trk"].value) <= 1e-10
    assert math.isfinite(by_tag["qed"].value)


def static_job_file(tmp_path, out_dir, name="ok.yaml"):
    return config_file(
        tmp_path,
        TWO_LEVEL_MODEL + f"output:\n  directory: {out_dir}\n",
        name=name,
    )


def test_main_success_exit_code(tmp_path):
    """A valid job exits 0 and writes where --out points."""
    path = static_job_file(tmp_path, tmp_path / "ignored")
    out = tmp_path / "cli_out"
    assert main(["static-trk", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "timings.json").exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["job"] == "static_trk"
    assert abs(payload["reports"]["static_trk"]["value"] - 2.0) < 1e-12


def test_empty_out_flag_is_a_config_error(tmp_path, capsys):
    """--out "" names no directory: exit 2, and nothing is written to the
    config's own output directory instead."""
    configured = tmp_path / "configured"
    path = static_job_file(tmp_path, configured)
    assert main(["static-trk", "--config", str(path), "--out", ""]) == 2
    assert "--out must name a directory" in capsys.readouterr().err
    assert not configured.exists()


def test_main_config_error_exit_code(tmp_path):
    """Unknown keys exit with the configuration code."""
    path = config_file(
        tmp_path, "job: static_trk\nmodel:\n  kinder: grid\n"
    )
    assert main(["static-trk", "--config", str(path)]) == 2


def test_main_subcommand_mismatch(tmp_path):
    """A config whose job disagrees with the subcommand exits 2."""
    path = config_file(
        tmp_path,
        "job: floquet\n"
        + TWO_LEVEL_MODEL
        + "drive:\n  omega: 2.5\n  components: [{harmonic: 1, amplitude: 0.1}]\n",
    )
    assert main(["static-trk", "--config", str(path)]) == 2


def test_main_missing_config_file(tmp_path):
    """A nonexistent config path exits with the I/O code."""
    assert main(["static-trk", "--config", str(tmp_path / "missing.yaml")]) == 4


def test_main_zone_error_exit_code(tmp_path):
    """An empty first zone surfaces as the numeric failure code."""
    path = config_file(
        tmp_path,
        """\
        job: floquet
        model:
          kind: few_level
          energies: [30.0, 31.0]
          dipole: [[0.0, 1.0], [1.0, 0.0]]
        drive:
          omega: 1.0
          components: [{harmonic: 1, amplitude: 0.01}]
        sambe:
          harmonic_cutoff: 2
        """,
    )
    assert main(["floquet", "--config", str(path), "--out", str(tmp_path / "z")]) == 3


def test_thread_environment_handling(tmp_path, monkeypatch):
    """FLOQTRK_THREADS must parse as an integer; --threads overrides it."""
    path = static_job_file(tmp_path, tmp_path / "t_out")
    monkeypatch.setenv("FLOQTRK_THREADS", "abc")
    assert main(["static-trk", "--config", str(path)]) == 2
    assert main(["static-trk", "--config", str(path), "--threads", "1"]) == 0
    monkeypatch.setenv("FLOQTRK_THREADS", "2")
    assert main(["static-trk", "--config", str(path)]) == 0
    monkeypatch.delenv("FLOQTRK_THREADS")
    assert main(["static-trk", "--config", str(path), "--threads", "-1"]) == 2


FLOQUET_JOB = (
    "job: floquet\n"
    + THREE_LEVEL_MODEL
    + "drive:\n  omega: 0.35\n  components: [{harmonic: 1, amplitude: 0.05}]\n"
    + "sambe:\n  harmonic_cutoff: 4\n"
)
QED_JOB = "job: qed\n" + TWO_LEVEL_MODEL + "fock: {n_max: 6, omega_c: 0.9, g: 0.3}\n"
HARMONIC_CONVERGE_JOB = (
    "job: converge\nconverge: {axis: harmonic_cutoff, values: [2, 4, 6, 8]}\n"
    + THREE_LEVEL_MODEL
    + "drive:\n  omega: 0.35\n  components: [{harmonic: 1, amplitude: 0.05}]\n"
)
FOCK_CONVERGE_JOB = (
    "job: converge\nconverge: {axis: fock_n_max, values: [4, 6, 8, 10]}\n"
    + TWO_LEVEL_MODEL
    + "fock: {omega_c: 0.9, g: 0.3}\n"
)


def record_eigensolves(monkeypatch, perturb=None):
    """Route every eigensolve of the package through a recorder.

    Returns the list the dimension of each solve is appended to; ``perturb``
    (EigenSystem -> EigenSystem), if given, rewrites each result.
    """
    original = floquet.diagonalize_hermitian
    dims = []

    def recorder(matrix, **options):
        dims.append(matrix.shape[0])
        system = original(matrix, **options)
        return system if perturb is None else perturb(system)

    for module in (cli, floquet, sumrule):
        monkeypatch.setattr(module, "diagonalize_hermitian", recorder)
    return dims


@pytest.mark.parametrize(
    "text, dims",
    [
        ("job: static_trk\n" + TWO_LEVEL_MODEL, [2]),
        # matter once, Sambe once: static_trk reuses the matter spectrum
        (FLOQUET_JOB, [3, 27]),
        (QED_JOB, [2, 14]),
        (QED_JOB + "qed: {h0_diagnostic: true}\n", [2, 14, 14]),
        # matter once per job, not once per cutoff
        (HARMONIC_CONVERGE_JOB, [3, 15, 27, 39, 51]),
        # one solve per cutoff; the final report is the last row's
        (FOCK_CONVERGE_JOB, [10, 14, 18, 22]),
    ],
    ids=["static", "floquet", "qed", "qed_h0", "converge_harmonic", "converge_fock"],
)
def test_each_spectrum_is_computed_once(tmp_path, monkeypatch, text, dims):
    """Every distinct operator of a job is diagonalized exactly once: in
    this order with one slot, where a job's members run in turn, and in
    some order with two."""
    config = load_config(config_file(tmp_path, text))
    solved = record_eigensolves(monkeypatch)
    with monkeypatch.context() as patch:
        capped_threads(patch, 1)
        run_job(config)
    assert solved == dims
    solved.clear()
    capped_threads(monkeypatch, 2)
    run_job(config)
    assert sorted(solved) == sorted(dims)


GRID_21 = "model: {grid: {n_points: 21}}\n"


@pytest.mark.parametrize(
    "text, dims",
    [
        # matter: 10 mirror pairs + the centre (even); Sambe m = -2..2: 50
        # pairs + the centres, whose sign (-1)^m gives 3 even and 2 odd;
        # each row sector is the one opposite its reference
        (
            "job: floquet\n" + GRID_21 + "sambe: {harmonic_cutoff: 2}\n"
            + "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n",
            [11, 10, 10, 53, 52, 53],
        ),
        # n_max 2, 3, 4: 10 pairs per photon level + the centre with (-1)^n
        (
            "job: converge\nconverge: {axis: fock_n_max, values: [2, 3, 4]}\n"
            + GRID_21 + "fock: {omega_c: 0.9, g: 0.05}\n",
            [32, 31, 31, 42, 42, 42, 53, 52, 52],
        ),
    ],
    ids=["floquet", "converge_fock"],
)
def test_symmetric_grid_jobs_solve_only_parity_sectors(tmp_path, monkeypatch, text, dims):
    """On a symmetric grid every eigensolve reaches LAPACK as two sector
    reductions and the row solve of one sector, never as one full-size
    solve: in this order with one slot, where a job's members run in turn,
    and in some order with two."""
    config = load_config(config_file(tmp_path, text))
    solved = record_lapack_solves(monkeypatch)
    with monkeypatch.context() as patch:
        capped_threads(patch, 1)
        run_job(config)
    assert solved == dims
    solved.clear()
    capped_threads(monkeypatch, 2)
    run_job(config)
    assert sorted(solved) == sorted(dims)


GRID_DRIVE = "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n"
REFERENCE_ROUTE_JOBS = {
    "floquet": "job: floquet\n" + GRID_21 + "sambe: {harmonic_cutoff: 2}\n" + GRID_DRIVE,
    "qed_h0": "job: qed\n" + GRID_21 + "qed: {h0_diagnostic: true}\n"
    "fock: {n_max: 3, omega_c: 0.9, g: 0.05}\n",
    "converge_harmonic": "job: converge\nconverge: {axis: harmonic_cutoff, values: [2, 3]}\n"
    + GRID_21 + GRID_DRIVE,
    "converge_fock": "job: converge\nconverge: {axis: fock_n_max, values: [2, 3, 4]}\n"
    + GRID_21 + "fock: {omega_c: 0.9, g: 0.05}\n",
    "static": "job: static_trk\n" + GRID_21,
    "static_reference_2": "job: static_trk\n" + GRID_21 + "reference: 2\n",
    "static_two_electron": "job: static_trk\nmodel: {n_electrons: 2, grid: {n_points: 15}}\n",
    "few_level_static": "job: static_trk\n" + THREE_LEVEL_MODEL,
    "few_level_floquet": FLOQUET_JOB,
    "few_level_qed": QED_JOB,
    "asymmetric_floquet": "job: floquet\nmodel: {grid: {n_points: 21, x_max: 12.0}}\n"
    "sambe: {harmonic_cutoff: 2}\n" + GRID_DRIVE,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_ROUTE_JOBS))
def test_jobs_solve_every_operator_for_its_reference(tmp_path, monkeypatch, name):
    """Every eigensolve of a job on a real operator names its reference, as
    the sums read one reference's eigenvector and dipole row: each block
    is reduced (densely or as a band), and numpy's eigh, the solve without
    a reference, never runs. Every row comes from the one row kernel: the
    row sector of each solve holds the row of one lapack.bidiagonal_rows
    call, the divide and conquer of the row solve (on a sector band, or
    on a dense block's T), bit for bit, in the order
    of the solves with one slot, and in some order with two."""
    eigh, calls = np.linalg.eigh, []

    def recorded(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    solved = record_lapack_solves(monkeypatch)
    bidiagonal_rows, rows = lapack.bidiagonal_rows, []

    def kept_rows(bidiagonal):
        rows.append(bidiagonal_rows(bidiagonal))
        return rows[-1]

    monkeypatch.setattr(lapack, "bidiagonal_rows", kept_rows)
    original, systems = floquet.diagonalize_hermitian, []

    def kept_system(matrix, **options):
        systems.append(original(matrix, **options))
        return systems[-1]

    monkeypatch.setattr(cli, "diagonalize_hermitian", kept_system)
    config = load_config(config_file(tmp_path, REFERENCE_ROUTE_JOBS[name]))
    for slots in (1, 2):
        for kept in (solved, calls, rows, systems):
            kept.clear()
        with monkeypatch.context() as patch:
            capped_threads(patch, slots)
            run_job(config)
        assert solved and calls == []
        served = [row_sector(system)[1].row.amplitudes.tobytes() for system in systems]
        kernel = [row[0].conj().tobytes() for row in rows]
        assert served and (served == kernel if slots == 1 else sorted(served) == sorted(kernel))


@pytest.mark.parametrize(
    "text, dim, two_slots",
    [
        (
            "job: floquet\nmodel: {grid: {n_points: 61}}\nsambe: {harmonic_cutoff: 8}\n"
            "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n",
            61 * 17,
            1.0,
        ),
        (
            "job: converge\nconverge: {axis: fock_n_max, values: [4, 8, 12]}\n"
            "model: {grid: {n_points: 81}}\nfock: {omega_c: 0.9, g: 0.05}\n",
            81 * 13,
            1.0,
        ),
        (
            "job: converge\nconverge: {axis: harmonic_cutoff, values: [4, 6, 8]}\n"
            "model: {grid: {n_points: 61}}\n"
            "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n",
            61 * 17,
            1.0,
        ),
        (
            "job: qed\nmodel: {grid: {n_points: 61}}\nqed: {h0_diagnostic: true}\n"
            "fock: {n_max: 16, omega_c: 0.9, g: 0.05}\n",
            61 * 17,
            1.25,
        ),
        (
            "job: floquet\nmodel: {grid: {n_points: 61, x_max: 12.0}}\n"
            "sambe: {harmonic_cutoff: 8}\n"
            "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n",
            61 * 17,
            1.0,
        ),
        (
            "job: converge\nconverge: {axis: fock_n_max, values: [4, 8, 12]}\n"
            "model: {grid: {n_points: 81, x_max: 12.0}}\nfock: {omega_c: 0.9, g: 0.05}\n",
            81 * 13,
            1.0,
        ),
        (
            "job: qed\nmodel: {grid: {n_points: 61, x_max: 12.0}}\nqed: {h0_diagnostic: true}\n"
            "fock: {n_max: 16, omega_c: 0.9, g: 0.05}\n",
            61 * 17,
            1.25,
        ),
    ],
    ids=[
        "floquet",
        "converge_fock",
        "converge_harmonic",
        "qed_h0",
        "asymmetric_floquet",
        "asymmetric_converge_fock",
        "asymmetric_qed_h0",
    ],
)
def test_grid_jobs_allocate_less_than_one_full_matrix(tmp_path, monkeypatch, text, dim, two_slots):
    """A grid job never forms an n x n array, whether its operators split
    (a symmetric grid) or each is one narrow sector (x_max 12, where none
    splits), and drops each spectrum's vectors before the next solve:
    with one slot, where a job's members run in turn, the peak of memory
    traced while it runs stays below the bytes of one full-size float
    matrix of its largest solve (8.6 MB or 8.9 MB here). Two slots, the
    default at two OpenBLAS threads, hold two members' arrays at once, so
    the peak stays below ``two_slots`` full matrices: one for the scans,
    whose members shrink with the cutoff (the harmonic scan reaches about
    0.85), and 1.25 for the qed job, whose two members are the same size
    (about 1.06)."""
    config = load_config(config_file(tmp_path, text))
    full = dim * dim * np.dtype(np.float64).itemsize
    for slots, bound in ((1, 1.0), (2, two_slots)):
        with monkeypatch.context() as patch:
            capped_threads(patch, slots)
            tracemalloc.start()
            try:
                run_job(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < bound * full, slots


def test_floquet_sambe_solve_peaks_at_two_and_a_half_sector_matrices(tmp_path, monkeypatch):
    """The 61-point, cutoff-8 floquet job (dim 1037, sectors of m ~ dim/2)
    reduces both sectors, takes the first-zone eigenvectors off their T,
    then solves the other sector's T for the dipole row with O(m) arrays:
    the numpy allocations traced during its Sambe solve peak at most
    2.5 m^2 doubles (both reduced blocks, 2.15 m^2), not two Z and two
    panel sets. tracemalloc counts numpy's allocations only, not the
    O(m nb) workspace LAPACKE_dsytrd and LAPACKE_dormtr allocate (nb
    their block size); no solve allocates an m^2 workspace."""
    text = (
        "job: floquet\nmodel: {grid: {n_points: 61}}\nsambe: {harmonic_cutoff: 8}\n"
        "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n"
    )
    original = floquet.diagonalize_hermitian
    peaks = {}

    def traced(matrix, **options):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system = original(matrix, **options)
        peaks[matrix.shape[0]] = tracemalloc.get_traced_memory()[1] - start
        return system

    monkeypatch.setattr(cli, "diagonalize_hermitian", traced)
    config = load_config(config_file(tmp_path, text))
    tracemalloc.start()
    try:
        run_job(config)
    finally:
        tracemalloc.stop()
    m = 61 * 17 / 2
    assert peaks[61 * 17] <= 2.5 * m * m * np.dtype(np.float64).itemsize


#: The gated grid jobs: a 201-point harmonic grid, driven at Omega = 0.35
#: (cutoff 8), and scanned over photon cutoffs.
GATED_GRID_JOBS = {
    "floquet_grid": (
        "job: floquet\nmodel: {grid: {n_points: 201}}\nsambe: {harmonic_cutoff: 8}\n"
        "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n"
    ),
    "qed_converge": (
        "job: converge\nconverge: {axis: fock_n_max, values: [4, 6, 8, 10]}\n"
        "model: {grid: {n_points: 201}}\nfock: {omega_c: 0.9, g: 0.05}\n"
    ),
}


@pytest.mark.parametrize("job", list(GATED_GRID_JOBS))
def test_gated_grid_jobs_solve_every_block_as_a_band(tmp_path, monkeypatch, job):
    """Every block solve of the gated grid jobs is a band solve (a sector
    band reduced, or a row sector solved from its band): none is reduced
    densely, and none falls back to eigh."""
    bands, eighs = [], []
    solved = record_lapack_solves(monkeypatch, bands, eighs)
    run_job(load_config(config_file(tmp_path, GATED_GRID_JOBS[job])))
    assert bands and eighs == []
    assert sorted(solved) == sorted(bands)


#: Floquet jobs on the dense route, with the dimensions of the blocks each
#: reduces densely: a 41-point sinc-DVR grid (dense H_M) at cutoff 3, its
#: matter sectors of 21 and 20 rows and Sambe sectors of 144 and 143; and
#: one point of a three-level sweep, whose matter Hamiltonian is a band of
#: kd 0 and whose one 51-row Sambe block (kd 35) is not narrow.
DENSE_ROUTE_JOBS = {
    "sinc_dvr": (
        "job: floquet\nmodel: {kinetic: sinc_dvr, grid: {n_points: 41}}\n"
        "sambe: {harmonic_cutoff: 3}\n"
        "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n",
        [20, 21, 143, 144],
    ),
    "few_level": (
        "job: floquet\nmodel: {kind: few_level, energies: [0.0, 0.3, 1.1],\n"
        "  dipole: [[0.1, -0.3, 0.2], [-0.3, 0.0, 0.4], [0.2, 0.4, -0.2]]}\n"
        "sambe: {harmonic_cutoff: 8}\n"
        "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.1}]}\n",
        [51],
    ),
}


@pytest.mark.parametrize("job", list(DENSE_ROUTE_JOBS))
def test_dense_route_jobs_keep_eigenpairs_off_each_blocks_t(tmp_path, monkeypatch, job):
    """Every Sambe block of a dense-route floquet job is reduced densely
    (floquet._reduce), every eigenpair a solve keeps comes from banded
    inverse iteration (lapack.band_eigenpairs), on a band of kd = 1 (the
    block's T) for every densely reduced block, and no block falls back to
    eigh."""
    text, dense = DENSE_ROUTE_JOBS[job]
    eighs, reduced, kept, systems = [], [], [], []
    record_lapack_solves(monkeypatch, eighs=eighs)
    reduce, band_eigenpairs, solve = floquet._reduce, lapack.band_eigenpairs, cli.diagonalize_hermitian

    def recorded_reduce(block):
        reduced.append(block.shape[0])
        return reduce(block)

    def recorded_pairs(band, *args):
        pairs = band_eigenpairs(band, *args)
        kept.append((band.shape[0] - 1, band.shape[1], pairs[1].shape[1]))
        return pairs

    def recorded_solve(matrix, **options):
        systems.append(solve(matrix, **options))
        return systems[-1]

    monkeypatch.setattr(floquet, "_reduce", recorded_reduce)
    monkeypatch.setattr(lapack, "band_eigenpairs", recorded_pairs)
    monkeypatch.setattr(cli, "diagonalize_hermitian", recorded_solve)
    run_job(load_config(config_file(tmp_path, text)))
    assert eighs == [] and sorted(reduced) == dense
    on_t = [kd for kd, m, _ in kept if m in dense]
    assert on_t and all(kd == 1 for kd in on_t)
    assert sum(k for *_, k in kept) == sum(
        sector.kept.size for system in systems for sector in system.sectors
    )


def test_floquet_grid_row_step_fills_both_slots(tmp_path, monkeypatch):
    """On two slots, the Sambe solve of the gated floquet_grid job (sector
    bands of 1708 and 1709 rows) runs each sector's dsterf on the helper
    thread while the calling thread reduces the row sector's band to
    bidiagonal form; then the two halves of that bidiagonal's divide and
    conquer run one on each thread, and the calling thread makes the top
    merge."""
    capped_threads(monkeypatch, 2)
    caller, steps = threading.get_ident(), []

    def recorder(name, step, sambe):
        def recorded(*args):
            if sambe(*args):  # a step of the Sambe sectors, not of the matter solve
                steps.append((name, threading.get_ident()))
            return step(*args)

        return recorded

    def half(tree, space, *block):
        left = tree.m // 2
        return tree.m > 1000 and block in [(0, left, 1), (left + 1, tree.m - left - 1, 0)]

    monkeypatch.setattr(
        lapack, "eigenvalues", recorder("dsterf", lapack.eigenvalues, lambda t: t.d.size > 1000)
    )
    bidiagonal = recorder("dgbbrd", lapack.band_bidiagonal, lambda band, _: band.shape[1] > 1000)
    monkeypatch.setattr(lapack, "band_bidiagonal", bidiagonal)
    monkeypatch.setattr(lapack, "_solve_block", recorder("half", lapack._solve_block, half))
    top = recorder("top", lapack._merge_halves, lambda tree, _, lo, n, sqre: n == tree.m > 1000)
    monkeypatch.setattr(lapack, "_merge_halves", top)
    run_job(load_config(config_file(tmp_path, GATED_GRID_JOBS["floquet_grid"])))
    threads = {}
    for name, thread in steps:
        threads.setdefault(name, []).append(thread)
    assert sorted(threads) == ["dgbbrd", "dsterf", "half", "top"]
    assert len(threads["dsterf"]) == 2 and caller not in threads["dsterf"]
    assert threads["dgbbrd"] == [caller] and threads["top"] == [caller]
    halves = threads["half"]
    assert len(halves) == 2 and caller in halves and len(set(halves)) == 2


def test_band_route_holds_no_sector_matrix(tmp_path, monkeypatch):
    """Each member of the 81-point photon-cutoff scan (n_max 8, 10, 12;
    sectors of m ~ dim/2, kd = n_max + 1) reduces both sector bands, takes
    the ground off the +1 band and solves the -1 sector from its band for
    the row: no sector block is written densely, and the numpy allocations
    traced during its joint
    solve peak at most 0.5 m^2 doubles (the bands, the probe, the row and
    the matter-size projections), not the dense row block (over 1 m^2)
    the route held before it read that sector's band. tracemalloc now
    misses only LAPACKE's O(m) workspace of dgbbrd. One band solve runs
    before tracing starts, so the peaks do not count binding numpy's
    OpenBLAS, whichever test runs first."""
    text = (
        "job: converge\nconverge: {axis: fock_n_max, values: [8, 10, 12]}\n"
        "model: {grid: {n_points: 81}}\nfock: {omega_c: 0.9, g: 0.05}\n"
    )
    floquet.diagonalize_hermitian(band_joint(), reference=0)
    original = floquet.diagonalize_hermitian
    bands, peaks = [], {}

    def traced(matrix, **options):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system = original(matrix, **options)
        peaks[matrix.shape[0]] = tracemalloc.get_traced_memory()[1] - start
        return system

    monkeypatch.setattr(cli, "diagonalize_hermitian", traced)
    solved = record_lapack_solves(monkeypatch, bands)
    capped_threads(monkeypatch, 1)  # members in turn: one solve traced at a time
    config = load_config(config_file(tmp_path, text))
    tracemalloc.start()
    try:
        run_job(config)
    finally:
        tracemalloc.stop()
    assert len(bands) == 9 and solved[-9:] == bands
    for member, (plus, minus) in enumerate([(365, 364), (446, 445), (527, 526)]):
        reduced, row = bands[3 * member : 3 * member + 2], bands[3 * member + 2]
        assert sorted(reduced) == [minus, plus] and row == minus
    for n_max in (8, 10, 12):
        m = 81 * (n_max + 1) / 2
        assert peaks[81 * (n_max + 1)] <= 0.5 * m * m * np.dtype(np.float64).itemsize


def test_floquet_band_route_holds_no_sector_matrix(tmp_path, monkeypatch):
    """After the matter ground's band solve (both bands, of 51 and 50,
    reduced, the -1 band solved for the row), each member of the 101-point
    harmonic-cutoff scan (cutoffs 3, 4, 5; sectors of m ~ dim/2,
    kd = 2 N_h + 1) reduces both sector bands, picks
    its reference on their first-zone eigenpairs, then solves the row
    sector from its band: no sector block is written densely, and the
    numpy allocations traced during its Sambe solve peak at most 0.5 m^2
    doubles (the bands, the probe, the row and the matter-size
    projections), not the dense row block (over 1 m^2) the route held
    before it read that sector's band for the row. tracemalloc now misses
    only LAPACKE's O(m) workspace of dgbbrd."""
    text = (
        "job: converge\nconverge: {axis: harmonic_cutoff, values: [3, 4, 5]}\n"
        "model: {grid: {n_points: 101}}\n"
        "drive: {omega: 0.35, components: [{harmonic: 1, amplitude: 0.05}]}\n"
    )
    original = floquet.diagonalize_hermitian
    bands, peaks = [], {}

    def traced(matrix, **options):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system = original(matrix, **options)
        peaks[matrix.shape[0]] = tracemalloc.get_traced_memory()[1] - start
        return system

    monkeypatch.setattr(cli, "diagonalize_hermitian", traced)
    solved = record_lapack_solves(monkeypatch, bands)
    capped_threads(monkeypatch, 1)  # members in turn: one solve traced at a time
    config = load_config(config_file(tmp_path, text))
    tracemalloc.start()
    try:
        run_job(config)
    finally:
        tracemalloc.stop()
    matter, sambe = bands[:3], bands[3:]
    assert sorted(matter[:2]) == [50, 51] and matter[2] == 50
    assert len(sambe) == 9 and solved == bands
    for member, sizes in enumerate([(353, 354), (454, 455), (555, 556)]):
        first = sambe[3 * member : 3 * member + 3]
        assert sorted(first[:2]) == list(sizes) and first[2] in sizes
    for cutoff in (3, 4, 5):
        m = 101 * (2 * cutoff + 1) / 2
        assert peaks[101 * (2 * cutoff + 1)] <= 0.5 * m * m * np.dtype(np.float64).itemsize


#: Jobs with more than one member: photon-cutoff and harmonic-cutoff scans
#: (a dense and a band route each) and a qed job with its g = 0 member.
MEMBER_JOBS = {
    "converge_fock": REFERENCE_ROUTE_JOBS["converge_fock"],
    "converge_fock_band": "job: converge\nconverge: {axis: fock_n_max, values: [4, 6, 8]}\n"
    "model: {grid: {n_points: 81}}\nfock: {omega_c: 0.9, g: 0.05}\n",
    "converge_harmonic": REFERENCE_ROUTE_JOBS["converge_harmonic"],
    "converge_harmonic_band": "job: converge\nconverge: {axis: harmonic_cutoff, values: [2, 3]}\n"
    "model: {grid: {n_points: 81}}\n" + GRID_DRIVE,
    "qed_h0": REFERENCE_ROUTE_JOBS["qed_h0"],
}


@pytest.mark.parametrize("name", sorted(MEMBER_JOBS))
def test_members_give_the_same_report_on_one_slot_and_two(tmp_path, monkeypatch, name):
    """A job's members run in turn with one slot and side by side with two
    (the calling thread takes the last member, the helper the one before
    it): report.json and every convergence row are the same bit for bit,
    timings.json lists each member once in the order of the members with
    the thread it ran on, and no thread outlives either run."""
    path = config_file(tmp_path, MEMBER_JOBS[name])
    written, members = {}, {}
    for slots in (1, 2):
        out = tmp_path / f"slots{slots}"
        with monkeypatch.context() as patch:
            capped_threads(patch, slots)
            before = threading.active_count()
            assert main([name.split("_")[0], "--config", str(path), "--out", str(out)]) == 0
            assert threading.active_count() == before
        written[slots] = (out / "report.json").read_bytes()
        members[slots] = json.loads((out / "timings.json").read_text())["members"]
    assert written[1] == written[2]
    rows = json.loads(written[2]).get("convergence")
    key = rows and ("n_max" if "n_max" in rows[0] else "harmonic_cutoff")
    labels = [f"{key}={row[key]}" for row in rows] if rows else ["qed", "qed_h0"]
    for slots, listed in members.items():
        assert [member["member"] for member in listed] == labels
        assert all(member["wall_s"] >= 0.0 for member in listed)
        threads = [member["thread"] for member in listed]
        if slots == 1:
            assert threads == ["calling"] * len(labels)
        else:
            assert threads[-2:] == ["helper", "calling"]


def test_one_thread_starts_no_thread_on_a_photon_scan(tmp_path, monkeypatch):
    """At --threads 1 a photon-cutoff scan runs every member and every band
    solve on the calling thread: a threading.Thread that raises is never
    made. With two slots the same scan makes exactly one, its helper."""
    path = config_file(tmp_path, MEMBER_JOBS["converge_fock_band"])
    made = []

    class Refused(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("name"))
            if refuse:
                raise AssertionError("a thread was started at --threads 1")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Refused)
    refuse = True
    args = ["converge", "--config", str(path), "--out", str(tmp_path / "t")]
    assert main([*args, "--threads", "1"]) == 0
    assert made == []
    refuse = False
    capped_threads(monkeypatch, 2)
    assert main(args) == 0
    assert len(made) == 1


def bundled_openblas():
    """numpy's bundled OpenBLAS, whose real thread count a test reads; the
    test is skipped without it."""
    library = lapack.openblas()
    if library is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    return library


BAND_KERNELS = ("dsbtrd", "dsterf", "dpbtrf", "dgbbrd", "dlasd6")


@pytest.mark.parametrize("name", ["converge_fock_band", "converge_harmonic_band"])
def test_band_kernels_run_at_one_blas_thread_in_a_two_slot_job(tmp_path, monkeypatch, name):
    """At two OpenBLAS threads a job's two slots are its whole core budget:
    every band kernel, on either slot, runs while the real library is held
    to one thread, so no OpenBLAS worker wakes beside the two slots. The
    count is two again once the job returns."""
    library = bundled_openblas()
    seen = {kernel: [] for kernel in BAND_KERNELS}

    def recorder(kernel):
        routine = getattr(library, kernel)

        def recorded(*args):
            seen[kernel].append(library.get_num_threads())
            return routine(*args)

        return recorded

    patched = library._replace(**{kernel: recorder(kernel) for kernel in BAND_KERNELS})
    monkeypatch.setattr(lapack, "openblas", lambda: patched)
    config = load_config(config_file(tmp_path, MEMBER_JOBS[name]))
    with lapack.thread_cap(library, 2):
        run_job(config)
        assert library.get_num_threads() == 2
    assert all(seen.values())
    assert {count for counts in seen.values() for count in counts} == {1}


def one_slot_first(monkeypatch, name, first, members):
    """Patch cli's member function ``name`` for a job of ``members``
    members so that every member of the ``first`` slot ("helper" or
    "calling") ends before the other slot's one member starts; when the
    helper's end first, the calling thread's member starts once the helper
    has freed the spare slot, so that slot is free for all of it."""
    member, caller, ended, lock = getattr(cli, name), threading.get_ident(), [0], threading.Lock()

    def ordered(*args, **kwargs):
        slot = "calling" if threading.get_ident() == caller else "helper"
        slots = lapack._active.scheduler
        for _ in range(10_000):
            if slot == first or (
                ended[0] == members - 1 and (first == "calling" or slots._free)
            ):
                break
            time.sleep(0.001)
        else:
            raise AssertionError("the other slot's members never ended")
        try:
            return member(*args, **kwargs)
        finally:
            with lock:
                ended[0] += 1

    monkeypatch.setattr(cli, name, ordered)


@pytest.mark.parametrize("first", ["helper", "calling"])
@pytest.mark.parametrize("phase", [0.0, 0.5], ids=["reduce", "eigh"])
def test_dense_solves_in_members_run_at_one_blas_thread(tmp_path, monkeypatch, phase, first):
    """A dense solve of a job at two OpenBLAS threads (a real block's
    dsytrd, a complex block's eigh) runs at two outside the job's members,
    as the matter ground's reductions do before the scan's members start,
    and at one in every member: the calling thread's member runs at one
    even when the helper has ended its own and freed the spare slot, so
    which member ends first never sets a solve's count."""
    library = bundled_openblas()
    drive = GRID_DRIVE.replace("amplitude: 0.05", f"amplitude: 0.05, phase: {phase}")
    text = "job: converge\nconverge: {axis: harmonic_cutoff, values: [2, 3]}\n" + GRID_21 + drive
    seen = []

    def dsytrd(*args):
        seen.append((args[2], library.get_num_threads()))
        return library.dsytrd(*args)

    def recorder(solve):
        def recorded(block, *args, **kwargs):
            seen.append((block.shape[0], library.get_num_threads()))
            return solve(block, *args, **kwargs)

        return recorded

    # the count each kernel runs at, read inside the dense solve that sets it
    patched = library._replace(dsytrd=dsytrd)
    monkeypatch.setattr(lapack, "openblas", lambda: patched)
    monkeypatch.setattr(np.linalg, "eigh", recorder(np.linalg.eigh))
    one_slot_first(monkeypatch, "_floquet_member", first, 2)
    config = load_config(config_file(tmp_path, text))
    with lapack.thread_cap(library, 2):
        run_job(config)
        assert library.get_num_threads() == 2
    assert seen[:2] == [(11, 2), (10, 2)]
    assert sorted(dim for dim, _ in seen[2:]) == [52, 53, 73, 74]
    assert {count for _, count in seen[2:]} == {1}


#: A photon-cutoff scan on the dense route: the asymmetric grid does not
#: split and the sinc DVR's H_M is dense, so each member reduces one block
#: of 303, 505 or 707 rows with dsytrd.
DENSE_PHOTON_SCAN = (
    "job: converge\nconverge: {axis: fock_n_max, values: [2, 4, 6]}\n"
    "model: {kinetic: sinc_dvr, grid: {n_points: 101, x_max: 12.0}}\n"
    "fock: {omega_c: 0.9, g: 0.05}\n"
)


def test_dense_photon_scan_report_does_not_depend_on_which_member_ends_first(
    tmp_path, monkeypatch
):
    """A dense-route photon scan at two real OpenBLAS threads writes the
    same report.json bit for bit when the helper's members end before the
    calling thread's starts as when it starts after the calling thread's
    have ended: each member's dsytrd runs at one thread either way, as
    dsytrd at two rounds otherwise."""
    library = bundled_openblas()
    path = config_file(tmp_path, DENSE_PHOTON_SCAN)
    reduce, seen, written = lapack.reduce, [], {}

    def recorded(block):
        seen.append((block.shape[0], library.get_num_threads()))
        return reduce(block)

    monkeypatch.setattr(lapack, "reduce", recorded)
    for first in ("helper", "calling"):
        with monkeypatch.context() as patch:
            one_slot_first(patch, "_qed_member", first, 3)
            out = tmp_path / first
            args = ["converge", "--config", str(path), "--out", str(out), "--threads", "2"]
            assert main(args) == 0
        written[first] = (out / "report.json").read_bytes()
    assert written["helper"] == written["calling"]
    assert sorted(seen) == [(dim, 1) for dim in (303, 303, 505, 505, 707, 707)]


@pytest.mark.parametrize("ending", ["returns", "numeric_error", "interrupt"])
def test_run_job_restores_the_blas_thread_count(tmp_path, monkeypatch, ending):
    """A job at two OpenBLAS threads holds the real library at one while
    its members run, and the count is two again once run_job returns,
    once it raises the NumericError of a member's failed dsytrd, and once
    a member's KeyboardInterrupt has ended both slots."""
    library = bundled_openblas()
    member, during = cli._qed_member, []

    def recorded(stage, matter, fock, reference):
        during.append(library.get_num_threads())
        if ending == "interrupt" and fock.n_max == 3:
            raise KeyboardInterrupt
        return member(stage, matter, fock, reference)

    monkeypatch.setattr(cli, "_qed_member", recorded)
    if ending == "numeric_error":
        def dsytrd(*args):
            return -1 if args[2] == 42 else library.dsytrd(*args)

        failing = library._replace(dsytrd=dsytrd)
        monkeypatch.setattr(lapack, "openblas", lambda: failing)
    config = load_config(config_file(tmp_path, REFERENCE_ROUTE_JOBS["converge_fock"]))
    raised = {"returns": None, "numeric_error": NumericError, "interrupt": KeyboardInterrupt}
    with lapack.thread_cap(library, 2):
        with pytest.raises(raised[ending]) if raised[ending] else contextlib.nullcontext():
            run_job(config)
        assert library.get_num_threads() == 2
    assert during and set(during) == {1}


@pytest.mark.parametrize("name", ["converge_harmonic", "converge_fock_band"])
def test_one_thread_sets_no_blas_count(tmp_path, monkeypatch, name):
    """At --threads 1 the only thread counts set are the cap's own, one
    and then the count before it: a job's scheduler, with one slot, holds
    no count, and its dense solves take none."""
    library = bundled_openblas()
    sets = []

    def set_num_threads(threads):
        sets.append(threads)
        library.set_num_threads(threads)

    patched = library._replace(set_num_threads=set_num_threads)
    monkeypatch.setattr(lapack, "openblas", lambda: patched)
    monkeypatch.delenv("FLOQTRK_THREADS", raising=False)
    path = config_file(tmp_path, MEMBER_JOBS[name])
    before = library.get_num_threads()
    args = [name.split("_")[0], "--config", str(path), "--out", str(tmp_path / "t")]
    assert main([*args, "--threads", "1"]) == 0
    assert sets == [1, before]


@pytest.mark.parametrize("slots", [1, 2])
def test_converge_raises_the_first_failure_in_cutoff_order(tmp_path, monkeypatch, capsys, slots):
    """When n_max=6 raises a NumericError and n_max=10 an InputError, the
    scan exits 3, the NumericError's code, as members run in turn would:
    with two slots n_max=10 fails first, on the calling thread, but the
    failure raised is the first in cutoff order, once both slots have
    ended. No thread outlives the job."""
    faults = {6: NumericError("member n_max=6 failed"), 10: InputError("member n_max=10 failed")}
    member = cli._qed_member

    def faulty(stage, matter, fock, reference):
        if fock.n_max in faults:
            raise faults[fock.n_max]
        return member(stage, matter, fock, reference)

    monkeypatch.setattr(cli, "_qed_member", faulty)
    capped_threads(monkeypatch, slots)
    path = config_file(tmp_path, FOCK_CONVERGE_JOB)
    before = threading.active_count()
    assert main(["converge", "--config", str(path), "--out", str(tmp_path / "f")]) == 3
    assert threading.active_count() == before
    err = capsys.readouterr().err
    assert "member n_max=6 failed" in err and "n_max=10" not in err


@pytest.mark.parametrize("numeric, code", [("helper", 3), ("calling", 2)])
def test_converge_fault_on_either_slot_is_raised_after_both_end(
    tmp_path, monkeypatch, capsys, numeric, code
):
    """With two slots the calling thread takes n_max=10 and the helper
    n_max=8. A NumericError in one thread's member and an InputError in
    the other's: the code is that of n_max=8's failure, whichever thread
    it ran on, raised once both members have ended, and the smaller
    cutoffs still run; no thread outlives the job."""
    caller, member, events = threading.get_ident(), cli._qed_member, []

    def faulty(stage, matter, fock, reference):
        thread = "calling" if threading.get_ident() == caller else "helper"
        events.append(("start", fock.n_max, thread))
        try:
            if fock.n_max in (8, 10):
                if thread == numeric:
                    raise NumericError(f"member n_max={fock.n_max} failed")
                raise InputError(f"member n_max={fock.n_max} failed")
            return member(stage, matter, fock, reference)
        finally:
            events.append(("end", fock.n_max, thread))

    monkeypatch.setattr(cli, "_qed_member", faulty)
    capped_threads(monkeypatch, 2)
    path = config_file(tmp_path, FOCK_CONVERGE_JOB)
    before = threading.active_count()
    assert main(["converge", "--config", str(path), "--out", str(tmp_path / "f")]) == code
    assert threading.active_count() == before
    assert "member n_max=8 failed" in capsys.readouterr().err
    started = {(n, thread) for kind, n, thread in events if kind == "start"}
    assert {(10, "calling"), (8, "helper")} <= started
    assert {n for n, _ in started} == {4, 6, 8, 10}
    assert started == {(n, thread) for kind, n, thread in events if kind == "end"}


def test_stage_times_of_two_slots_add_up(monkeypatch, deadline):
    """Two members time the same stage 20000 times each at once, with the
    interpreter switching threads as often as it can: every stage time is
    added and none is lost. Each stage reads exactly 1 s on a clock that
    counts each thread's own readings."""
    clock = threading.local()

    def perf_counter():
        clock.now = getattr(clock, "now", 0.0) + 1.0
        return clock.now

    def member(view):
        for _ in range(20000):
            with view("eigensolve"):
                pass

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=perf_counter))
    capped_threads(monkeypatch, 2)
    stage = cli._Stage({}, verbose=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with deadline(60):
            cli._run_members(stage, [("a", member), ("b", member)])
    finally:
        sys.setswitchinterval(interval)
    assert stage.timings == {"eigensolve": 40000.0}
    assert [member["thread"] for member in stage.members] == ["helper", "calling"]


def test_verbose_lines_name_their_member(tmp_path, capsys):
    """--verbose names the member of each stage line of a scan, and
    timings.json adds each stage's time over the members of both slots."""
    path = config_file(tmp_path, FOCK_CONVERGE_JOB)
    out = tmp_path / "v"
    assert main(["converge", "--config", str(path), "--out", str(out), "--verbose"]) == 0
    err = capsys.readouterr().err
    for n_max in (4, 6, 8, 10):
        for stage in ("joint_assemble", "eigensolve", "sumrule"):
            assert f"[floqtrk] n_max={n_max} {stage} done in " in err
    written = json.loads((out / "timings.json").read_text())
    members = written["members"]
    assert [member["member"] for member in members] == [f"n_max={n}" for n in (4, 6, 8, 10)]
    assert written["timings"]["eigensolve"] <= sum(member["wall_s"] for member in members)


GRID_FLOQUET_JOBS = {
    # 5 representatives across both sectors
    "grid21": "job: floquet\n" + GRID_21 + "sambe: {harmonic_cutoff: 3, n_max: 2}\n"
    "drive: {omega: 0.9, components: [{harmonic: 1, amplitude: 0.2}]}\n",
    # 4 representatives
    "grid31": "job: floquet\nmodel: {grid: {n_points: 31}}\n"
    "sambe: {harmonic_cutoff: 2, n_max: 2}\n"
    "drive: {omega: 1.3, components: [{harmonic: 1, amplitude: 0.2}]}\n",
    # 5 representatives; sectors of 283 and 284 with kd 7: the band route
    "grid81": "job: floquet\nmodel: {grid: {n_points: 81}}\n"
    "sambe: {harmonic_cutoff: 3, n_max: 2}\n"
    "drive: {omega: 1.3, components: [{harmonic: 1, amplitude: 0.2}]}\n",
}


def full_sambe_solves(monkeypatch):
    """Solve every eigensolve of a job in full, as without a reference."""
    original = floquet.diagonalize_hermitian
    monkeypatch.setattr(cli, "diagonalize_hermitian", lambda matrix, **options: original(matrix))


def values_only_solves(monkeypatch):
    """Count the values-only sector solves; returns the list they append to."""
    original = floquet._values_only
    calls = []

    def counted(values, ks, pairs):
        calls.append(ks)
        return original(values, ks, pairs)

    monkeypatch.setattr(floquet, "_values_only", counted)
    return calls


def assert_same_first_zone(routed, full):
    """Two runs of one job: the same representatives, reference and
    warnings, ffbz and sambe values within 1e-12 relative."""
    assert routed.warnings == full.warnings
    assert len(routed.spectrum["index"]) == len(full.spectrum["index"])
    routed_reports, full_reports = dict(routed.reports), dict(full.reports)
    assert routed_reports["ffbz"].reference == full_reports["ffbz"].reference
    for tag in ("ffbz", "sambe"):
        value, expected = routed_reports[tag].value, full_reports[tag].value
        assert abs(value - expected) <= 1e-12 * abs(expected)
    assert abs(routed_reports["sambe"].oracle_residual) <= 1e-12


@pytest.mark.parametrize("name", sorted(GRID_FLOQUET_JOBS))
def test_first_zone_route_matches_the_full_solve(tmp_path, monkeypatch, name):
    """On a symmetric grid, a floquet job with the reference 'auto' or any
    explicit representative solves one sector of its Sambe operator
    values-only, as its matter solve does, and matches the job solved in
    full; a reference past the zone is refused as before."""
    base = GRID_FLOQUET_JOBS[name]
    count = len(run_job(load_config(config_file(tmp_path, base))).spectrum["index"])
    assert count >= 4
    for reference in ["auto", *range(count + 1)]:
        config = load_config(config_file(tmp_path, base + f"reference: {reference}\n"))
        with monkeypatch.context() as patch:
            full_sambe_solves(patch)
            if reference == count:
                with pytest.raises(InputError, match=f"reference index {count} outside"):
                    run_job(config)
                continue
            full = run_job(config)
        calls = values_only_solves(monkeypatch)
        routed = run_job(config)
        assert len(calls) == 2  # matter and Sambe
        assert_same_first_zone(routed, full)
        # the reference's own sector, at least half the rows, reads exact zeros
        sambe = dict(routed.reports)["sambe"].contributions
        assert np.count_nonzero(sambe.abs2 == 0.0) >= len(sambe) // 2


def test_wide_grid_job_takes_the_first_zone_band_route(tmp_path, monkeypatch):
    """The 81-point job at cutoff 3 solves its matter ground on the band
    route (both bands, of 41 and 40, reduced, the -1 band solved for the
    row), then reduces both Sambe sector bands side by side, and solves the
    row sector's band for the row, for every reference: no dense block and
    no fallback re-solve."""
    base = GRID_FLOQUET_JOBS["grid81"]
    for reference in ["auto", *range(5)]:
        config = load_config(config_file(tmp_path, base + f"reference: {reference}\n"))
        bands = []
        with monkeypatch.context() as patch:
            solved = record_lapack_solves(patch, bands)
            run_job(config)
        matter, sambe = bands[:3], bands[3:]
        assert sorted(matter[:2]) == [40, 41] and matter[2] == 40
        assert sorted(sambe[:2]) == [283, 284] and len(sambe) == 3 and sambe[2] in (283, 284)
        assert solved == bands


def test_harmonic_converge_route_matches_the_full_solve(tmp_path, monkeypatch):
    """A harmonic-cutoff scan takes the first-zone route at every cutoff,
    after its matter solve, and its rows match the scan solved in full
    within 1e-12 relative."""
    text = (
        "job: converge\nconverge: {axis: harmonic_cutoff, values: [2, 3]}\n" + GRID_21
        + "drive: {omega: 0.9, components: [{harmonic: 1, amplitude: 0.2}]}\n"
    )
    config = load_config(config_file(tmp_path, text))
    with monkeypatch.context() as patch:
        full_sambe_solves(patch)
        full = run_job(config)
    calls = values_only_solves(monkeypatch)
    routed = run_job(config)
    assert len(calls) == 3  # matter, then each cutoff
    assert routed.warnings == full.warnings
    for row, expected in zip(routed.convergence, full.convergence):
        assert abs(row["value"] - expected["value"]) <= 1e-12 * abs(expected["value"])
    assert dict(routed.reports)["ffbz"].reference == dict(full.reports)["ffbz"].reference


EDGE_HEAVY_JOBS = {
    # only m = 0 in the window: one of two levels is in the zone, and the
    # reference is all edge
    "floquet": "job: floquet\n"
    + TWO_LEVEL_MODEL
    + "drive: {omega: 0.5, components: [{harmonic: 1, amplitude: 0.0}]}\n"
    + "sambe: {harmonic_cutoff: 0}\n",
    # a complete zone whose reference keeps 1e-3 edge weight at cutoff 2
    "converge": "job: converge\n"
    + TWO_LEVEL_MODEL
    + "converge: {axis: harmonic_cutoff, values: [1, 2]}\n"
    + "drive: {omega: 0.9, components: [{harmonic: 1, amplitude: 0.2}]}\n",
}


@pytest.mark.parametrize("command", sorted(EDGE_HEAVY_JOBS))
def test_first_zone_flags_are_warned_once(tmp_path, capsys, command):
    """A floquet or harmonic-cutoff converge job warns with its primary
    first-zone report's flags: each once, the edge-heavy reference
    included, on stderr and in ``warnings``."""
    path = config_file(tmp_path, EDGE_HEAVY_JOBS[command])
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    flags = report["reports"]["ffbz"]["truncation_flags"]
    assert report["warnings"] == flags
    assert len([flag for flag in flags if "representative count" in flag]) <= 1
    assert flags[-1].startswith("reference mode carries edge weight")
    assert capsys.readouterr().err.splitlines() == [f"warning: {flag}" for flag in flags]


@pytest.mark.parametrize("axis", ["harmonic", "fock"])
def test_converge_final_report_is_the_last_row(tmp_path, axis):
    """The report of a scan is the last member's report. A photon-cutoff
    scan's qed report equals a fresh build and solve of that member for
    its reference; a
    harmonic-cutoff scan's ffbz report equals the floquet job's at that
    cutoff."""
    text = HARMONIC_CONVERGE_JOB if axis == "harmonic" else FOCK_CONVERGE_JOB
    config = load_config(config_file(tmp_path, text))
    payload = report_payload(run_job(config))
    (final,) = payload["reports"].values()
    assert final["value"] == payload["convergence"][-1]["value"]
    assert final["oracle_residual"] == payload["convergence"][-1]["oracle_residual"]
    if axis == "harmonic":
        floquet_job = {**config.resolved, "job": "floquet"}
        del floquet_job["converge"]
        floquet_job["sambe"] = {**floquet_job["sambe"], "harmonic_cutoff": 8}
        path = config_file(tmp_path, yaml.safe_dump(floquet_job), name="floquet.yaml")
        assert final == report_payload(run_job(load_config(path)))["reports"]["ffbz"]
        return
    h, d, _ = config.matter()
    fock = FockSpec(n_max=10, omega_c=0.9, g=0.3)
    h_joint = joint_operator(h, d, fock)
    fresh = sumrule_qed(
        h_joint, floquet.diagonalize_hermitian(h_joint, reference=0), 0, n_electrons=1
    )
    assert final == cli._sumrule_payload(fresh)


@pytest.mark.parametrize(
    "text, matter_dim",
    [(HARMONIC_CONVERGE_JOB, 3), (FOCK_CONVERGE_JOB, 2)],
    ids=["harmonic", "fock"],
)
def test_converge_frees_each_member_spectrum(tmp_path, monkeypatch, text, matter_dim):
    """A scan holds one member's spectrum per slot: with one slot, by the
    time a member's solve returns, no earlier member's EigenSystem is
    alive, so none was held through that solve; with two, at most the
    other slot's member's is. None outlives the job."""
    members, held = [], []

    def track(system):
        alive = [i for i, ref in enumerate(members) if ref() is not None]
        assert len(alive) <= held[0], f"member spectra {alive} alive during member {len(members)}"
        if system.dim > matter_dim:  # the matter spectrum lives for the whole job
            members.append(weakref.ref(system))
        return system

    record_eigensolves(monkeypatch, track)
    config = load_config(config_file(tmp_path, text))
    for slots in (1, 2):
        members.clear()
        held[:] = [slots - 1]
        with monkeypatch.context() as patch:
            capped_threads(patch, slots)
            run_job(config)
        assert len(members) == 4 and all(ref() is None for ref in members)


READBACK_JOBS = {
    "static": "job: static_trk\n" + THREE_LEVEL_MODEL,
    "floquet": FLOQUET_JOB,
    "qed": QED_JOB,
    "converge": FOCK_CONVERGE_JOB,
    "sweep": SWEEP_JOB,
}


@pytest.mark.parametrize("kind", sorted(READBACK_JOBS))
def test_report_json_reads_back_into_the_ledgers(tmp_path, kind):
    """report.json holds every ledger and the stick spectrum once, as
    columns that rebuild the in-memory tables bit for bit; each value is the
    fsum of its read-back contributions, and the ffbz value the first moment
    of the read-back sticks."""
    config = load_config(config_file(tmp_path, READBACK_JOBS[kind]))
    report = run_job(config)
    write_report(report, tmp_path / "out", ["json"])
    payload = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert payload["format"] == 2
    runs = [(payload, report)]
    if kind == "sweep":
        runs = [
            (entry["report"], point.report)
            for entry, point in zip(payload["sweep"], report.sweep_points, strict=True)
        ]
    for run_payload, run in runs:
        ledgers, density = read_report_tables(run_payload)
        assert set(ledgers) == {tag for tag, _ in run.reports}
        for tag, rule in run.reports:
            assert "aggregated_contributions" not in run_payload["reports"][tag]
            ledger = ledgers[tag]
            assert len(ledger) == len(rule.contributions) > 0
            for got, want in zip(ledger._columns(), rule.contributions._columns()):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert math.fsum(ledger.weight.tolist()) == rule.value
        if run.density is None:
            assert density is None
            continue
        assert density.reference == run.density.reference
        for got, want in zip(density._columns(), run.density._columns()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert first_moment(density) == dict(run.reports)["ffbz"].value


def test_reused_output_directory_keeps_no_stale_tables(tmp_path):
    """A run into a directory an earlier run wrote removes the tables it did
    not write itself, and no other file."""
    out = tmp_path / "out"
    out.mkdir()
    foreign = ("notes.txt", "ledger_final.csv", "report.json.bak")
    for name in foreign:
        (out / name).write_text("kept\n", encoding="utf-8")

    def run(command, text):
        path = config_file(tmp_path, text)
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        return sorted(p.name for p in out.iterdir() if p.name not in foreign)

    assert "sticks.csv" in run("floquet", FLOQUET_JOB)
    static = run("static-trk", "job: static_trk\n" + TWO_LEVEL_MODEL)
    assert static == ["ledger.csv", "report.json", "timings.json"]
    assert "ledger_002.csv" in run("sweep", SWEEP_JOB)
    names = run("sweep", SWEEP_JOB.replace("[0.0, 0.02, 0.05]", "[0.0, 0.02]"))
    assert names == [
        "index.csv",
        "ledger_000.csv",
        "ledger_001.csv",
        "report.json",
        "sticks_000.csv",
        "sticks_001.csv",
        "timings.json",
    ]
    assert all((out / name).read_text(encoding="utf-8") == "kept\n" for name in foreign)


def test_timings_record_the_environment(tmp_path):
    """timings.json says what ran the job, the eigensolver of real blocks
    included; report.json does not."""
    path = static_job_file(tmp_path, tmp_path / "t")
    assert main(["static-trk", "--config", str(path)]) == 0
    environment = json.loads((tmp_path / "t" / "timings.json").read_text())["environment"]
    assert set(environment) == {
        "python", "machine", "numpy", "blas", "eigensolver", "cpus", "floqtrk"
    }
    kernel = lapack.openblas() is not None
    assert environment["eigensolver"] == (
        "LAPACK dsytrd+dsterf, dsbtrd+dsterf, dpbtrf+dgbbrd+dlasdq+dlasd6+dlals0"
        if kernel
        else "numpy.linalg.eigh"
    )
    assert environment["python"] == platform.python_version()
    assert environment["machine"] == platform.machine()
    assert environment["numpy"] == np.__version__
    assert set(environment["blas"]) == {"name", "version"}
    assert isinstance(environment["cpus"], int) and environment["cpus"] >= 1
    assert environment["floqtrk"] == __version__
    assert "environment" not in (tmp_path / "t" / "report.json").read_text()


def test_timings_name_the_eigh_fallback(tmp_path, monkeypatch):
    """Without numpy's bundled OpenBLAS, real blocks take numpy's eigh, and
    timings.json says so."""
    monkeypatch.setattr(lapack, "openblas", lambda: None)
    path = static_job_file(tmp_path, tmp_path / "t")
    assert main(["static-trk", "--config", str(path)]) == 0
    environment = json.loads((tmp_path / "t" / "timings.json").read_text())["environment"]
    assert environment["eigensolver"] == "numpy.linalg.eigh"


@pytest.mark.parametrize(
    "text, stages",
    [
        (
            "job: static_trk\n" + TWO_LEVEL_MODEL,
            {"matter_build", "matter_eigensolve", "sumrule"},
        ),
        (
            FLOQUET_JOB,
            {
                "matter_build",
                "matter_eigensolve",
                "sambe_assemble",
                "eigensolve",
                "fold_select",
                "sumrule",
            },
        ),
        (
            QED_JOB,
            {"matter_build", "matter_eigensolve", "joint_assemble", "eigensolve", "sumrule"},
        ),
        (
            HARMONIC_CONVERGE_JOB,
            {
                "matter_build",
                "matter_eigensolve",
                "sambe_assemble",
                "eigensolve",
                "fold_select",
                "sumrule",
            },
        ),
        (FOCK_CONVERGE_JOB, {"matter_build", "joint_assemble", "eigensolve", "sumrule"}),
    ],
    ids=["static", "floquet", "qed", "converge_harmonic", "converge_fock"],
)
def test_stage_keys_name_the_work_done(tmp_path, text, stages):
    """timings.json has one key per stage that ran, plus the total."""
    report = run_job(load_config(config_file(tmp_path, text)))
    assert set(report.timings) == stages | {"total"}


def test_sweep_timings_nest_each_point(tmp_path):
    """A sweep's timings.json holds each point's own stage timings, total
    included, under point_<i>."""
    out = tmp_path / "sweep_timings"
    path = config_file(tmp_path, SWEEP_JOB)
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    timings = json.loads((out / "timings.json").read_text())["timings"]
    assert set(timings) == {"point_0", "point_1", "point_2", "total"}
    stages = {"matter_build", "matter_eigensolve", "sambe_assemble", "eigensolve"}
    for i in range(3):
        point = timings[f"point_{i}"]
        assert stages | {"fold_select", "sumrule", "total"} == set(point)
        assert all(seconds >= 0.0 for seconds in point.values())


def test_verbose_prints_stage_durations(tmp_path, capsys):
    """--verbose reports each stage's duration when it ends."""
    path = config_file(tmp_path, FLOQUET_JOB)
    out = tmp_path / "v"
    assert main(["floquet", "--config", str(path), "--out", str(out), "--verbose"]) == 0
    err = capsys.readouterr().err
    timings = json.loads((out / "timings.json").read_text())["timings"]
    for stage in set(timings) - {"total"}:
        assert f"[floqtrk] {stage} done in " in err


def test_thread_cap_is_reported(tmp_path, monkeypatch, capsys):
    """A requested cap that cannot be applied warns on stderr and
    timings.json records None; without a cap nothing is printed."""
    monkeypatch.delenv("FLOQTRK_THREADS", raising=False)
    path = static_job_file(tmp_path, tmp_path / "t")

    def applied():
        timings = json.loads((tmp_path / "t" / "timings.json").read_text())
        return timings["threads_applied"]

    monkeypatch.setattr(lapack, "openblas", lambda: None)  # library or symbol missing
    assert main(["static-trk", "--config", str(path), "--threads", "1"]) == 0
    assert "thread control was not found" in capsys.readouterr().err
    assert applied() is None

    assert main(["static-trk", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert applied() is None


def test_thread_cap_is_applied_and_restored(tmp_path, monkeypatch, capsys):
    """--threads 1 and FLOQTRK_THREADS=1 hold numpy's OpenBLAS to one thread
    during the run, timings.json records the count read back, and the
    previous count is restored afterwards."""
    control = lapack.openblas()
    if control is None:
        pytest.skip("numpy has no bundled OpenBLAS with thread control")
    get_threads = control.get_num_threads
    monkeypatch.delenv("FLOQTRK_THREADS", raising=False)
    path = static_job_file(tmp_path, tmp_path / "t")
    before = get_threads()
    during = []
    run_job = cli.run_job

    def recording_run_job(*args, **kwargs):
        during.append(get_threads())
        return run_job(*args, **kwargs)

    monkeypatch.setattr(cli, "run_job", recording_run_job)
    assert main(["static-trk", "--config", str(path), "--threads", "1"]) == 0
    monkeypatch.setenv("FLOQTRK_THREADS", "1")
    assert main(["static-trk", "--config", str(path)]) == 0
    assert "warning" not in capsys.readouterr().err
    timings = json.loads((tmp_path / "t" / "timings.json").read_text())
    assert during == [1, 1] and timings["threads_applied"] == 1
    assert get_threads() == before



@pytest.mark.parametrize(
    "command, text, min_dim, tag",
    [
        ("static-trk", "job: static_trk\n" + TWO_LEVEL_MODEL, 0, "static_trk"),
        ("floquet", FLOQUET_JOB, 27, "sambe"),
        ("qed", QED_JOB, 14, "qed"),
        ("converge", FOCK_CONVERGE_JOB, 0, "n_max=4"),
    ],
    ids=["static", "floquet", "qed", "converge_fock"],
)
def test_broken_closure_exits_numeric(
    tmp_path, monkeypatch, capsys, command, text, min_dim, tag
):
    """A spectrum that is not the operator's (eigenvalues scaled by 1%) breaks
    the closure identity: exit 3 and no report written."""

    def perturb(system):
        if system.dim < min_dim:
            return system
        return EigenSystem(system.values * 1.01, system.sectors)

    record_eigensolves(monkeypatch, perturb)
    path = config_file(tmp_path, text)
    out = tmp_path / "broken"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    assert f"{tag} report breaks the closure identity" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def nudged(table, column, terms):
    """``table`` with the entry of ``column`` in its largest-magnitude row of
    ``terms`` moved by 1e-12 relative, far above the rounding of a sum of
    those terms."""
    values = getattr(table, column).copy()
    values[np.argmax(np.abs(terms))] *= 1.0 + 1e-12
    return dataclasses.replace(table, **{column: values})


@pytest.mark.parametrize(
    "command, text, builder, tag",
    [
        ("static-trk", "job: static_trk\n" + TWO_LEVEL_MODEL, "static_trk", "static_trk"),
        ("floquet", FLOQUET_JOB, "sumrule_ffbz", "ffbz"),
        ("qed", QED_JOB, "sumrule_qed", "qed"),
        ("converge", FOCK_CONVERGE_JOB, "sumrule_qed", "n_max=4"),
    ],
    ids=["static", "floquet", "qed", "converge_fock"],
)
def test_broken_ledger_exits_numeric(tmp_path, monkeypatch, capsys, command, text, builder, tag):
    """A report whose stored weights no longer math.fsum to its value breaks
    the ledger identity: exit 3 and no report written."""
    original = getattr(cli, builder)

    def perturbed(*args, **kwargs):
        report = original(*args, **kwargs)
        ledger = report.contributions
        return dataclasses.replace(report, contributions=nudged(ledger, "weight", ledger.weight))

    monkeypatch.setattr(cli, builder, perturbed)
    out = tmp_path / "broken"
    assert main([command, "--config", str(config_file(tmp_path, text)), "--out", str(out)]) == 3
    assert f"{tag} report breaks the ledger identity" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_broken_first_moment_exits_numeric(tmp_path, monkeypatch, capsys):
    """A stick spectrum whose first moment is not the ffbz value breaks the
    first-moment identity: exit 3 and no report written."""
    def perturbed(report):
        density = original(report)
        return nudged(density, "omega", density.omega * density.weight)

    original = cli.density_from_ledger
    monkeypatch.setattr(cli, "density_from_ledger", perturbed)
    out = tmp_path / "broken"
    path = config_file(tmp_path, FLOQUET_JOB)
    assert main(["floquet", "--config", str(path), "--out", str(out)]) == 3
    assert "breaks the first-moment identity" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_unresolvable_drive_frequency_fails_fast(tmp_path, deadline, capsys):
    """An Omega below the matter span x machine epsilon is a configuration
    error; one the span admits but the level offset does not resolve is a
    numeric error. Neither hangs."""
    tiny = FLOQUET_JOB.replace("omega: 0.35", "omega: 1.0e-300")
    path = config_file(tmp_path, tiny, name="tiny.yaml")
    with deadline(30):
        code = main(["floquet", "--config", str(path), "--out", str(tmp_path / "a")])
    assert code == 2
    assert "spectral span" in capsys.readouterr().err
    far = textwrap.dedent(
        """\
        job: floquet
        model:
          kind: few_level
          energies: [1000000.1234, 1000001.3]
          dipole: [[0.0, 1.0], [1.0, 0.0]]
        drive:
          omega: 1.0e-12
          components: [{harmonic: 1, amplitude: 0.01}]
        """
    )
    path = config_file(tmp_path, far, name="far.yaml")
    with deadline(30):
        code = main(["floquet", "--config", str(path), "--out", str(tmp_path / "b")])
    assert code == 3
    assert "resolution" in capsys.readouterr().err


def test_yaml_12_floats_load_as_numbers(tmp_path):
    """Floats without a dot or without an exponent sign are numbers, and
    configs that loaded before keep their run_hash."""
    classic = textwrap.dedent(
        """\
        job: floquet
        model:
          kind: few_level
          energies: [0.0, 0.3, 1.1]
          dipole: [[0.2, 0.5, 0.1], [0.5, -0.1, 0.4], [0.1, 0.4, 0.3]]
        drive:
          omega: .35
          components: [{harmonic: 1, amplitude: 5.0e-2, phase: -0.}]
        sambe: {harmonic_cutoff: 4, edge_tol: 1.0e-6}
        """
    )
    before = load_config(config_file(tmp_path, classic, name="classic.yaml"))
    # the digest this config had before YAML 1.2 floats were accepted
    assert run_hash_of(before.resolved) == (
        "89ba55a3107e7c49e605468b4aac11f40ecee284800066b702ea2ed28ca039ee"
    )
    modern = classic.replace("5.0e-2", "5e-2").replace("1.0e-6", "1e-6")
    modern = modern.replace("omega: .35", "omega: 35e-2")
    after = load_config(config_file(tmp_path, modern, name="modern.yaml"))
    assert after.resolved == before.resolved
    assert run_hash_of(after.resolved) == run_hash_of(before.resolved)
    sweep = load_config(
        config_file(
            tmp_path,
            "job: sweep\n"
            + "sweep: {job: static_trk, path: model.energies.1, values: [1e0, 2E+0]}\n"
            + TWO_LEVEL_MODEL,
            name="sweep.yaml",
        )
    )
    assert sweep.resolved["sweep"]["values"] == [1.0, 2.0]
    with pytest.raises(ConfigError, match="must be a number, got str"):
        load_config(config_file(tmp_path, classic.replace(".35", "fast"), name="bad.yaml"))


# One config per way the loader can refuse a config: each holds one fault
# on top of a config that loads.

FEW_MODEL = "model: {kind: few_level, energies: [0.0, 1.0], dipole: [[0.0, 1.0], [1.0, 0.0]]}\n"
STATIC_HEAD = "job: static_trk\n"
FLOQUET_HEAD = "job: floquet\n" + FEW_MODEL
DRIVE_SECTION = "drive: {omega: 0.5, components: [{harmonic: 1, amplitude: 0.1}]}\n"
QED_HEAD = "job: qed\n" + FEW_MODEL
FOCK_SECTION = "fock: {omega_c: 0.9, g: 0.1}\n"
HARMONIC_SCAN = "job: converge\n" + FEW_MODEL + "converge: {axis: harmonic_cutoff, values: [2, 4]}\n"
FOCK_SCAN = "job: converge\n" + FEW_MODEL + "converge: {axis: fock_n_max, values: [2, 4, 6]}\n"
SWEEP_HEAD = "job: sweep\n" + FEW_MODEL + DRIVE_SECTION


#: An integer literal beyond the float range.
HUGE = "1" + "0" * 399
THIRD_HARMONIC = "drive: {omega: 0.5, components: [{harmonic: 1, amplitude: 0.1}, {harmonic: 3, amplitude: 0.01}]}\n"
DRIVEN = "(the highest drive harmonic with a nonzero amplitude)"
SIDEBANDS = "(the sideband range, 2 x the harmonic cutoff {} of section '{}')"


def sweep_section(path, values="[0.1, 0.2]"):
    return SWEEP_HEAD + f"sweep: {{job: floquet, path: {path}, values: {values}}}\n"


CONFIG_ERRORS = [
    ("parse_error", "job: [static_trk\n",
     'could not parse <path>: while parsing a flow sequence\n  in "<unicode string>", line 1, column 6:\n    job: [static_trk\n         ^\nexpected \',\' or \']\', but got \'<stream end>\'\n  in "<unicode string>", line 2, column 1:\n    \n    ^'),
    ("top_level_not_mapping", "- 1\n",
     'top level of <path> must be a mapping of sections'),
    ("job_missing", FEW_MODEL,
     "missing required key 'job' (or run through a subcommand)"),
    ("job_unknown", "job: floquett\n" + FEW_MODEL,
     "key 'job' must be one of ['static_trk', 'floquet', 'qed', 'converge', 'sweep'], got 'floquett' (did you mean 'floquet'?)"),
    ("job_not_string", "job: [1]\n" + FEW_MODEL,
     "key 'job' must be one of ['static_trk', 'floquet', 'qed', 'converge', 'sweep'], got [1]"),
    ("section_unused_first_pass", STATIC_HEAD + FEW_MODEL + DRIVE_SECTION,
     "section 'drive' is not used by job kind 'static_trk'"),
    ("section_unused_converge", "job: static_trk\n" + FEW_MODEL + "converge: {}\n",
     "section 'converge' is not used by job kind 'static_trk'"),
    ("top_level_unknown", STATIC_HEAD + FEW_MODEL + "outptu: {}\n",
     "unknown key 'outptu' at top level (did you mean 'output'?)"),
    ("top_level_unknown_no_match", STATIC_HEAD + FEW_MODEL + "zzz: 1\n",
     "unknown key 'zzz' at top level"),
    ("section_unused_by_axis", HARMONIC_SCAN + DRIVE_SECTION + FOCK_SECTION,
     "section 'fock' is not used by job kind 'converge'"),
    ("section_unused_by_fock_axis", FOCK_SCAN + FOCK_SECTION + DRIVE_SECTION,
     "section 'drive' is not used by job kind 'converge'"),
    ("section_unused_by_sweep_base", "job: sweep\n" + FEW_MODEL + DRIVE_SECTION + "sweep: {job: static_trk, path: model.energies.1, values: [1.0]}\n",
     "section 'drive' is not used by job kind 'sweep'"),
    ("qed_section_unused_by_converge", FOCK_SCAN + FOCK_SECTION + "qed: {}\n",
     "section 'qed' is not used by job kind 'converge'"),
    ("requires_drive", FLOQUET_HEAD,
     "job kind 'floquet' requires section 'drive'"),
    ("requires_fock", QED_HEAD,
     "job kind 'qed' requires section 'fock'"),
    ("requires_model", STATIC_HEAD,
     "job kind 'static_trk' requires section 'model'"),
    ("requires_model_before_drive", "job: floquet\n",
     "job kind 'floquet' requires section 'drive'"),
    ("converge_requires_drive", HARMONIC_SCAN,
     "job kind 'converge' requires section 'drive'"),
    ("converge_requires_fock", FOCK_SCAN,
     "job kind 'converge' requires section 'fock'"),
    ("sweep_requires_fock", "job: sweep\n" + FEW_MODEL + "sweep: {job: qed, path: fock.g, values: [0.1]}\n",
     "job kind 'sweep' requires section 'fock'"),
    ("converge_section_missing", "job: converge\n" + FEW_MODEL,
     "missing required key 'converge' in top level"),
    ("sweep_section_missing", "job: sweep\n" + FEW_MODEL,
     "missing required key 'sweep' in top level"),
    # mappings
    ("model_not_mapping", STATIC_HEAD + "model: [1]\n",
     "section 'model' must be a mapping, got list"),
    ("grid_not_mapping", STATIC_HEAD + "model: {grid: 3}\n",
     "section 'model.grid' must be a mapping, got int"),
    ("potential_not_mapping", STATIC_HEAD + "model: {potential: harmonic}\n",
     "section 'model.potential' must be a mapping, got str"),
    ("interaction_not_mapping", STATIC_HEAD + "model: {n_electrons: 2, interaction: [1]}\n",
     "section 'model.interaction' must be a mapping, got list"),
    ("drive_not_mapping", FLOQUET_HEAD + "drive: [1]\n",
     "section 'drive' must be a mapping, got list"),
    ("component_not_mapping", FLOQUET_HEAD + "drive: {omega: 1.0, components: [1]}\n",
     "section 'drive.components.0' must be a mapping, got int"),
    ("sambe_not_mapping", FLOQUET_HEAD + DRIVE_SECTION + "sambe: 8\n",
     "section 'sambe' must be a mapping, got int"),
    ("fock_not_mapping", QED_HEAD + "fock: 8\n",
     "section 'fock' must be a mapping, got int"),
    ("qed_not_mapping", QED_HEAD + FOCK_SECTION + "qed: true\n",
     "section 'qed' must be a mapping, got bool"),
    ("converge_not_mapping", "job: converge\n" + FEW_MODEL + "converge: [1]\n",
     "section 'converge' must be a mapping, got list"),
    ("sweep_not_mapping", "job: sweep\n" + FEW_MODEL + "sweep: fast\n",
     "section 'sweep' must be a mapping, got str"),
    ("output_not_mapping", STATIC_HEAD + FEW_MODEL + "output: out\n",
     "section 'output' must be a mapping, got str"),
    # unknown keys, one per key set
    ("unknown_few_level", STATIC_HEAD + "model: {kind: few_level, energies: [0.0], dipole: [[0.0]], enrgies: 1}\n",
     "unknown key 'enrgies' in section 'model' (did you mean 'energies'?)"),
    ("unknown_grid_model", STATIC_HEAD + "model: {kinetik: sinc_dvr}\n",
     "unknown key 'kinetik' in section 'model' (did you mean 'kinetic'?)"),
    ("interaction_needs_two_electrons", STATIC_HEAD + "model: {interaction: {}}\n",
     "unknown key 'interaction' in section 'model'"),
    ("unknown_grid_model_two", STATIC_HEAD + "model: {n_electrons: 2, interactoin: {}}\n",
     "unknown key 'interactoin' in section 'model' (did you mean 'interaction'?)"),
    ("unknown_grid", STATIC_HEAD + "model: {grid: {n_point: 11}}\n",
     "unknown key 'n_point' in section 'model.grid' (did you mean 'n_points'?)"),
    ("unknown_harmonic", STATIC_HEAD + "model: {potential: {omeag: 2.0}}\n",
     "unknown key 'omeag' in section 'model.potential' (did you mean 'omega'?)"),
    ("unknown_soft_coulomb", STATIC_HEAD + "model: {potential: {kind: soft_coulomb, softness: 2.0}}\n",
     "unknown key 'softness' in section 'model.potential'"),
    ("unknown_box", STATIC_HEAD + "model: {potential: {kind: box, omega: 1.0}}\n",
     "unknown key 'omega' in section 'model.potential'"),
    ("unknown_double_well", STATIC_HEAD + "model: {potential: {kind: double_well, barier: 1.0}}\n",
     "unknown key 'barier' in section 'model.potential' (did you mean 'barrier'?)"),
    ("unknown_tabulated", STATIC_HEAD + "model: {potential: {kind: tabulated, value: [1.0]}}\n",
     "unknown key 'value' in section 'model.potential' (did you mean 'values'?)"),
    ("unknown_interaction_none", STATIC_HEAD + "model: {n_electrons: 2, interaction: {strength: 1.0}}\n",
     "unknown key 'strength' in section 'model.interaction'"),
    ("unknown_interaction_soft", STATIC_HEAD + "model: {n_electrons: 2, interaction: {kind: soft_coulomb, strenght: 1.0}}\n",
     "unknown key 'strenght' in section 'model.interaction' (did you mean 'strength'?)"),
    ("unknown_drive", FLOQUET_HEAD + "drive: {omega: 1.0, component: []}\n",
     "unknown key 'component' in section 'drive' (did you mean 'components'?)"),
    ("unknown_component", FLOQUET_HEAD + "drive: {omega: 1.0, components: [{amplitude: 0.1, phse: 0.0}]}\n",
     "unknown key 'phse' in section 'drive.components.0' (did you mean 'phase'?)"),
    ("unknown_sambe", FLOQUET_HEAD + DRIVE_SECTION + "sambe: {harmonic_cutof: 4}\n",
     "unknown key 'harmonic_cutof' in section 'sambe' (did you mean 'harmonic_cutoff'?)"),
    ("unknown_fock", QED_HEAD + "fock: {omega_c: 0.9, g: 0.1, nmax: 4}\n",
     "unknown key 'nmax' in section 'fock' (did you mean 'n_max'?)"),
    ("unknown_qed", QED_HEAD + FOCK_SECTION + "qed: {h0: true}\n",
     "unknown key 'h0' in section 'qed'"),
    ("unknown_converge", HARMONIC_SCAN.replace("values: [2, 4]}", "values: [2, 4], step: 2}") + DRIVE_SECTION,
     "unknown key 'step' in section 'converge'"),
    ("unknown_sweep", sweep_section("drive.omega").replace("values: [0.1, 0.2]}", "values: [0.1, 0.2], pth: x}"),
     "unknown key 'pth' in section 'sweep' (did you mean 'path'?)"),
    ("unknown_output", STATIC_HEAD + FEW_MODEL + "output: {dir: out}\n",
     "unknown key 'dir' in section 'output'"),
    # missing required keys
    ("missing_energies", STATIC_HEAD + "model: {kind: few_level, dipole: [[0.0]]}\n",
     "missing required key 'energies' in section 'model'"),
    ("missing_dipole", STATIC_HEAD + "model: {kind: few_level, energies: [0.0]}\n",
     "missing required key 'dipole' in section 'model'"),
    ("missing_tabulated_values", STATIC_HEAD + "model: {potential: {kind: tabulated}}\n",
     "missing required key 'values' in section 'model.potential'"),
    ("missing_omega", FLOQUET_HEAD + "drive: {components: []}\n",
     "missing required key 'omega' in section 'drive'"),
    ("missing_omega_null_drive", FLOQUET_HEAD + "drive:\n",
     "missing required key 'omega' in section 'drive'"),
    ("missing_amplitude", FLOQUET_HEAD + "drive: {omega: 1.0, components: [{harmonic: 1}]}\n",
     "missing required key 'amplitude' in section 'drive.components.0'"),
    ("missing_amplitude_null_component", FLOQUET_HEAD + "drive: {omega: 1.0, components: [null]}\n",
     "missing required key 'amplitude' in section 'drive.components.0'"),
    ("missing_omega_c", QED_HEAD + "fock: {g: 0.1}\n",
     "missing required key 'omega_c' in section 'fock'"),
    ("missing_g", QED_HEAD + "fock: {omega_c: 0.9}\n",
     "missing required key 'g' in section 'fock'"),
    ("missing_axis", "job: converge\n" + FEW_MODEL + "converge: {values: [2, 4]}\n" + DRIVE_SECTION,
     "missing required key 'axis' in section 'converge'"),
    ("missing_converge_values", "job: converge\n" + FEW_MODEL + "converge: {axis: harmonic_cutoff}\n" + DRIVE_SECTION,
     "missing required key 'values' in section 'converge'"),
    ("missing_path", SWEEP_HEAD + "sweep: {values: [0.1]}\n",
     "missing required key 'path' in section 'sweep'"),
    ("missing_sweep_values", SWEEP_HEAD + "sweep: {path: drive.omega}\n",
     "missing required key 'values' in section 'sweep'"),
    # types
    ("not_a_number", FLOQUET_HEAD + "drive: {omega: fast}\n",
     "key 'omega' in section 'drive' must be a number, got str"),
    ("null_number", FLOQUET_HEAD + "drive: {omega: null}\n",
     "key 'omega' in section 'drive' must be a number, got NoneType"),
    ("bool_number", FLOQUET_HEAD + "drive: {omega: true}\n",
     "key 'omega' in section 'drive' must be a number, got bool"),
    ("not_finite", FLOQUET_HEAD + "drive: {omega: .inf}\n",
     "key 'omega' in section 'drive' must be finite, got inf"),
    ("not_finite_nan", STATIC_HEAD + "model: {grid: {x_min: .nan}}\n",
     "key 'x_min' in section 'model.grid' must be finite, got nan"),
    ("integer_beyond_float", FLOQUET_HEAD + f"drive: {{omega: {HUGE}}}\n",
     "key 'omega' in section 'drive' must be finite, got an integer of 400 digits"),
    ("energy_beyond_float", STATIC_HEAD + f"model: {{kind: few_level, energies: [0.0, {HUGE}], dipole: [[0, 1], [1, 0]]}}\n",
     "key 'energies' in section 'model' must be finite, got an integer of 400 digits"),
    ("sweep_value_beyond_float", sweep_section("drive.omega", values=f"[0.5, {HUGE}]"),
     "key 'omega' in section 'drive' must be finite, got an integer of 400 digits"),
    ("energy_not_a_number", STATIC_HEAD + "model: {kind: few_level, energies: [0.0, x], dipole: [[0, 1], [1, 0]]}\n",
     "key 'energies' in section 'model' must be a number, got str"),
    ("dipole_entry_not_a_number", STATIC_HEAD + "model: {kind: few_level, energies: [0.0, 1.0], dipole: [[0, 1], [1, x]]}\n",
     "key 'dipole' in section 'model' must be a number, got str"),
    ("tabulated_not_a_number", STATIC_HEAD + "model: {potential: {kind: tabulated, values: [1.0, x]}}\n",
     "key 'values' in section 'model.potential' must be a number, got str"),
    ("not_an_integer", FLOQUET_HEAD + DRIVE_SECTION + "sambe: {harmonic_cutoff: 2.5}\n",
     "key 'harmonic_cutoff' in section 'sambe' must be an integer, got float"),
    ("n_points_not_an_integer", STATIC_HEAD + "model: {grid: {n_points: 11.0}}\n",
     "key 'n_points' in section 'model.grid' must be an integer, got float"),
    ("harmonic_not_an_integer", FLOQUET_HEAD + "drive: {omega: 1.0, components: [{harmonic: x, amplitude: 0.1}]}\n",
     "key 'harmonic' in section 'drive.components.0' must be an integer, got str"),
    ("grid_electrons_not_an_integer", STATIC_HEAD + "model: {n_electrons: two}\n",
     "key 'n_electrons' in section 'model' must be an integer, got str"),
    ("few_level_electrons_not_an_integer", STATIC_HEAD + "model: {kind: few_level, energies: [0.0], dipole: [[0.0]], n_electrons: true}\n",
     "key 'n_electrons' in section 'model' must be an integer, got bool"),
    ("converge_value_not_an_integer", HARMONIC_SCAN.replace("[2, 4]", "[2, 4.5]") + DRIVE_SECTION,
     "key 'values' in section 'converge' must be an integer, got float"),
    ("not_a_boolean", QED_HEAD + FOCK_SECTION + "qed: {h0_diagnostic: 1}\n",
     "key 'h0_diagnostic' in section 'qed' must be a boolean, got int"),
    ("model_kind_choice", STATIC_HEAD + "model: {kind: few_levels}\n",
     "key 'kind' in section 'model' must be one of ['grid', 'few_level'], got 'few_levels' (did you mean 'few_level'?)"),
    ("model_kind_not_string", STATIC_HEAD + "model: {kind: 3}\n",
     "key 'kind' in section 'model' must be one of ['grid', 'few_level'], got 3"),
    ("kinetic_choice", STATIC_HEAD + "model: {kinetic: five_point}\n",
     "key 'kinetic' in section 'model' must be one of ['three_point', 'sinc_dvr'], got 'five_point' (did you mean 'three_point'?)"),
    ("potential_kind_choice", STATIC_HEAD + "model: {potential: {kind: harmonik}}\n",
     "key 'kind' in section 'model.potential' must be one of ['harmonic', 'soft_coulomb', 'box', 'double_well', 'tabulated'], got 'harmonik' (did you mean 'harmonic'?)"),
    ("interaction_kind_choice", STATIC_HEAD + "model: {n_electrons: 2, interaction: {kind: coulomb}}\n",
     "key 'kind' in section 'model.interaction' must be one of ['none', 'soft_coulomb'], got 'coulomb' (did you mean 'soft_coulomb'?)"),
    ("axis_choice", "job: converge\n" + FEW_MODEL + "converge: {axis: photons, values: [2, 4]}\n" + DRIVE_SECTION,
     "key 'axis' in section 'converge' must be one of ['harmonic_cutoff', 'fock_n_max'], got 'photons'"),
    ("sweep_job_choice", SWEEP_HEAD + "sweep: {job: converge, path: drive.omega, values: [1.0]}\n",
     "key 'job' in section 'sweep' must be one of ['static_trk', 'floquet', 'qed'], got 'converge'"),
    ("format_choice", STATIC_HEAD + FEW_MODEL + "output: {formats: [json, xml]}\n",
     "key 'formats' in section 'output' must be one of ['json', 'csv'], got 'xml'"),
    # bounds
    ("few_level_electrons_bound", STATIC_HEAD + "model: {kind: few_level, energies: [0.0], dipole: [[0.0]], n_electrons: 0}\n",
     "key 'n_electrons' in section 'model' must be >= 1, got 0"),
    ("grid_electrons_bound", STATIC_HEAD + "model: {n_electrons: 3}\n",
     "key 'n_electrons' in section 'model' must be 1 or 2 for grid models, got 3"),
    ("omega_bound", FLOQUET_HEAD + "drive: {omega: 0}\n",
     "key 'omega' in section 'drive' must be > 0, got 0.0"),
    ("omega_bound_negative", FLOQUET_HEAD + "drive: {omega: -1.5}\n",
     "key 'omega' in section 'drive' must be > 0, got -1.5"),
    ("harmonic_bound", FLOQUET_HEAD + "drive: {omega: 1.0, components: [{harmonic: 0, amplitude: 0.1}]}\n",
     "key 'harmonic' in section 'drive.components.0' must be >= 1, got 0"),
    ("harmonic_cutoff_bound", FLOQUET_HEAD + DRIVE_SECTION + "sambe: {harmonic_cutoff: -1}\n",
     "key 'harmonic_cutoff' in section 'sambe' must be >= 0, got -1"),
    ("edge_tol_bound", FLOQUET_HEAD + DRIVE_SECTION + "sambe: {edge_tol: 0}\n",
     "key 'edge_tol' in section 'sambe' must be > 0, got 0.0"),
    ("sambe_n_max_bound", FLOQUET_HEAD + DRIVE_SECTION + "sambe: {n_max: -1}\n",
     "key 'n_max' in section 'sambe' must be >= 0, got -1"),
    ("sambe_n_max_above_sidebands", FLOQUET_HEAD + DRIVE_SECTION + "sambe: {harmonic_cutoff: 2, n_max: 5}\n",
     f"key 'n_max' in section 'sambe' must be <= 4 {SIDEBANDS.format(2, 'sambe')}, got 5"),
    ("converge_n_max_above_sidebands", HARMONIC_SCAN + DRIVE_SECTION + "sambe: {n_max: 6}\n",
     f"key 'n_max' in section 'sambe' must be <= 4 {SIDEBANDS.format(2, 'converge')}, got 6"),
    ("sweep_n_max_above_sidebands", SWEEP_HEAD + "sambe: {harmonic_cutoff: 3, n_max: 6}\n"
     + "sweep: {job: floquet, path: sambe.harmonic_cutoff, values: [3, 2]}\n",
     f"key 'n_max' in section 'sambe' must be <= 4 {SIDEBANDS.format(2, 'sambe')}, got 6"),
    ("harmonic_cutoff_below_harmonic", FLOQUET_HEAD + THIRD_HARMONIC + "sambe: {harmonic_cutoff: 2}\n",
     f"key 'harmonic_cutoff' in section 'sambe' must be >= 3 {DRIVEN}, got 2"),
    ("default_harmonic_cutoff_below_harmonic", FLOQUET_HEAD + THIRD_HARMONIC.replace("harmonic: 3", "harmonic: 9"),
     f"key 'harmonic_cutoff' in section 'sambe' must be >= 9 {DRIVEN}, got 8"),
    ("converge_cutoff_below_harmonic", HARMONIC_SCAN + THIRD_HARMONIC,
     f"key 'values' in section 'converge' must be >= 3 {DRIVEN}, got 2"),
    ("sweep_cutoff_below_harmonic", SWEEP_HEAD + "sambe: {harmonic_cutoff: 2}\n"
     + "sweep: {job: floquet, path: drive.components.0.harmonic, values: [1, 3]}\n",
     f"key 'harmonic_cutoff' in section 'sambe' must be >= 3 {DRIVEN}, got 2"),
    ("fock_n_max_bound", QED_HEAD + "fock: {n_max: -1, omega_c: 0.9, g: 0.1}\n",
     "key 'n_max' in section 'fock' must be >= 0, got -1"),
    ("omega_c_bound", QED_HEAD + "fock: {omega_c: 0, g: 0.1}\n",
     "key 'omega_c' in section 'fock' must be > 0, got 0.0"),
    ("n_points_bound", STATIC_HEAD + "model: {grid: {n_points: 2}}\n",
     "key 'n_points' in section 'model.grid' must be >= 3, got 2"),
    ("harmonic_omega_bound", STATIC_HEAD + "model: {potential: {kind: harmonic, omega: 0}}\n",
     "key 'omega' in section 'model.potential' must be > 0, got 0.0"),
    ("soft_coulomb_softening_bound", STATIC_HEAD + "model: {potential: {kind: soft_coulomb, softening: -1.0}}\n",
     "key 'softening' in section 'model.potential' must be > 0, got -1.0"),
    ("double_well_barrier_bound", STATIC_HEAD + "model: {potential: {kind: double_well, barrier: 0.0}}\n",
     "key 'barrier' in section 'model.potential' must be > 0, got 0.0"),
    ("double_well_separation_bound", STATIC_HEAD + "model: {potential: {kind: double_well, separation: -2}}\n",
     "key 'separation' in section 'model.potential' must be > 0, got -2.0"),
    ("interaction_softening_bound", STATIC_HEAD + "model: {n_electrons: 2, interaction: {kind: soft_coulomb, softening: 0}}\n",
     "key 'softening' in section 'model.interaction' must be > 0, got 0.0"),
    # cross-key model checks
    ("grid_x_max_below_x_min", STATIC_HEAD + "model: {grid: {x_min: 5.0, x_max: -5.0}}\n",
     "key 'x_max' in section 'model.grid' must be > 'x_min' (5.0), got -5.0"),
    ("grid_x_max_at_x_min", STATIC_HEAD + "model: {n_electrons: 2, grid: {x_min: 1, x_max: 1}}\n",
     "key 'x_max' in section 'model.grid' must be > 'x_min' (1.0), got 1.0"),
    ("energies_descending", STATIC_HEAD + "model: {kind: few_level, energies: [0.0, 1.0, 0.5], dipole: [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}\n",
     "key 'energies' in section 'model' must be in ascending order, got [0.0, 1.0, 0.5]"),
    ("dipole_not_hermitian", STATIC_HEAD + "model: {kind: few_level, energies: [0.0, 1.0], dipole: [[0.0, 1.0], [0.5, 0.0]]}\n",
     "key 'dipole' in section 'model' must be symmetric, got max |d - d^T| = 5.000e-01"),
    ("reference_negative", STATIC_HEAD + FEW_MODEL + "reference: -1\n",
     "key 'reference' must be 'auto' or a non-negative integer, got -1"),
    ("reference_string", STATIC_HEAD + FEW_MODEL + "reference: ground\n",
     "key 'reference' must be 'auto' or a non-negative integer, got 'ground'"),
    ("reference_bool", STATIC_HEAD + FEW_MODEL + "reference: true\n",
     "key 'reference' must be 'auto' or a non-negative integer, got True"),
    # lists
    ("energies_empty", STATIC_HEAD + "model: {kind: few_level, energies: [], dipole: []}\n",
     "key 'energies' in section 'model' must be a non-empty list"),
    ("energies_not_list", STATIC_HEAD + "model: {kind: few_level, energies: 1.0, dipole: []}\n",
     "key 'energies' in section 'model' must be a non-empty list"),
    ("dipole_shape", STATIC_HEAD + "model: {kind: few_level, energies: [0.0, 1.0], dipole: [[0.0]]}\n",
     "key 'dipole' in section 'model' must be a 2x2 matrix matching 'energies'"),
    ("dipole_row_shape", STATIC_HEAD + "model: {kind: few_level, energies: [0.0, 1.0], dipole: [[0.0, 1.0], [1.0]]}\n",
     "key 'dipole' in section 'model' must be a 2x2 matrix matching 'energies'"),
    ("tabulated_empty", STATIC_HEAD + "model: {potential: {kind: tabulated, values: []}}\n",
     "key 'values' in section 'model.potential' must be a non-empty list"),
    ("components_not_list", FLOQUET_HEAD + "drive: {omega: 1.0, components: 5}\n",
     "key 'components' in section 'drive' must be a list"),
    ("converge_values_short", HARMONIC_SCAN.replace("[2, 4]", "[4]") + DRIVE_SECTION,
     "key 'values' in section 'converge' must list at least 2 entries"),
    ("converge_values_not_list", HARMONIC_SCAN.replace("[2, 4]", "4") + DRIVE_SECTION,
     "key 'values' in section 'converge' must list at least 2 entries"),
    ("converge_values_decreasing", HARMONIC_SCAN.replace("[2, 4]", "[6, 4]") + DRIVE_SECTION,
     "key 'values' in section 'converge' must be strictly increasing"),
    ("converge_values_repeated", HARMONIC_SCAN.replace("[2, 4]", "[4, 4]") + DRIVE_SECTION,
     "key 'values' in section 'converge' must be strictly increasing"),
    ("converge_values_negative", HARMONIC_SCAN.replace("[2, 4]", "[-2, 4]") + DRIVE_SECTION,
     "key 'values' in section 'converge' must be non-negative"),
    ("converge_fock_values_repeated", FOCK_SCAN.replace("[2, 4, 6]", "[2, 4, 4]") + FOCK_SECTION,
     "key 'values' in section 'converge' must be strictly increasing"),
    ("sweep_path_empty", sweep_section("''"),
     "key 'path' in section 'sweep' must be a non-empty string"),
    ("sweep_path_not_string", sweep_section("3"),
     "key 'path' in section 'sweep' must be a non-empty string"),
    ("sweep_values_empty", sweep_section("drive.omega", values="[]"),
     "key 'values' in section 'sweep' must be a non-empty list"),
    ("sweep_values_not_numbers", sweep_section("drive.omega", values="[1.0, x]"),
     "key 'values' in section 'sweep' must contain numbers only"),
    ("sweep_values_bool", sweep_section("drive.omega", values="[true]"),
     "key 'values' in section 'sweep' must contain numbers only"),
    ("output_directory_empty", STATIC_HEAD + FEW_MODEL + "output: {directory: ''}\n",
     "key 'directory' in section 'output' must be a non-empty string"),
    ("output_directory_number", STATIC_HEAD + FEW_MODEL + "output: {directory: 3}\n",
     "key 'directory' in section 'output' must be a non-empty string"),
    ("formats_empty", STATIC_HEAD + FEW_MODEL + "output: {formats: []}\n",
     "key 'formats' in section 'output' must be a non-empty list"),
    ("formats_twice", STATIC_HEAD + FEW_MODEL + "output: {formats: [json, csv, json]}\n",
     "key 'formats' in section 'output' lists 'json' twice"),
    # sweep paths
    ("sweep_path_index", sweep_section("drive.components.x.amplitude"),
     "sweep path 'drive.components.x.amplitude': segment 'x' must be a list index"),
    ("sweep_path_range", sweep_section("drive.components.3.amplitude"),
     "sweep path 'drive.components.3.amplitude': index 3 out of range"),
    ("sweep_path_key", sweep_section("drive.omeag"),
     "sweep path 'drive.omeag': key 'omeag' not found (did you mean 'omega'?)"),
    ("sweep_path_descend", sweep_section("drive.omega.x"),
     "sweep path 'drive.omega.x': cannot descend into float"),
    ("sweep_path_root", sweep_section("output.directory"),
     "sweep path 'output.directory' must target a model/drive/sambe/fock/qed/reference parameter"),
    ("sweep_path_job", sweep_section("job"),
     "sweep path 'job' must target a model/drive/sambe/fock/qed/reference parameter"),
    ("sweep_path_not_numeric", sweep_section("model.kind"),
     "sweep path 'model.kind' must target a numeric parameter"),
    ("sweep_path_reference_auto", sweep_section("reference", values="[0, 1]"),
     "sweep path 'reference' must target a numeric parameter"),
]


@pytest.mark.parametrize(
    "text, message",
    [case[1:] for case in CONFIG_ERRORS],
    ids=[case[0] for case in CONFIG_ERRORS],
)
def test_config_error_messages(tmp_path, text, message):
    """Every way a single-fault config fails at load, with its exact message
    (``<path>`` stands for the config file)."""
    path = config_file(tmp_path, text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == message.replace("<path>", str(path))


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    """A config file that is not UTF-8 text exits 2 with a message."""
    path = tmp_path / "job.yaml"
    path.write_bytes(b"job: static_trk\nmodel: {}\n# \xff\xfe\n")
    assert main(["static-trk", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: could not read {path} as UTF-8 text")


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("static-trk", "job: static_trk\n" + TWO_LEVEL_MODEL + "model: {}\n", "'model'"),
        ("qed", QED_JOB.replace("g: 0.3}", "g: 0.3, g: 0.4}"), "'g'"),
        (
            "floquet",
            FLOQUET_JOB.replace("amplitude: 0.05}", "amplitude: 0.05, harmonic: 2}"),
            "'harmonic'",
        ),
    ],
    ids=["top_level", "nested", "in_list"],
)
def test_duplicate_keys_are_refused(tmp_path, capsys, command, text, key):
    """A key given twice in one mapping is an error naming the key, at any
    depth, not a silent choice of the last value."""
    path = config_file(tmp_path, text)
    with pytest.raises(ConfigError, match=f"found duplicate key {key}"):
        load_config(path)
    assert main([command, "--config", str(path)]) == 2
    assert f"found duplicate key {key}" in capsys.readouterr().err


def test_merge_keys_may_be_overridden(tmp_path):
    """A YAML merge key and a key that overrides it are not duplicates."""
    text = FLOQUET_JOB.replace(
        "components: [{harmonic: 1, amplitude: 0.05}]",
        "components: [&first {harmonic: 1, amplitude: 0.05}, {<<: *first, amplitude: 0.02}]",
    )
    components = load_config(config_file(tmp_path, text)).resolved["drive"]["components"]
    assert [c["amplitude"] for c in components] == [0.05, 0.02]
    assert [c["harmonic"] for c in components] == [1, 1]


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "sweep",
            "job: sweep\nsweep: {path: sambe.harmonic_cutoff, values: [4, 4.5]}\n"
            + FLOQUET_JOB.split("\n", 1)[1],
            "key 'harmonic_cutoff' in section 'sambe' must be an integer, got float",
        ),
        (
            "sweep",
            "job: sweep\nsweep: {job: static_trk, path: model.grid.x_max, values: [10.0, -20.0]}\n"
            + "model: {grid: {n_points: 21}}\n",
            "key 'x_max' in section 'model.grid' must be > 'x_min' (-10.0), got -20.0",
        ),
        (
            "converge",
            FOCK_CONVERGE_JOB.replace("[4, 6, 8, 10]", "[4, 6]"),
            "key 'values' in section 'converge' must list at least {fewest} entries",
        ),
        (
            "sweep",
            SWEEP_HEAD + "sambe: {harmonic_cutoff: 2}\n"
            + "sweep: {job: floquet, path: drive.components.0.harmonic, values: [1, 3]}\n",
            "key 'harmonic_cutoff' in section 'sambe' must be >= 3 " + DRIVEN + ", got 2",
        ),
        (
            "floquet",
            FLOQUET_JOB.replace("harmonic: 1,", "harmonic: 5,"),
            "key 'harmonic_cutoff' in section 'sambe' must be >= 5 " + DRIVEN + ", got 4",
        ),
        (
            "converge",
            HARMONIC_CONVERGE_JOB.replace("harmonic: 1,", "harmonic: 3,"),
            "key 'values' in section 'converge' must be >= 3 " + DRIVEN + ", got 2",
        ),
        (
            "floquet",
            FLOQUET_JOB.replace("harmonic_cutoff: 4", "harmonic_cutoff: 2\n  n_max: 5"),
            "key 'n_max' in section 'sambe' must be <= 4 " + SIDEBANDS.format(2, "sambe")
            + ", got 5",
        ),
        (
            "converge",
            HARMONIC_CONVERGE_JOB.replace("[2, 4, 6, 8]", "[2, 4]") + "sambe: {n_max: 6}\n",
            "key 'n_max' in section 'sambe' must be <= 4 " + SIDEBANDS.format(2, "converge")
            + ", got 6",
        ),
        (
            "sweep",
            "job: sweep\nsweep: {path: drive.omega, values: [0.35, 0.4]}\n"
            + FLOQUET_JOB.split("\n", 1)[1].replace("harmonic_cutoff: 4", "harmonic_cutoff: 1\n  n_max: 3"),
            "key 'n_max' in section 'sambe' must be <= 2 " + SIDEBANDS.format(1, "sambe")
            + ", got 3",
        ),
    ],
    ids=[
        "sweep_point",
        "sweep_grid_end",
        "photon_cutoff_family",
        "sweep_cutoff_below_harmonic",
        "floquet_cutoff_below_harmonic",
        "converge_cutoff_below_harmonic",
        "floquet_n_max_above_sidebands",
        "converge_n_max_above_sidebands",
        "sweep_n_max_above_sidebands",
    ],
)
def test_refused_at_load_before_any_eigensolve(
    tmp_path, monkeypatch, capsys, command, text, message
):
    """A config the run would refuse is refused while loading, before the
    first eigensolve of the package or of LAPACK."""
    solved = record_eigensolves(monkeypatch)
    lapack = record_lapack_solves(monkeypatch)
    path = config_file(tmp_path, text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    message = message.format(fewest=cli.MIN_CUTOFF_FAMILY)
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert solved == lapack == []


def test_undriven_harmonic_above_the_cutoff_loads(tmp_path):
    """A drive component with amplitude 0 couples nothing, so its harmonic
    may lie above the cutoff, as in the README's grid sweep, whose first
    point has the only component at amplitude 0."""
    text = (
        "job: sweep\n"
        "sweep: {job: floquet, path: drive.components.0.amplitude, values: [0.0, 0.02]}\n"
        "model: {kind: grid, grid: {n_points: 21}}\n"
        "drive: {omega: 150.0, components: [{harmonic: 1, amplitude: 0.0}, {harmonic: 4, amplitude: 0.0}]}\n"
        "sambe: {harmonic_cutoff: 2}\n"
    )
    config = load_config(config_file(tmp_path, text))
    assert [c["harmonic"] for c in config.resolved["drive"]["components"]] == [1, 4]


@pytest.mark.parametrize(
    "scalar, message",
    [("9" * 5000, "Exceeds the limit"), ("2001-13-01", "month must be in 1..12")],
    ids=["integer_too_long", "bad_date"],
)
def test_unconvertible_scalar_is_a_config_error(tmp_path, capsys, scalar, message):
    """A scalar that YAML recognizes but cannot convert (an integer past
    Python's digit limit, an impossible date) exits 2 without a
    traceback."""
    path = config_file(tmp_path, f"job: static_trk\nmodel: {{grid: {{x_min: {scalar}}}}}\n")
    assert main(["static-trk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: could not parse {path}: ")
    assert message in err and "Traceback" not in err



def test_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    """A config nested deeper than the YAML parser can recurse exits 2 with
    one message instead of a RecursionError traceback."""
    path = config_file(tmp_path, "job: static_trk\nmodel: " + "[" * 3000 + "]" * 3000 + "\n")
    assert main(["static-trk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: could not parse {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "grid, potential",
    [
        ("{n_points: 21, x_max: 1.0e308}", "{kind: harmonic}"),
        ("{n_points: 21}", "{kind: harmonic, omega: 1.0e200}"),
        ("{n_points: 21, x_min: 0.0, x_max: 1.0e-200}", "{kind: harmonic}"),
    ],
    ids=["spacing_square_overflows", "potential_overflows", "spacing_square_underflows"],
)
def test_float_range_faults_are_input_errors(tmp_path, capsys, grid, potential):
    """A grid spacing or potential whose square leaves the float range exits
    2 with one line on stderr, not an OverflowError or ZeroDivisionError
    traceback."""
    path = config_file(
        tmp_path,
        f"job: static_trk\nmodel: {{kind: grid, grid: {grid}, potential: {potential}}}\n",
    )
    assert main(["static-trk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_reference_beyond_the_first_zone_is_an_input_error(tmp_path, capsys):
    """An explicit floquet reference past the first-zone representatives
    exits 2 with one line on stderr."""
    path = config_file(tmp_path, FLOQUET_JOB + "reference: 7\n")
    assert main(["floquet", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "input error: reference index 7 outside the 3 supplied representatives\n"
    )

#: Small valid jobs of every kind, the seeds of the fuzzed configs below.
FUZZ_BASES = [
    yaml.safe_load(text)
    for text in (
        "job: static_trk\n" + TWO_LEVEL_MODEL + "reference: 1\n",
        "job: static_trk\nmodel: {grid: {n_points: 21}, potential: {kind: double_well}}\n",
        "job: static_trk\nmodel: {n_electrons: 2, grid: {n_points: 8},"
        " interaction: {kind: soft_coulomb}}\n",
        FLOQUET_JOB.replace("harmonic_cutoff: 4", "harmonic_cutoff: 2\n  n_max: 1"),
        QED_JOB.replace("n_max: 6", "n_max: 3") + "qed: {h0_diagnostic: true}\n",
        HARMONIC_CONVERGE_JOB.replace("[2, 4, 6, 8]", "[1, 2]"),
        FOCK_CONVERGE_JOB.replace("[4, 6, 8, 10]", "[1, 2, 3]"),
        "job: sweep\nsweep: {job: qed, path: fock.g, values: [0.1, 0.2]}\n"
        + QED_JOB.split("\n", 1)[1].replace("n_max: 6", "n_max: 2"),
        "job: sweep\nsweep: {job: static_trk, path: model.energies.1, values: [2, 3.5]}\n"
        + THREE_LEVEL_MODEL,
    )
]
#: Key names a renamed key may take: typos and names valid elsewhere.
FUZZ_NAMES = ["omeag", "model", "drive", "fock", "qed", "sambe", "n_max", "kind", "values"]
#: Values a retyped key may take: wrong types, out of range, or valid
#: elsewhere (every integer small enough to keep models tiny).
FUZZ_VALUES = [None, True, "text", "sinc_dvr", [], [1.0], {}, -1, 0, 1, 2, 5, 0.5, -0.5, 1e-9]
FUZZ_COMMANDS = {
    "static_trk": "static-trk",
    "floquet": "floquet",
    "qed": "qed",
    "converge": "converge",
    "sweep": "sweep",
}


def tree_paths(node, prefix=()):
    """Every (key or index) path into a config tree, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from tree_paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A small valid job with one to three keys dropped, renamed, retyped or
    set out of range, or its job kind swapped."""
    config = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(tree_paths(config))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        leaf = path[-1]
        action = draw(st.sampled_from(["drop", "rename", "retype", "swap_job"]))
        if action == "drop":
            del parent[leaf]
        elif action == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(FUZZ_NAMES))] = parent.pop(leaf)
        elif action == "swap_job":
            config["job"] = draw(st.sampled_from([*FUZZ_COMMANDS, "sweeps"]))
        else:
            parent[leaf] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return config


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    # tmp_path is rewritten by each example and deadline is a stateless guard
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config=mutated_configs())
def test_mutated_configs_keep_the_exit_code_contract(tmp_path, deadline, config):
    """Any mutation of a valid config ends in a documented exit code, with a
    message instead of a traceback, and does not hang."""
    path = tmp_path / "fuzz.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    command = FUZZ_COMMANDS.get(str(config.get("job")), "static-trk")
    err = io.StringIO()
    with deadline(20), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
