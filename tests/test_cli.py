"""Config loading, job execution, serialization, and exit codes."""

import contextlib
import json
import math
import sys
import textwrap
import types

import pytest
import yaml

from floqtrk import (
    ConfigError,
    EigenSystem,
    FockSpec,
    __version__,
    build_joint_hamiltonian,
    cli,
    first_moment,
    floquet,
    joint_dipole,
    qed,
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
    for row in by_tag["ffbz"].contributions:
        if row.n != 0:
            assert abs(row.weight) <= 1e-12
    assert abs(first_moment(report.density) - by_tag["ffbz"].value) <= 1e-12
    assert report.spectrum_header == ("index", "quasienergy", "edge_weight")
    assert len(report.spectrum_rows) == 3
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
    assert report.spectrum_header == ("index", "energy")
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

    def recorder(matrix):
        dims.append(matrix.shape[0])
        system = original(matrix)
        return system if perturb is None else perturb(system)

    for module in (cli, floquet, qed, sumrule):
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
    """Every distinct operator of a job is diagonalized exactly once."""
    config = load_config(config_file(tmp_path, text))
    solved = record_eigensolves(monkeypatch)
    run_job(config)
    assert solved == dims


def test_converge_final_report_is_the_last_row(tmp_path):
    """The qed report of a photon-cutoff scan is the last member's report,
    equal to a fresh build and solve of that member."""
    config = load_config(config_file(tmp_path, FOCK_CONVERGE_JOB))
    payload = report_payload(run_job(config))
    final = payload["reports"]["qed"]
    assert final["value"] == payload["convergence"][-1]["value"]
    assert final["oracle_residual"] == payload["convergence"][-1]["oracle_residual"]
    h, d, _ = config.matter()
    fock = FockSpec(n_max=10, omega_c=0.9, g=0.3)
    h_joint = build_joint_hamiltonian(h, d, fock)
    fresh = sumrule_qed(
        floquet.diagonalize_hermitian(h_joint),
        joint_dipole(d, fock),
        0,
        h_joint=h_joint,
    )
    assert final == cli._sumrule_payload(fresh)


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
        (FOCK_CONVERGE_JOB, {"matter_build", "convergence"}),
    ],
    ids=["static", "floquet", "qed", "converge_harmonic", "converge_fock"],
)
def test_stage_keys_name_the_work_done(tmp_path, text, stages):
    """timings.json has one key per stage that ran, plus the total."""
    report = run_job(load_config(config_file(tmp_path, text)))
    assert set(report.timings) == stages | {"total"}


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
    """A requested cap that cannot be applied warns on stderr; timings.json
    records the cap actually in force."""
    monkeypatch.delenv("FLOQTRK_THREADS", raising=False)
    path = static_job_file(tmp_path, tmp_path / "t")

    def applied():
        timings = json.loads((tmp_path / "t" / "timings.json").read_text())
        return timings["threads_applied"]

    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    assert main(["static-trk", "--config", str(path), "--threads", "2"]) == 0
    assert "threadpoolctl is not installed" in capsys.readouterr().err
    assert applied() is None

    caps = []
    stand_in = types.ModuleType("threadpoolctl")
    stand_in.threadpool_limits = lambda limits: caps.append(limits) or contextlib.nullcontext()
    monkeypatch.setitem(sys.modules, "threadpoolctl", stand_in)
    monkeypatch.setenv("FLOQTRK_THREADS", "3")
    assert main(["static-trk", "--config", str(path)]) == 0
    assert "warning" not in capsys.readouterr().err
    assert caps == [3] and applied() == 3

    monkeypatch.delenv("FLOQTRK_THREADS")
    assert main(["static-trk", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert applied() is None


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
        return EigenSystem(values=system.values * 1.01, vectors=system.vectors)

    record_eigensolves(monkeypatch, perturb)
    path = config_file(tmp_path, text)
    out = tmp_path / "broken"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    assert f"{tag} report breaks the closure identity" in capsys.readouterr().err
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
