import csv
import math
import os
from dataclasses import fields
from typing import get_args

import numpy as np
import pytest

from fluxdg.cli import main
from fluxdg.errors import BenchmarkError, ConfigurationError
from fluxdg.fluxes import SURFACE_KINDS
from fluxdg.harness import (
    MICROBENCH_FORMS,
    RunConfig,
    _coerce,
    build_run,
    convergence_study,
    free_stream_primitives,
    load_config,
    make_config,
    measure_pid,
    microbench_flux,
    monitor_entropy_conservation,
    output_path,
    parse_config_file,
    pid_row,
    random_primitives,
    run_simulation,
    sinusoidal_primitives,
    vortex_primitives,
    write_csv,
)


# --- configuration -----------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
# 2D vortex baseline
d = 2
elements = 8   # per direction
volume_flux = shima

t_end = 1.5
n_steps = none
"""
    )
    mapping = parse_config_file(str(cfg))
    assert mapping == {
        "d": "2",
        "elements": "8",
        "volume_flux": "shima",
        "t_end": "1.5",
        "n_steps": "none",
    }
    config = make_config(mapping)
    assert config.d == 2
    assert config.volume_flux == "shima"
    assert config.n_steps is None
    assert config.t_end == 1.5


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="config"):
        parse_config_file(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("d = 2\njust some words\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config_file(str(bad))


def test_make_config_rejects_unknown_key():
    # a removed key is rejected like any other unknown key
    for mapping in ({"polynomial_degree": "3"}, {"precompute": "primitives"}):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            make_config(mapping)


def test_make_config_coercion_error_names_key():
    with pytest.raises(ConfigurationError, match="elements"):
        make_config({"elements": "many"})
    with pytest.raises(ConfigurationError, match="cfl"):
        make_config({"cfl": "half"})


def test_config_key_types_follow_annotations():
    # every field parses by its RunConfig annotation: "none" is None exactly
    # on the fields that admit None, int fields reject "1.5", float fields
    # read it and str fields keep it
    for field in fields(RunConfig):
        types = get_args(field.type) or (field.type,)
        if type(None) in types:
            assert _coerce(field.name, " None ") is None, field.name
        elif str in types:
            assert _coerce(field.name, "none") == "none", field.name
        else:
            with pytest.raises(ConfigurationError, match=field.name):
                _coerce(field.name, "none")
        if int in types:
            message = "%s: cannot parse '1.5' as an integer" % field.name
            with pytest.raises(ConfigurationError, match=message):
                _coerce(field.name, "1.5")
        else:
            want = 1.5 if float in types else "1.5"
            assert _coerce(field.name, "1.5") == want, field.name


def test_overrides_win():
    config = load_config(None, {"p": "4", "volume_flux": "shima"})
    assert config.p == 4
    assert config.volume_flux == "shima"


def test_config_validation_messages():
    cases = [
        ({"d": "4"}, "d:"),
        ({"p": "0"}, "p:"),
        ({"elements": "0"}, "elements"),
        ({"mesh": "unstructured"}, "mesh"),
        ({"mesh": "curved", "amplitude": "0"}, "amplitude"),
        ({"ic": "blast_wave"}, "ic"),
        ({"gamma": "1.0"}, "gamma"),
        # non-finite values are named here, not by a later admissibility or
        # Jacobian failure
        ({"gamma": "inf"}, "gamma:"),
        ({"gamma": "nan"}, "gamma:"),
        ({"epsilon": "nan"}, "epsilon:"),
        ({"epsilon": "inf"}, "epsilon:"),
        ({"mesh": "curved", "amplitude": "inf"}, "amplitude:"),
        ({"cfl": "0"}, "cfl"),
        ({"cfl": "inf"}, "cfl:"),
        ({"cfl": "nan"}, "cfl:"),
        ({"ic": "random", "seed": "-1"}, "seed:"),
        ({"t_end": "1.0"}, "n_steps/t_end"),
        ({"n_steps": "none"}, "n_steps/t_end"),
        ({"n_steps": "0"}, "n_steps:"),
        ({"n_steps": "-3"}, "n_steps:"),
        ({"n_steps": "none", "t_end": "-1"}, "t_end:"),
        ({"n_steps": "none", "t_end": "nan"}, "t_end:"),
        ({"n_steps": "none", "t_end": "inf"}, "t_end:"),
        ({"family": "lobatto"}, "family:"),
        # the mapping degree is no run setting: curved runs are isoparametric
        ({"mesh": "curved", "geo_degree": "2"}, "unknown config key 'geo_degree'"),
        ({"volume_scheme": "overintegration", "overint_degree": "40"}, "overint_degree:"),
        ({"volume_flux": "llf"}, "volume_flux:"),
    ]
    for overrides, needle in cases:
        # the scheme keys are checked against the built setup
        with pytest.raises(ConfigurationError, match=needle):
            build_run(make_config(None, overrides))


# --- initial conditions ------------------------------------------------------


def test_vortex_far_field_is_background():
    x = np.array([[5.0, 5.0], [-5.0, 4.9]])
    prim = vortex_primitives(x)
    want = np.array([1.0, 1.0, 1.0, 10.0])
    # the gaussian tail is ~6e-10 at the box corner, not exactly zero
    assert np.abs(prim - want).max() < 1e-8


def test_vortex_center_temperature():
    x = np.zeros((1, 2))
    prim = vortex_primitives(x)[0]
    gamma = 1.4
    temp = prim[-1] / prim[0]
    want = 10.0 - (gamma - 1.0) * 400.0 / (8.0 * gamma * math.pi**2) * math.e
    assert temp == pytest.approx(want, rel=1e-13)
    assert temp < 10.0  # deficit, not excess
    assert want == pytest.approx(6.0655, abs=5e-4)


def test_vortex_advection_is_periodic():
    rng = np.random.default_rng(0)
    x = 10.0 * rng.random((40, 2)) - 5.0
    base = vortex_primitives(x, t=0.0)
    after_period = vortex_primitives(x, t=10.0)
    assert np.abs(after_period - base).max() < 1e-11


def test_vortex_3d_planar():
    x = np.array([[0.5, -0.25, 3.0]])
    prim = vortex_primitives(x)[0]
    assert prim.shape == (5,)
    assert prim[3] == 0.0
    flat = vortex_primitives(x[:, :2])[0]
    assert prim[0] == flat[0]
    assert prim[-1] == flat[-1]


def test_sinusoidal_profile():
    x = np.array([[0.0, 0.0], [2.5, 2.5]])
    prim = sinusoidal_primitives(x)
    assert prim[0, 0] == 2.0
    assert prim[0, -1] == pytest.approx(2.0**1.4, rel=1e-15)
    assert prim[1, 0] == pytest.approx(3.0, rel=1e-12)
    assert np.all(prim[:, 1:3] == 0.0)
    rng = np.random.default_rng(1)
    grid = 10.0 * rng.random((200, 2)) - 5.0
    rho = sinusoidal_primitives(grid)[:, 0]
    assert rho.min() >= 1.0 and rho.max() <= 3.0


def test_random_field_reproducible():
    x = np.zeros((64, 3))
    a = random_primitives(x, seed=7)
    b = random_primitives(x, seed=7)
    c = random_primitives(x, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a[:, 0].min() >= 1.0 and a[:, 0].max() <= 2.0
    assert a[:, -1].min() >= 1.0 and a[:, -1].max() <= 2.0
    assert np.abs(a[:, 1:4]).max() <= 1.0


def test_free_stream_is_constant():
    x = np.random.default_rng(2).random((10, 3))
    prim = free_stream_primitives(x)
    assert np.ptp(prim, axis=0).max() == 0.0
    assert tuple(prim[0]) == (1.0, 0.1, -0.2, 0.3, 1.0)


# --- resolved runs -----------------------------------------------------------


def test_build_run_maps_curved_meshes_isoparametrically():
    # the harness picks no mapping degree of its own: curved runs of both
    # families map at the solution degree
    for d in ("2", "3"):
        curved_gauss = build_run(
            make_config(None, {"mesh": "curved", "family": "gauss", "d": d,
                               "volume_scheme": "gauss_fluxdiff", "elements": "2"})
        )
        assert curved_gauss.setup.mesh.geo_degree is None
    curved_lgl = build_run(
        make_config(None, {"mesh": "curved", "elements": "2"})
    )
    assert curved_lgl.setup.mesh.geo_degree is None
    cartesian = build_run(make_config(None, {"elements": "2"}))
    assert cartesian.setup.mesh.is_cartesian


def test_build_run_validates_scheme_against_family():
    config = make_config(None, {"volume_scheme": "gauss_fluxdiff", "elements": "2"})
    with pytest.raises(ConfigurationError, match="volume_scheme"):
        build_run(config)


def test_run_simulation_free_stream(gas):
    config = make_config(
        None, {"ic": "free_stream", "elements": "2", "p": "2", "n_steps": "5"}
    )
    result = run_simulation(config)
    assert result.steps == 5
    assert result.rhs_evals == 25
    assert result.conservation_drift < 1e-14
    assert np.abs(result.error_l2).max() < 1e-12


def test_run_simulation_t_end():
    config = make_config(
        None,
        {"ic": "free_stream", "elements": "2", "p": "2", "n_steps": "none",
         "t_end": "0.5"},
    )
    result = run_simulation(config)
    assert result.t == 0.5


def test_monitor_entropy_conservation_sampling():
    config = make_config(None, {"elements": "4", "n_steps": "12"})
    rows, worst = monitor_entropy_conservation(config, n_samples=4)
    assert [r[0] for r in rows] == [0, 3, 6, 9]
    assert all(r[2] == rows[0][2] for r in rows)  # fixed-step mode
    assert worst < 1e-12
    bad = make_config(None, {"n_steps": "none", "t_end": "1.0"})
    with pytest.raises(ConfigurationError, match="n_steps"):
        monitor_entropy_conservation(bad)


def test_convergence_study_free_stream():
    config = make_config(
        None,
        {"ic": "free_stream", "p": "2", "n_steps": "none", "t_end": "0.2"},
    )
    rows = convergence_study(config, levels=(2, 3))
    assert [r[0] for r in rows] == [2, 3]
    assert rows[0][1] == 5.0
    assert rows[0][4] is None and rows[0][5] is None
    assert max(r[2] for r in rows) < 1e-11
    # roundoff-level errors carry no meaningful rate; just require the
    # slot to be well formed
    assert rows[1][4] is None or math.isfinite(rows[1][4])


def test_convergence_study_needs_exact_solution():
    config = make_config(None, {"ic": "random", "n_steps": "none", "t_end": "1.0"})
    with pytest.raises(ConfigurationError, match="ic"):
        convergence_study(config)


# --- timing ------------------------------------------------------------------


def test_measure_pid_accounting():
    config = make_config(None, {"elements": "2", "p": "2", "n_steps": "1"})
    result = measure_pid(config, n_rhs=12, repeats=2)
    assert result.n_rhs == 15  # rounded up to whole steps
    assert result.dofs == 9 * 4
    assert result.mean_pid > 0.0
    assert result.std_pid >= 0.0


def test_measure_pid_timer_guard(monkeypatch):
    import fluxdg.harness as harness

    class FakeInfo:
        resolution = 10.0

    monkeypatch.setattr(harness.time, "get_clock_info", lambda name: FakeInfo())
    config = make_config(None, {"elements": "2", "p": "1", "n_steps": "1"})
    with pytest.raises(BenchmarkError, match="increase n_rhs"):
        measure_pid(config, n_rhs=5, repeats=1)


def test_microbench_forms_and_gate():
    assert MICROBENCH_FORMS == ("cartesian", "directional")
    for form in MICROBENCH_FORMS:
        ns_mean, ns_std, n = microbench_flux(
            "central", form, 2, n_samples=300, repeats=2
        )
        assert ns_mean > 0.0
        assert n == 300
    for form in ("vectorized", "rotated_otf", "rotated_pre"):
        with pytest.raises(ConfigurationError, match="form"):
            microbench_flux("central", form, 2)
    with pytest.raises(ConfigurationError) as info:
        microbench_flux("bogus", "cartesian", 2)
    assert str(info.value) == (
        "kind: expected one of shima, ranocha, central, llf, hll, got 'bogus'"
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", SURFACE_KINDS)
def test_microbench_lanes_pass_gate_for_every_kind(kind, d):
    # both lane forms of every pair kind, the dissipative ones included,
    # agree with the scalar directional kernel on every lane
    for form in MICROBENCH_FORMS:
        ns_mean, _, n = microbench_flux(kind, form, d, n_samples=200, repeats=1)
        assert ns_mean > 0.0
        assert n == 200


@pytest.mark.parametrize("form", ["cartesian", "directional"])
def test_microbench_gate_rejects_wrong_lanes(monkeypatch, form):
    # a lane kernel off by 1e-10 relative is caught before the clock starts
    import fluxdg.batched as batched
    import fluxdg.harness as harness

    exact = batched.flux_lanes

    def skewed(*args):
        return [(1.0 + 1e-10) * f for f in exact(*args)]

    def no_clock():
        raise AssertionError("timed before the gate passed")

    monkeypatch.setattr(batched, "flux_lanes", skewed)
    monkeypatch.setattr(harness.time, "perf_counter", no_clock)
    with pytest.raises(BenchmarkError, match="correctness gate failed"):
        microbench_flux("ranocha", form, 3, n_samples=300, repeats=2)


# --- reporting ---------------------------------------------------------------


def test_write_csv_blank_for_none(tmp_path):
    path = write_csv(
        str(tmp_path / "t.csv"), ("a", "b"), [(1, None), (2.5, "x")]
    )
    with open(path) as fh:
        assert fh.read().splitlines() == ["a,b", "1,", "2.5,x"]


def test_output_path_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FLUXDG_OUTPUT_DIR", str(tmp_path / "reports"))
    path = output_path("pid.csv")
    assert path == str(tmp_path / "reports" / "pid.csv")
    assert os.path.isdir(tmp_path / "reports")
    absolute = str(tmp_path / "elsewhere.csv")
    assert output_path("pid.csv", absolute) == absolute
    monkeypatch.delenv("FLUXDG_OUTPUT_DIR")
    assert output_path("pid.csv") == "pid.csv"


def test_pid_row_layout():
    # rows of the default (batched) kernel carry the bare scheme; only the
    # scalar oracle is marked
    from fluxdg.harness import PidResult

    result = PidResult(1e-6, 1e-8, 500, 256)
    cases = (({}, "fluxdiff"), ({"kernel": "reference"}, "fluxdiff:reference"))
    for overrides, scheme in cases:
        config = make_config(None, dict(overrides, elements="4"))
        row = pid_row(config, result)
        assert row == (2, 3, "cartesian:4", scheme, "ranocha", 500, 256, 1e-6, 1e-8)


# --- command line ------------------------------------------------------------


def test_cli_run_and_exit_codes(tmp_path, capsys):
    code = main(
        ["run", "-o", "elements=2", "-o", "p=2", "-o", "n_steps=2",
         "-o", "ic=free_stream"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "completed 2 steps" in out
    assert "conservation drift" in out

    assert main(["run", "-o", "elements=0"]) == 2
    assert "elements" in capsys.readouterr().err
    assert main(["run", "-o", "volume_scheme=gauss_surface_correction"]) == 2
    assert "volume_scheme" in capsys.readouterr().err
    for overrides, key in (
        (["family=lobatto"], "family:"),
        (["mesh=curved", "geo_degree=2"], "geo_degree"),
        (["n_steps=-3"], "n_steps:"),
        (["n_steps=0"], "n_steps:"),
        (["n_steps=none", "t_end=-1"], "t_end:"),
        (["n_steps=none", "t_end=nan"], "t_end:"),
        (["n_steps=none", "t_end=inf"], "t_end:"),
        (["ic=random", "seed=-1"], "seed:"),
        (["cfl=inf"], "cfl:"),
        (["gamma=inf"], "gamma:"),
        (["epsilon=nan"], "epsilon:"),
        (["epsilon=inf"], "epsilon:"),
        (["mesh=curved", "amplitude=inf"], "amplitude:"),
        (["volume_scheme=overintegration", "overint_degree=40"], "overint_degree:"),
        (["volume_flux=llf"], "volume_flux:"),
    ):
        argv = ["run"] + [arg for pair in overrides for arg in ("-o", pair)]
        assert main(argv) == 2, overrides
        assert key in capsys.readouterr().err, overrides
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert main(["run", "-o", "badpair"]) == 2


@pytest.mark.parametrize(
    "command,key",
    [
        ("pid --n-rhs 0", "n_rhs"),
        ("pid --repeats 0", "repeats"),
        ("microbench --n-samples 0", "n_samples"),
        ("microbench --repeats -1", "repeats"),
        ("microbench --kinds bogus", "kind"),
    ],
)
def test_cli_rejects_non_positive_timing_counts(
    tmp_path, monkeypatch, capsys, command, key
):
    # a count below one or an unknown flux kind is a configuration error
    # naming its key, raised before any timing, so no CSV is written
    monkeypatch.setenv("FLUXDG_OUTPUT_DIR", str(tmp_path))
    assert main(command.split()) == 2
    assert key + ":" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_convergence_rejects_malformed_levels(capsys):
    # a non-positive level is named as the option the user gave, not as
    # the elements key that convergence_study sets per level
    for levels in ("4,x", "0,4", "-2"):
        assert main(["convergence", "--levels", levels]) == 2, levels
        err = capsys.readouterr().err
        assert "levels:" in err, levels
        assert "elements" not in err, levels


def test_cli_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("elements = 2\np = 2\nn_steps = 4\nic = free_stream\n")
    code = main(["run", "--config", str(cfg), "-o", "n_steps=1"])
    assert code == 0
    assert "completed 1 steps" in capsys.readouterr().out


def test_cli_microbench_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FLUXDG_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["microbench", "--kinds", "central", "--forms", "cartesian",
         "--n-samples", "300", "--repeats", "2"]
    )
    assert code == 0
    lines = (tmp_path / "microbench.csv").read_text().splitlines()
    assert lines[0] == "flux,form,d,ns_mean,ns_std,n_samples"
    assert lines[1].startswith("central,cartesian,3,")


def test_cli_entropy_csv(tmp_path, monkeypatch, capsys):
    # the CSV samples the reported run: its 25 RHS evaluations plus one per
    # sampled state, with each row's dt the step taken from that state
    import fluxdg.harness as harness

    calls = []
    real_rhs = harness.rhs

    def counting_rhs(*args):
        calls.append(1)
        return real_rhs(*args)

    monkeypatch.setattr(harness, "rhs", counting_rhs)
    monkeypatch.setenv("FLUXDG_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["run", "-o", "elements=2", "-o", "p=2", "-o", "n_steps=5",
         "--entropy-csv", "entropy.csv"]
    )
    assert code == 0
    assert "completed 5 steps" in capsys.readouterr().out
    assert len(calls) == 25 + 5
    with open(tmp_path / "entropy.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["step", "t", "dt", "dSdt_normalized"]
    steps, t, dt, _ = (list(map(float, col)) for col in zip(*lines[1:]))
    assert steps == [0, 1, 2, 3, 4]
    assert all(b == a + h for a, h, b in zip(t, dt, t[1:]))
    assert len(set(dt)) > 1  # CFL steps, not one fixed step

    assert main(["run", "-o", "n_steps=none", "-o", "t_end=0.1",
                 "--entropy-csv", "entropy.csv"]) == 2
    assert "n_steps" in capsys.readouterr().err
    assert len(calls) == 30


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
