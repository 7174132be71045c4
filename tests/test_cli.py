"""End-to-end runs of the command line and of ``run_inversion`` on a 21x21 grid."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proxfwi import cli, inversion, model, optim, wave
from proxfwi.denoise import make_denoiser

FREQS = "3,4"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(path) -> dict:
    entries = dict(line.split("=", 1) for line in path.read_text().splitlines())
    assert entries["version"] and "wall_clock_s" in entries
    return entries


def _assert_manifest_hashes(manifest, outputs):
    entries = _manifest(manifest)
    for out in outputs:
        assert entries[f"output:{out}"] == _sha256(Path(out))


@pytest.fixture
def models(tmp_path):
    """(true, init, data) written by ``model-gen`` and ``forward``."""
    true, init, data = tmp_path / "true.grd", tmp_path / "init.grd", tmp_path / "obs.dat"
    common = ["--nz", "21", "--nx", "21"]
    assert cli.main(["model-gen", "--shape", "square", *common, "--out", str(true)]) == 0
    assert cli.main(["model-gen", "--shape", "square", *common, "--v-inclusion", "2000",
                     "--out", str(init)]) == 0
    assert cli.main(["forward", "--model", str(true), "--freqs", FREQS, "--snr-db", "20",
                     "--seed", "1", "--out", str(data)]) == 0
    return true, init, data


def _write_config(tmp_path, models, name="run.cfg", **keys):
    true, init, _ = models
    settings = {"model_init": init, "model_true": true, "frequencies": FREQS,
                "max_outer": 2, "snr_db": 20, "seed": 1,
                "out_dir": tmp_path / "out"} | keys
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return path


def _run_config(tmp_path, models, **keys):
    return inversion.parse_run_config(_write_config(tmp_path, models, **keys))


def _record_drive(monkeypatch) -> list:
    """The positional arguments of each ``multiscale_drive`` call, which still runs."""
    drive, seen = inversion.multiscale_drive, []

    def recording(*args):
        seen.append(args)
        return drive(*args)

    monkeypatch.setattr(inversion, "multiscale_drive", recording)
    return seen


def test_model_gen_and_forward_write_outputs_and_manifests(models):
    true, init, data = models
    grid = model.read_grid(true)
    assert grid.values.shape == (21, 21)
    assert grid.values.max() == 2500.0 and grid.values.min() == 2000.0
    assert np.all(model.read_grid(init).values == 2000.0)
    observed = model.read_freq_data(data)
    assert observed.frequencies == (3.0, 4.0)
    for out in models:
        _assert_manifest_hashes(out.with_name(out.name + ".manifest"), [out])
    assert _manifest(data.with_name(data.name + ".manifest"))["seed"] == "1"


def test_model_gen_rejects_a_meaningless_size_naming_it(tmp_path, capsys):
    out = tmp_path / "m.grd"
    assert cli.main(["model-gen", "--size", "-100", "--out", str(out)]) == cli.EXIT_DATA
    assert "error: size must be finite and above 0, got -100.0" in capsys.readouterr().err
    assert not out.exists()


def test_invert_writes_run_directory(tmp_path, models, capsys):
    config = _write_config(tmp_path, models, method="fwi", algorithm="nista", c_fixed=1e-9)
    assert cli.main(["invert", "--config", str(config)]) == 0
    out = tmp_path / "out"
    outputs = sorted(p for p in out.iterdir() if p.name != "manifest.txt")
    assert [p.name for p in outputs] == [
        "batch_p0_b0.grd", "final.grd", "history_p0_b0.csv", "summary.txt"
    ]
    _assert_manifest_hashes(out / "manifest.txt", [str(p) for p in outputs])
    summary = dict(line.split("=") for line in (out / "summary.txt").read_text().split())
    assert summary["status"] == "max-iter" and summary["batches"] == "1"
    header, *lines = (out / "history_p0_b0.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [int(r["iter"]) for r in rows] == [1, 2]
    assert all(float(r["ck"]) == 1e-9 for r in rows)
    assert all(1 <= int(r["inner_sweeps"]) <= 100 for r in rows)
    assert "last status max-iter after 2 outer iterations" in capsys.readouterr().out
    assert model.read_grid(out / "final.grd").values.shape == (21, 21)


@pytest.mark.parametrize("bad_value", [0.0, np.nan])
def test_invert_diverged_run_exits_numeric_and_writes_no_grid(
    tmp_path, models, capsys, monkeypatch, bad_value
):
    drive = inversion.multiscale_drive

    def diverging(*args, **kwargs):
        m, batches = drive(*args, **kwargs)
        for values in (m, batches[-1].m):
            values[3, 4] = bad_value
        return m, batches

    monkeypatch.setattr(inversion, "multiscale_drive", diverging)
    config = _write_config(tmp_path, models, method="fwi", algorithm="nista", c_fixed=1e-9)
    assert cli.main(["invert", "--config", str(config)]) == cli.EXIT_NUMERIC
    assert "batch_p0_b0 model has 1 of 441 cells" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["history_p0_b0.csv"]


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"bogus_key": 1}, "unknown key 'bogus_key'"),
        ({"c_rule": "fixed"}, "unknown key 'c_rule'"),
        ({"method": "fwi", "hessian": "diagonal"}, "needs an oracle with hessian_diag"),
        ({"mu": "abc"}, "bad value for mu"),
        ({"mu": "nan"}, "bad value for mu"),
        ({"lambda": "nan"}, "lambda must be nonnegative and finite"),
        ({"stopping": "data-residual:abc"}, "bad value for stopping"),
        ({"stopping": "data-residual:-1"}, "bad value for stopping"),
        ({"stopping": "model-error:abc"}, "bad value for stopping"),
        ({"algorithm": "nista", "inner_iters": 0}, "inner_iters must be at least 1"),
        ({"f_peak": 0}, "bad value for f_peak"),
        ({"paths": 0}, "bad value for paths"),
        ({"warm_start": "true"}, "unknown key 'warm_start'"),
        ({"max_outer": -3}, "max_outer must be nonnegative"),
        ({"denoiser": "tv2d:weight=2"}, "unknown denoiser parameter 'weight'"),
        ({"denoiser": "nlm:h=0.05"}, "unknown denoiser parameter 'h'"),
        ({"sources": "0:10"}, "sources and receivers must be given together"),
        ({"receivers": "20:5;20:15"}, "sources and receivers must be given together"),
        ({"seed": -1}, "bad value for seed"),
        ({"seed": 1.5}, "bad value for seed"),
        ({"snr_db": "nan"}, "bad value for snr_db"),
        ({"data": "DATA", "method": "fwi", "pml_cells": 0}, "need at least 5 absorbing cells"),
        ({"data": "DATA", "method": "fwi", "pml_cells": 3}, "need at least 5 absorbing cells"),
        ({"data": "DATA", "method": "fwi", "pml_cells": -2}, "need at least 5 absorbing cells"),
        ({"snr_db": "-inf"}, "bad value for snr_db"),
        ({"stopping": "max_iter"}, "bad value for stopping: 'max_iter' is not one of"),
        ({"stopping": "max-iter:5"}, "bad value for stopping: max-iter takes no target"),
        ({"stopping": "model-error:1", "model_true": "", "data": "DATA"},
         "bad value for stopping: model-error needs model_true"),
        ({"stopping": "data-residual:auto", "snr_db": "none"},
         "bad value for stopping: data-residual:auto needs data synthesized"),
        ({"stopping": "data-residual", "data": "DATA"}, "bad value for stopping"),
        ({"model_true": ""}, "either data or model_true is required"),
        ({"method": "FWI"}, "bad value for method: 'FWI' is not one of fwi | irwri"),
        ({"algorithm": "admm"}, "bad value for algorithm: 'admm' is not one of nista | nadmm"),
        ({"hessian": "dense"}, "bad value for hessian: unknown hessian mode 'dense'"),
        ({"hessian": "diagonal", "method": "fwi"}, "bad value for hessian: hessian mode"),
        ({"hessian": "hvp"}, "bad value for hessian: hessian mode 'hvp' needs an oracle with hvp"),
        ({"lambda": -1}, "bad value for lambda: lambda must be nonnegative"),
        ({"max_outer": -2}, "bad value for max_outer: max_outer must be nonnegative"),
        ({"inner_iters": 0}, "bad value for inner_iters: inner_iters must be at least 1"),
        ({"c_fixed": 0}, "bad value for c_fixed: fixed step size must be positive"),
        ({"batches": "3 | 9", "frequencies": "3,5,7"}, "bad value for batches: (9.0,)"),
        ({"batches": "7,3", "frequencies": "3,5,7"}, "bad value for batches: (7.0, 3.0)"),
        ({"batches": "3 |"}, "bad value for batches: ()"),
        ({"free_surface": "ture"}, "bad value for free_surface: 'ture' is not one of"),
        ({"hessian": "exact-dense"}, "bad value for hessian: unknown hessian mode 'exact-dense'"),
        ({"n_sources": 0}, "bad value for n_sources: 0 is not finite and at least 1"),
        ({"receiver_spacing": 0}, "bad value for receiver_spacing: 0 is not finite and at least 1"),
        ({"pml_cells": 3}, "bad value for pml_cells: need at least 5 absorbing cells, got 3"),
        ({"denoiser": "tv3d"}, "bad value for denoiser: unknown denoiser kind 'tv3d'"),
        ({"denoiser": "nlm:patch=0"},
         "bad value for denoiser: denoiser parameter patch must be at least 1, got 0"),
        ({"denoiser": "l2sq:iters=3"}, "bad value for denoiser: denoiser parameter 'iters'"),
        ({"source_depth": 40}, "bad value for source_depth: source (40, 3) outside interior 21x21"),
        ({"sources": "0:30", "receivers": "20:5"},
         "bad value for sources: source (0, 30) outside interior 21x21"),
        ({"receivers": "20:5;21:5", "sources": "0:10"},
         "bad value for receivers: receiver (21, 5) outside interior 21x21"),
        ({"receivers": "20:5"}, "bad value for receivers: sources and receivers must be given"),
        ({"frequencies": "5,3"},
         "bad value for frequencies: (5.0, 3.0) is not strictly increasing"),
        ({"frequencies": "3,3"},
         "bad value for frequencies: (3.0, 3.0) is not strictly increasing"),
        ({"denoiser": "nlm:patch=15"},
         "bad value for denoiser: grid 21x21 smaller than the 31-wide patch window"),
        ({"source_depth": 0, "free_surface": "true"},
         "bad value for source_depth: source (0, 3) outside interior 21x21"),
    ],
)
def test_invert_bad_config_exits_with_data_error(tmp_path, models, capsys, monkeypatch, keys,
                                                 message):
    # every value a run file can hold is rejected before any data is synthesized
    def no_modeling(*args, **kwargs):
        raise AssertionError("modeled data before the run file was checked")

    monkeypatch.setattr(wave, "forward", no_modeling)
    if keys.get("data") == "DATA":  # the recorded data file, so no forward run checks
        keys = keys | {"data": models[2]}
    config = _write_config(tmp_path, models, **keys)
    assert cli.main(["invert", "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert message in err
    key = next(iter(keys))
    if "bad value for" in message:  # named with the line that set the key
        lineno = config.read_text().splitlines().index(f"{key} = {keys[key]}") + 1
        assert f"{config}:{lineno}: bad value for {key}: " in err


@pytest.mark.parametrize("text, value", [("TRUE", True), ("on", True), ("Yes", True),
                                         ("1", True), ("off", False), ("No", False),
                                         ("0", False), ("false", False)])
def test_free_surface_takes_the_documented_spellings_in_any_case(tmp_path, models, text, value):
    # any other word is a ConfigError (test_invert_bad_config_exits_with_data_error)
    assert _run_config(tmp_path, models, free_surface=text).free_surface is value



FORWARD = ["forward", "--model", "m.grd", "--out", "d.dat", "--freqs"]
BAD_FLAG_VALUES = [  # (argv, flag, the reason printed after "argument <flag>: ")
    (FORWARD + ["3,abc"], "--freqs", "could not convert string to float: 'abc'"),
    (FORWARD + ["3", "--f-peak", "0"], "--f-peak", "0.0 is not finite and above 0"),
    (FORWARD + ["3", "--sources", "1:a", "--receivers", "2:2"], "--sources",
     "invalid literal for int() with base 10: 'a'"),
    (["denoise", "--in", "a.grd", "--out", "b.grd", "--scale", "-1"], "--scale",
     "-1.0 is not finite and at least 0"),
    (["rosenbrock", "--start", "1,abc"], "--start", "could not convert string to float: 'abc'"),
    (FORWARD + ["3", "--seed", "-1", "--snr-db", "20"], "--seed", "-1 is not finite and at least 0"),
    (FORWARD + ["3", "--snr-db", "nan"], "--snr-db", "nan is not a number of dB or +inf"),
    (FORWARD + ["3", "--snr-db=-inf"], "--snr-db", "-inf is not a number of dB or +inf"),
    (FORWARD + ["3", "--pml-cells", "3"], "--pml-cells", "need at least 5 absorbing cells, got 3"),
    (FORWARD + ["3", "--n-sources", "0"], "--n-sources", "0 is not finite and at least 1"),
    (FORWARD + ["3", "--receiver-spacing", "0"], "--receiver-spacing",
     "0 is not finite and at least 1"),
    (["rosenbrock", "--lambda", "-1"], "--lambda", "-1.0 is not finite and at least 0"),
    (["rosenbrock", "--max-outer", "-1"], "--max-outer", "-1 is not finite and at least 0"),
    (["rosenbrock", "--inner-iters", "0"], "--inner-iters", "0 is not finite and at least 1"),
    (FORWARD + ["5,3"], "--freqs", "(5.0, 3.0) is not strictly increasing"),
    (["preview", "--in", "a.grd", "--out", "p.pgm", "--vmin", "nan"], "--vmin",
     "nan is not finite"),
    (["preview", "--in", "a.grd", "--out", "p.pgm", "--vmax", "inf"], "--vmax",
     "inf is not finite"),
]


@pytest.mark.parametrize("argv, flag, reason", BAD_FLAG_VALUES,
                         ids=[f"argv{i}-{row[1]}" for i, row in enumerate(BAD_FLAG_VALUES)])
def test_bad_flag_value_is_a_usage_error_naming_the_flag(argv, flag, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert f"argument {flag}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--sources", "0:10"], ["--receivers", "20:5;20:15"]])
def test_forward_half_geometry_exits_with_data_error(tmp_path, models, flags, capsys):
    true, _, _ = models
    argv = ["forward", "--model", str(true), "--freqs", FREQS, "--out", str(tmp_path / "d.dat")]
    assert cli.main(argv + flags) == cli.EXIT_DATA
    assert "sources and receivers must be given together" in capsys.readouterr().err


def test_forward_under_a_free_surface_keeps_the_default_layout_off_row_0(tmp_path, models,
                                                                       capsys):
    true, _, _ = models
    argv = ["forward", "--model", str(true), "--freqs", FREQS, "--free-surface",
            "--out", str(tmp_path / "d.dat")]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(argv + ["--source-depth", "0"]) == cli.EXIT_DATA  # an explicit row 0
    assert "source (0, 3) outside interior 21x21" in capsys.readouterr().err


def test_invert_under_a_free_surface_runs_on_the_default_layout(tmp_path, models, monkeypatch):
    seen = _record_drive(monkeypatch)
    config = _write_config(tmp_path, models, method="fwi", algorithm="nista", c_fixed=1e-9,
                           max_outer=1, free_surface="true")
    assert cli.main(["invert", "--config", str(config)]) == cli.EXIT_OK
    ((_, observed, acq, *_),) = seen
    assert {iz for iz, _ in acq.sources} == {1}
    assert min(iz for iz, _ in acq.receivers) == 1
    assert (observed.n_receivers, observed.n_sources) == (acq.n_receivers, 5)


def test_run_inversion_takes_explicit_sources_and_receivers(tmp_path, models, monkeypatch):
    seen = _record_drive(monkeypatch)
    inversion.run_inversion(_run_config(tmp_path, models, max_outer=0, sources="0:10;0:4",
                                        receivers="20:5;20:15;10:20"))
    ((_, observed, acq, *_),) = seen
    assert acq.sources == ((0, 10), (0, 4))
    assert acq.receivers == ((20, 5), (20, 15), (10, 20))
    assert (observed.n_receivers, observed.n_sources) == (3, 2)


def test_invert_rejects_a_true_model_on_another_grid(tmp_path, models, capsys):
    true = tmp_path / "true25.grd"
    assert cli.main(["model-gen", "--shape", "square", "--nz", "25", "--nx", "25",
                     "--out", str(true)]) == 0
    capsys.readouterr()
    config = _write_config(tmp_path, models, model_true=true, method="fwi", max_outer=0)
    assert cli.main(["invert", "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "model_true is 25x25" in err and "model_init is 21x21" in err
    assert not (tmp_path / "out").exists()


def test_synthetic_data_and_the_oracles_share_one_pml_profile(tmp_path, monkeypatch):
    # the initial model's interior is faster than its edges, so its top speed
    # is no edge speed; the true model adds an inclusion and keeps those edges
    values = np.full((21, 21), 2000.0)
    values[1:-1, 1:-1] = 2300.0
    init = model.ModelGrid.from_values(values, 25.0, 25.0)
    inclusion = values.copy()
    inclusion[8:13, 8:13] = 2600.0
    true = init.with_values(inclusion)
    for name, grid in (("init.grd", init), ("true.grd", true)):
        model.write_grid(grid, tmp_path / name)
    seen = _record_drive(monkeypatch)
    cfg = inversion.parse_run_config(_write_config(
        tmp_path, (tmp_path / "true.grd", tmp_path / "init.grd", None), method="fwi",
        max_outer=0, snr_db="none"))
    inversion.run_inversion(cfg)
    ((_, observed, acq, *_),) = seen
    oracle = inversion.FwiOracle(acq, observed, init, cfg.f_peak, cfg.pml_cells)
    data_sq = sum(float(np.sum(np.abs(b) ** 2)) for b in observed.blocks)
    assert oracle.value(model.as_slowness_squared(true).values) <= 1e-20 * data_sq


@pytest.mark.parametrize("method", ["fwi", "irwri"])
def test_run_inversion_fixed_step_reaches_every_history_row(tmp_path, models, method):
    cfg = _run_config(tmp_path, models, method=method, algorithm="nista", c_fixed=1e-9)
    summary = inversion.run_inversion(cfg)
    (batch,) = summary.batches
    assert batch.n_outer == 2 and batch.status == "max-iter"
    assert [row.iteration for row in batch.history] == [1, 2]
    assert [row.ck for row in batch.history] == [1e-9, 1e-9]
    assert summary.final_rmse < 10.0


def test_run_inversion_model_error_target_stops(tmp_path, models, monkeypatch):
    seen = _record_drive(monkeypatch)
    summary = inversion.run_inversion(
        _run_config(tmp_path, models, method="fwi", algorithm="nista",
                    stopping="model-error:1e9")
    )
    assert seen[0][9].stop_target == 1e9  # multiscale_drive's OptConfig
    assert summary.batches[-1].status == "target-reached"
    assert summary.batches[-1].n_outer == 0
    status = (tmp_path / "out" / "summary.txt").read_text().split()[-1]
    assert status == "status=target-reached"
    summary = inversion.run_inversion(
        _run_config(tmp_path, models, method="fwi", algorithm="nista",
                    stopping="model-error:0")
    )
    assert summary.batches[-1].status == "max-iter"


@pytest.mark.parametrize("method, keys, hessian", [
    ("fwi", {}, "lbfgs"), ("irwri", {}, "diagonal"), ("fwi", {"hessian": "identity"}, "identity"),
])
def test_run_inversion_runs_the_parsed_solver_settings(tmp_path, models, monkeypatch, method,
                                                       keys, hessian):
    seen = []

    def drive(*args):
        seen.append(args[9])  # multiscale_drive's OptConfig
        return args[0], [optim.SolveResult(args[0].copy(), [], "max-iter")]

    monkeypatch.setattr(inversion, "multiscale_drive", drive)
    cfg = _run_config(tmp_path, models, method=method, mu=0.01, max_outer=7, inner_iters=9,
                      c_fixed=2e-9, seed=4, stopping="model-error:1e9",
                      **{"lambda": 0.5} | keys)
    inversion.run_inversion(cfg)
    (config,) = seen
    assert config.stop_target == 1e9 and config.stop_metric is not None
    assert config == replace(cfg.opt, stop_target=1e9, stop_metric=config.stop_metric)
    assert (config.lam, config.max_outer, config.inner_iters, config.c_fixed, config.seed,
            config.hessian) == (0.5, 7, 9, 2e-9, 4, hessian)


def test_rosenbrock_command(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert cli.main(["rosenbrock", "--out", str(out)]) == cli.EXIT_OK
    assert "distance=" in capsys.readouterr().out
    assert out.read_text().startswith(
        "iter,objective,misfit,reg_value,alpha,step_norm,ck,inner_sweeps\n"
    )
    _assert_manifest_hashes(out.with_name(out.name + ".manifest"), [str(out)])
    # two outer steps stop far from the analytic minimizer
    assert cli.main(["rosenbrock", "--max-outer", "2"]) == cli.EXIT_NUMERIC
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # a bad flag value is a usage error
        cli.main(["rosenbrock", "--max-outer", "-3"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "argument --max-outer: " in capsys.readouterr().err


@pytest.mark.parametrize("max_outer", ["2", "200"])
def test_rosenbrock_lbfgs_memory_is_the_library_default(max_outer, monkeypatch, capsys):
    # the toy keeps the library's memory, optim.LBFGS_MEMORY, at any step count
    built = []

    class Recording(optim.LbfgsHessian):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(optim, "LbfgsHessian", Recording)
    monkeypatch.setattr(optim, "LBFGS_MEMORY", 3)
    cli.main(["rosenbrock", "--hessian", "lbfgs", "--max-outer", max_outer])
    (hess,) = built
    assert len(hess._s) == min(int(max_outer), 3)


@pytest.mark.parametrize("hessian", ["exact", "lbfgs", "identity"])
def test_rosenbrock_nista_reaches_the_minimizer(hessian, capsys):
    # with its inner loop stopped by the forcing rule, NISTA still reaches the
    # minimizer in every Hessian mode
    assert cli.main(["rosenbrock", "--method", "nista", "--hessian", hessian]) == cli.EXIT_OK
    distance = float(capsys.readouterr().out.split("distance=")[1])
    assert distance < 1e-6


@pytest.mark.parametrize("start", ["0,1", "0.5,2"])
def test_rosenbrock_exact_nista_reaches_the_minimizer_from_indefinite_starts(start, capsys):
    # the valley's Hessian is indefinite at both starts, so the exact mode's
    # products must be shifted to PSD there, or NISTA ends about 1 and 2 away
    argv = ["rosenbrock", "--method", "nista", "--hessian", "exact", f"--start={start}"]
    assert cli.main(argv) == cli.EXIT_OK
    distance = float(capsys.readouterr().out.split("distance=")[1])
    assert distance < 1e-3


@pytest.mark.parametrize("start", [["--start", "-0.5,0.4"], ["--start=-0.5,0.4"]])
def test_rosenbrock_start_takes_a_negative_pair_after_a_space_or_equals(start, capsys):
    assert cli.main(["rosenbrock", *start, "--max-outer", "0"]) == cli.EXIT_NUMERIC
    assert "converged=(-0.50000000, 0.40000000) in 0 iterations" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["fwi", "irwri"])
def test_data_residual_stopping_takes_a_step(tmp_path, models, method, monkeypatch):
    # the penalty fields fit the data by construction, so the stopping rule
    # must read the reduced-space residual or irwri stops before its first step
    add_noise, clean = wave.add_noise, []
    monkeypatch.setattr(wave, "add_noise", lambda data, *args: clean.append(data)
                        or add_noise(data, *args))
    seen = _record_drive(monkeypatch)
    cfg = _run_config(tmp_path, models, method=method, algorithm="nista", c_fixed=1e-9,
                      stopping="data-residual:auto")
    summary = inversion.run_inversion(cfg)
    # auto is 1.01 times the noise norm, which the SNR of 20 dB sets to a tenth of the data's
    config = seen[0][9]  # multiscale_drive's OptConfig
    assert config.stop_target == pytest.approx(1.01 * 0.1 * clean[0].norm(), rel=1e-12)
    assert summary.batches[-1].n_outer >= 1


def test_invert_runs_every_batch_of_every_path_from_the_last_model(tmp_path, models,
                                                                    monkeypatch):
    solve, runs = inversion.proximal_newton_solve, []

    def recording(oracle, denoiser, config, m0, method):
        result = solve(oracle, denoiser, config, m0, method)
        runs.append((oracle.survey.acq.frequencies, m0.copy(), result.m.copy()))
        return result

    monkeypatch.setattr(inversion, "proximal_newton_solve", recording)
    # fwi: irwri with NADMM's default step leaves cells at m <= 0 on the 3 Hz batch alone
    config = _write_config(tmp_path, models, method="fwi", batches="3 | 4", paths=2,
                           max_outer=1)
    assert cli.main(["invert", "--config", str(config)]) == cli.EXIT_OK
    out = tmp_path / "out"
    tags = [f"p{p}_b{b}" for p in range(2) for b in range(2)]
    assert all((out / f"history_{tag}.csv").is_file() for tag in tags)
    assert sorted(p.name for p in out.glob("batch_p*_b*.grd")) == [f"batch_{t}.grd" for t in tags]
    summary = dict(line.split("=") for line in (out / "summary.txt").read_text().split())
    assert summary["batches"] == "4"
    assert [freqs for freqs, _, _ in runs] == [(3.0,), (4.0,), (3.0,), (4.0,)]
    init = model.as_slowness_squared(model.read_grid(models[1])).values
    starts = [m0 for _, m0, _ in runs]
    assert np.array_equal(starts[0], init)
    assert all(np.array_equal(start, prev) for start, (_, _, prev) in zip(starts[1:], runs))
    assert not np.array_equal(runs[-1][2], init)


# ---------------------------------------------------------------------------
# denoise, metrics and preview


@pytest.mark.parametrize(
    "spec, scale, with_ref",
    [("tv2d:iters=50", 30.0, False), ("l2sq", 0.5, True), ("nlm:search=2", 1e4, False)],
)
def test_denoise_command_matches_the_in_process_denoiser(tmp_path, models, spec, scale,
                                                         with_ref):
    true, init, _ = models
    out = tmp_path / "den.grd"
    argv = ["denoise", "--in", str(true), "--out", str(out), "--denoiser", spec,
            "--scale", str(scale)] + (["--ref", str(init)] if with_ref else [])
    assert cli.main(argv) == cli.EXIT_OK
    grid = model.read_grid(true)
    ref = model.read_grid(init).values if with_ref else grid.values
    expected = make_denoiser(spec, ref=ref).apply(grid.values, scale)
    assert not np.array_equal(expected, grid.values)
    written = model.read_grid(out)
    assert np.array_equal(written.values, expected)
    assert (written.dz, written.dx, written.kind) == (grid.dz, grid.dx, grid.kind)
    manifest = out.with_name(out.name + ".manifest")
    _assert_manifest_hashes(manifest, [str(out)])
    inputs = [true] + ([init] if with_ref else [])
    entries = _manifest(manifest)
    assert [k for k in entries if k.startswith("input:")] == [f"input:{p}" for p in inputs]
    assert all(entries[f"input:{p}"] == _sha256(p) for p in inputs)


@pytest.mark.parametrize("spec", ["nlm:patch=0", "tv2d:iters=-5"])
def test_denoise_command_rejects_a_spec_that_does_nothing_or_crashes(tmp_path, models, capsys,
                                                                    spec):
    out = tmp_path / "den.grd"
    argv = ["denoise", "--in", str(models[0]), "--out", str(out), "--denoiser", spec]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "error: denoiser parameter" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_command_prints_rmse_and_snr(tmp_path, models, capsys):
    true, init, noisy = models
    assert cli.main(["metrics", "--est", str(init), "--true", str(true)]) == cli.EXIT_OK
    expected = inversion.rmse(model.read_grid(init), model.read_grid(true))
    assert capsys.readouterr().out == f"rmse_percent={expected:.10g}\n"
    clean = tmp_path / "clean.dat"
    assert cli.main(["forward", "--model", str(true), "--freqs", FREQS, "--out", str(clean)]) == 0
    capsys.readouterr()
    assert cli.main(["metrics", "--signal", str(clean), "--noisy", str(noisy)]) == cli.EXIT_OK
    key, value = capsys.readouterr().out.strip().split("=")
    assert key == "snr_db" and abs(float(value) - 20.0) <= 1e-9


def test_metrics_command_without_inputs_exits_with_data_error(capsys):
    assert cli.main(["metrics"]) == cli.EXIT_DATA
    assert "metrics needs" in capsys.readouterr().err


def test_preview_command_writes_a_full_range_pgm(tmp_path, models):
    true, _, _ = models
    out = tmp_path / "true.pgm"
    assert cli.main(["preview", "--in", str(true), "--out", str(out)]) == cli.EXIT_OK
    raw = out.read_bytes()
    header = b"P5\n21 21\n255\n"
    assert raw.startswith(header) and len(raw) == len(header) + 441
    pixels = np.frombuffer(raw[len(header):], dtype=np.uint8)
    assert pixels.min() == 0 and pixels.max() == 255
    _assert_manifest_hashes(out.with_name(out.name + ".manifest"), [str(out)])


def test_preview_command_rejects_an_empty_value_range(tmp_path, models, capsys):
    true, _, _ = models
    argv = ["preview", "--in", str(true), "--out", str(tmp_path / "p.pgm"),
            "--vmin", "5", "--vmax", "5"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "must be below vmax" in capsys.readouterr().err
