"""End-to-end runs of the command line and of ``run_inversion`` on a 21x21 grid."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from proxfwi import cli, inversion, model, optim
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
        for values in (m, batches[-1].m_final):
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
    ],
)
def test_invert_bad_config_exits_with_data_error(tmp_path, models, capsys, keys, message):
    if keys.get("data") == "DATA":  # the recorded data file, so no forward run checks
        keys = keys | {"data": models[2]}
    config = _write_config(tmp_path, models, **keys)
    assert cli.main(["invert", "--config", str(config)]) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["forward", "--model", "m.grd", "--out", "d.dat", "--freqs", "3,abc"], "--freqs"),
        (["forward", "--model", "m.grd", "--out", "d.dat", "--freqs", "3", "--f-peak", "0"],
         "--f-peak"),
        (["forward", "--model", "m.grd", "--out", "d.dat", "--freqs", "3",
          "--sources", "1:a", "--receivers", "2:2"], "--sources"),
        (["denoise", "--in", "a.grd", "--out", "b.grd", "--scale", "-1"], "--scale"),
        (["rosenbrock", "--start", "1,abc"], "--start"),
        (["forward", "--model", "m.grd", "--out", "d.dat", "--freqs", "3", "--seed", "-1",
          "--snr-db", "20"], "--seed"),
        (["forward", "--model", "m.grd", "--out", "d.dat", "--freqs", "3", "--snr-db", "nan"],
         "--snr-db"),
        (["forward", "--model", "m.grd", "--out", "d.dat", "--freqs", "3", "--snr-db=-inf"],
         "--snr-db"),
    ],
)
def test_bad_flag_value_is_a_usage_error_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--sources", "0:10"], ["--receivers", "20:5;20:15"]])
def test_forward_half_geometry_exits_with_data_error(tmp_path, models, flags, capsys):
    true, _, _ = models
    argv = ["forward", "--model", str(true), "--freqs", FREQS, "--out", str(tmp_path / "d.dat")]
    assert cli.main(argv + flags) == cli.EXIT_DATA
    assert "sources and receivers must be given together" in capsys.readouterr().err


def test_run_inversion_takes_explicit_sources_and_receivers(tmp_path, models, monkeypatch):
    drive, seen = inversion.multiscale_drive, []

    def recording(m0, observed, acq, *args, **kwargs):
        seen.append((acq, observed))
        return drive(m0, observed, acq, *args, **kwargs)

    monkeypatch.setattr(inversion, "multiscale_drive", recording)
    inversion.run_inversion(_run_config(tmp_path, models, max_outer=0, sources="0:10;0:4",
                                        receivers="20:5;20:15;10:20"))
    ((acq, observed),) = seen
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
    drive, seen = inversion.multiscale_drive, []

    def recording(m0, observed, acq, *args, **kwargs):
        seen.append((acq, observed))
        return drive(m0, observed, acq, *args, **kwargs)

    monkeypatch.setattr(inversion, "multiscale_drive", recording)
    cfg = inversion.parse_run_config(_write_config(
        tmp_path, (tmp_path / "true.grd", tmp_path / "init.grd", None), method="fwi",
        max_outer=0, snr_db="none"))
    inversion.run_inversion(cfg)
    ((acq, observed),) = seen
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


def test_run_inversion_model_error_target_stops(tmp_path, models):
    summary = inversion.run_inversion(
        _run_config(tmp_path, models, method="fwi", algorithm="nista",
                    stopping="model-error:1e9")
    )
    assert summary.stop_target == 1e9
    assert summary.batches[-1].status == "target-reached"
    assert summary.batches[-1].n_outer == 0
    status = (tmp_path / "out" / "summary.txt").read_text().split()[-1]
    assert status == "status=target-reached"
    summary = inversion.run_inversion(
        _run_config(tmp_path, models, method="fwi", algorithm="nista",
                    stopping="model-error:0")
    )
    assert summary.batches[-1].status == "max-iter"


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
    assert cli.main(["rosenbrock", "--max-outer", "-3"]) == cli.EXIT_DATA
    assert "max_outer must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("max_outer", ["2", "200"])
def test_rosenbrock_lbfgs_memory_is_the_library_default(max_outer, monkeypatch, capsys):
    # the toy keeps the library's memory at any step count
    built = []

    class Recording(optim.LbfgsHessian):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(optim, "LbfgsHessian", Recording)
    cli.main(["rosenbrock", "--hessian", "lbfgs", "--max-outer", max_outer])
    assert [h.memory for h in built] == [10]


@pytest.mark.parametrize("hessian", ["exact", "lbfgs", "identity"])
def test_rosenbrock_nista_reaches_the_minimizer(hessian, capsys):
    # with its inner loop stopped by the forcing rule, NISTA still reaches the
    # minimizer in every Hessian mode
    assert cli.main(["rosenbrock", "--method", "nista", "--hessian", hessian]) == cli.EXIT_OK
    distance = float(capsys.readouterr().out.split("distance=")[1])
    assert distance < 1e-6


@pytest.mark.parametrize("start", [["--start", "-0.5,0.4"], ["--start=-0.5,0.4"]])
def test_rosenbrock_start_takes_a_negative_pair_after_a_space_or_equals(start, capsys):
    assert cli.main(["rosenbrock", *start, "--max-outer", "0"]) == cli.EXIT_NUMERIC
    assert "converged=(-0.50000000, 0.40000000) in 0 iterations" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["fwi", "irwri"])
def test_data_residual_stopping_takes_a_step(tmp_path, models, method):
    # the penalty fields fit the data by construction, so the stopping rule
    # must read the reduced-space residual or irwri stops before its first step
    cfg = _run_config(tmp_path, models, method=method, algorithm="nista", c_fixed=1e-9,
                      stopping="data-residual:auto")
    summary = inversion.run_inversion(cfg)
    assert summary.stop_target == pytest.approx(1.01 * summary.noise_norm, rel=1e-15)
    assert summary.batches[-1].n_outer >= 1


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
