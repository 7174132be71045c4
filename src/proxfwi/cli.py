"""Command-line surface: model generation, modeling, inversion, denoising,
metrics, previews, and the analytic toy solver.

Exit codes: 0 success, 2 usage error (a bad flag value too), 3 data/format error,
4 numerical failure.  Every command that writes files also writes a ``<name>.manifest``
(or ``manifest.txt`` for run directories) recording the command, seed,
version, and content hashes, so fixed-seed runs can be verified bit-for-bit.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, inversion, model, optim, rosenbrock, wave
from .denoise import Denoiser, make_denoiser
from .errors import (
    ConfigError,
    FormatError,
    GeometryError,
    NumericalError,
    ProxfwiError,
)
from .model import read_grid, write_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# manifests


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command, seed, inputs, outputs, wall_clock):
    lines = [
        f"command={command}",
        f"version={__version__}",
        f"seed={seed}",
    ]
    for p in inputs:
        lines.append(f"input:{p}={_sha256(p)}")
    for p in outputs:
        lines.append(f"output:{p}={_sha256(p)}")
    lines.append(f"wall_clock_s={wall_clock:.3f}")
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _argv_repr(args) -> str:
    return " ".join(shlex.quote(a) for a in args)


# ---------------------------------------------------------------------------
# commands


def cmd_model_gen(args, argv):
    t0 = time.monotonic()
    grid = model.make_inclusion_model(
        args.shape, args.nz, args.nx, args.dz, args.dx,
        args.v_background, args.v_inclusion, size=args.size,
    )
    write_grid(grid, args.out)
    write_manifest(f"{args.out}.manifest", _argv_repr(argv), 0, [], [args.out],
                   time.monotonic() - t0)
    print(f"wrote {args.out}: {grid.nz}x{grid.nx} {args.shape} inclusion")
    return EXIT_OK


def cmd_forward(args, argv):
    t0 = time.monotonic()
    grid = read_grid(args.model)
    acq = model.survey_geometry(grid.nz, grid.nx, args.freqs, args.sources, args.receivers,
                                args.n_sources, args.source_depth, args.receiver_spacing,
                                args.free_surface)
    try:
        data = wave.forward(grid, acq, args.f_peak, args.pml_cells, args.free_surface)
        data = wave.add_noise(data, args.snr_db, args.seed)
    except ValueError as exc:  # a wavelet zero at a frequency, or no finite noise level
        raise ConfigError(str(exc)) from None
    model.write_freq_data(data, args.out)
    write_manifest(f"{args.out}.manifest", _argv_repr(argv), args.seed, [args.model],
                   [args.out], time.monotonic() - t0)
    print(f"wrote {args.out}: {len(data.frequencies)} frequencies, "
          f"{data.n_receivers} receivers x {data.n_sources} sources")
    return EXIT_OK


def cmd_invert(args, argv):
    t0 = time.monotonic()
    cfg = inversion.parse_run_config(args.config)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    summary = inversion.run_inversion(cfg)
    out_dir = Path(cfg.out_dir)
    inputs = [args.config, cfg.model_init]
    if cfg.model_true:
        inputs.append(cfg.model_true)
    if cfg.data:
        inputs.append(cfg.data)
    outputs = sorted(str(p) for p in out_dir.iterdir() if p.name != "manifest.txt")
    write_manifest(out_dir / "manifest.txt", _argv_repr(argv), cfg.opt.seed, inputs,
                   outputs, time.monotonic() - t0)
    last = summary.batches[-1]
    line = (f"{cfg.method}/{cfg.algorithm}: {len(summary.batches)} batch(es), "
            f"last status {last.status} after {last.n_outer} outer iterations")
    if summary.final_rmse is not None:
        line += f", final RMSE {summary.final_rmse:.3f}%"
    print(line)
    return EXIT_OK


def cmd_denoise(args, argv):
    t0 = time.monotonic()
    grid = read_grid(args.input)
    ref = read_grid(args.ref).values if args.ref else grid.values
    denoiser = make_denoiser(args.denoiser, ref=ref, dz=grid.dz, dx=grid.dx,
                             kind=grid.kind)
    out_values = denoiser.apply(grid.values, args.scale)
    write_grid(grid.with_values(out_values), args.out)
    inputs = [args.input] + ([args.ref] if args.ref else [])
    write_manifest(f"{args.out}.manifest", _argv_repr(argv), 0, inputs, [args.out],
                   time.monotonic() - t0)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_metrics(args, argv):
    printed = False
    if args.est and args.true:
        est, true = read_grid(args.est), read_grid(args.true)
        model.check_same("--est", f"{est.kind} {est.layout()}",
                         "--true", f"{true.kind} {true.layout()}")
        print(f"rmse_percent={inversion.rmse(est, true):.10g}")
        printed = True
    if args.signal and args.noisy:
        signal = model.read_freq_data(args.signal)
        noisy = model.read_freq_data(args.noisy)
        model.check_same("--signal", signal.layout(), "--noisy", noisy.layout())
        sig = np.concatenate([b.ravel() for b in signal.blocks])
        noise = np.concatenate(
            [n.ravel() - s.ravel() for n, s in zip(noisy.blocks, signal.blocks)]
        )
        try:
            print(f"snr_db={inversion.snr_db(sig, noise):.10g}")
        except ValueError as exc:  # --noisy equals --signal, or the signal is all zero
            raise ConfigError(f"no SNR of --noisy against --signal: {exc}") from None
        printed = True
    if not printed:
        raise ConfigError("metrics needs --est/--true grids or --signal/--noisy data")
    return EXIT_OK


def cmd_preview(args, argv):
    t0 = time.monotonic()
    grid = read_grid(args.input)
    vmin = args.vmin if args.vmin is not None else float(grid.values.min())
    vmax = args.vmax if args.vmax is not None else float(grid.values.max())
    if vmin >= vmax and (args.vmin, args.vmax) != (None, None):
        raise ConfigError(f"vmin {vmin} must be below vmax {vmax}")
    # a constant grid under its own range is one gray level, 0
    t = np.clip((grid.values - vmin) / ((vmax - vmin) or 1.0), 0.0, 1.0)
    pixels = np.floor(t * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{grid.nx} {grid.nz}\n255\n".encode("ascii")
    with open(args.out, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())
    write_manifest(f"{args.out}.manifest", _argv_repr(argv), 0, [args.input],
                   [args.out], time.monotonic() - t0)
    print(f"wrote {args.out} ({grid.nx}x{grid.nz} PGM)")
    return EXIT_OK


def cmd_rosenbrock(args, argv):
    """Solve the valley plus lam * l1; exit 0 within 1e-3 of its analytic minimizer.

    ``--hessian exact`` is the ``hvp`` mode on the oracle's exact Hessian
    products, which it shifts to PSD where the valley is indefinite.
    """
    hessian = {"exact": "hvp", "lbfgs": "lbfgs", "identity": "identity"}[args.hessian]
    config = optim.OptConfig(
        lam=args.lam, hessian=hessian, max_outer=args.max_outer, inner_iters=args.inner_iters,
    )
    oracle = rosenbrock.RosenbrockOracle()
    t0 = time.monotonic()
    result = optim.proximal_newton_solve(oracle, Denoiser("l1"), config, args.start, args.method)
    elapsed = time.monotonic() - t0
    target = rosenbrock.rosenbrock_l1_argmin(args.lam)
    dist = float(np.linalg.norm(result.m - target))
    if args.out:
        optim.history_to_csv(result.history, args.out)
        write_manifest(f"{args.out}.manifest", _argv_repr(argv), 0, [], [args.out], elapsed)
    print(f"method={args.method} hessian={args.hessian} lambda={args.lam:g}")
    print(f"converged=({result.m[0]:.8f}, {result.m[1]:.8f}) in {result.n_outer} iterations")
    print(f"analytic=({target[0]:.8f}, {target[1]:.8f}) distance={dist:.3e}")
    return EXIT_OK if dist < 1e-3 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# wiring


def _checked(parse):
    """argparse type that runs ``parse`` and reports the reason of its ValueError.

    argparse shows a ValueError as ``invalid <function name> value``; an
    ArgumentTypeError it shows by its message, after ``argument --<flag>: ``.
    """

    def checked(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return checked


def _number(low: float, strict: bool = False):
    """argparse type of a finite number at least (``strict``: above) ``low``."""
    return _checked(lambda text: inversion._in_range(float(text), low, strict))


def _integer(low: int):
    """argparse type of an int at least ``low``."""
    return _checked(lambda text: inversion._in_range(int(text), low))


def _point_pair(text: str) -> np.ndarray:
    x, y = text.split(",")
    return np.array([inversion._in_range(float(v), -np.inf) for v in (x, y)])


def _join_point_values(argv: list) -> list:
    """``--start X`` as ``--start=X``: argparse takes ``-1.2,1.0`` for an option."""
    joined = []
    for token in argv:
        if joined and joined[-1] == "--start":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxfwi",
        description="Proximal Newton solvers with plug-in denoiser regularization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model-gen", help="generate an inclusion benchmark model")
    p.add_argument("--shape", choices=model.INCLUSION_SHAPES, default="all-four")
    p.add_argument("--nz", type=_integer(model.MIN_CELLS), default=81)
    p.add_argument("--nx", type=_integer(model.MIN_CELLS), default=81)
    p.add_argument("--dz", type=_number(0.0, strict=True), default=25.0)
    p.add_argument("--dx", type=_number(0.0, strict=True), default=25.0)
    p.add_argument("--v-background", type=_number(0.0, strict=True), default=2000.0)
    p.add_argument("--v-inclusion", type=_number(0.0, strict=True), default=2500.0)
    p.add_argument("--size", type=_number(0.0, strict=True), default=None,
                   help="primary dimension in meters")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_model_gen)

    p = sub.add_parser("forward", help="simulate frequency-domain receiver data")
    p.add_argument("--model", required=True)
    p.add_argument("--freqs", type=_checked(inversion._frequencies), required=True,
                   help="Hz, as 3,4.5")
    p.add_argument("--out", required=True)
    p.add_argument("--f-peak", type=_number(0.0, strict=True), default=10.0)
    p.add_argument("--pml-cells", type=_checked(lambda text: wave.check_pml_cells(int(text))),
                   default=10)
    p.add_argument("--free-surface", action="store_true")
    p.add_argument("--snr-db", type=_checked(inversion._snr_db), default=None)
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument("--n-sources", type=_integer(1), default=5)
    p.add_argument("--source-depth", type=_integer(0), default=None,
                   help="source row (default 0, or 1 under --free-surface)")
    p.add_argument("--receiver-spacing", type=_integer(1), default=2)
    p.add_argument("--sources", type=_checked(inversion._parse_points), default="",
                   help="iz:ix;iz:ix list")
    p.add_argument("--receivers", type=_checked(inversion._parse_points), default="")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", help="run an inversion from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("denoise", help="apply a denoiser to a grid file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--denoiser", default="identity")
    p.add_argument("--scale", type=_number(0.0), default=1.0)
    p.add_argument("--ref", default="", help="reference grid for the damping denoiser")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("metrics", help="model RMSE and data SNR")
    p.add_argument("--est", default="")
    p.add_argument("--true", default="")
    p.add_argument("--signal", default="")
    p.add_argument("--noisy", default="")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("preview", help="render a grid as an 8-bit binary PGM")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vmin", type=_number(-np.inf), default=None)
    p.add_argument("--vmax", type=_number(-np.inf), default=None)
    p.set_defaults(func=cmd_preview)

    p = sub.add_parser("rosenbrock", help="solve the analytic 2D toy problem")
    p.add_argument("--lambda", dest="lam", type=_number(0.0), default=1.5)
    p.add_argument("--method", choices=optim.SOLVERS, default="nadmm")
    p.add_argument("--hessian", choices=("exact", "lbfgs", "identity"), default="exact",
                   help="exact: hvp mode on the exact Hessian, shifted where it is indefinite")
    p.add_argument("--start", type=_checked(_point_pair), default="-1.2,1.0")
    p.add_argument("--max-outer", type=_integer(0), default=200)
    p.add_argument("--inner-iters", type=_integer(1), default=100,
                   help="cap on NISTA's inner sweeps per outer step")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_rosenbrock)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_join_point_values(argv))
    try:
        return args.func(args, [parser.prog] + argv)
    except (FormatError, GeometryError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, ProxfwiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
