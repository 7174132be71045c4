"""Workload definitions, their set-up and solve phases, and output checks.

Every workload drives the public ``proxfwi`` API the way
``inversion.run_inversion`` does, but writes no files.  The set-up phase
builds the inputs (true model, geometry, observed data, penalty weight); the
solve phase is what a user waits for: an inversion, or one forward-modeling
request.  All inputs are drawn from the seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from proxfwi import inversion, model, optim, wave
from proxfwi.denoise import make_denoiser

V_START = 2000.0  # homogeneous starting model, m/s
TRUE_SHAPE, V_INCLUSION = "all-four", 2500.0  # the inversions' true model
SNR_DB = 20.0  # data noise of the inversions; the seed draws its realization
PML_CELLS, F_PEAK = 10, 10.0
# fixed box for ``unphysical_pct``; it is a reporting band, not a constraint
V_BOX = (1500.0, 4500.0)
KNOWN_STATUS = ("max-iter", "target-reached", "step-floor", "stagnated")
RECIPROCITY_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "inversion" | "modeling"
    why: str
    n: int  # interior grid is n x n
    h: float  # grid spacing, m
    freqs: tuple
    n_sources: int
    # inversion settings
    method: str = ""
    algorithm: str = ""
    hessian: str = ""
    denoiser: str = ""
    lam: float = 0.0
    max_outer: int = 0
    inner_iters: int = 100

    def describe(self) -> dict:
        """Every setting the workload runs with, for the result's environment record."""
        shared = {"v_start": V_START, "true_shape": TRUE_SHAPE, "v_inclusion": V_INCLUSION,
                  "snr_db": SNR_DB, "pml_cells": PML_CELLS, "f_peak": F_PEAK, "v_box": V_BOX}
        return asdict(self) | shared


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fwi-lbfgs-81", "inversion",
            "reduced-space FWI: LU(A) and the line search dominate, denoiser nearly free",
            n=81, h=25.0, freqs=(3.0, 5.0, 7.0), n_sources=5,
            method="fwi", algorithm="nadmm", hessian="lbfgs", denoiser="l2sq",
            lam=1.0, max_outer=10,
        ),
        Workload(
            "wri-nadmm-81", "inversion",
            "penalty WRI + NADMM: LU of the normal matrix dominates, TV about 10 %",
            n=81, h=25.0, freqs=(3.0, 5.0, 7.0), n_sources=5,
            method="irwri", algorithm="nadmm", hessian="diagonal", denoiser="tv2d",
            lam=1e-9, max_outer=10,
        ),
        Workload(
            "wri-nista-tv-41", "inversion",
            "penalty WRI + NISTA: 100 TV prox calls per outer step dominate, LU small",
            n=41, h=50.0, freqs=(3.0, 4.0, 5.0), n_sources=5,
            method="irwri", algorithm="nista", hessian="diagonal", denoiser="tv2d",
            lam=1e-9, max_outer=5, inner_iters=100,
        ),
        Workload(
            "model-161", "modeling",
            "forward-modeling stream at 161^2: multi-RHS triangular solves lead",
            n=161, h=12.5, freqs=(4.0, 6.0, 8.0, 10.0), n_sources=80,
        ),
    )
}


# ---------------------------------------------------------------------------
# inversions


@dataclass
class InversionInputs:
    true_m: np.ndarray  # squared slowness
    init: model.ModelGrid
    acq: model.AcquisitionGeometry
    observed: model.FreqData
    mu: float | None


def setup_inversion(w: Workload, seed: int) -> InversionInputs:
    true = model.make_inclusion_model(TRUE_SHAPE, w.n, w.n, w.h, w.h, V_START, V_INCLUSION)
    init = model.ModelGrid.from_values(np.full((w.n, w.n), V_START), w.h, w.h)
    acq = model.surface_boundary_geometry(w.n, w.n, w.freqs, w.n_sources)
    clean = wave.forward(true, acq, F_PEAK, PML_CELLS, pml_velocity=V_START)
    observed = wave.add_noise(clean, SNR_DB, seed)
    mu = None
    if w.method == "irwri":
        mu = inversion.default_penalty_mu(init, w.freqs[0], pml_cells=PML_CELLS)
    return InversionInputs(model.as_slowness_squared(true).values, init, acq, observed, mu)


def solve_inversion(w: Workload, inputs: InversionInputs, seed: int):
    """One full inversion, as ``run_inversion`` would run it; returns (m, batches)."""
    m0 = model.as_slowness_squared(inputs.init).values
    denoiser = make_denoiser(w.denoiser, ref=m0)
    config = optim.OptConfig(
        lam=w.lam, max_outer=w.max_outer, inner_iters=w.inner_iters,
        hessian=w.hessian, seed=seed,
    )
    return inversion.multiscale_drive(
        m0, inputs.observed, inputs.acq, w.method, w.algorithm, denoiser, w.lam,
        inputs.mu, [[w.freqs]], config, inputs.init, F_PEAK, PML_CELLS,
    )


def check_inversion(m_final, batches) -> list[str]:
    """Output checks; each returned string is one failed check."""
    problems = []
    if not np.all(np.isfinite(m_final)):
        problems.append("final model has non-finite values")
    for b in batches:
        if b.status not in KNOWN_STATUS:
            problems.append(f"unknown status {b.status!r}")
        if not all(np.all(np.isfinite(row)) for row in b.history):
            problems.append("history has non-finite values")
        if b.n_outer < 1:
            problems.append("no outer iteration ran")
    return problems


def outer_iterations(batches) -> int:
    return sum(b.n_outer for b in batches)


def inversion_quality(inputs: InversionInputs, m_final) -> dict:
    """rmse_pct, data_misfit_rel and unphysical_pct of a final model."""
    m0 = model.as_slowness_squared(inputs.init).values
    oracle = inversion.FwiOracle(inputs.acq, inputs.observed, inputs.init, F_PEAK, PML_CELLS)
    misfit_rel = oracle.data_residual_norm(m_final) / oracle.data_residual_norm(m0)
    lo, hi = 1.0 / V_BOX[1] ** 2, 1.0 / V_BOX[0] ** 2
    outside = (m_final < lo) | (m_final > hi)  # m <= 0 lies below lo
    return {
        "rmse_pct": inversion.rmse(m_final, inputs.true_m),
        "data_misfit_rel": float(misfit_rel),
        "unphysical_pct": 100.0 * float(np.mean(outside)),
    }


# ---------------------------------------------------------------------------
# forward-modeling requests


@dataclass
class ModelingInputs:
    acq: model.AcquisitionGeometry
    models: list  # one velocity grid per request, cycled
    source_rows: np.ndarray  # receiver index of each source node


def setup_modeling(w: Workload, seed: int) -> ModelingInputs:
    """Request models with seeded inclusion shape and contrast, and the geometry.

    The seed orders a list holding each shape twice, so the stream's shapes
    vary with the seed while set-up does the same work for every seed.
    Receivers are the boundary layout plus every source node, so each request's
    data can be checked for source-receiver reciprocity.
    """
    rng = np.random.default_rng(seed)
    shapes = rng.permutation(2 * model.INCLUSION_SHAPES)
    models = [
        model.make_inclusion_model(str(shape), w.n, w.n, w.h, w.h, V_START,
                                   V_START * float(rng.uniform(0.85, 1.25)))
        for shape in shapes
    ]
    base = model.surface_boundary_geometry(w.n, w.n, w.freqs, w.n_sources)
    receivers = tuple(sorted(set(base.receivers) | set(base.sources)))
    acq = model.AcquisitionGeometry(base.sources, receivers, w.freqs)
    index = {rx: i for i, rx in enumerate(receivers)}
    source_rows = np.array([index[s] for s in acq.sources])
    return ModelingInputs(acq, models, source_rows)


def solve_modeling(w: Workload, inputs: ModelingInputs, request: int) -> model.FreqData:
    grid = inputs.models[request % len(inputs.models)]
    return wave.forward(grid, inputs.acq, F_PEAK, PML_CELLS)


def check_reciprocity(data: model.FreqData, source_rows: np.ndarray) -> list[str]:
    """A is complex-symmetric, so the source-to-source data matrix is symmetric."""
    problems = []
    for f, block in zip(data.frequencies, data.blocks):
        r = block[source_rows, :]
        scale = np.linalg.norm(r)
        if not np.all(np.isfinite(r)) or scale == 0.0:
            problems.append(f"{f:g} Hz: non-finite or zero data")
            continue
        err = np.linalg.norm(r - r.T) / scale
        if not err <= RECIPROCITY_TOL:
            problems.append(f"{f:g} Hz: reciprocity error {err:.3e}")
    return problems


# ---------------------------------------------------------------------------
# dispatch on the workload kind


def setup(w: Workload, seed: int):
    return setup_inversion(w, seed) if w.kind == "inversion" else setup_modeling(w, seed)


def solve(w: Workload, inputs, seed: int, index: int):
    """The timed operation: one inversion, or modeling request ``index`` of the stream."""
    if w.kind == "inversion":
        return solve_inversion(w, inputs, seed)
    return solve_modeling(w, inputs, index)


def check(w: Workload, inputs, output) -> list[str]:
    if w.kind == "inversion":
        return check_inversion(*output)
    return check_reciprocity(output, inputs.source_rows)
