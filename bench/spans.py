"""Outside-in span trace of the proxfwi layers.

The benchmark wraps each layer's public entry point, at the name the caller
looks it up by, only for the duration of a traced phase; untraced phases run
the unmodified functions.  Spans live in memory and are written out once,
when the run ends.  Each span records its name, start, end, parent and run
id, plus the counts read from the wrapped call's result.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same trace, -1 at the root
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, perf_counter(), float("nan"), parent, self.run)
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str, run: str):
        """Root span for one benchmark phase; its children share ``run``."""
        self.run = run
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    def wrap(self, name: str, fn, record=None):
        """``fn`` recording one span per call; ``record(attrs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(span.attrs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


# ---------------------------------------------------------------------------
# wrap points: (owner, attribute, span name, count recorder)


def wrap_points():
    """Where each layer entry point is looked up, and the span it records."""
    from proxfwi import denoise, inversion, linsys, optim, wave

    def fill(attrs, result):
        attrs["fill_nnz"] = int(result._lu.nnz)

    def rhs_cols(attrs, result):
        attrs["rhs_cols"] = result.shape[1] if result.ndim == 2 else 1

    def iters(attrs, result):
        attrs["iters"] = int(result.iterations)

    def trials(attrs, result):
        attrs["trials"] = int(result.trials)
        attrs["accepted"] = bool(result.accepted)

    def outer(attrs, result):
        attrs["outer_iters"] = int(result.n_outer)

    return [
        (wave, "assemble_padded", "wave.assemble", None),
        (linsys, "factorize", "linsys.factorize", fill),
        (linsys.Factorization, "solve", "linsys.solve", rhs_cols),
        (linsys, "spectral_norm", "linsys.spectral_norm", iters),
        (optim, "spectral_norm", "linsys.spectral_norm", iters),
        (inversion, "proximal_newton_solve", "optim.solve", outer),
        (optim, "line_search", "optim.line_search", trials),
        (optim, "_hessian_ops", "optim.hessian_ops", None),
        (denoise.Denoiser, "apply", "denoise.apply", None),
        (inversion.FwiOracle, "value", "inversion.fwi_value", None),
        (inversion.FwiOracle, "gradient", "inversion.fwi_gradient", None),
        (inversion.WriOracle, "update_wavefields", "inversion.wri_update", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the body of the ``with`` and restore the originals."""
    saved = []
    try:
        for owner, attr, name, record in wrap_points():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, record))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic over a span list


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.duration - covered(c) for s, c in zip(spans, children)]


def has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    parent = spans[i].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_stats(spans: list[Span], runs) -> dict:
    """Per-layer counts and busy times over the spans of the given run ids."""
    selfs = self_times(spans)
    mine = [i for i, s in enumerate(spans) if s.run in runs]

    def pick(name):
        return [i for i in mine if spans[i].name == name]

    def busy(name):
        return sum(spans[i].duration for i in pick(name) if not has_ancestor(spans, i, name))

    def total(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in pick(name))

    ls = pick("optim.line_search")
    denoise = [spans[i].duration for i in pick("denoise.apply")]
    return {
        "wave.assemble.calls": len(pick("wave.assemble")),
        "wave.assemble.busy_s": busy("wave.assemble"),
        "linsys.factorize.calls": len(pick("linsys.factorize")),
        "linsys.factorize.busy_s": busy("linsys.factorize"),
        "linsys.factorize.fill_nnz": total("linsys.factorize", "fill_nnz"),
        "linsys.solve.calls": len(pick("linsys.solve")),
        "linsys.solve.rhs_cols": total("linsys.solve", "rhs_cols"),
        "linsys.solve.busy_s": busy("linsys.solve"),
        "linsys.spectral_norm.iters": total("linsys.spectral_norm", "iters"),
        "linsys.spectral_norm.busy_s": busy("linsys.spectral_norm"),
        "inversion.fwi_value.calls": len(pick("inversion.fwi_value")),
        "inversion.fwi_value.busy_s": busy("inversion.fwi_value"),
        "inversion.fwi_gradient.busy_s": busy("inversion.fwi_gradient"),
        "inversion.wri_update.calls": len(pick("inversion.wri_update")),
        "inversion.wri_update.busy_s": busy("inversion.wri_update"),
        "inversion.wri_update.self_s": sum(selfs[i] for i in pick("inversion.wri_update")),
        "optim.outer_iters": total("optim.solve", "outer_iters"),
        "optim.line_search.calls": len(ls),
        "optim.line_search.trials": total("optim.line_search", "trials"),
        "optim.line_search.accept_ratio": (
            sum(spans[i].attrs["accepted"] for i in ls) / len(ls) if ls else 0.0
        ),
        "optim.line_search.factorizations": sum(
            1 for i in pick("linsys.factorize") if has_ancestor(spans, i, "optim.line_search")
        ),
        "optim.line_search.busy_s": busy("optim.line_search"),
        "optim.hessian_ops.busy_s": busy("optim.hessian_ops"),
        "optim.self_s": sum(selfs[i] for i in mine if spans[i].name.startswith("optim.")),
        "denoise.apply.calls": len(denoise),
        "denoise.apply.busy_s": sum(denoise),
        "denoise.apply.p50_ms": 1e3 * statistics.median(denoise) if denoise else 0.0,
    }

