"""Self-tests of the benchmark: span arithmetic, wrapper hygiene, exact-repeat
counts, output checks and the BENCHMARK.json definition.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from proxfwi import denoise, inversion, linsys, optim, wave  # noqa: E402


def _span(name, start, end, parent=-1, run_id="r", **attrs):
    return spans.Span(name, start, end, parent, run_id, attrs)


def test_covered_merges_overlaps_and_nesting():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert spans.covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_is_duration_minus_child_coverage():
    trace = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("a.inner", 1.5, 2.5, parent=1),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: union of children is [1, 5]
        _span("c", 8.0, 9.0, parent=0),
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 1.0, 1.0, 3.0, 1.0])


def test_layer_stats_counts_and_nesting():
    trace = [
        _span("solve", 0.0, 10.0),
        _span("optim.line_search", 1.0, 5.0, parent=0, trials=3, accepted=True),
        _span("linsys.factorize", 1.5, 2.0, parent=1, fill_nnz=7),
        _span("linsys.factorize", 6.0, 7.0, parent=0, fill_nnz=5),
        _span("optim.line_search", 7.0, 8.0, parent=0, trials=1, accepted=False),
        _span("denoise.apply", 8.0, 8.5, parent=0, run_id="other"),
    ]
    stats = spans.layer_stats(trace, ("r",))
    assert stats["optim.line_search.calls"] == 2
    assert stats["optim.line_search.trials"] == 4
    assert stats["optim.line_search.accept_ratio"] == 0.5
    assert stats["optim.line_search.factorizations"] == 1
    assert stats["optim.line_search.busy_s"] == pytest.approx(5.0)
    assert stats["optim.self_s"] == pytest.approx(3.5 + 1.0)
    assert stats["linsys.factorize.calls"] == 2
    assert stats["linsys.factorize.fill_nnz"] == 12
    assert stats["denoise.apply.calls"] == 0  # belongs to another run id


def test_wrappers_are_removed_after_a_traced_phase():
    points = [(owner, attr) for owner, attr, *_ in spans.wrap_points()]
    before = [vars(owner)[attr] for owner, attr in points]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert linsys.factorize is not before[1]
    assert [vars(owner)[attr] for owner, attr in points] == before
    # each wrap point is a name some caller really looks up
    assert {id(o) for o, _ in points} == {
        id(wave), id(linsys), id(linsys.Factorization), id(optim), id(inversion),
        id(denoise.Denoiser), id(inversion.FwiOracle), id(inversion.WriOracle),
    }


def _small(name):
    w = workloads.WORKLOADS[name]
    if w.kind == "modeling":
        return dataclasses.replace(w, n=31, n_sources=10)
    return dataclasses.replace(w, n=21, h=50.0, freqs=(3.0, 4.0, 5.0), n_sources=3,
                               max_outer=2, inner_iters=3)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly_on_one_seed(name):
    w = _small(name)
    args = argparse.Namespace(seed=3, seconds=1e-3, trace=1)
    first, _, outcomes, _ = run.measure_traced(w, args)
    second, *_ = run.measure_traced(w, args)
    assert outcomes.failed == 0
    assert {k: first[k] for k in run.COUNT_KEYS} == {k: second[k] for k in run.COUNT_KEYS}
    assert first["linsys.factorize.calls"] > 0


def test_reciprocity_check_catches_a_broken_permutation():
    w = _small("model-161")
    inputs = workloads.setup(w, seed=5)
    data = workloads.solve(w, inputs, seed=5, index=0)
    assert workloads.check(w, inputs, data) == []
    # the models are mirror-symmetric, so reversing the sources would go unseen
    shifted = dataclasses.replace(data, blocks=tuple(np.roll(b, 1, axis=1) for b in data.blocks))
    assert len(workloads.check(w, inputs, shifted)) == len(data.frequencies)


def test_inversion_check_rejects_non_finite_models():
    w = _small("wri-nista-tv-41")
    inputs = workloads.setup(w, seed=5)
    m_final, batches = workloads.solve(w, inputs, seed=5, index=0)
    assert workloads.check(w, inputs, (m_final, batches)) == []
    broken = m_final.copy()
    broken[0, 0] = float("nan")
    assert workloads.check(w, inputs, (broken, batches))


def test_benchmark_json_matches_the_definition():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.definition()
    assert {e["name"] for e in on_disk["per_layer"]} == set(
        spans.layer_stats([], ()).keys()
    ) | {"trace.overhead_pct", "peak_rss_mb"} | set(run.INVERSION_RESULTS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fwi-lbfgs-81", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
