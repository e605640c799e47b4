"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import spans
from gladssn import problems, ssn

SPEC = json.loads((Path(bench.__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())

# Same solver configs as the real workloads on instances small enough for a
# smoke run; the nmf-matfree one stays above DENSE_DIM_MAX (dimension 1510).
TINY = {
    "nmf-dense-lazy": lambda s: problems.make_nmf(s, d=8, n=6, r=2),
    "nmf-matfree": lambda s: problems.make_nmf(s, d=150, n=1, r=10),
    "svm": lambda s: problems.make_svm(s, n=5, ell=60),
    "huber-l1": lambda s: bench.huber_l1(s, m=60, n=12),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    for name, make in TINY.items():
        monkeypatch.setitem(bench.WORKLOADS, name,
                            dataclasses.replace(bench.WORKLOADS[name], make=make,
                                                nominal_s=0.01))


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(tiny, capsys, name, trace):
    bench.main(["--workload", name, "--seed", "1", "--seconds", "0.03",
                "--trace", str(trace)])
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_matfree_smoke_goes_through_minres(tiny, capsys):
    bench.main(["--workload", "nmf-matfree", "--seconds", "0.03", "--trace", "1"])
    metrics = _last_json(capsys)["metrics"]
    assert metrics["linalg.minres.calls"]["value"] > 0
    assert metrics["linalg.minres.iters"]["value"] > metrics["linalg.minres.calls"]["value"]
    assert metrics["linalg.cholesky.calls"]["value"] == 0


def _attributes():
    return {(owner, attr): vars(owner)[attr] for owner, attr in spans.PATCH_TARGETS}


def test_traced_run_restores_every_wrapper(tiny, capsys):
    before = _attributes()
    bench.main(["--workload", "nmf-dense-lazy", "--seconds", "0.03", "--trace", "1"])
    assert _last_json(capsys)["metrics"]["linalg.cholesky.calls"]["value"] > 0
    after = _attributes()
    assert all(after[key] is fn for key, fn in before.items())


def test_wrappers_are_restored_when_the_traced_block_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert all(fn is not before[key] for key, fn in _attributes().items())
            raise RuntimeError("boom")
    assert all(fn is before[key] for key, fn in _attributes().items())


def _fields(problem):
    return vars(problem.instance)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_seed_changes_the_instances_and_nothing_else(name):
    workload = bench.WORKLOADS[name]
    seeds_a = bench.batch_seeds(workload, 1, 20.0)
    seeds_b = bench.batch_seeds(workload, 2, 20.0)
    assert len(seeds_a) == len(seeds_b) and seeds_a != seeds_b
    a, again, b = workload.make(1), workload.make(1), workload.make(2)
    assert type(a.psi) is type(b.psi) and a.dim == b.dim and a.name == b.name
    changed = []
    for key, va in _fields(a).items():
        vb = _fields(b)[key]
        assert np.array_equal(va, _fields(again)[key])
        if isinstance(va, np.ndarray):
            assert va.shape == vb.shape
            changed.append(not np.array_equal(va, vb))
        elif key != "seed":
            assert va == vb, key
    assert any(changed)


def test_digest_ignores_wall_time_only():
    result = ssn.solve(problems.make_quadratic(1, n=6), ssn.SolverConfig())
    base = bench.digest(result.trace)
    retimed = [dataclasses.replace(r, wall_ns=r.wall_ns + 7) for r in result.trace]
    assert bench.digest(retimed) == base
    moved = [dataclasses.replace(result.trace[0], F_val=result.trace[0].F_val * (1 + 1e-15))]
    assert bench.digest(moved + result.trace[1:]) != base
    assert bench.final_transition_violations(result) == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "svm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
