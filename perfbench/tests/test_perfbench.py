"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests

They check that traced counts repeat exactly, that a planted wrong
verdict trips the correctness gate, that the launcher refuses to run
without the package source or under a non-default term bound, and that
BENCHMARK.json names the metrics the benchmark reports.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coneflat import flatten  # noqa: E402

# (workload, case indices): small enough for a test, covering every case kind
SMALL = {"identities": [0, 1], "certify": list(range(8)), "xi": [0, 1, 14, 15]}


def _launch(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=170)


def _traced_counts(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path))
    wl.setup()
    with tracing.Tracer(extra_modules=[workloads]) as tracer:
        records = run.run_cases(wl, SMALL[name], tracer=tracer)
    assert all(o.status == "ok" for o, _ in records), records
    metrics = tracer.layer_metrics()
    return {k: metrics[k] for k in tracing.DETERMINISTIC if k in metrics}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, "7", tmp_path)
    second = _traced_counts(name, "7", tmp_path)
    assert first == second
    assert any(v for v in first.values())


def test_traced_counts_repeat_across_processes():
    """Two launcher runs with different hash seeds give the same counts."""
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = _launch("--workload", "certify", "--seed", "3", "--seconds",
                       "1", "--trace", "1", env=env)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        results.append({k: metrics[k]["value"] for k in tracing.DETERMINISTIC})
    assert results[0] == results[1]


def test_tracer_restores_every_binding():
    from coneflat import cone, coframe
    from coneflat.funcfield import MultiPoly
    before = (cone.tangent_dual_frame, coframe.tangent_dual_frame,
              MultiPoly.__mul__, MultiPoly.__rmul__, workloads.adapted_cone)
    with tracing.Tracer(extra_modules=[workloads]):
        assert cone.tangent_dual_frame is coframe.tangent_dual_frame
        assert cone.tangent_dual_frame is not before[0]
        assert MultiPoly.__rmul__ is MultiPoly.__mul__ is not before[2]
        assert workloads.adapted_cone is not before[4]
    after = (cone.tangent_dual_frame, coframe.tangent_dual_frame,
             MultiPoly.__mul__, MultiPoly.__rmul__, workloads.adapted_cone)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.span_name.extend([1, 2, 2])
    tracer.span_parent.extend([-1, 0, 0])
    tracer.span_start.extend([0.0, 1.0, 3.0])
    tracer.span_end.extend([10.0, 2.0, 6.0])
    tracer.names += ["outer", "inner"]
    assert tracer.span_totals()["outer"] == (1, pytest.approx(6.0))
    assert tracer.span_totals()["inner"] == (2, pytest.approx(4.0))


def test_planted_wrong_verdict_fails_the_run(monkeypatch, capsys):
    real = flatten.certify

    def lying_certify(*args, **kwargs):
        cert = real(*args, **kwargs)
        if cert.status == "rejected":
            cert.status = "flat"
        return cert

    monkeypatch.setattr(flatten, "certify", lying_certify)
    code = run.main(["--workload", "certify", "--seed", "1", "--seconds",
                     "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False


def test_planted_identity_failure_is_wrong(monkeypatch, tmp_path):
    wl = workloads.Identities("1", str(tmp_path))
    wl.setup()
    monkeypatch.setattr(workloads, "check_geodesic_identities",
                        lambda ic: {"geodesic_identity": False})
    assert wl.run_case(wl.make_case(0)).status == "wrong"


def test_planted_xi_dimension_is_wrong(monkeypatch, tmp_path):
    wl = workloads.Xi("1", str(tmp_path))
    wl.setup()
    real = workloads.xi.xi_Z

    def short_xi_z(z, config=None):
        space = real(z, config)
        space.basis = space.basis[:-1]
        return space

    monkeypatch.setattr(workloads.xi, "xi_Z", short_xi_z)
    assert wl.run_case(wl.make_case(0)).status == "wrong"


def test_refuses_non_default_term_bound():
    env = dict(os.environ, CCC_MAX_TERMS="100000")
    proc = _launch("--workload", "xi", "--seed", "1", "--seconds", "1",
                   env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _launch("--workload", "xi", "--seed", "1", "--seconds", "1",
                   cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_tail_has_ten_cases_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 41)])
    assert (value, beyond) == (30.0, 10)
    assert pct == pytest.approx(75.0)


def test_timed_phase_runs_whole_turns():
    class Counting:
        def make_case(self, index):
            return index

        def run_case(self, case):
            return workloads.Outcome("ok", "k")

    records = run.run_cases(Counting(), itertools.count(), seconds=0.0,
                            cycle=8)
    assert len(records) == 8

