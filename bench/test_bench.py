"""Tests of the benchmark harness itself.

    python3 -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from itertools import count
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def small_jobs(name: str, tmp_path: Path, theta_steps: int = 2):
    workload = dataclasses.replace(wl.WORKLOADS[name], theta_steps=theta_steps)
    return wl.make_jobs(workload, seed=3, workdir=tmp_path)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] and c [50, 90]; a holds b [15, 25].
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    assert spans.self_times(parents, starts, ends) == [30, 20, 10, 40]
    assert sum(spans.self_times(parents, starts, ends)) == 100


def test_tracer_records_nested_spans_and_restores(monkeypatch):
    module = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    specs = (
        spans.SpanSpec("outer", ("fake_layers:outer",)),
        spans.SpanSpec("inner", ("fake_layers:inner",)),
    )
    tracer = spans.Tracer(specs, clock=count(0, 10).__next__)
    with tracer:
        tracer.install([module])
        tracer.run_id = 7
        assert module.outer(1) == 4
    assert module.outer is outer and module.inner is inner
    totals = tracer.layer_totals()
    # Clock reads: outer 0, inner 10, inner 20, outer 30.
    assert totals["outer.calls"] == totals["inner.calls"] == 1
    assert totals["outer.self_s"] == pytest.approx(20e-9)
    assert totals["inner.self_s"] == pytest.approx(10e-9)
    assert tracer.root_seconds() == pytest.approx(30e-9)
    assert list(tracer.parents) == [-1, 0]
    assert list(tracer.runs) == [7, 7]


def test_tracer_restores_after_a_raising_call(monkeypatch):
    module = types.ModuleType("fake_raise")

    def boom():
        raise ValueError("boom")

    module.boom = boom
    monkeypatch.setitem(sys.modules, "fake_raise", module)
    tracer = spans.Tracer((spans.SpanSpec("boom", ("fake_raise:boom",)),))
    with pytest.raises(ValueError), tracer:
        tracer.install([module])
        module.boom()
    assert module.boom is boom
    assert tracer.layer_totals()["boom.calls"] == 1


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_pass_restores_every_wrapped_name(name, tmp_path):
    import qmaxent.cli as cli

    modules = spans.loaded_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    jobs = small_jobs(name, tmp_path, theta_steps=1)
    tracer = spans.Tracer()
    with tracer:
        tracer.install(modules)
        assert tracer._saved, "nothing was wrapped"
        outcomes = wl.run_pass(cli, jobs, tracer)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.missing == []
    assert not tracer.count_errors
    assert wl.failed(outcomes) == 0
    totals = tracer.layer_totals()
    assert totals["cli.main.calls"] == len(jobs)
    assert totals["cli.run.calls"] == len(jobs)
    sampler_counts = [
        v for k, v in totals.items() if k.startswith("sampler.") and not k.endswith("_s")
    ]
    if name == "exact_sweep":
        assert not any(sampler_counts)
    else:
        assert totals["sampler.sample.calls"] > 0
    if name == "shots_caseab":
        assert totals["sampler.calibration.calls"] == 0
        assert totals["sampler.mitigation.solves"] == 0


class _Raising:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


class _ExitsTwo:
    @staticmethod
    def main(argv):
        return 2


@pytest.mark.parametrize("fake_cli", [_Raising, _ExitsTwo])
def test_a_failed_run_fails_all_its_points(fake_cli, tmp_path):
    jobs = small_jobs("mitigated_sweep", tmp_path)
    outcomes = wl.run_pass(fake_cli, jobs)
    assert wl.failed(outcomes) == wl.points(outcomes) == 2 * (3 + 3 + 3 + 7)
    assert all(o.problem.startswith("exit ") for o in outcomes)


def _write_sweep_csv(path: Path, abs_diffs, fidelity="1.0"):
    lines = ["theta,k,x11,re_x1k,im_x1k,xkk_true,xkk_pred,abs_diff,fidelity,near_singular"]
    lines += [f"0,2,0.5,0,0,0,0,{d},{fidelity},false" for d in abs_diffs]
    path.write_text("\n".join(lines) + "\n")


def test_output_checks_count_bad_rows(tmp_path):
    job = small_jobs("exact_sweep", tmp_path, theta_steps=1)[0]
    _write_sweep_csv(job.out, ["1e-9", "nan", "2e-8"])
    assert wl.check_output(job, 0.0).failed == 1
    _write_sweep_csv(job.out, ["0", "0"])
    assert wl.check_output(job, 0.0).failed == job.points
    sampled = dataclasses.replace(job, exact=False)
    _write_sweep_csv(sampled.out, ["0.5"] * 3, fidelity="nan")
    assert wl.check_output(sampled, 0.0).failed == 3


def test_changed_bytes_fail_the_points(tmp_path):
    job = small_jobs("exact_sweep", tmp_path, theta_steps=1)[0]
    reference = [wl.Outcome(job, 0.0, 0, sha256="a")]
    repeat = [wl.Outcome(job, 0.0, 0, sha256="b")]
    wl.mark_changed(reference, repeat)
    assert repeat[0].failed == job.points


def test_benchmark_json_lists_the_emitted_metrics():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    emitted = set(spans.Tracer().layer_totals()) | {
        "sampler.mitigation.direct_share",
        "trace.overhead_share",
        "trace.unaccounted_share",
    }
    assert per_layer == emitted
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "exact_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
