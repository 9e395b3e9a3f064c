"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_toursid()


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    spans = [
        [0, -1, "cli.main", 0.0, 10.0],
        [1, 0, "search.refute", 1.0, 9.0],
        [2, 1, "hom.hom_path", 2.0, 4.0],
        [3, 2, "hom.host_entries", 2.5, 3.0],  # same layer nested: not busy twice
        [4, 1, "search.certify", 5.0, 8.0],
        [5, 4, "hom.hom_generic", 6.0, 7.0],  # outermost in hom: its ancestors are not hom
        [6, -1, "core.as_orientation", 11.0, 12.0],
    ]
    layers, fns, covered, ancestors = tracing.summarize(spans, ("cli", "search", "hom", "core"))
    assert layers["cli"] == {"calls": 1, "busy": 10.0, "self": 2.0}
    assert layers["search"] == {"calls": 2, "busy": 8.0, "self": 5.0}
    assert layers["hom"] == {"calls": 3, "busy": 3.0, "self": 3.0}
    assert layers["core"] == {"calls": 1, "busy": 1.0, "self": 1.0}
    assert covered == 11.0
    assert sum(s["self"] for s in layers.values()) == covered
    assert fns["hom.hom_path"]["durations"] == [2.0]
    assert ancestors[5] == {"cli.main", "search.refute", "search.certify"}


def test_tracer_rebinds_imported_names_and_restores_them():
    import toursid.hom
    import toursid.search
    import toursid.tournament

    original = toursid.hom.hom_path
    tr = tracing.Tracer()
    tr.install()
    try:
        assert toursid.search.hom_path is toursid.hom.hom_path is not original
        report = toursid.search.refute(">><", "TAS", n_max=3)
    finally:
        tr.uninstall()
    assert toursid.search.hom_path is original and toursid.hom.hom_path is original
    hosts = report.samples
    keys = [s[2] for s in tr.spans]
    assert keys.count("hom.hom_path") == hosts
    assert tr.counters["tournament.yields"] == hosts
    # one more next() ends each of the n_checked generators
    assert keys.count("tournament.enumerate_tournaments") == hosts + report.n_checked
    top = [s for s in tr.spans if s[1] == -1]
    assert [s[2] for s in top] == ["search.refute"]


def _run_pass(jobs, tmp_path, tr=None, probe=None):
    pattern_dir = tmp_path / "patterns"
    pattern_dir.mkdir(exist_ok=True)
    for name, text in workloads.PATTERN_FILES.items():
        (pattern_dir / name).write_text(text)
    tmp = str(tmp_path / "pass0")
    results, traced = run.run_pass(cli, jobs, tmp, str(pattern_dir), probe, tr)
    return [(tmp, results)], [(tmp + "-traced", traced)] if tr else [], str(pattern_dir)


def _refuted_result(tmp_path):
    job = workloads.scan_path(seed=0, small=True)[1]
    passes, _, _ = _run_pass([job], tmp_path)
    res = passes[0][1][0]
    run.collect_files(passes[0][0], res)
    job.check(res)  # the untouched output passes
    return job, res


def test_checker_rejects_a_tampered_certificate(tmp_path):
    job, res = _refuted_result(tmp_path)
    host = res.files["cert-a.wt"]
    rows = host.splitlines()
    rows[1] = rows[1].replace("1/2", "1/3", 1)
    res.files["cert-a.wt"] = "\n".join(rows) + "\n"
    with pytest.raises(checks.CheckFailed):
        job.check(res)
    res.files["cert-a.wt"] = host
    rep = json.loads(res.stdout)
    value = checks.Fraction(rep["violation"]["value"]) + 1
    rep["violation"]["value"] = f"{value.numerator}/{value.denominator}"
    res.stdout = json.dumps(rep)
    with pytest.raises(checks.CheckFailed, match="recount"):
        job.check(res)


def test_checker_rejects_a_wrong_verdict(tmp_path):
    job, res = _refuted_result(tmp_path)
    survivor = workloads.scan_path(seed=0, small=True)[0]
    with pytest.raises(checks.CheckFailed, match="expected no violation"):
        survivor.check(res)
    rep = json.loads(res.stdout)
    rep["n_checked"] = 5
    res.stdout = json.dumps(rep)
    with pytest.raises(checks.CheckFailed, match="refuted at n=5"):
        job.check(res)
    rep["violation"] = None
    res.stdout = json.dumps(rep)
    with pytest.raises(checks.CheckFailed, match="expected a violation"):
        job.check(res)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_and_checks_at_reduced_size(name, tmp_path):
    jobs = workloads.build(name, seed=3, small=True)
    tr = tracing.Tracer()
    passes, traced, pattern_dir = _run_pass(jobs, tmp_path, tr)
    attempted, failures = run.check_all(cli, passes + traced, pattern_dir, str(tmp_path))
    assert failures == []
    assert attempted >= 2 * len(jobs)
    m, layer_stats = run.per_layer(tr, passes, traced)
    self_sum = sum(s["self"] for s in layer_stats.values())
    assert self_sum + m["bench.uncovered_s"][0] == pytest.approx(m["bench.wall_s"][0])
    assert 0 <= m["bench.uncovered_s"][0] < m["bench.wall_s"][0]
    assert set(layer_stats) == set(run.LAYERS)  # no module outside the layer list
    if name == "session":
        assert len(jobs) >= 100


def test_speed_probe_time_is_taken_out_of_the_jobs(tmp_path):
    jobs = workloads.build("scan-path", seed=1, small=True)
    probe = run.SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        passes, _, _ = _run_pass(jobs * 3, tmp_path, probe=probe)
        elapsed = time.perf_counter() - t0
    finally:
        probe.stop()
    assert len(probe.samples) >= 2 and probe.busy > 0
    timed = sum(run.pass_seconds(passes))
    assert timed < elapsed - probe.busy
    assert timed == pytest.approx(elapsed - probe.busy, rel=0.1)
    assert 0.3 < probe.scale(t0, t0 + elapsed) < 3
    # an instant between two samples takes the speed of both
    mid = (probe.times[0] + probe.times[1]) / 2
    both = (probe.samples[0] + probe.samples[1]) / 2
    assert probe.scale(mid, mid) == pytest.approx(run.PROBE_REF_S / both)


def test_lyapunov_check_rejects_an_estimate_off_the_independent_one():
    job = next(j for j in workloads.build("session", seed=1, small=True)
               if j.argv[0] == "lyapunov" and "recurrence" in j.argv)
    res = run.run_job(cli, job, "", "")
    job.check(res)
    rep = json.loads(res.stdout)
    width = rep["ci95_high"] - rep["ci95_low"]
    for key in ("lambda_hat", "ci95_low", "ci95_high"):
        rep[key] += 10 * width + 0.05
    res.stdout = json.dumps(rep)
    with pytest.raises(checks.CheckFailed, match="independent estimate"):
        job.check(res)


def test_result_line_and_refusal_without_sources(tmp_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "scan-path",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb", "job_p50_ms",
                                   "job_p90_ms"}

    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    cmd[1] = str(bare / "perfbench" / "run.py")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
