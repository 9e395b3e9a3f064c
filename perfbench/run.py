"""toursid benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The process builds nothing: it
imports ``toursid`` from ``src/`` of that checkout and refuses to run
without it.  Set-up (import, parser, one warm-up command) is timed in fresh
child processes and reported as ``setup_s``.  Then the workload's job list
runs in passes, one job after another, until ``--seconds`` is used up.  All
outputs are checked after the timed phase.  With ``--trace 1`` every job
runs twice in a row, once untraced and once traced, and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of stdout is the JSON result.  Spans of a traced run and the
full record of every run are written under ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("cli", "core", "tournament", "hom", "search", "trees", "spectral",
          "stochastic", "classify", "signed", "construct")
SETUP_PROBES = 5
WARMUP_ARGV = ["localwalk", "--steps", "2"]
CACHE_ENV = "TOURSID_CACHE_DIR"

# The speed probe: a fixed sum of PROBE_TERMS fractions, timed every
# PROBE_PERIOD_S of the timed phase.  PROBE_REF_S is its usual time on the
# 2-vCPU Xeon the baseline was measured on; a job's time is scaled by
# PROBE_REF_S over the mean probe time around the job.
PROBE_TERMS = 200
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.9e-3

SETUP_PROBE = f"""
import contextlib, io, sys
sys.path.insert(0, {SRC!r})
import toursid.cli as cli
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main({WARMUP_ARGV!r})
sys.stdout.write("ready %d\\n" % rc)
sys.stdout.flush()
"""


@dataclasses.dataclass
class Result:
    job: workloads.Job
    seconds: float
    cpu_s: float = 0.0
    t0: float = 0.0  # start and end on the perf_counter clock
    t1: float = 0.0
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str = ""
    files: dict = dataclasses.field(default_factory=dict)


class SpeedProbe:
    """Times a fixed ``Fraction`` sum on a timer signal while the workload runs.

    The shared host runs the same code up to 1.5 times slower for stretches
    of under a second to minutes, so two runs of one workload can differ by
    a quarter.  The probe samples that speed throughout the run, and
    ``scale`` turns a job's time into its time at the reference speed.
    Fraction sums, the kind of work the exact engine does, tracked the
    workloads' pass times better than integer, container or numpy loops.
    The probe's own time is subtracted from every job it interrupts
    (``busy``).
    """

    def __init__(self):
        self.samples = []
        self.times = []
        self.busy = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, PROBE_TERMS + 1):
            acc += Fraction(i % 7 + 1, i + 3)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.times.append(t0)
        self.busy += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0, t1):
        """The factor that takes a time measured over [t0, t1] to the reference speed.

        The speed is the mean of the samples taken in the interval and of
        the nearest one on each side, so a job shorter than the probe's
        period still gets the speed of its moment.
        """
        i = max(bisect.bisect_left(self.times, t0) - 1, 0)
        j = bisect.bisect_right(self.times, t1) + 1
        return PROBE_REF_S / statistics.fmean(self.samples[i:j])


def child_env():
    env = dict(os.environ)
    env.pop(CACHE_ENV, None)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup():
    """Median over fresh processes of start -> toursid imported and warmed up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line.strip() != "ready 0" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed: toursid did not import and run")
        times.append(elapsed)
    return statistics.median(times), times


def run_job(cli, job, tmp, pattern_dir, probe=None):
    """Run one job; never raises.  Only the call itself is timed."""
    res = Result(job, 0.0)
    out, err = io.StringIO(), io.StringIO()
    busy0 = probe.busy if probe is not None else 0.0
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if job.call is not None:
            res.value = job.call()
        else:
            argv = [a.replace("{tmp}", tmp).replace("{pat}", pattern_dir) for a in job.argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                res.rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        res.rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        res.error = traceback.format_exc(limit=4)
    res.t0, res.t1 = t0, time.perf_counter()
    res.seconds = res.t1 - t0
    res.cpu_s = time.process_time() - c0
    if probe is not None:
        probe_s = probe.busy - busy0
        res.seconds -= probe_s
        res.cpu_s -= probe_s
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    return res


def run_traced(cli, job, tmp, pattern_dir, tr):
    tr.install()
    try:
        return run_job(cli, job, tmp, pattern_dir)
    finally:
        tr.uninstall()


def run_pass(cli, jobs, tmp, pattern_dir, probe=None, tr=None, flip=0):
    """Every job once, or with a tracer twice in a row: untraced and traced.

    The twin runs alternate which goes first from job to job, so warm caches
    favour neither.  Returns the untraced and the traced results.
    """
    os.makedirs(tmp, exist_ok=True)
    if tr is not None:
        os.makedirs(tmp + "-traced", exist_ok=True)
    results, traced = [], []
    for i, job in enumerate(jobs):
        traced_first = tr is not None and (i + flip) % 2 == 1
        if traced_first:
            traced.append(run_traced(cli, job, tmp + "-traced", pattern_dir, tr))
        results.append(run_job(cli, job, tmp, pattern_dir, probe))
        if tr is not None and not traced_first:
            traced.append(run_traced(cli, job, tmp + "-traced", pattern_dir, tr))
    return results, traced


def run_window(cli, jobs, seconds, scratch, pattern_dir, probe=None, tr=None):
    """At least two passes, then more until the next would end past ``seconds``.

    Returns lists of ``(scratch dir, results)``, untraced and traced.
    """
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        tmp = os.path.join(scratch, f"pass{len(passes)}")
        results, traced_results = run_pass(cli, jobs, tmp, pattern_dir, probe, tr,
                                           flip=len(passes) % 2)
        passes.append((tmp, results))
        if tr is not None:
            traced.append((tmp + "-traced", traced_results))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, traced


def serialize(value):
    if hasattr(value, "to_json_dict"):
        value = value.to_json_dict()
    elif dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    return json.dumps(value, sort_keys=True, default=str)


def collect_files(tmp, res):
    for prefix in res.job.outputs:
        for suffix in (".wt", ".json"):
            path = os.path.join(tmp, prefix + suffix)
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    res.files[prefix + suffix] = fh.read()


def check_all(cli, passes, pattern_dir, scratch):
    """Check every job output; returns (attempted, failures).

    The first pass's outputs are checked in full.  Later passes, traced ones
    included, must repeat them byte for byte, and each job marked ``rerun``
    runs once more here.
    """
    failures = []
    attempted = 0
    first = {}
    for tmp, results in passes:
        for res in results:
            attempted += 1
            label = res.job.label
            try:
                collect_files(tmp, res)
                if res.job.call is not None and not res.error:
                    res.stdout = serialize(res.value)
                checks.expect(not res.error, "raised:\n" + res.error)
                checks.expect(res.rc == 0, f"exit code {res.rc}: {res.stderr.strip()[:200]}")
                if id(res.job) in first:
                    ref = first[id(res.job)]
                    checks.expect(res.stdout == ref.stdout, "stdout differs between passes")
                    checks.expect(res.files == ref.files, "output files differ between passes")
                else:
                    res.job.check(res)
                    first[id(res.job)] = res
            except Exception as exc:  # a failed check never stops the benchmark
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
    rerun_dir = os.path.join(scratch, "rerun")
    os.makedirs(rerun_dir, exist_ok=True)
    for ref in first.values():
        if not ref.job.rerun:
            continue
        label = ref.job.label
        attempted += 1
        res = run_job(cli, ref.job, rerun_dir, pattern_dir)
        try:
            checks.expect(not res.error and res.rc == 0, "rerun failed")
            if res.job.call is not None:
                res.stdout = serialize(res.value)
            checks.expect(res.stdout == ref.stdout, "seeded rerun is not byte-identical")
        except Exception as exc:
            failures.append(f"{label} (rerun): {type(exc).__name__}: {exc}")
    return attempted, failures


def env_record(seed):
    rec = {
        "python": platform.python_version(),
        "numpy": None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_sha": None,
        "git_dirty": None,
    }
    import numpy
    rec["numpy"] = numpy.__version__
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git = ["git", "--git-dir", os.path.join(ROOT, ".git"), "--work-tree", ROOT]
        try:
            rec["git_sha"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                            text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True, timeout=30).stdout
            rec["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return rec


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pass_seconds(passes):
    return [sum(r.seconds for r in results) for _, results in passes]


def scaled_seconds(passes, probe):
    """Every job's time at the probe's reference speed, pass by pass."""
    return [[r.seconds * probe.scale(r.t0, r.t1) for r in results] for _, results in passes]


def end_to_end(scaled, setup_s):
    """``wall_s`` is the mean pass time.  The job quantiles are taken over
    the jobs of a pass, each at its mean over passes, so that they do not
    depend on the number of passes.
    """
    latencies = [statistics.fmean(times) for times in zip(*scaled)]
    return {
        "wall_s": (statistics.fmean(sum(p) for p in scaled), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "job_p50_ms": (percentile(latencies, 50) * 1000.0, "ms"),
        "job_p90_ms": (percentile(latencies, 90) * 1000.0, "ms"),
    }


def is_evaluator(key):
    return key.startswith("hom.hom_")


def per_layer(tr, passes, traced):
    """Per-pass means over the traced passes, plus ratios and percentiles.

    Also returns the layer statistics, which include any module not in
    ``LAYERS``, for the run record.
    """
    layer_stats, fns, covered, ancestors = tracing.summarize(tr.spans, LAYERS)
    k = len(traced)
    c = tr.counters

    def fn(key, field="busy"):
        return fns.get(key, {}).get(field, 0)

    m = {}
    for layer in LAYERS:
        s = layer_stats[layer]
        m[f"{layer}.calls"] = (s["calls"] / k, "count")
        m[f"{layer}.busy_s"] = (s["busy"] / k, "s")
        m[f"{layer}.self_s"] = (s["self"] / k, "s")
    evals = opt_evals = 0
    eval_busy = 0.0
    for sid, parent, key, t0, t1 in tr.spans:
        anc = ancestors[sid]
        if is_evaluator(key) and not any(is_evaluator(a) for a in anc):
            evals += 1
            eval_busy += t1 - t0
            opt_evals += "search.optimize_density" in anc
    certify_ms = [d * 1000.0 for d in fn("spectral.certify_sign", "durations") or []]
    stoch_busy = fn("stochastic.lyapunov_estimate") + fn("stochastic.sample_fg")
    traced_walls = pass_seconds(traced)
    traced_wall = statistics.fmean(traced_walls)
    # Each traced pass ran job by job next to its untraced twin.
    overhead = statistics.fmean(
        t / u for t, u in zip(traced_walls, pass_seconds(passes))) - 1.0
    cpu_s = sum(r.cpu_s for _, results in traced for r in results)
    m.update({
        "tournament.hosts": (c["tournament.yields"] / k, "count"),
        "tournament.enumerate_s": (fn("tournament.enumerate_tournaments") / k, "s"),
        "tournament.host_build_s": (fn("tournament.with_half_loops") / k, "s"),
        "hom.evals": (evals / k, "count"),
        "hom.us_per_eval": (eval_busy / evals * 1e6 if evals else 0.0, "us"),
        "hom.path.calls": (fn("hom.hom_path", "calls") / k, "count"),
        "hom.path.busy_s": (fn("hom.hom_path") / k, "s"),
        "hom.generic.calls": (fn("hom.hom_generic", "calls") / k, "count"),
        "hom.generic.busy_s": (fn("hom.hom_generic") / k, "s"),
        "hom.generic.maps": (c["hom.generic.maps"] / k, "count"),
        "hom.forest.calls": (fn("hom.hom_forest", "calls") / k, "count"),
        "hom.forest.busy_s": (fn("hom.hom_forest") / k, "s"),
        "search.refute.busy_s": (fn("search.refute") / k, "s"),
        "search.optimize.busy_s": (fn("search.optimize_density") / k, "s"),
        "search.optimize.iterations": (c["search.optimize.iterations"] / k, "count"),
        "search.optimize.restarts": (c["search.optimize.restarts"] / k, "count"),
        "search.optimize.evals": (opt_evals / k, "count"),
        "search.optimize.accept_ratio": (
            c["search.optimize.accepted"] / opt_evals if opt_evals else 0.0, "ratio"),
        "search.certify.calls": (fn("search.certify", "calls") / k, "count"),
        "search.certify.hits": (c["search.certify.hits"] / k, "count"),
        "trees.checked": (c["trees.checked"] / k, "count"),
        "trees.strong_tas.busy_s": (fn("trees.strong_tas_check") / k, "s"),
        "trees.amgm.busy_s": (fn("trees.amgm_check") / k, "s"),
        "spectral.expand.busy_s": (fn("spectral.expand_path") / k, "s"),
        "spectral.expand.terms": (c["spectral.expand.terms"] / k, "count"),
        "spectral.certify.busy_s": (fn("spectral.certify_sign") / k, "s"),
        "spectral.certify.p90_ms": (percentile(certify_ms, 90) if certify_ms else 0.0, "ms"),
        "stochastic.steps": (c["stochastic.steps"] / k, "count"),
        "stochastic.steps_per_s": (c["stochastic.steps"] / stoch_busy if stoch_busy else 0.0,
                                   "1/s"),
        "bench.wall_s": (traced_wall, "s"),
        "bench.uncovered_s": (traced_wall - covered / k, "s"),
        "bench.trace_overhead_frac": (overhead, "ratio"),
        "bench.cpu_s": (cpu_s / k, "s"),
    })
    return m, layer_stats


def import_toursid():
    if not os.path.isfile(os.path.join(SRC, "toursid", "cli.py")):
        raise SystemExit(f"perfbench: no toursid sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import toursid
    import toursid.cli as cli
    if not os.path.abspath(toursid.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: toursid was imported from {toursid.__file__}, not {SRC}")
    return cli


def run_all(args):
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} failed:\n{proc.stderr[-2000:]}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop(CACHE_ENV, None)  # a cache hit would time nothing
    if args.workload == "all":
        return run_all(args)

    cli = import_toursid()
    setup_s, setup_samples = measure_setup()
    cli.build_parser()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(WARMUP_ARGV)

    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    pattern_dir = os.path.join(scratch, "patterns")
    os.makedirs(pattern_dir, exist_ok=True)
    record = {}
    try:
        for name, text in workloads.PATTERN_FILES.items():
            with open(os.path.join(pattern_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        jobs = workloads.build(args.workload, args.seed)
        if args.trace:
            tr = tracing.Tracer()
            passes, traced = run_window(cli, jobs, args.seconds, scratch, pattern_dir, tr=tr)
            metrics, layer_stats = per_layer(tr, passes, traced)
            record.update(spans=len(tr.spans), layer_stats=layer_stats)
            tracing.write_spans(tr.spans, os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
        else:
            probe = SpeedProbe()
            probe.start()
            try:
                passes, traced = run_window(cli, jobs, args.seconds, scratch, pattern_dir,
                                            probe=probe)
            finally:
                probe.stop()
            scaled = scaled_seconds(passes, probe)
            metrics = end_to_end(scaled, setup_s)
            record.update(scale=sum(map(sum, scaled)) / sum(pass_seconds(passes)),
                          probe_samples=len(probe.samples))
        attempted, failures = check_all(cli, passes + traced, pattern_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record.update({
        "workload": args.workload,
        "trace": args.trace,
        "env": env_record(args.seed),
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "pass_wall_s": pass_seconds(passes),
        "job_wall_s": [[r.seconds for r in results] for _, results in passes],
        "job_cpu_s": [[r.cpu_s for r in results] for _, results in passes],
        "setup_samples_s": setup_samples,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in failures[:20]:
        print("FAILED", line.splitlines()[0])
    print("env", json.dumps(record["env"], sort_keys=True))
    print(f"{args.workload}: {len(passes)} passes x {len(jobs)} jobs "
          f"(the job quantiles' sample count), attempted {attempted}, "
          f"failed {len(failures)}, fail_frac {len(failures) / attempted:.4f}")
    if "scale" in record:
        print(f"  raw mean pass {statistics.fmean(record['pass_wall_s']):.6g} s, "
              f"speed scale {record['scale']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
