"""The building-forge benchmark.

    python3 perfbench/run.py --workload strong --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program under test is imported from
its ``src`` directory.  Each job is one CLI invocation in a fresh child
process, timed from outside, run one at a time.  ``--workload all`` runs
every workload in turn.

With ``--trace 0`` the job list is repeated in a fresh working directory
until ``--seconds`` are used, and the end-to-end metrics are medians over
those repetitions of each job's time, calibrated against a fixed reference
child (see REF_CODE).  With ``--trace 1`` the job list runs once untraced, once
with a span around each layer's public functions and once counting the hot
calls (see trace_child.py), and the per-layer metrics are reported.

Every output is checked (see workloads.py).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

JOB_TIMEOUT_S = 30
RUN_BUDGET_S = 150  # a workload run stops starting jobs after this
SETUP_REPS = 5  # set-up children per repetition of the job list

# time.monotonic() after which a job is killed or not started; set per workload
deadline = float("inf")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# Spans and counters that must be seen on a workload's traced run; a
# missing one means a wrapper no longer reaches the code it measures.
DECLARED = {
    "noncommutative": [
        "cli", "perms.closure", "group.orbit_table", "group.pair_proxy",
        "hecke.structure_constants", "hecke.commutativity", "gelfand.report",
        "gelfand.find_witness", "gelfand.certify_disjoint", "hecke.transport",
    ],
    "strong": [
        "cli", "perms.closure", "group.orbit_table", "group.pair_proxy",
        "group.orbit_count_growth", "group.fixed_end_check", "hecke.structure_constants",
        "hecke.commutativity", "gelfand.report", "hecke.transport",
    ],
    "tables-and-walks": [
        "cli", "perms.closure", "group.orbit_table", "group.k_orbit", "tree.image_of_end",
        "tree.classify_isometry", "tree.segment_through_apartment", "tree.pigeonhole",
        "gelfand.find_strongly_regular",
    ],
}

# The host's speed drifts by tens of percent over tens of seconds, the same
# for every process, so the end-to-end timings are calibrated: this fixed
# pure-Python child runs before and after every job, the job's time is
# divided by the mean of the two, and the ratio is read at the child's
# nominal time.  A program change moves the jobs and not the reference.
REF_CODE = """\
seen = set()
for i in range(250000):
    seen.add((i % 97, i % 89, i % 83))
    seen.discard((i % 5,))
"""
REF_NOMINAL_S = 0.3

SETUP_CODE = """\
import sys
import building_forge
from building_forge.group import parse_local_group
for path in sys.argv[1:]:
    with open(path) as fh:
        parse_local_group(fh.read())
"""


@dataclass
class Run:
    wall: float  # spawn to exit, seconds
    rss_mb: float  # the child's own peak resident set
    code: int  # exit code; -9 after a timeout
    stdout: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BUILDING_FORGE_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], cwd: Path, out_dir: Path) -> Run:
    """Run one child to completion; its rusage comes from wait4, per child."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(dir=out_dir, suffix=".out")
    err_path = Path(name).with_suffix(".err")
    with os.fdopen(fd, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(min(JOB_TIMEOUT_S, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        print(f"# child {argv[1:]} exited {proc.returncode}: {tail}", file=sys.stderr)
    stdout = Path(name).read_text(errors="replace")
    Path(name).unlink()
    err_path.unlink()
    return Run(wall, usage.ru_maxrss / 1024, proc.returncode, stdout)


def reference(run_dir: Path) -> float:
    """Wall time of one reference child (see REF_CODE)."""
    run = spawn([sys.executable, "-c", REF_CODE], run_dir, run_dir / "out")
    if run.code != 0:
        raise RuntimeError("the reference child failed")
    return run.wall


@dataclass
class Pass:
    runs: list[Run]
    refs: list[float]  # when calibrating, reference times before, between and after the jobs
    failed: int
    traces: list[dict]  # what each traced child wrote, in job order
    cache_bytes: int  # files the program left in its working directory


def run_jobs(jobs, run_dir: Path, mode: str = "plain", calibrate: bool = False) -> Pass:
    """Run the job list once, in a fresh working directory, checking outputs.

    ``mode`` is ``plain`` (the CLI as users run it) or a trace_child.py mode.
    """
    cwd = Path(tempfile.mkdtemp(dir=run_dir, prefix="cwd-"))
    result = Pass([], [], 0, [], 0)
    earlier: dict[str, str] = {}
    for job in jobs:
        if time.monotonic() > deadline:
            result.failed += 1
            print(f"# FAILED {job.label} ({mode}): not started, run budget spent", file=sys.stderr)
            continue
        if mode == "plain":
            argv = [sys.executable, "-m", "building_forge.cli", *job.argv]
        else:
            trace_path = Path(tempfile.mkstemp(dir=run_dir, suffix=".trace")[1])
            argv = [sys.executable, str(HERE / "trace_child.py"), mode, str(trace_path), *job.argv]
        if calibrate and not result.refs:
            result.refs.append(reference(run_dir))
        run = spawn(argv, cwd, run_dir / "out")
        if calibrate:
            result.refs.append(reference(run_dir))
        result.runs.append(run)
        if mode != "plain":
            result.traces.append(json.loads(trace_path.read_text()) if run.code == 0 else {})
        try:
            if run.code != 0:
                raise CheckFailed(f"exit code {run.code}")
            job.check(run.stdout, earlier)
        except (CheckFailed, ValueError, KeyError, TypeError, AttributeError) as exc:
            result.failed += 1
            print(f"# FAILED {job.label} ({mode}): {exc!r}", file=sys.stderr)
        earlier[job.label] = run.stdout
    result.cache_bytes = sum(p.stat().st_size for p in cwd.rglob("*") if p.is_file())
    return result


def end_to_end(jobs, docs, run_dir: Path, seconds: float) -> dict:
    # set-up children run before every repetition, so that their median
    # samples the same stretch of time as the jobs
    setup_argv = [sys.executable, "-c", SETUP_CODE, *map(str, docs)]
    spawn(setup_argv, run_dir, run_dir / "out")  # warm the file cache and bytecode
    setups, reps, failed = [], [], 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        rep_start = time.perf_counter()
        ref = reference(run_dir)
        batch = [spawn(setup_argv, run_dir, run_dir / "out") for _ in range(SETUP_REPS)]
        done = run_jobs(jobs, run_dir, calibrate=True)
        failed += sum(run.code != 0 for run in batch)
        setups += [run.wall / ((ref + done.refs[0]) / 2) for run in batch]
        reps.append(done)
        failed += done.failed
        now = time.perf_counter()
        longest = max(longest, now - rep_start)
        if now - start + longest > seconds or time.monotonic() + longest > deadline:
            break
    # per job, the median over the repetitions of its calibrated time, so
    # one slow repetition of one job does not move the workload's figures
    walls = [
        REF_NOMINAL_S
        * statistics.median(rep.runs[j].wall / ((rep.refs[j] + rep.refs[j + 1]) / 2) for rep in reps)
        for j in range(len(jobs))
    ]
    rss = [statistics.median(rep.runs[j].rss_mb for rep in reps) for j in range(len(jobs))]
    for j, job in enumerate(jobs):
        raw = " ".join(f"{rep.runs[j].wall:7.3f}" for rep in reps)
        print(f"#   {job.label:34s} {walls[j]:7.3f} calibrated; raw {raw}")
    refs = [t for rep in reps for t in rep.refs]
    print(f"# {len(reps)} repetitions of {len(jobs)} jobs, {len(setups)} set-up children; "
          f"reference median {statistics.median(refs):.3f} s, nominal {REF_NOMINAL_S} s")
    attempted = len(jobs) * len(reps) + len(setups)
    metrics = {
        "setup_s": REF_NOMINAL_S * statistics.median(setups),
        "wall_s": sum(walls),
        "slowest_job_s": max(walls),
        "peak_rss_mb": max(rss),
        "pass_ratio": (attempted - failed) / attempted,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def layer_times(traces: list[dict]) -> tuple[Counter, Counter, Counter]:
    """Self time, calls and work per span name, summed over jobs.

    A span's self time is its duration minus the time its child spans
    cover; spans nest strictly (one thread), so children do not overlap.
    """
    self_s, calls, work = Counter(), Counter(), Counter()
    for doc in traces:
        spans = doc.get("spans", [])
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, n), inner in zip(spans, covered):
            self_s[name] += end - start - inner
            calls[name] += 1
            work[name] += n
    return self_s, calls, work


PER_LAYER = {
    # metric: (unit, source, key); sources: self time, span calls, work
    # recorded per span, and calls seen by the counting pass
    "hecke.structure_constants.self_s": ("s", "self", "hecke.structure_constants"),
    "hecke.structure_constants.entries": ("count", "work", "hecke.structure_constants"),
    "hecke.transport.calls": ("count", "counted", "hecke.transport"),
    "hecke.commutativity.self_s": ("s", "self", "hecke.commutativity"),
    "group.pair_proxy.self_s": ("s", "self", "group.pair_proxy"),
    "group.pair_proxy.calls": ("count", "calls", "group.pair_proxy"),
    "group.orbit_table.self_s": ("s", "self", "group.orbit_table"),
    "group.orbit_table.calls": ("count", "calls", "group.orbit_table"),
    "group.orbit_table.classes": ("count", "work", "group.orbit_table"),
    "group.k_orbit.self_s": ("s", "self", "group.k_orbit"),
    "group.k_orbit.calls": ("count", "counted", "group.k_orbit"),
    "group.orbit_count_growth.self_s": ("s", "self", "group.orbit_count_growth"),
    "group.fixed_end_check.self_s": ("s", "self", "group.fixed_end_check"),
    "tree.image_of_end.self_s": ("s", "self", "tree.image_of_end"),
    "tree.image_of_end.calls": ("count", "calls", "tree.image_of_end"),
    "tree.segment_through_apartment.self_s": ("s", "self", "tree.segment_through_apartment"),
    "tree.classify_isometry.self_s": ("s", "self", "tree.classify_isometry"),
    "tree.classify_isometry.calls": ("count", "calls", "tree.classify_isometry"),
    "tree.pigeonhole.self_s": ("s", "self", "tree.pigeonhole"),
    "gelfand.report.self_s": ("s", "self", "gelfand.report"),
    "gelfand.find_witness.self_s": ("s", "self", "gelfand.find_witness"),
    "gelfand.certify_disjoint.calls": ("count", "calls", "gelfand.certify_disjoint"),
    "gelfand.certificate.words": ("count", "work", "gelfand.certify_disjoint"),
    "gelfand.find_strongly_regular.self_s": ("s", "self", "gelfand.find_strongly_regular"),
    "perms.closure.self_s": ("s", "self", "perms.closure"),
    "perms.closure.calls": ("count", "calls", "perms.closure"),
    "cli.self_s": ("s", "self", "cli"),
    "cli.load_or_build_table.self_s": ("s", "self", "cli.load_or_build_table"),
    "cli.stdout.bytes": ("bytes", "untraced", "stdout"),
    "cli.cache.bytes": ("bytes", "untraced", "cache"),
    "trace.overhead_s": ("s", "untraced", "overhead"),
}


def per_layer(workload: str, jobs, run_dir: Path) -> dict:
    plain = run_jobs(jobs, run_dir)
    traced = run_jobs(jobs, run_dir, "spans")
    counting = run_jobs(jobs, run_dir, "counts")
    failed = plain.failed + traced.failed + counting.failed
    self_s, calls, work = layer_times(traced.traces)
    counted = Counter()
    for doc in counting.traces:
        counted.update(doc.get("counts", {}))
    untraced = {
        "stdout": sum(len(r.stdout.encode()) for r in plain.runs),
        "cache": plain.cache_bytes,
        "overhead": sum(r.wall for r in traced.runs) - sum(r.wall for r in plain.runs),
    }
    sources = {"self": self_s, "calls": calls, "work": work, "counted": counted, "untraced": untraced}
    missing = [n for n in DECLARED[workload] if not (calls[n] or counted[n])]
    if missing:
        print(f"# FAILED: declared spans never fired: {missing}", file=sys.stderr)
        failed += len(missing)
    metrics = {name: sources[src][key] for name, (_, src, key) in PER_LAYER.items()}
    return {"attempted": 3 * len(jobs), "failed": failed, "metrics": metrics}


def environment(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "relabeling": {str(d): pi for d, pi in workloads.relabelings(seed).items()},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    global deadline
    deadline = time.monotonic() + RUN_BUDGET_S
    print("# env " + json.dumps(environment(workload, seed, trace)))
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix="run-"))
    try:
        inputs = run_dir / "inputs"
        inputs.mkdir()
        docs, jobs = workloads.build(workload, seed, inputs)
        if trace:
            result = per_layer(workload, jobs, run_dir)
        else:
            result = end_to_end(jobs, docs, run_dir, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    units = {name: spec[0] for name, spec in PER_LAYER.items()} if trace else END_TO_END
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": units[name]} for name in units
    }
    for name, m in result["metrics"].items():
        print(f"# {workload:16s} {name:38s} {m['value']:>14.6g} {m['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "building_forge" / "cli.py").is_file():
        print(f"error: no building_forge sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
