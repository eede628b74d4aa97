#!/usr/bin/env python3
"""Benchmark of the EDBP simulator: one named workload, checked, with metrics.

    python3 edbpbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds `exp_all` and the `edbpbench` helper
(release, into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload
for about --seconds, checks its outputs and prints one JSON object as the
last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
README.md). A failed output check prints `correct: false` with no
metrics and exits 1.
Scratch files go to `.bench_work/`, removed at exit; `results/` and
`results/.runcache/` are never written.

Workloads:
  solo_rfhome   six apps x {Baseline, Edbp, DecayEdbp, Ideal}, solo lanes,
                Full scale, RFHome source seeded by --seed
  solo_thermal  the same matrix on the Thermal source
"""

import argparse
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# The energy-source seed `results/` was rendered with.
DEFAULT_SEED = 42
THREADS = 2
# Seconds a run may take after the build before it kills its children.
DEADLINE_S = 170
# The workloads BENCHMARK.json lists.
WORKLOADS = ["solo_rfhome", "solo_thermal"]

LIVE = set()


class Proc:
    """A reaped child: exit code, wall and CPU seconds, peak RSS, output."""

    def __init__(self, code, wall, cpu, rss_mb, text):
        self.code, self.wall, self.cpu, self.rss_mb, self.text = code, wall, cpu, rss_mb, text


def spawn(cmd, log, env=None):
    """Starts `cmd` in the checkout root with output to `log`."""
    with open(log, "w") as f:
        p = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, stdout=f, stderr=subprocess.STDOUT, env=env)
    p.started = time.monotonic()
    p.log = log
    LIVE.add(p)
    return p


def reap(p):
    """Waits for `p` and returns its exit code, times and peak RSS (wait4)."""
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.monotonic() - p.started
    p.returncode = os.waitstatus_to_exitcode(status)
    LIVE.discard(p)
    with open(p.log) as f:
        text = f.read()
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, text)


def run_cmd(cmd, log, env=None):
    return reap(spawn(cmd, log, env))


def kill_children(signum=None, frame=None):
    for p in list(LIVE):
        try:
            p.kill()
            os.waitpid(p.pid, 0)
        except (OSError, ChildProcessError):
            pass
    LIVE.clear()
    if signum is not None:
        print(f"edbpbench: deadline of {DEADLINE_S}s exceeded", file=sys.stderr)
        shutil.rmtree(WORK, ignore_errors=True)
        sys.exit(3)


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sim_env(results, runcache):
    """The environment for exp_all: no inherited simulator switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EHS_")}
    env["EHS_RESULTS_DIR"] = str(results)
    env["EHS_RUNCACHE_DIR"] = str(runcache)
    return env


def build():
    """Builds exp_all and the helper; returns their paths."""
    for required in ["Cargo.toml", "crates/sim/Cargo.toml"]:
        if not (ROOT / required).is_file():
            print(f"edbpbench: {required} not found; run from a checkout of the repository", file=sys.stderr)
            sys.exit(2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ehs-sim", "--bin", "exp_all"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "edbpbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"edbpbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)
    return target / "release" / "exp_all", target / "release" / "edbpbench"


class Bench:
    """One benchmark run: accounting, checks and the helper/exp_all calls."""

    def __init__(self, exp_all, helper, seed, seconds, trace):
        self.exp_all, self.helper_bin = exp_all, helper
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.logs = 0

    def log(self, stem):
        self.logs += 1
        return WORK / f"{self.logs:03d}-{stem}.log"

    def check(self, name, ok, detail=""):
        if not ok:
            self.problems.append(f"{name}: {detail}")
        return ok

    def account(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def helper(self, *args):
        """Runs one helper subcommand; returns its parsed records."""
        proc = run_cmd([self.helper_bin, *args, "--work", WORK / "helper"], self.log(args[0]))
        rec = bl.parse_records(proc.text)
        self.account(rec["attempted"], rec["failed"])
        self.check(f"helper {args[0]}", proc.code == 0, f"exit {proc.code}:\n{proc.text[-2000:]}")
        for name, ok, detail in rec["checks"]:
            self.check(name, ok, detail)
        rec["proc"] = proc
        return rec

    def same_figures(self, ours, reference, name):
        want = sorted(p.name for p in reference.glob("*.txt"))
        got = sorted(p.name for p in ours.glob("*.txt"))
        differ = [n for n in want if n not in got or (ours / n).read_bytes() != (reference / n).read_bytes()]
        return self.check(name, bool(want) and want == got and not differ, f"differ: {differ or got}")

    # -- workloads ---------------------------------------------------------

    def solo(self, preset):
        args = ["solo", "--preset", preset, "--seed", self.seed, "--seconds", self.seconds]
        rec = self.helper(*args, *(["--trace"] if self.trace else []))
        info = rec["info"]
        print(f"digest: {info.get('digest')} passes={info.get('passes', 0)}")
        metrics = dict(rec["metrics"])
        if not self.trace:
            print(f"solo: raw pass wall median {info.get('raw_wall_median')}, CPU hops {info.get('hops')}")
        else:
            ref, printed = self.reference_tiny()
            metrics.update(self.suite_layers("tiny", ref, printed))
            metrics.update(self.fleet_pass(ref, printed["unique"]))
        return metrics

    def reference_tiny(self):
        """The Tiny figures rendered, untimed, by the in-process executor."""
        ref = fresh(WORK / "reference")
        proc = run_cmd(
            [self.exp_all, "tiny", "--no-cache", "--threads", THREADS],
            self.log("reference"),
            sim_env(ref, WORK / "reference-unused-cache"),
        )
        summary = bl.parse_suite_summary(proc.text)
        ok = proc.code == 0 and summary is not None and summary["failed"] == 0
        if not self.check("tiny reference render", ok, f"exit {proc.code}:\n{proc.text[-2000:]}"):
            raise Abort("the Tiny reference could not be rendered")
        self.account(summary["requested"], 0)
        return ref, summary

    def fleet_pass(self, ref, unique):
        """Two `exp_all tiny --worker` processes over one fresh run cache, then
        `--finalize --verify` against `ref`; returns the runner.worker.* metrics."""
        results, runcache = fresh(WORK / "fleet" / "results"), fresh(WORK / "fleet" / "runcache")
        env = sim_env(results, runcache)
        workers = [spawn([self.exp_all, "tiny", "--worker"], self.log(f"worker{i}"), env) for i in range(2)]
        procs = [reap(p) for p in workers]
        lines = [bl.parse_worker_line(p.text) for p in procs]
        ok = True
        for i, (p, w) in enumerate(zip(procs, lines)):
            ok &= self.check(f"worker{i} exit", p.code == 0 and w is not None, p.text[-2000:])
            ok &= self.check(f"worker{i} failures", w is not None and w["failed"] == 0, str(w))
        lines = [w for w in lines if w]
        completed = sum(w["completed"] for w in lines)
        ok &= self.check("workers completed every unique job", completed == unique, f"{completed} != {unique}")
        self.account(unique, 0 if ok else unique)
        p = run_cmd([self.exp_all, "tiny", "--finalize", "--verify", ref], self.log("finalize"), env)
        ok = self.check("finalize --verify", p.code == 0 and "byte-identical" in p.text, p.text[-2000:])
        self.account(unique, 0 if ok else unique)
        busy = sum(w["busy_skips"] for w in lines)
        return {
            "runner.worker.completed": (completed, "count"),
            "runner.worker.adopted": (sum(w["adopted"] for w in lines), "count"),
            "runner.worker.busy_skips": (busy, "count"),
            "runner.worker.retries": (sum(w["retries"] for w in lines), "count"),
            "runner.worker.claim_useful_ratio": (completed / max(1, completed + busy), "ratio"),
        }

    def suite_layers(self, scale, reference, printed):
        """Planner, runner and run-cache layers: the suite in-process at
        `scale`, its figures and counts reconciled with what `exp_all`
        rendered and printed."""
        figs = WORK / "trace" / "figures"
        m = dict(self.helper("suite-trace", "--scale", scale, "--threads", THREADS, "--figs", figs)["metrics"])
        self.same_figures(figs, reference, f"in-process {scale} figures identical to exp_all's")
        for layer, key in (("planner.jobs_unique", "unique"), ("runner.jobs_executed", "simulated")):
            got = m.get(layer, (None,))[0]
            want = printed[key] if printed else None
            self.check(f"{layer} reconciles", got == want, f"{got} != exp_all {key} {want}")
        cache = WORK / "helper" / "trace-cache"
        m.update(self.helper("runcache-probe", "--scale", scale, "--dir", cache)["metrics"])
        return m


class Abort(Exception):
    """A prerequisite of the workload failed; nothing further is measured."""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    exp_all, helper = build()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    signal.signal(signal.SIGALRM, kill_children)
    signal.signal(signal.SIGTERM, kill_children)
    signal.alarm(DEADLINE_S)
    host = bl.host_context()
    print(f"host: nproc={host['nproc']} loadavg={host['loadavg']} cpu={host['cpu']}")

    bench = Bench(exp_all, helper, args.seed, args.seconds, bool(args.trace))
    raw = {}
    try:
        raw = bench.solo(args.workload.removeprefix("solo_"))
    except Abort as e:
        bench.problems.append(str(e))
    except KeyError as e:
        bench.problems.append(f"a step printed no {e}")
    finally:
        kill_children()
        signal.alarm(0)
    shutil.rmtree(WORK, ignore_errors=True)

    catalogue = bl.PER_LAYER if args.trace else bl.E2E
    bench.problems += [f"{k} is {v}" for k, (v, _) in raw.items() if not math.isfinite(v) or v == 0 and not args.trace]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items() if k in catalogue and math.isfinite(v)}
    bench.problems += bl.validate_metrics(metrics, catalogue)
    steal, total = bl.cpu_ticks()
    share = (steal - host["steal_ticks"]) / max(1, total - host["total_ticks"])
    print(f"host: cpu steal during run {100 * share:.1f}%")
    print(f"failed_ratio: {bench.failed}/{bench.attempted}")
    for problem in bench.problems:
        print(f"edbpbench: check failed: {problem}", file=sys.stderr)
    correct = bl.is_correct(bench.problems, bench.attempted, bench.failed)
    if not correct:
        bench.failed = max(bench.failed, 1)
    # A failed run records no numbers.
    print(bl.result_line(correct, max(1, bench.attempted), bench.failed, metrics if correct else {}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
