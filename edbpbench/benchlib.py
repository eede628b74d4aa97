"""Parsers, metric catalogue and host readers for the EDBP benchmark.

Everything here is pure or reads only /proc, so tests/test_benchlib.py
covers it without building the simulator.
"""

import json
import os
import re

# End-to-end metrics: name -> (unit, better). Printed by every untraced run.
E2E = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "sim_mips": ("MIPS", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "edbp_speedup": ("x", "higher"),
}

SOLO_APPS = ["crc32", "sha", "qsort", "dijkstra", "patricia", "jpeg_enc"]
SOLO_SCHEMES = ["baseline", "edbp", "decay_edbp", "ideal"]

# Per-layer metrics: name -> (unit, better). Printed by every traced run.
PER_LAYER = {
    "workloads.build_ms": ("ms", "lower"),
    "cpu.step_ns": ("ns", "lower"),
    "cpu.instructions": ("count", "lower"),
    "cache.lookup_ns": ("ns", "lower"),
    "cache.fill_ns": ("ns", "lower"),
    "cache.accesses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "core.tick_ns": ("ns", "lower"),
    "core.ticks": ("count", "lower"),
    "core.gated_blocks": ("count", "higher"),
    "core.oracle_record_ms": ("ms", "lower"),
    "energy.burst_ns_per_cycle": ("ns", "lower"),
    "energy.bursts": ("count", "lower"),
    "energy.recharge_us": ("us", "lower"),
    "energy.outages": ("count", "lower"),
    "energy.sqrt_calls": ("count", "lower"),
    "sim.lane_build_us": ("us", "lower"),
    **{
        f"sim.ns_per_instr.{app}.{scheme}": ("ns", "lower")
        for app in SOLO_APPS
        for scheme in SOLO_SCHEMES
    },
    "sim.outages_per_minstr": ("1/Minstr", "lower"),
    "sim.matrix_s": ("s", "lower"),
    "sim.writeback_ns": ("ns", "lower"),
    "sim.restore_ns": ("ns", "lower"),
    "sim.lockstep_group_ms": ("ms", "lower"),
    "sim.solo_group_ms": ("ms", "lower"),
    "planner.plan_ms": ("ms", "lower"),
    "planner.jobs_requested": ("count", "lower"),
    "planner.jobs_unique": ("count", "lower"),
    "planner.render_ms": ("ms", "lower"),
    "runner.jobs_executed": ("count", "lower"),
    "runner.baseline_executions": ("count", "lower"),
    "runner.worker.completed": ("count", "higher"),
    "runner.worker.adopted": ("count", "lower"),
    "runner.worker.busy_skips": ("count", "lower"),
    "runner.worker.retries": ("count", "lower"),
    "runner.worker.claim_useful_ratio": ("ratio", "higher"),
    "runcache.store_us": ("us", "lower"),
    "runcache.load_us": ("us", "lower"),
    "runcache.claim_us": ("us", "lower"),
    "runcache.journal_append_us": ("us", "lower"),
    "runcache.entry_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.span_overhead_ns": ("ns", "lower"),
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SUITE_RE = re.compile(
    r"^suite: (?P<experiments>\d+) experiments, (?P<requested>\d+) runs requested, "
    r"(?P<unique>\d+) unique after dedup, (?P<simulated>\d+) simulated, "
    r"(?P<failed>\d+) failed, (?P<seconds>[0-9.]+)s$"
)
WORKER_RE = re.compile(r"^worker pid=(?P<pid>\d+): (?P<fields>(?:\w+=\S+ ?)+)$")


def parse_suite_summary(text):
    """The `suite: ...` line `exp_all` prints, as ints (seconds a float)."""
    for line in text.splitlines():
        m = SUITE_RE.match(line.strip())
        if m:
            d = {k: int(v) for k, v in m.groupdict().items() if k != "seconds"}
            d["seconds"] = float(m["seconds"])
            return d
    return None


def parse_worker_line(text):
    """The `worker pid=...: completed=... failed=...` line of `exp_all --worker`."""
    for line in text.splitlines():
        m = WORKER_RE.match(line.strip())
        if m:
            d = {"pid": int(m["pid"])}
            for field in m["fields"].split():
                key, value = field.split("=", 1)
                d[key] = float(value[:-1]) if value.endswith("s") else int(value)
            return d
    return None


def parse_records(text):
    """The `M`/`C`/`I`/`A` line records the Rust helper prints."""
    rec = {"metrics": {}, "checks": [], "info": {}, "attempted": 0, "failed": 0}
    for line in text.splitlines():
        parts = line.split(" ", 3)
        if parts[0] == "M" and len(parts) == 4:
            rec["metrics"][parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "C" and len(parts) >= 3:
            rec["checks"].append((parts[1], parts[2] == "ok", parts[3] if len(parts) > 3 else ""))
        elif parts[0] == "I" and len(parts) >= 3:
            rec["info"][parts[1]] = " ".join(parts[2:])
        elif parts[0] == "A" and len(parts) == 3:
            rec["attempted"] += int(parts[1])
            rec["failed"] += int(parts[2])
    return rec


def host_context():
    """nproc, load average and CPU model, for spotting noisy runs."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/proc/loadavg") as f:
            load = ",".join(f.read().split()[:3])
    except OSError:
        load = "unknown"
    steal, total = cpu_ticks()
    return {"nproc": os.cpu_count(), "loadavg": load, "cpu": model, "steal_ticks": steal, "total_ticks": total}


def cpu_ticks(stat_text=None):
    """(steal, total) ticks of all CPUs from the first line of /proc/stat.

    Steal is time the hypervisor gave this machine's vCPUs to others; a
    share of it during a run marks the run as noisy."""
    if stat_text is None:
        try:
            with open("/proc/stat") as f:
                stat_text = f.readline()
        except OSError:
            return 0, 0
    fields = stat_text.split()
    if not fields or fields[0] != "cpu":
        return 0, 0
    ticks = [int(x) for x in fields[1:]]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def validate_metrics(metrics, catalogue):
    """Problems with a `{name: {"value", "unit"}}` dict against a catalogue."""
    problems = []
    for name in catalogue:
        if name not in metrics:
            problems.append(f"missing metric {name}")
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"invalid metric name {name!r}")
        if name not in catalogue:
            problems.append(f"unlisted metric {name}")
            continue
        if m["unit"] != catalogue[name][0] or not UNIT_RE.match(m["unit"]):
            problems.append(f"{name}: unit {m['unit']!r}, expected {catalogue[name][0]!r}")
        v = m["value"]
        if not isinstance(v, (int, float)) or v != v or v in (float("inf"), float("-inf")):
            problems.append(f"{name}: value {v!r} is not a finite number")
    return problems


def is_correct(problems, attempted, failed):
    """Whether a run passed: no failed check, no failed operation, and at
    least one operation attempted."""
    return not problems and failed == 0 and attempted > 0


def result_line(correct, attempted, failed, metrics):
    """The one-line JSON result the benchmark prints last."""
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics},
        sort_keys=False,
    )
