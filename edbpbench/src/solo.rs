//! The solo workloads: {six apps} × {Baseline, Edbp, DecayEdbp, Ideal} on
//! one energy source, each run on its own lane (`build_lane` +
//! `advance_until`), with no runner and no run cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ehs_sim::{build_lane, LaneRun, RunOutcome, RunResult, Scheme, SystemConfig};
use ehs_workloads::{build, AppId, Scale};

use crate::hop::Hopper;
use crate::{config_for, median, resources, timed, Args, Out, APPS};

/// The schemes of the solo matrix.
pub const SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::Edbp,
    Scheme::DecayEdbp,
    Scheme::Ideal,
];

/// Committed instructions per timed slice of a lane: 1.5 to 3.5 ms of
/// simulation, short against the host's speed phases (see `hop`).
pub const SLICE: u64 = 50_000;

/// Per-call spans of a traced pass.
#[derive(Default)]
pub struct Spans {
    /// Seconds in each `build_lane` call.
    pub lane_build: Vec<f64>,
    /// Seconds in each `record_generation_trace` call (one per app).
    pub oracle_record: Vec<f64>,
}

/// One pass over the matrix.
pub struct Pass {
    /// Seconds of each set-up step (per app: `build`, building the oracle
    /// record's lane, each `SLICE` of the oracle record, four
    /// `build_lane`s), in order.
    pub setup_steps: Vec<f64>,
    /// Building workloads, oracle traces and lanes.
    pub setup_s: f64,
    /// Running every lane.
    pub wall_s: f64,
    /// Wall seconds of each lane's run, matrix order.
    pub lane_wall: Vec<f64>,
    /// Wall seconds of each `SLICE` of each lane, matrix order.
    pub slice_wall: Vec<Vec<f64>>,
    /// Thread CPU seconds of each `SLICE` of each lane, matrix order.
    pub slice_cpu: Vec<Vec<f64>>,
    /// `(app, scheme, result)` in matrix order; `None` if the run panicked.
    pub results: Vec<(AppId, Scheme, Option<RunResult>)>,
}

impl Pass {
    /// Committed instructions over every completed run.
    pub fn committed(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|(_, _, r)| r.as_ref())
            .map(|r| r.committed)
            .sum()
    }

    /// The result of `(app, scheme)`, if it ran.
    pub fn result(&self, app: AppId, scheme: Scheme) -> Option<&RunResult> {
        self.results
            .iter()
            .find(|(a, s, _)| *a == app && *s == scheme)
            .and_then(|(_, _, r)| r.as_ref())
    }
}

/// Each sample's minimum over the passes so far, where a sample is a
/// set-up step or a slice of a lane and every pass takes the same samples
/// in the same order. A slice is short against the host's slow phases
/// (see `hop`), so its minimum over passes seconds apart is its time in a
/// fast phase unless every pass hit a slow phase there. Empty before the
/// first pass.
#[derive(Default)]
pub struct Best {
    setup: Vec<f64>,
    wall: Vec<Vec<f64>>,
    cpu: Vec<Vec<f64>>,
    /// Whether every pass so far took the same samples.
    pub aligned: bool,
}

impl Best {
    /// Folds `pass` in.
    pub fn update(&mut self, pass: &Pass) {
        if self.wall.is_empty() {
            self.setup.clone_from(&pass.setup_steps);
            self.wall.clone_from(&pass.slice_wall);
            self.cpu.clone_from(&pass.slice_cpu);
            self.aligned = true;
            return;
        }
        let shape = |v: &[Vec<f64>]| v.iter().map(Vec::len).collect::<Vec<_>>();
        self.aligned &= self.setup.len() == pass.setup_steps.len()
            && shape(&self.wall) == shape(&pass.slice_wall)
            && shape(&self.cpu) == shape(&pass.slice_cpu);
        fold_min(&mut self.setup, &pass.setup_steps);
        for (b, x) in self.wall.iter_mut().zip(&pass.slice_wall) {
            fold_min(b, x);
        }
        for (b, x) in self.cpu.iter_mut().zip(&pass.slice_cpu) {
            fold_min(b, x);
        }
    }

    /// Sums of the minima: (set-up, wall, CPU) seconds.
    pub fn totals(&self) -> (f64, f64, f64) {
        let sum = |v: &[Vec<f64>]| v.iter().flatten().sum::<f64>();
        (self.setup.iter().sum(), sum(&self.wall), sum(&self.cpu))
    }
}

fn fold_min(best: &mut [f64], xs: &[f64]) {
    for (b, x) in best.iter_mut().zip(xs) {
        *b = b.min(*x);
    }
}

/// Runs `lane` to completion `SLICE` committed instructions at a time,
/// pushing each slice's wall and thread CPU seconds and showing each to
/// `hopper` beside `best`, the lane's per-slice minimum (empty on the
/// first pass). Incremental `advance_until` is bit-identical to one
/// uninterrupted run (`run_lane`).
fn run_sliced(
    mut lane: Box<dyn LaneRun>,
    best: &[f64],
    hopper: &mut Hopper,
    wall: &mut Vec<f64>,
    cpu: &mut Vec<f64>,
) -> RunOutcome {
    let mut target = 0;
    while !lane.done() {
        target += SLICE;
        let c = resources::thread_cpu_seconds();
        let t = Instant::now();
        lane.advance_until(target);
        let w = t.elapsed().as_secs_f64();
        cpu.push(resources::thread_cpu_seconds() - c);
        hopper.sample(w, best.get(wall.len()));
        wall.push(w);
    }
    lane.finish_collecting()
}

/// Runs the matrix once at `scale`, timing each set-up step and each slice
/// of each lane and showing each to `hopper` beside its `best`. With
/// `spans`, also records the set-up calls by kind.
#[allow(clippy::type_complexity)]
pub fn run_pass(
    config: &SystemConfig,
    scale: Scale,
    best: &Best,
    hopper: &mut Hopper,
    mut spans: Option<&mut Spans>,
) -> Pass {
    let mut setup_steps = Vec::new();
    let step = |steps: &mut Vec<f64>, t: f64, hopper: &mut Hopper| {
        hopper.sample(t, best.setup.get(steps.len()));
        steps.push(t);
    };
    // `None` marks a lane whose set-up failed; its run counts as failed.
    let mut lanes: Vec<(AppId, Scheme, Option<Box<dyn LaneRun>>)> = Vec::new();
    for app in APPS {
        let (t, workload) = timed(|| build(app, scale));
        step(&mut setup_steps, t, hopper);
        // Ideal's oracle pass: `record_generation_trace`, which is a
        // recording Baseline lane run to completion, here run in slices.
        let (t, trace) = timed(|| {
            let (t, lane) =
                timed(|| build_lane(config, Scheme::Baseline, workload.clone(), None, true));
            step(&mut setup_steps, t, hopper);
            let best = best.setup.get(setup_steps.len()..).unwrap_or_default();
            let mut slices = Vec::new();
            let trace = lane.ok().and_then(|lane| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_sliced(lane, best, hopper, &mut slices, &mut Vec::new()).trace
                }))
                .ok()
                .flatten()
            });
            setup_steps.extend(slices);
            trace
        });
        if let Some(s) = spans.as_deref_mut() {
            s.oracle_record.push(t);
        }
        for scheme in SCHEMES {
            let oracle = if scheme.needs_oracle_trace() {
                trace.clone()
            } else {
                None
            };
            let (t, lane) = timed(|| {
                if scheme.needs_oracle_trace() && oracle.is_none() {
                    return None;
                }
                build_lane(config, scheme, workload.clone(), oracle, false).ok()
            });
            step(&mut setup_steps, t, hopper);
            if let Some(s) = spans.as_deref_mut() {
                s.lane_build.push(t);
            }
            lanes.push((app, scheme, lane));
        }
    }

    let start = Instant::now();
    let (mut slice_wall, mut slice_cpu, mut lane_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut results = Vec::with_capacity(lanes.len());
    for (i, (app, scheme, lane)) in lanes.into_iter().enumerate() {
        let best = best.wall.get(i).map_or(&[][..], Vec::as_slice);
        let (mut wall, mut cpu) = (Vec::new(), Vec::new());
        let (t, result) = timed(|| {
            lane.and_then(|lane| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_sliced(lane, best, hopper, &mut wall, &mut cpu).result
                }))
                .ok()
            })
        });
        lane_wall.push(t);
        slice_wall.push(wall);
        slice_cpu.push(cpu);
        results.push((app, scheme, result));
    }
    Pass {
        setup_s: setup_steps.iter().sum(),
        setup_steps,
        wall_s: start.elapsed().as_secs_f64(),
        lane_wall,
        slice_wall,
        slice_cpu,
        results,
    }
}

/// Checks every run of `pass` (completed, no brown-outs) and counts it. A
/// run that failed to build, panicked, ended incomplete or browned out
/// counts as failed and fails the check.
pub fn account_pass(pass: &Pass, out: &mut Out) {
    let failed: Vec<String> = pass
        .results
        .iter()
        .filter(|(_, _, r)| !r.as_ref().is_some_and(|r| r.completed && r.brownouts == 0))
        .map(|(app, scheme, _)| format!("{}/{scheme:?}", app.name()))
        .collect();
    out.account(pass.results.len() as u64, failed.len() as u64);
    out.check(
        "solo.runs_completed",
        failed.is_empty(),
        format!(
            "{} of {} failed: {}",
            failed.len(),
            pass.results.len(),
            failed.join(" ")
        ),
    );
}

/// FNV-1a digest of every simulated field of every result (all but the
/// host-timed `sim_mips`), so two commits compare exactly.
pub fn digest(pass: &Pass) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (app, scheme, r) in &pass.results {
        let text = match r {
            Some(r) => format!(
                "{:?}",
                RunResult {
                    sim_mips: 0.0,
                    ..r.clone()
                }
            ),
            None => format!("{app:?} {scheme:?} failed"),
        };
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Geomean over the apps of Baseline simulated time over Edbp simulated time.
pub fn edbp_speedup(pass: &Pass) -> f64 {
    let logs: Vec<f64> = APPS
        .iter()
        .filter_map(|&app| {
            let base = pass
                .result(app, Scheme::Baseline)?
                .total_time()
                .as_seconds();
            let edbp = pass.result(app, Scheme::Edbp)?.total_time().as_seconds();
            Some((base / edbp).ln())
        })
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The `solo` subcommand. A traced run makes the per-layer probes only.
pub fn main(args: &Args, out: &mut Out) {
    let config = config_for(args.preset(), args.num("seed"));
    if args.flag("trace") {
        crate::layers::run(&config, Scale::Full, out);
        return;
    }
    let seconds: f64 = args.num("seconds");
    let start = Instant::now();
    let (mut hopper, mut best) = (Hopper::new(), Best::default());
    let (mut first, mut digests, mut raw) = (None, Vec::new(), Vec::new());
    loop {
        let pass = run_pass(&config, Scale::Full, &best, &mut hopper, None);
        best.update(&pass);
        let pass_s = pass.setup_s + pass.wall_s;
        out.info(
            "pass",
            format!("wall={:.4}s setup={:.4}s", pass.wall_s, pass.setup_s),
        );
        account_pass(&pass, out);
        digests.push(digest(&pass));
        raw.push(pass.wall_s);
        first.get_or_insert(pass);
        if start.elapsed().as_secs_f64() + pass_s > seconds {
            break;
        }
    }
    out.check(
        "solo.deterministic",
        digests.iter().all(|&d| d == digests[0]),
        format!("{} pass(es)", digests.len()),
    );
    out.check(
        "solo.slices_aligned",
        best.aligned,
        "passes timed different numbers of slices or set-up steps",
    );
    out.info("digest", format!("{:016x}", digests[0]));
    out.info("passes", digests.len());
    out.info("raw_wall_median", format!("{:.4}s", median(&raw)));
    out.info(
        "hops",
        format!("{} between {} CPUs", hopper.hops, hopper.cpus()),
    );
    let first = first.expect("at least one pass");
    let (setup, wall, cpu) = best.totals();
    out.info("committed", first.committed());
    out.info(
        "outages",
        first
            .results
            .iter()
            .filter_map(|(_, _, r)| r.as_ref())
            .map(|r| r.outages)
            .sum::<u64>(),
    );
    out.metric("wall_s", wall, "s");
    out.metric("cpu_s", cpu, "s");
    out.metric("sim_mips", first.committed() as f64 / wall / 1e6, "MIPS");
    out.metric("setup_s", setup, "s");
    out.metric("peak_rss_mb", resources::peak_rss_mib(), "MiB");
    out.metric("edbp_speedup", edbp_speedup(&first), "x");
}
