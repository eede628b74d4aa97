//! Suite-level subcommands: the planner, runner and run-cache layers
//! driven in-process through their public functions.

use std::path::Path;

use ehs_sim::planner::{plan_suite, render_titled, REGISTRY};
use ehs_sim::runcache::{self, ClaimOutcome, RunCache};
use ehs_sim::runner::{
    baseline_executions, effective_fingerprint, simulations_executed, try_run_jobs_outputs,
    unique_jobs, Job, JobOutput,
};

use ehs_sim::Scheme;
use ehs_workloads::{AppId, Scale};

use crate::{fresh_dir, median, timed, Args, Out};

/// Entries the run-cache probe stores, loads, claims and journals.
const PROBE_ENTRIES: usize = 300;

/// A job's run-cache key.
fn entry_key(job: &Job) -> (u64, Scheme, AppId, Scale) {
    let fp = effective_fingerprint(&job.config, job.scheme);
    (fp, job.scheme, job.app, job.scale)
}

/// The `suite-trace` subcommand: the suite in-process with a fresh run
/// cache, each layer's calls timed, figures written to `--figs`.
pub fn trace(args: &Args, out: &mut Out) {
    let scale = args.scale();
    let threads: usize = args.num("threads");
    let figs = fresh_dir(Path::new(args.get("figs")));
    runcache::install(fresh_dir(&args.work().join("trace-cache")));

    let (plan_s, plan) = timed(|| plan_suite(scale));
    let (unique_s, unique) = timed(|| unique_jobs(&plan.jobs));
    let (executed0, baseline0) = (simulations_executed(), baseline_executions());
    let outputs = try_run_jobs_outputs(&plan.jobs, threads);
    let failed = outputs.iter().filter(|r| r.is_err()).count();
    let mut render_s = 0.0;
    for (exp, range) in REGISTRY.iter().zip(&plan.sections) {
        let ok: Option<Vec<JobOutput>> = outputs[range.clone()]
            .iter()
            .map(|r| r.as_ref().ok().cloned())
            .collect();
        let Some(ok) = ok else { continue };
        let (t, text) = timed(|| render_titled(exp.title, &(exp.report)(&ok)));
        render_s += t;
        std::fs::write(figs.join(format!("{}.txt", exp.name)), text).expect("writing a figure");
    }
    out.account(plan.jobs.len() as u64, failed as u64);
    out.metric("planner.plan_ms", (plan_s + unique_s) * 1e3, "ms");
    out.metric("planner.jobs_requested", plan.jobs.len() as f64, "count");
    out.metric("planner.jobs_unique", unique.len() as f64, "count");
    out.metric("planner.render_ms", render_s * 1e3, "ms");
    out.metric(
        "runner.jobs_executed",
        (simulations_executed() - executed0) as f64,
        "count",
    );
    out.metric(
        "runner.baseline_executions",
        (baseline_executions() - baseline0) as f64,
        "count",
    );
}

/// The `runcache-probe` subcommand: loads entries of a filled suite cache,
/// stores them into a scratch directory, claims and journals them there.
pub fn runcache_probe(args: &Args, out: &mut Out) {
    let src = RunCache::new(args.get("dir")).expect("suite cache directory");
    let dst = RunCache::new(fresh_dir(&args.work().join("probe-cache"))).expect("scratch cache");
    let plan = plan_suite(args.scale());
    let jobs: Vec<Job> = unique_jobs(&plan.jobs)
        .into_iter()
        .take(PROBE_ENTRIES)
        .collect();
    let (mut load, mut store, mut claim, mut append) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut failed) = (0u64, 0u64);
    for job in &jobs {
        let (fp, scheme, app, scale) = entry_key(job);
        let stem = runcache::entry_stem(fp, scheme, app, scale);
        let (t, loaded) = timed(|| src.load(fp, scheme, app, scale));
        load.push(t);
        let Some(loaded) = loaded else {
            failed += 1;
            continue;
        };
        bytes += std::fs::metadata(src.dir().join(format!("{stem}.run"))).map_or(0, |m| m.len());
        let (t, stored) = timed(|| {
            dst.store(
                fp,
                scheme,
                app,
                scale,
                &loaded.result,
                loaded.zombie_samples.as_deref(),
            )
        });
        store.push(t);
        let (t, lease) = timed(|| dst.claim(fp, scheme, app, scale));
        claim.push(t);
        failed += u64::from(!stored || !matches!(lease, ClaimOutcome::Held(_)));
        drop(lease);
        let (t, ()) = timed(|| dst.journal_append(&stem));
        append.push(t);
    }
    out.account(jobs.len() as u64, failed);
    out.metric("runcache.load_us", median(&load) * 1e6, "us");
    out.metric("runcache.store_us", median(&store) * 1e6, "us");
    out.metric("runcache.claim_us", median(&claim) * 1e6, "us");
    out.metric("runcache.journal_append_us", median(&append) * 1e6, "us");
    out.metric(
        "runcache.entry_bytes",
        bytes as f64 / jobs.len() as f64,
        "bytes",
    );
}
