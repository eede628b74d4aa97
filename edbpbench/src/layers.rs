//! Per-layer probes of a traced run. Each probe times calls into one
//! layer's public functions, from outside, with inputs derived from the
//! workload: its energy source, its scale and the six solo apps.

use std::collections::HashSet;
use std::time::Instant;

use edbp_core::{Edbp, EdbpConfig, LeakagePredictor, TickOutcome};
use ehs_cache::{AccessKind, Cache, LookupResult};
use ehs_cpu::{Core, Effect};
use ehs_energy::{voltage_sqrt_count, BurstPlan, EnergySystem, SourceConfig, StepEvent};
use ehs_sim::{
    build_lane, record_generation_trace, run_lane, run_lockstep, MemorySystem, RunResult, Scheme,
    SourceKind, SystemConfig,
};
use ehs_units::{Energy, Voltage};
use ehs_workloads::{build, AppId, Scale, Workload};

use crate::hop::Hopper;
use crate::solo::{account_pass, run_pass, Best, Pass, Spans};
use crate::{config_for, median, timed, Args, Out, APPS};

/// Cycles per burst in the energy probe.
const BURST_CYCLES: u64 = 8;

/// The `layers` subcommand.
pub fn main(args: &Args, out: &mut Out) {
    run(
        &config_for(args.preset(), args.num("seed")),
        args.scale(),
        out,
    );
}

/// Every probe.
pub fn run(config: &SystemConfig, scale: Scale, out: &mut Out) {
    let builds: Vec<f64> = (0..3)
        .map(|_| timed(|| APPS.map(|app| build(app, scale))).0)
        .collect();
    out.metric("workloads.build_ms", median(&builds) * 1e3, "ms");

    let mut spans = Spans::default();
    let pass = run_pass(
        config,
        scale,
        &Best::default(),
        &mut Hopper::new(),
        Some(&mut spans),
    );
    account_pass(&pass, out);
    sim_matrix(&pass, &spans, out);

    let baselines: Vec<&RunResult> = APPS
        .iter()
        .filter_map(|&app| pass.result(app, Scheme::Baseline))
        .collect();
    let workloads: Vec<Workload> = APPS.iter().map(|&app| build(app, scale)).collect();
    let streams = cpu(&workloads, &baselines, out);
    cache(config, &streams, &baselines, out);
    predictor(config, &streams, &pass, out);
    overhead(config, &streams, &pass, out);
    energy(config, &baselines, out);
    memory(config, &streams, out);
    lockstep(config, out);
    out.metric("sim.matrix_s", pass.wall_s, "s");
}

/// Tracing overhead: the cache and predictor replays with their per-call
/// spans over the same replays without, median of three alternating pairs.
fn overhead(config: &SystemConfig, streams: &[Stream], pass: &Pass, out: &mut Out) {
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (spans, times) in [(false, &mut plain), (true, &mut traced)] {
            let cache = replay_cache(config, streams, spans).total;
            times.push(cache + replay_predictor(config, streams, pass, spans).total);
        }
    }
    out.metric(
        "trace.overhead_ratio",
        median(&traced) / median(&plain),
        "ratio",
    );
}

/// Timer cost of one per-call span, in seconds: what an empty span reads
/// (`inside`, subtracted from each span) and what it adds to the loop
/// around it (`pair`).
struct SpanCost {
    inside: f64,
    pair: f64,
}

fn span_cost() -> SpanCost {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut inside = 0.0;
    for _ in 0..N {
        let t = Instant::now();
        inside += t.elapsed().as_secs_f64();
    }
    SpanCost {
        inside: inside / f64::from(N),
        pair: start.elapsed().as_secs_f64() / f64::from(N),
    }
}

fn sim_matrix(pass: &Pass, spans: &Spans, out: &mut Out) {
    let lane_build = spans.lane_build.iter().sum::<f64>() / spans.lane_build.len() as f64;
    out.metric("sim.lane_build_us", lane_build * 1e6, "us");
    out.metric(
        "core.oracle_record_ms",
        spans.oracle_record.iter().sum::<f64>() * 1e3,
        "ms",
    );
    out.info("digest", format!("{:016x}", crate::solo::digest(pass)));
    let (mut outages, mut committed) = (0u64, 0u64);
    for ((app, scheme, result), t) in pass.results.iter().zip(&pass.lane_wall) {
        if let Some(r) = result {
            let name = format!("sim.ns_per_instr.{}.{}", app.name(), scheme_name(*scheme));
            out.metric(&name, t * 1e9 / r.committed as f64, "ns");
            outages += r.outages;
            committed += r.committed;
        }
    }
    out.metric(
        "sim.outages_per_minstr",
        outages as f64 * 1e6 / committed as f64,
        "1/Minstr",
    );
}

fn scheme_name(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Baseline => "baseline",
        Scheme::Edbp => "edbp",
        Scheme::DecayEdbp => "decay_edbp",
        Scheme::Ideal => "ideal",
        _ => "other",
    }
}

/// One app's data-access stream: `(address, kind)` per committed load or store.
type Stream = Vec<(u64, AccessKind)>;

/// Steps a core over each program, loads returning 0 (every app's control
/// flow is data independent), and records the data-access streams.
fn cpu(workloads: &[Workload], baselines: &[&RunResult], out: &mut Out) -> Vec<Stream> {
    let mut instructions = 0u64;
    let mut seconds = 0.0;
    for w in workloads {
        let program = &*w.program;
        let mut core = Core::new(program);
        let start = Instant::now();
        loop {
            match core.step(program) {
                Effect::Halted => break,
                Effect::Load { dst, .. } => core.finish_load(dst, 0),
                Effect::Compute | Effect::Store { .. } => {}
            }
        }
        seconds += start.elapsed().as_secs_f64();
        instructions += core.committed();
    }
    out.metric("cpu.step_ns", seconds * 1e9 / instructions as f64, "ns");
    out.metric("cpu.instructions", instructions as f64, "count");
    let expected: u64 = baselines.iter().map(|r| r.committed).sum();
    out.check(
        "cpu.instructions_match_committed",
        instructions == expected && baselines.len() == workloads.len(),
        format!("{instructions} stepped vs {expected} committed"),
    );

    workloads
        .iter()
        .map(|w| {
            let program = &*w.program;
            let mut core = Core::new(program);
            let mut stream = Vec::new();
            loop {
                match core.step(program) {
                    Effect::Halted => break,
                    Effect::Load { dst, addr } => {
                        core.finish_load(dst, 0);
                        stream.push((u64::from(addr), AccessKind::Read));
                    }
                    Effect::Store { addr, .. } => stream.push((u64::from(addr), AccessKind::Write)),
                    Effect::Compute => {}
                }
            }
            stream
        })
        .collect()
}

/// One replay of the streams through a D-cache of the run's geometry and
/// policy; with `spans`, each fill is timed on its own.
#[derive(Default)]
struct CacheReplay {
    total: f64,
    fill_spans: f64,
    fills: u64,
    hits: u64,
    accesses: u64,
}

fn replay_cache(config: &SystemConfig, streams: &[Stream], spans: bool) -> CacheReplay {
    let mut r = CacheReplay::default();
    for stream in streams {
        let mut cache = Cache::new(config.dcache);
        let mask = !(u64::from(cache.block_bytes()) - 1);
        let zero = vec![0u8; cache.block_bytes() as usize];
        let start = Instant::now();
        for &(addr, kind) in stream {
            match cache.lookup_with(addr, kind, |_, _| {}) {
                LookupResult::Hit(_) => r.hits += 1,
                LookupResult::Miss(_) => {
                    let dirty = kind == AccessKind::Write;
                    if spans {
                        let t = Instant::now();
                        cache.fill(addr & mask, &zero, dirty);
                        r.fill_spans += t.elapsed().as_secs_f64();
                    } else {
                        cache.fill(addr & mask, &zero, dirty);
                    }
                    r.fills += 1;
                }
            }
        }
        r.total += start.elapsed().as_secs_f64();
        r.accesses += stream.len() as u64;
    }
    r
}

fn cache(config: &SystemConfig, streams: &[Stream], baselines: &[&RunResult], out: &mut Out) {
    let cost = span_cost();
    let r = replay_cache(config, streams, true);
    let fill = r.fill_spans / r.fills.max(1) as f64 - cost.inside;
    let lookup =
        (r.total - r.fill_spans - (cost.pair - cost.inside) * r.fills as f64) / r.accesses as f64;
    out.metric("cache.lookup_ns", lookup * 1e9, "ns");
    out.metric("cache.fill_ns", fill * 1e9, "ns");
    out.metric("cache.accesses", r.accesses as f64, "count");
    out.metric(
        "cache.hit_ratio",
        r.hits as f64 / r.accesses as f64,
        "ratio",
    );
    out.metric("trace.span_overhead_ns", cost.inside * 1e9, "ns");
    let expected: u64 = baselines.iter().map(|r| r.loads + r.stores).sum();
    out.check(
        "cache.accesses_match_loads_stores",
        r.accesses == expected,
        format!("{} replayed vs {expected} loads+stores", r.accesses),
    );
}

/// One run of an EDBP predictor over each stream with a voltage that
/// decays from `V_rst` to `V_ckpt` once per power cycle, a cycle lasting as
/// many accesses as the app's Edbp run averaged between outages; with
/// `spans`, each tick is timed on its own.
#[derive(Default)]
struct PredictorReplay {
    total: f64,
    tick_spans: f64,
    ticks: u64,
    gated: u64,
}

fn replay_predictor(
    config: &SystemConfig,
    streams: &[Stream],
    pass: &Pass,
    spans: bool,
) -> PredictorReplay {
    let v_rst = config.energy.thresholds.v_rst.as_volts();
    let v_ckpt = config.energy.thresholds.v_ckpt.as_volts();
    let mut r = PredictorReplay::default();
    let mut scratch = TickOutcome::default();
    for (&app, stream) in APPS.iter().zip(streams) {
        let outages = pass.result(app, Scheme::Edbp).map_or(0, |r| r.outages);
        let cycle_len = (stream.len() as u64 / (outages + 1)).max(1);
        let mut cache = Cache::new(config.dcache);
        let mut edbp = Edbp::new(
            config
                .edbp
                .clone()
                .unwrap_or_else(|| EdbpConfig::for_cache(&cache)),
        );
        let mask = !(u64::from(cache.block_bytes()) - 1);
        let zero = vec![0u8; cache.block_bytes() as usize];
        let start = Instant::now();
        for (i, &(addr, kind)) in stream.iter().enumerate() {
            let pos = i as u64 % cycle_len;
            if pos == 0 && i > 0 {
                edbp.on_checkpoint(&cache);
                edbp.on_reboot(&cache);
                cache.ungate_all();
            }
            match cache.lookup_with(addr, kind, |_, _| {}) {
                LookupResult::Hit(h) => edbp.on_hit(&cache, h.block, addr),
                LookupResult::Miss(m) => {
                    edbp.on_miss(addr);
                    if let Some(evicted) = m.evicted {
                        edbp.on_evict(evicted);
                    }
                    let block = cache.fill(addr & mask, &zero, kind == AccessKind::Write);
                    edbp.on_fill(&cache, block, addr & mask);
                }
            }
            let v = Voltage::from_volts(v_rst - (v_rst - v_ckpt) * pos as f64 / cycle_len as f64);
            if spans {
                let t = Instant::now();
                edbp.tick_into(&mut cache, v, i as u64, &mut scratch);
                r.tick_spans += t.elapsed().as_secs_f64();
            } else {
                edbp.tick_into(&mut cache, v, i as u64, &mut scratch);
            }
            r.ticks += 1;
            r.gated += scratch.gated.len() as u64;
            scratch.clear();
        }
        r.total += start.elapsed().as_secs_f64();
    }
    r
}

fn predictor(config: &SystemConfig, streams: &[Stream], pass: &Pass, out: &mut Out) {
    let cost = span_cost();
    let r = replay_predictor(config, streams, pass, true);
    out.metric(
        "core.tick_ns",
        (r.tick_spans / r.ticks as f64 - cost.inside) * 1e9,
        "ns",
    );
    out.metric("core.ticks", r.ticks as f64, "count");
    out.metric("core.gated_blocks", r.gated as f64, "count");
}

/// Drains the workload's energy source with the Baseline runs' mean
/// per-cycle draw for as many cycles as those runs spent powered on.
fn energy(config: &SystemConfig, baselines: &[&RunResult], out: &mut Out) {
    let SourceKind::Preset {
        preset,
        seed,
        scale,
    } = config.source
    else {
        panic!("the benchmark's workloads use preset sources");
    };
    let source = SourceConfig::preset(preset)
        .with_seed(seed)
        .with_power_scale(scale)
        .build();
    let mut system = EnergySystem::new(config.energy.clone(), source).expect("valid energy config");
    let hz = config.frequency.as_hertz();
    let cycles_on: f64 = baselines.iter().map(|r| r.on_time.as_seconds() * hz).sum();
    let drawn: f64 = baselines.iter().map(|r| r.energy.total().as_joules()).sum();
    let plan = BurstPlan {
        max_cycles: BURST_CYCLES,
        dt: config.cycle_time(),
        load: Energy::from_joules(drawn / cycles_on),
        frequency: config.frequency,
        wake_at_cycle: None,
        wake_below_voltage: None,
    };
    let total = cycles_on as u64;
    let sqrt_before = voltage_sqrt_count();
    let (mut cycles, mut bursts, mut recharge, mut recharges) = (0u64, 0u64, 0.0, 0u64);
    let mut overdraw = Energy::ZERO;
    let start = Instant::now();
    while cycles < total {
        let (n, event) = system.step_burst(&plan, &mut overdraw);
        cycles += n;
        bursts += 1;
        if event != StepEvent::Running {
            let (t, outcome) = timed(|| system.power_off_and_recharge());
            recharge += t;
            recharges += 1;
            if !outcome.recovered {
                break;
            }
        }
    }
    let bursting = start.elapsed().as_secs_f64() - recharge;
    out.metric(
        "energy.burst_ns_per_cycle",
        bursting * 1e9 / cycles as f64,
        "ns",
    );
    out.metric("energy.bursts", bursts as f64, "count");
    out.metric(
        "energy.recharge_us",
        recharge * 1e6 / recharges.max(1) as f64,
        "us",
    );
    out.metric("energy.outages", system.stats().outages as f64, "count");
    out.metric(
        "energy.sqrt_calls",
        (voltage_sqrt_count() - sqrt_before) as f64,
        "count",
    );
}

/// Writes back and restores every distinct block the streams touch.
fn memory(config: &SystemConfig, streams: &[Stream], out: &mut Out) {
    let mut memory = MemorySystem::new(config);
    let block = u64::from(config.dcache.geometry.block_bytes);
    let blocks: Vec<u64> = streams
        .iter()
        .flatten()
        .map(|&(addr, _)| addr & !(block - 1))
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    let data = vec![0xa5u8; block as usize];
    let (wb, _) = timed(|| {
        for &b in &blocks {
            std::hint::black_box(memory.write_back_from(b, &data));
        }
    });
    let (restore, _) = timed(|| {
        for &b in &blocks {
            std::hint::black_box(memory.restore_block(b, &data, false));
        }
    });
    out.metric("sim.writeback_ns", wb * 1e9 / blocks.len() as f64, "ns");
    out.metric("sim.restore_ns", restore * 1e9 / blocks.len() as f64, "ns");
}

/// Nine schemes over one Small app, grouped in lockstep vs run one by one.
fn lockstep(config: &SystemConfig, out: &mut Out) {
    let workload = build(AppId::Sha, Scale::Small);
    let trace = record_generation_trace(config, workload.clone());
    let lanes = || {
        Scheme::ALL
            .iter()
            .map(|&s| {
                let oracle = s.needs_oracle_trace().then(|| trace.clone());
                build_lane(config, s, workload.clone(), oracle, false).expect("valid config")
            })
            .collect::<Vec<_>>()
    };
    let (mut grouped, mut solo) = (Vec::new(), Vec::new());
    let mut same = true;
    for _ in 0..3 {
        let group = lanes();
        let (t, a) = timed(|| run_lockstep(group));
        grouped.push(t);
        let one_by_one = lanes();
        let (t, b) = timed(|| one_by_one.into_iter().map(run_lane).collect::<Vec<_>>());
        solo.push(t);
        same &= a.iter().zip(&b).all(|(x, y)| x.result == y.result);
    }
    out.metric("sim.lockstep_group_ms", median(&grouped) * 1e3, "ms");
    out.metric("sim.solo_group_ms", median(&solo) * 1e3, "ms");
    out.check(
        "sim.lockstep_matches_solo",
        same,
        "nine schemes, sha, small",
    );
}
