//! Benchmark helper for the EDBP simulator.
//!
//! `run.py` calls this binary for everything that has to happen inside a
//! process linked against the simulator crates. Each subcommand prints
//! line records on stdout that `run.py` parses:
//!
//! * `M <name> <value> <unit>`: a metric;
//! * `C <name> ok|FAIL <detail>`: an output check;
//! * `A <attempted> <failed>`: operations attempted and failed;
//! * `I <key> <value>`: context (digests, counts).
//!
//! Subcommands (all take `--work DIR`, a scratch directory they own):
//!
//! * `solo --preset P --seed N --seconds S [--trace]`: the solo matrix;
//! * `suite-trace --scale SCALE --threads T --figs D`: the suite in-process;
//! * `runcache-probe --scale SCALE --dir D`: store/load/claim/journal costs;
//! * `layers --preset P --seed N --scale SCALE`: per-layer probes.

mod hop;
mod layers;
mod resources;
mod solo;
mod suite;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use ehs_energy::TracePreset;
use ehs_sim::{SourceKind, SystemConfig};
use ehs_workloads::{AppId, Scale};

/// The six applications of the solo matrix: a resident working set
/// (qsort) through a thrashing one (patricia).
pub const APPS: [AppId; 6] = [
    AppId::Crc32,
    AppId::Sha,
    AppId::Qsort,
    AppId::Dijkstra,
    AppId::Patricia,
    AppId::JpegEnc,
];

/// Printer for the line records `run.py` parses.
#[derive(Default)]
pub struct Out {
    attempted: u64,
    failed: u64,
}

impl Out {
    /// Prints one metric. Names are restricted to `[A-Za-z0-9_.-]`.
    pub fn metric(&self, name: &str, value: f64, unit: &str) {
        println!("M {} {value:?} {unit}", metric_name(name));
    }

    /// Prints one output check. `run.py` fails the run on any failed
    /// check; operations that failed are counted by `account`.
    pub fn check(&self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        let verdict = if ok { "ok" } else { "FAIL" };
        println!("C {} {verdict} {detail}", metric_name(name));
    }

    /// Prints one context record.
    pub fn info(&self, key: &str, value: impl std::fmt::Display) {
        println!("I {key} {value}");
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn account(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    fn finish(&self) {
        println!("A {} {}", self.attempted, self.failed);
    }
}

/// `name` with every character outside `[A-Za-z0-9_.-]` replaced by `_`.
pub fn metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// The paper-default platform powered by `preset` with RNG `seed`.
pub fn config_for(preset: TracePreset, seed: u64) -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    config.source = SourceKind::Preset {
        preset,
        seed,
        scale: 1.0,
    };
    config
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: &std::path::Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    path.to_path_buf()
}

/// Parsed `--key value` / `--flag` arguments.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut map = HashMap::new();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            let key = a
                .strip_prefix("--")
                .unwrap_or_else(|| usage(&format!("unexpected argument {a}")));
            let value = match args.peek() {
                Some(v) if !v.starts_with("--") => args.next().unwrap_or_default(),
                _ => "1".to_string(),
            };
            map.insert(key.to_string(), value);
        }
        Args(map)
    }

    /// The value of `--key`; exits with usage if it is missing.
    pub fn get(&self, key: &str) -> &str {
        self.0
            .get(key)
            .unwrap_or_else(|| usage(&format!("missing --{key}")))
    }

    /// `--key` parsed as a number.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.get(key)
            .parse()
            .unwrap_or_else(|_| usage(&format!("--{key} must be a number")))
    }

    /// Whether `--key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// `--scale` as a workload scale.
    pub fn scale(&self) -> Scale {
        match self.get("scale") {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            "full" => Scale::Full,
            s => usage(&format!("unknown scale {s}")),
        }
    }

    /// `--preset` as an energy-source preset.
    pub fn preset(&self) -> TracePreset {
        match self.get("preset") {
            "rfhome" => TracePreset::RfHome,
            "thermal" => TracePreset::Thermal,
            p => usage(&format!("unknown preset {p}")),
        }
    }

    /// `--work`, the scratch directory this subcommand may write to.
    pub fn work(&self) -> PathBuf {
        PathBuf::from(self.get("work"))
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("edbpbench: {msg}");
    eprintln!(
        "usage: edbpbench <solo|suite-trace|runcache-probe|layers> \
         --work DIR [options]"
    );
    std::process::exit(2);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage("missing subcommand"));
    let args = Args::parse(argv);
    let mut out = Out::default();
    match cmd.as_str() {
        "solo" => solo::main(&args, &mut out),
        "suite-trace" => suite::trace(&args, &mut out),
        "runcache-probe" => suite::runcache_probe(&args, &mut out),
        "layers" => layers::main(&args, &mut out),
        other => usage(&format!("unknown subcommand {other}")),
    }
    out.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(
            metric_name("sim.ns_per_instr.crc32.decay+edbp"),
            "sim.ns_per_instr.crc32.decay_edbp"
        );
        assert_eq!(metric_name("80%-leakage off"), "80_-leakage_off");
        assert_eq!(metric_name("cache.hit_ratio"), "cache.hit_ratio");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn args_take_values_and_flags() {
        let a = Args::parse(
            ["--seed", "7", "--trace", "--scale", "tiny"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.num::<u64>("seed"), 7);
        assert!(a.flag("trace"));
        assert_eq!(a.scale(), Scale::Tiny);
        assert!(!a.flag("missing"));
    }
}
