//! Moving the timed thread off a vCPU that is in a slow phase.
//!
//! On the shared host this was tuned on, each vCPU runs the simulator at
//! one of two speeds about 2x apart, switching every 0.1 to a few seconds
//! and independently of the other vCPU, while a dependent-ALU loop keeps
//! its speed. The share of time at the slow speed drifts over minutes, so
//! whole-run times spread by up to 2x between runs of the same code.
//!
//! The solo workloads time each lane in short slices and keep each
//! slice's minimum over passes (see `solo::Best`). A slice that takes more
//! than `SLOW_RATIO` times its minimum so far marks the vCPU as slow, and
//! the thread moves to the next one, so later passes find a fast phase at
//! more slices. No probe runs: the slices are the probe.

/// A sample this much slower than its minimum so far is slow. Samples in
/// a fast phase stay within about 1.25x of their minimum.
const SLOW_RATIO: f64 = 1.5;

/// The CPUs the timed thread may use and the one it is pinned to.
pub struct Hopper {
    cpus: Vec<usize>,
    at: usize,
    /// Moves to another CPU.
    pub hops: u64,
}

impl Hopper {
    /// A hopper over the CPUs the calling thread may run on, pinned to
    /// the first of them; with fewer than two it never moves.
    pub fn new() -> Self {
        let h = Hopper {
            cpus: allowed_cpus(),
            at: 0,
            hops: 0,
        };
        if h.cpus.len() > 1 {
            pin(h.cpus[0]);
        }
        h
    }

    /// Notes a sample of `t` seconds whose minimum so far is `best` (none
    /// on the first pass); moves the thread if the sample is slow.
    pub fn sample(&mut self, t: f64, best: Option<&f64>) {
        if best.is_some_and(|&b| t > SLOW_RATIO * b) {
            self.hop();
        }
    }

    /// Moves the thread to the next allowed CPU (no-op with one CPU).
    fn hop(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        self.at = (self.at + 1) % self.cpus.len();
        if pin(self.cpus[self.at]) {
            self.hops += 1;
        }
    }

    /// How many CPUs it moves between.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }
}

/// `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on (empty if unknown).
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable cpu_set_t of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; whether that worked.
fn pin(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a cpu_set_t of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_on_slow_samples_only() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let mut h = Hopper::new();
        // No minimum yet, or within `SLOW_RATIO` of it: no move.
        for (t, best) in [(9.0, None), (1.0, Some(&1.0)), (1.4, Some(&1.0))] {
            h.sample(t, best);
        }
        assert_eq!(h.hops, 0);
        h.sample(2.0, Some(&1.0));
        h.sample(2.0, Some(&1.0));
        assert_eq!(h.hops, if cpus.len() > 1 { 2 } else { 0 });
    }
}
