//! Tag-probe kernels: compare every way's tag against a needle at once,
//! producing a hit mask.
//!
//! The cache's SoA layout keeps each set's tags in `ways` adjacent `u64`
//! words, and empty (invalid or gated) frames hold the `TAG_NONE` sentinel
//! that no real tag can equal — so the whole probe is a pure equality
//! compare over one small slice, which is exactly the shape SIMD wants.
//!
//! Two implementations share one contract (`probe(tags, needle)` returns
//! bit `w` set iff `tags[w] == needle`):
//!
//! * [`probe_scalar`] — the semantic reference. The portable path is
//!   pinned to it by unit tests and proptests; any divergence is a bug in
//!   the wide path, never a spec change.
//! * [`probe_portable`] — fixed-width `[u64; 4]` chunks written so stable
//!   rustc autovectorizes them on any target; the remainder (and therefore
//!   the 1-way degenerate case) runs the scalar loop and never reads past
//!   the set's tag column. [`probe`] always calls it.

/// Widest associativity any probe implementation can report: the hit mask
/// is a `u32`, one bit per way, and every wide path finishes arbitrary
/// remainders with the scalar loop. [`Cache::new`](crate::Cache::new)
/// asserts the configured associativity fits (it already caps at the much
/// smaller [`MAX_WAYS`](crate::MAX_WAYS), so this is defence in depth for
/// future cap raises).
pub const PROBE_MASK_BITS: u32 = 32;

const _: () = assert!(
    crate::policy::MAX_WAYS as u32 <= PROBE_MASK_BITS,
    "packed-policy way cap must fit the probe hit mask"
);

/// Scalar reference probe: bit `w` of the result is set iff
/// `tags[w] == needle`. The portable path must match this bit-for-bit.
#[inline]
pub fn probe_scalar(tags: &[u64], needle: u64) -> u32 {
    let mut mask = 0u32;
    for (w, &t) in tags.iter().enumerate() {
        mask |= u32::from(t == needle) << w;
    }
    mask
}

/// Autovectorizing probe: processes `[u64; 4]` chunks with a fixed-width
/// inner loop (stable rustc emits SSE2/AVX2 compares for it), then finishes
/// the remainder — including the whole slice for 1- and 2-way sets — with
/// the scalar loop. Only ever reads `tags[..tags.len()]`.
#[inline]
pub fn probe_portable(tags: &[u64], needle: u64) -> u32 {
    let mut mask = 0u32;
    let mut chunks = tags.chunks_exact(4);
    let mut base = 0u32;
    for c in chunks.by_ref() {
        let lanes: [u64; 4] = c.try_into().expect("chunks_exact yields 4-long slices");
        let mut m = 0u32;
        for (i, &t) in lanes.iter().enumerate() {
            m |= u32::from(t == needle) << i;
        }
        mask |= m << base;
        base += 4;
    }
    for (i, &t) in chunks.remainder().iter().enumerate() {
        mask |= u32::from(t == needle) << (base + i as u32);
    }
    mask
}

/// Probes `tags` for `needle`. Bit `w` of the result is set iff
/// `tags[w] == needle`; semantics are pinned to [`probe_scalar`].
#[inline]
pub fn probe(tags: &[u64], needle: u64) -> u32 {
    probe_portable(tags, needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MAX_WAYS;

    const SENTINEL: u64 = u64::MAX; // TAG_NONE

    type ProbeFn = fn(&[u64], u64) -> u32;

    const IMPLS: [(&str, ProbeFn); 2] = [("scalar", probe_scalar), ("portable", probe_portable)];

    #[test]
    fn wide_paths_match_scalar_on_crafted_columns() {
        let mut cases: Vec<(Vec<u64>, u64)> = Vec::new();
        for ways in [1usize, 2, 3, 4, 5, 7, 8, 11, 15, 16] {
            assert!(ways <= MAX_WAYS);
            // All-sentinel (cold set), needle present at each position,
            // duplicate needles, needle == sentinel never matches real tags.
            cases.push((vec![SENTINEL; ways], 0x42));
            for pos in 0..ways {
                let mut tags = vec![SENTINEL; ways];
                tags[pos] = 0x1234_5678_9abc;
                cases.push((tags, 0x1234_5678_9abc));
            }
            let ramp: Vec<u64> = (0..ways as u64).collect();
            cases.push((ramp.clone(), 3));
            cases.push((ramp, ways as u64 + 10));
            cases.push((vec![7; ways], 7)); // every way matches
        }
        for (tags, needle) in &cases {
            let want = probe_scalar(tags, *needle);
            for (name, f) in IMPLS {
                assert_eq!(
                    f(tags, *needle),
                    want,
                    "{name} probe diverged on tags={tags:?} needle={needle}"
                );
            }
        }
    }

    #[test]
    fn one_way_probe_reads_only_its_column() {
        // A 1-way set's tag column is a 1-long subslice of the flat tag
        // array; the probe must answer from that subslice alone. Guard by
        // surrounding the probed frame with decoy matches that must NOT
        // appear in the mask.
        let backing = [0xdead, 0xbeef, 0xdead];
        let column = &backing[1..2];
        for (name, f) in IMPLS {
            assert_eq!(f(column, 0xbeef), 1, "{name} missed the 1-way hit");
            assert_eq!(f(column, 0xdead), 0, "{name} read past the 1-way column");
        }
    }
}
