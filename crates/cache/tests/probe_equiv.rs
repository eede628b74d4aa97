//! Pins the tag probe to the scalar reference.
//!
//! The `probe` module's contract is that [`probe_scalar`] defines the
//! semantics and the portable path is a pure acceleration. The cache reads
//! nothing from a probe but its hit mask, so pinning the masks pins the
//! cache's whole observable behaviour.
//!
//! [`probe_scalar`]: ehs_cache::probe::probe_scalar

use ehs_cache::probe;
use ehs_cache::MAX_WAYS;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Direct mask-level pinning on random tag columns: sentinel frames,
    // value duplication, and needle-absent cases, across every length up to
    // MAX_WAYS (not just the power-of-two shapes real caches use).
    #[test]
    fn probe_masks_match_scalar_reference(
        len0 in 0usize..MAX_WAYS,
        raw in proptest::collection::vec(prop_oneof![
            3 => Just(u64::MAX),          // TAG_NONE sentinel
            5 => 0u64..6,                 // small tags, frequent collisions
            1 => any::<u64>(),
        ], MAX_WAYS..MAX_WAYS + 1),
        needle in prop_oneof![4 => 0u64..6, 1 => any::<u64>()],
    ) {
        let tags = &raw[..len0 + 1];
        let want = probe::probe_scalar(tags, needle);
        prop_assert_eq!(probe::probe_portable(tags, needle), want,
            "portable mask diverged on {:?} / {}", tags, needle);
        prop_assert_eq!(probe::probe(tags, needle), want,
            "probe mask diverged on {:?} / {}", tags, needle);
    }
}
