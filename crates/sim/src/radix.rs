//! Radix scatter-key engine for the node-local sort and delivery hot
//! paths.
//!
//! The protocols of the paper are bottlenecked locally, not globally:
//! between rounds every node re-sorts `(key, payload)` batches, and the
//! delivery pass groups outboxes by destination. This module replaces
//! those comparison sorts with an LSD radix pipeline —
//! **count → exclusive scan → scatter** with double-buffered scratch, the
//! classic GPU-sort structure — plus a single-pass *bounded scatter* for
//! keys with a known small range (destinations `< n`).
//!
//! ## How a sort runs
//!
//! 1. Each element is reduced to a `(u64 key, u32 index)` pair in the
//!    scratch's keyed buffer (payloads are not moved per pass).
//! 2. One cheap XOR pass finds the bits that vary between keys (keys
//!    bounded below `2^k` leave the high bits constant); digits are laid
//!    over that span only and sized adaptively — a 20-bit span is two
//!    balanced 10-bit passes, not three 8-bit ones.
//! 3. Each pass counts its digit, exclusive-scans the histogram into
//!    bucket offsets and scatters the pairs into the spare buffer,
//!    ping-ponging the two buffers.
//! 4. The sorted index column is a permutation, applied to the payload
//!    slice in place — a sequential gather for plain-data payloads,
//!    cycle-following swaps for ownership-carrying ones.
//!
//! ## Determinism contract
//!
//! Equal-key payload order is load-bearing: inbox order, tie-broken
//! protocol keys and ultimately whole `RunReport`s depend on it. Every
//! path through this module — radix, bounded scatter, the
//! below-[`RADIX_MIN_LEN`] small-input path, and the
//! [`set_radix_enabled`]`(false)` fallback — is a **stable** sort, so the
//! engine's output is bit-identical with the radix path on or off, in
//! every `ExecMode`. The comparison sort is simultaneously the runtime
//! fallback and the test oracle (see `crates/sim/tests/radix.rs`).
//!
//! ## Scratch recycling
//!
//! All working memory lives in a [`RadixScratch`]: callers on the engine's
//! persistent worker threads go through a thread-local scratch that
//! survives rounds *and* runs (the threads are parked between runs, like
//! the inbox/outbox piles), and callers that own a scratch pass it to the
//! `*_with` variants. Steady-state sorts allocate nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::node::NodeId;

/// Widest digit the adaptive sort will use: 2^11 bucket counters
/// (16 KiB) still sit comfortably in cache while cutting the pass count
/// for the common 16–24-bit bounded key spans from three to two.
const MAX_DIGIT_BITS: u32 = 11;

/// Below this length the stable comparison sort is used instead: a radix
/// pass touches every bucket counter regardless of input size, so tiny
/// batches (the common case for per-sender fan-out) are cheaper to
/// merge-sort than to histogram.
pub const RADIX_MIN_LEN: usize = 64;

/// Sentinel marking an index-column entry as already placed during the
/// cycle-following permutation apply. Inputs longer than `u32::MAX`
/// elements fall back to the comparison sort so the sentinel can never
/// collide with a real index.
const PLACED: u32 = u32::MAX;

const TOGGLE_UNSET: u8 = 0;
const TOGGLE_OFF: u8 = 1;
const TOGGLE_ON: u8 = 2;

/// Process-wide radix toggle, initialized lazily from the `CC_RADIX`
/// environment variable (`0`, `off` or `false` disable). Because every
/// path is stable, flipping it never changes observable results — only
/// which sort implementation produces them.
static RADIX_TOGGLE: AtomicU8 = AtomicU8::new(TOGGLE_UNSET);

/// Whether the radix paths are active. Defaults to on; the environment
/// variable `CC_RADIX=off` (or `0`/`false`) disables them at startup, and
/// [`set_radix_enabled`] overrides either way at runtime.
pub fn radix_enabled() -> bool {
    match RADIX_TOGGLE.load(Ordering::Relaxed) {
        TOGGLE_OFF => false,
        TOGGLE_ON => true,
        _ => {
            let on = !matches!(
                std::env::var("CC_RADIX").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            );
            RADIX_TOGGLE.store(if on { TOGGLE_ON } else { TOGGLE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces the radix paths on or off for the whole process (overriding
/// `CC_RADIX`). Used by the determinism suite to pin that reports are
/// bit-identical either way; both settings are stable sorts, so this is
/// never required for correctness.
pub fn set_radix_enabled(on: bool) {
    RADIX_TOGGLE.store(if on { TOGGLE_ON } else { TOGGLE_OFF }, Ordering::Relaxed);
}

/// Reusable working memory for the radix paths: the double-buffered
/// `(key, index)` columns and the histogram/offset table. All buffers
/// keep their capacity across calls, so a recycled scratch makes
/// steady-state sorts allocation-free.
#[derive(Debug, Default)]
pub struct RadixScratch {
    keyed: Vec<(u64, u32)>,
    spare: Vec<(u64, u32)>,
    counts: Vec<usize>,
}

impl RadixScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// retained afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Per-thread scratch behind [`sort_by_u64_key`] and friends. On the
    /// engine's persistent session workers the thread — and therefore
    /// this scratch — outlives individual runs, giving the same
    /// run-to-run recycling as the session's message piles.
    static THREAD_SCRATCH: RefCell<RadixScratch> = RefCell::new(RadixScratch::new());
}

/// Runs `f` against the calling thread's recycled scratch, falling back
/// to a fresh one if the thread-local is already borrowed (a key closure
/// that itself sorts).
fn with_thread_scratch<R>(f: impl FnOnce(&mut RadixScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut RadixScratch::new()),
    })
}

/// True when a batch of `len` elements should take the stable comparison
/// sort instead of a radix pass (small input, absurd length, or the
/// toggle is off).
#[inline]
fn use_comparison(len: usize) -> bool {
    len < RADIX_MIN_LEN || len > u32::MAX as usize || !radix_enabled()
}

/// Stable sort of `items` by a `u64` key, on the calling thread's
/// recycled scratch. Equal keys keep their input order — the same
/// guarantee as [`slice::sort_by_key`], which is also the below-threshold
/// and toggled-off implementation.
pub fn sort_by_u64_key<T: Clone, F: Fn(&T) -> u64>(items: &mut [T], key: F) {
    with_thread_scratch(|scratch| sort_by_u64_key_with(items, key, scratch));
}

/// As [`sort_by_u64_key`], against a caller-owned [`RadixScratch`].
pub fn sort_by_u64_key_with<T: Clone, F: Fn(&T) -> u64>(
    items: &mut [T],
    key: F,
    scratch: &mut RadixScratch,
) {
    if use_comparison(items.len()) {
        items.sort_by_key(key);
        return;
    }
    radix_sort_impl(items, &key, scratch);
}

/// Stable sort by the lexicographic pair `(major, minor)`, on the calling
/// thread's recycled scratch: two stable radix passes (minor first), or
/// one stable comparison sort below the threshold. Used for composite
/// protocol keys that span more than 64 bits.
pub fn sort_by_u64_key2<T: Clone>(
    items: &mut [T],
    major: impl Fn(&T) -> u64,
    minor: impl Fn(&T) -> u64,
) {
    with_thread_scratch(|scratch| sort_by_u64_key2_with(items, major, minor, scratch));
}

/// As [`sort_by_u64_key2`], against a caller-owned [`RadixScratch`].
pub fn sort_by_u64_key2_with<T: Clone>(
    items: &mut [T],
    major: impl Fn(&T) -> u64,
    minor: impl Fn(&T) -> u64,
    scratch: &mut RadixScratch,
) {
    if use_comparison(items.len()) {
        items.sort_by_key(|a| (major(a), minor(a)));
        return;
    }
    // A stable sort by the minor key followed by a stable sort by the
    // major key is exactly the stable lexicographic (major, minor) sort.
    radix_sort_impl(items, &minor, scratch);
    radix_sort_impl(items, &major, scratch);
}

/// Stable single-pass scatter by a key with a known small range
/// (`key(t) < buckets` for every element): count, exclusive scan, place.
/// This is the delivery-path shape — destinations are perfect small keys
/// — and costs one pass regardless of key magnitude.
///
/// # Panics
///
/// Panics if `key` returns a value `>= buckets`.
pub fn sort_by_bounded_key<T: Clone, F: Fn(&T) -> usize>(items: &mut [T], buckets: usize, key: F) {
    with_thread_scratch(|scratch| sort_by_bounded_key_with(items, buckets, key, scratch));
}

/// As [`sort_by_bounded_key`], against a caller-owned [`RadixScratch`].
pub fn sort_by_bounded_key_with<T: Clone, F: Fn(&T) -> usize>(
    items: &mut [T],
    buckets: usize,
    key: F,
    scratch: &mut RadixScratch,
) {
    if use_comparison(items.len()) {
        items.sort_by_key(key);
        return;
    }
    scatter_impl(items, buckets, &key, scratch);
}

/// Groups a seed-engine outbox batch by destination: ascending `dst`,
/// per-destination send order preserved — byte-identical batch order to
/// the stable `sort_by_key` it replaces. In-range destinations take one
/// bounded scatter pass over `n + 1` buckets; out-of-range destinations
/// (the cold error path — the engine aborts on the first such group) land
/// in the overflow bucket and are comparison-sorted back into ascending
/// order so the downstream validation scan sees the exact legacy order.
pub(crate) fn group_by_destination<M: Clone>(
    batch: &mut [(NodeId, M)],
    n: usize,
    scratch: &mut RadixScratch,
) {
    if use_comparison(batch.len()) {
        batch.sort_by_key(|(dst, _)| *dst);
        return;
    }
    scatter_impl(
        batch,
        n + 1,
        &|(dst, _): &(NodeId, M)| dst.index().min(n),
        scratch,
    );
    let valid = batch.partition_point(|(dst, _)| dst.index() < n);
    batch[valid..].sort_by_key(|(dst, _)| *dst);
}

/// The radix path: build the keyed column, LSD-sort it, apply
/// the resulting permutation to the payloads.
fn radix_sort_impl<T: Clone, F: Fn(&T) -> u64>(
    items: &mut [T],
    key: &F,
    scratch: &mut RadixScratch,
) {
    scratch.keyed.clear();
    scratch
        .keyed
        .extend(items.iter().enumerate().map(|(i, t)| (key(t), i as u32)));
    radix_sort_keyed(&mut scratch.keyed, &mut scratch.spare, &mut scratch.counts);
    apply_permutation(items, &mut scratch.keyed);
}

/// Stable LSD radix sort of the `(key, index)` column. One cheap XOR
/// pass finds the bits that actually vary between keys; bits outside
/// that mask are shared by every key and never sorted on at all — keys
/// bounded below `2^k` cost `ceil(k / MAX_DIGIT_BITS)` count+scatter
/// passes. Each digit is counted, exclusive-scanned and scattered into
/// the spare buffer (ping-pong).
fn radix_sort_keyed(
    keyed: &mut Vec<(u64, u32)>,
    spare: &mut Vec<(u64, u32)>,
    counts: &mut Vec<usize>,
) {
    let len = keyed.len();
    let Some(&(first, _)) = keyed.first() else {
        return;
    };
    let mut diff = 0u64;
    for &(key, _) in keyed.iter() {
        diff |= key ^ first;
    }
    if diff == 0 {
        return; // all keys equal: sorting is the identity
    }
    // Digits are laid over the varying bit-span only (the constant low
    // and high bits sort themselves), sized to minimize the pass count:
    // a 20-bit span is two balanced 10-bit passes, not three 8-bit ones.
    let low = diff.trailing_zeros();
    let span = 64 - diff.leading_zeros() - low;
    let passes = span.div_ceil(MAX_DIGIT_BITS);
    let digit_bits = span.div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let mask = buckets as u64 - 1;
    spare.clear();
    spare.resize(len, (0, PLACED));
    for pass in 0..passes {
        let shift = low + pass * digit_bits;
        if (diff >> shift) & mask == 0 {
            continue; // every key shares this digit: a stable no-op pass
        }
        counts.clear();
        counts.resize(buckets, 0);
        for &(key, _) in keyed.iter() {
            counts[((key >> shift) & mask) as usize] += 1;
        }
        // Exclusive scan in place: counts becomes the running offsets.
        let mut running = 0usize;
        for slot in counts.iter_mut() {
            let count = *slot;
            *slot = running;
            running += count;
        }
        for &pair in keyed.iter() {
            let bucket = ((pair.0 >> shift) & mask) as usize;
            spare[counts[bucket]] = pair;
            counts[bucket] += 1;
        }
        std::mem::swap(keyed, spare);
    }
}

/// Stable single-pass counting scatter: count per bucket, exclusive scan,
/// then write each element's *target* slot into the index column and
/// apply it as a permutation.
fn scatter_impl<T: Clone, F: Fn(&T) -> usize>(
    items: &mut [T],
    buckets: usize,
    key: &F,
    scratch: &mut RadixScratch,
) {
    scratch.counts.clear();
    scratch.counts.resize(buckets, 0);
    for t in items.iter() {
        scratch.counts[key(t)] += 1;
    }
    let mut running = 0usize;
    for slot in scratch.counts.iter_mut() {
        let count = *slot;
        *slot = running;
        running += count;
    }
    // keyed[target].1 = source index, i.e. the same permutation encoding
    // the LSD sort produces.
    scratch.keyed.clear();
    scratch.keyed.resize(items.len(), (0, PLACED));
    for (i, t) in items.iter().enumerate() {
        let slot = &mut scratch.counts[key(t)];
        scratch.keyed[*slot].1 = i as u32;
        *slot += 1;
    }
    apply_permutation(items, &mut scratch.keyed);
}

/// Applies the permutation held in the index column (`keyed[target].1` =
/// source index) to `items` in place.
///
/// Plain-data payloads (`!needs_drop`, where `Clone` is a field copy)
/// take a sequential gather through a transient typed buffer — one
/// random read per element, which at delivery scale is ~3x faster than
/// chasing cycles. Ownership-carrying payloads take the cycle-following
/// swap walk instead: allocation- and clone-free, with each index entry
/// overwritten with [`PLACED`] as its cycle is resolved.
fn apply_permutation<T: Clone>(items: &mut [T], keyed: &mut [(u64, u32)]) {
    debug_assert_eq!(items.len(), keyed.len());
    if !std::mem::needs_drop::<T>() {
        let gathered: Vec<T> = keyed
            .iter()
            .map(|&(_, src)| items[src as usize].clone())
            .collect();
        for (slot, value) in items.iter_mut().zip(gathered) {
            *slot = value;
        }
        return;
    }
    for i in 0..items.len() {
        let mut src = keyed[i].1;
        if src == PLACED {
            continue;
        }
        let mut pos = i;
        loop {
            let source = src as usize;
            keyed[pos].1 = PLACED;
            if source == i {
                break;
            }
            items.swap(pos, source);
            pos = source;
            src = keyed[pos].1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[u64]) -> Vec<(u64, usize)> {
        keys.iter().copied().zip(0..).collect()
    }

    /// Radix output equals the stable comparison oracle, including the
    /// payload order of duplicate keys (payload = original position).
    #[test]
    fn matches_stable_oracle_on_duplicates() {
        let keys: Vec<u64> = (0..200u64).map(|i| (i * 37) % 11).collect();
        let mut got = pairs(&keys);
        let mut expected = got.clone();
        expected.sort_by_key(|&(k, _)| k);
        sort_by_u64_key(&mut got, |&(k, _)| k);
        assert_eq!(got, expected);
    }

    /// The trivial-digit skip must not break full-range keys.
    #[test]
    fn sorts_full_width_keys() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let keys: Vec<u64> = (0..300)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let mut got = pairs(&keys);
        let mut expected = got.clone();
        expected.sort_by_key(|&(k, _)| k);
        sort_by_u64_key(&mut got, |&(k, _)| k);
        assert_eq!(got, expected);
    }

    #[test]
    fn bounded_scatter_is_stable() {
        let keys: Vec<u64> = (0..150u64).map(|i| (i * 7) % 5).collect();
        let mut got = pairs(&keys);
        let mut expected = got.clone();
        expected.sort_by_key(|&(k, _)| k);
        sort_by_bounded_key(&mut got, 5, |&(k, _)| k as usize);
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_single_are_noops() {
        let mut empty: Vec<(u64, usize)> = Vec::new();
        sort_by_u64_key(&mut empty, |&(k, _)| k);
        assert!(empty.is_empty());
        let mut one = vec![(9u64, 0usize)];
        sort_by_u64_key(&mut one, |&(k, _)| k);
        assert_eq!(one, vec![(9, 0)]);
    }

    /// The permutation apply resolves multi-element cycles correctly
    /// (regression guard for the swap-walk logic).
    #[test]
    fn permutation_cycles_resolve() {
        // keyed[target].1 = source: reverse of 5 elements.
        let mut items = vec![10, 11, 12, 13, 14];
        let mut keyed: Vec<(u64, u32)> = vec![(0, 4), (0, 3), (0, 2), (0, 1), (0, 0)];
        apply_permutation(&mut items, &mut keyed);
        assert_eq!(items, vec![14, 13, 12, 11, 10]);
    }
}
