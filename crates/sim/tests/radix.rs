//! Seeded parity suite for the radix scatter-key engine: every radix
//! path must equal the stable comparison sort (the oracle) element for
//! element — including the payload order of duplicate keys — over
//! adversarial key distributions, every key bit-width, and degenerate
//! sizes. The oracle is `slice::sort_by_key`, which is also the
//! below-threshold and toggled-off implementation, so these tests pin
//! that all paths through `cc_sim::radix` agree.

use cc_rand::DetRng;
use cc_sim::radix;
use cc_sim::Inbox;
use cc_sim::NodeId;

/// Pair each key with its input position so stability violations are
/// visible as payload mismatches.
fn with_positions(keys: &[u64]) -> Vec<(u64, usize)> {
    keys.iter().copied().zip(0..).collect()
}

/// Asserts radix == stable oracle on `keys`, for both the thread-local
/// and the caller-scratch entry points.
fn assert_parity(keys: &[u64], label: &str) {
    let mut expected = with_positions(keys);
    expected.sort_by_key(|&(k, _)| k);

    let mut got = with_positions(keys);
    radix::sort_by_u64_key(&mut got, |&(k, _)| k);
    assert_eq!(got, expected, "thread-local path diverged on {label}");

    let mut scratch = radix::RadixScratch::new();
    let mut got = with_positions(keys);
    radix::sort_by_u64_key_with(&mut got, |&(k, _)| k, &mut scratch);
    assert_eq!(got, expected, "caller-scratch path diverged on {label}");

    // Scratch reuse must not leak state between sorts.
    let mut got = with_positions(keys);
    radix::sort_by_u64_key_with(&mut got, |&(k, _)| k, &mut scratch);
    assert_eq!(got, expected, "recycled-scratch path diverged on {label}");
}

fn uniform(rng: &mut DetRng, len: usize, mask: u64) -> Vec<u64> {
    (0..len).map(|_| rng.next_u64() & mask).collect()
}

/// A simple Zipf-like sampler (the same inverse-power shape
/// `cc-workloads::zipf_keys` uses; duplicated here because
/// `cc-workloads` depends on `cc-sim`, whose only dev-dependency is
/// `cc-rand`).
fn zipf(rng: &mut DetRng, len: usize, universe: u64) -> Vec<u64> {
    (0..len)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let rank = ((universe as f64).powf(u) - 1.0) as u64;
            rank.min(universe - 1)
        })
        .collect()
}

#[test]
fn parity_all_equal_sorted_reverse() {
    for len in [0usize, 1, 2, 63, 64, 65, 256, 1000] {
        let equal: Vec<u64> = vec![42; len];
        assert_parity(&equal, "all-equal");
        let sorted: Vec<u64> = (0..len as u64).collect();
        assert_parity(&sorted, "already-sorted");
        let reverse: Vec<u64> = (0..len as u64).rev().collect();
        assert_parity(&reverse, "reverse");
    }
}

#[test]
fn parity_every_key_bit_width() {
    let mut rng = DetRng::seed_from_u64(0xC110E);
    for bits in [1u32, 4, 7, 8, 9, 16, 20, 24, 32, 33, 48, 63, 64] {
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        for len in [65usize, 300, 1024] {
            let keys = uniform(&mut rng, len, mask);
            assert_parity(&keys, &format!("uniform {bits}-bit"));
        }
    }
}

#[test]
fn parity_zipf_distribution() {
    let mut rng = DetRng::seed_from_u64(7);
    for universe in [4u64, 64, 1 << 20] {
        let keys = zipf(&mut rng, 800, universe);
        assert_parity(&keys, &format!("zipf universe {universe}"));
    }
}

/// Duplicate keys keep their payloads in input order — the stability
/// half of the determinism contract, asserted directly rather than via
/// the oracle.
#[test]
fn duplicates_preserve_payload_order() {
    let mut rng = DetRng::seed_from_u64(99);
    let keys = uniform(&mut rng, 500, 0x7); // 8 distinct keys, heavy duplication
    let mut items = with_positions(&keys);
    radix::sort_by_u64_key(&mut items, |&(k, _)| k);
    for pair in items.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "keys out of order");
        if pair[0].0 == pair[1].0 {
            assert!(
                pair[0].1 < pair[1].1,
                "stability violated: payload {} before {}",
                pair[0].1,
                pair[1].1
            );
        }
    }
}

#[test]
fn bounded_scatter_matches_oracle() {
    let mut rng = DetRng::seed_from_u64(3);
    for buckets in [1usize, 2, 16, 257] {
        let keys: Vec<u64> = (0..700).map(|_| rng.next_u64() % buckets as u64).collect();
        let mut expected = with_positions(&keys);
        expected.sort_by_key(|&(k, _)| k);
        let mut got = with_positions(&keys);
        radix::sort_by_bounded_key(&mut got, buckets, |&(k, _)| k as usize);
        assert_eq!(got, expected, "bounded scatter, {buckets} buckets");
    }
}

#[test]
fn two_key_lexicographic_matches_oracle() {
    let mut rng = DetRng::seed_from_u64(11);
    let items: Vec<(u64, u64, usize)> = (0..600)
        .map(|i| (rng.next_u64() & 0xF, rng.next_u64() & 0xFF, i))
        .collect();
    let mut expected = items.clone();
    expected.sort_by_key(|&(a, b, _)| (a, b));
    let mut got = items.clone();
    radix::sort_by_u64_key2(&mut got, |&(a, _, _)| a, |&(_, b, _)| b);
    assert_eq!(got, expected);
}

/// Flipping the toggle changes which implementation runs, never the
/// result. (Runs concurrently with the other tests in this binary; that
/// is safe precisely because both settings are stable sorts.)
#[test]
fn toggle_off_is_observationally_identical() {
    let mut rng = DetRng::seed_from_u64(5);
    let keys = uniform(&mut rng, 900, u64::MAX >> 16);
    let mut on = with_positions(&keys);
    let mut off = with_positions(&keys);
    radix::set_radix_enabled(true);
    radix::sort_by_u64_key(&mut on, |&(k, _)| k);
    radix::set_radix_enabled(false);
    radix::sort_by_u64_key(&mut off, |&(k, _)| k);
    radix::set_radix_enabled(true);
    assert_eq!(on, off);
}

/// `Inbox::from_messages` above the radix threshold (the converted
/// unsorted path) keeps the documented stable semantics: ascending
/// sender, per-sender send order preserved.
#[test]
fn inbox_from_messages_radix_path_is_stable() {
    let mut rng = DetRng::seed_from_u64(21);
    let items: Vec<(NodeId, u64)> = (0..400u64)
        .map(|seq| (NodeId::new((rng.next_u64() % 13) as usize), seq))
        .collect();
    let mut expected = items.clone();
    expected.sort_by_key(|&(src, _)| src);
    let got: Vec<(NodeId, u64)> = Inbox::from_messages(items).into_iter().collect();
    assert_eq!(got, expected);
}
