//! One function per experiment table (E1–E14).

use cc_baselines::{route_direct, route_randomized, sort_gather, sort_randomized};
use cc_coloring::{color_alternating, color_exact, color_greedy, BipartiteMultigraph};
use cc_core::routing::{route_deterministic, route_optimized, spec_for_routing, RoutingInstance};
use cc_core::sorting::{
    global_indices, mode_query, select_rank, small_key_census, sort_keys, SubsetSort,
};
use cc_core::CongestedClique;
use cc_primitives::{drive, DemandMatrix, KnownExchange, NodeGroup, SubsetExchange};
use cc_sim::util::{isqrt, word_bits};
use cc_sim::{run_protocol, CliqueSpec, CommonScope, Payload};
use cc_workloads as wl;

fn header(id: &str, claim: &str) {
    println!("\n### {id} — {claim}");
}

/// E1: Theorem 3.7 — deterministic routing takes at most 16 rounds for
/// every workload and every n (square or not).
pub fn e1() {
    header(
        "E1",
        "Thm 3.7: deterministic routing ≤ 16 rounds (paper: 16)",
    );
    println!(
        "{:<10} {:>5} {:>7} {:>10} {:>14} {:>12}",
        "workload", "n", "rounds", "messages", "max edge bits", "budget bits"
    );
    for n in [16usize, 25, 64, 100, 144, 200, 256] {
        let cases: Vec<(&str, RoutingInstance)> = vec![
            ("balanced", wl::balanced_random(n, 42).unwrap()),
            ("cyclic", wl::cyclic_skew(n).unwrap()),
            ("block", wl::block_skew(n).unwrap()),
            ("sparse", wl::sparse_random(n, n / 2, 7).unwrap()),
        ];
        for (name, inst) in cases {
            let out = route_deterministic(&inst).unwrap();
            println!(
                "{:<10} {:>5} {:>7} {:>10} {:>14} {:>12}",
                name,
                n,
                out.metrics.comm_rounds(),
                out.metrics.total_messages(),
                out.metrics.max_edge_bits(),
                spec_for_routing(n).bits_per_edge(),
            );
        }
    }
}

/// E2: Theorem 5.4 — 12 rounds with O(n log n) work and memory; the
/// basic algorithm's work grows superlinearly.
pub fn e2() {
    header("E2", "Thm 5.4: 12 rounds, O(n log n) work/node (paper: 12)");
    println!(
        "{:>5} {:>8} {:>12} {:>12} | {:>8} {:>12} {:>12}",
        "n", "basic r", "basic work", "w/(n·lg n)", "opt r", "opt work", "w/(n·lg n)"
    );
    for n in [16usize, 64, 144, 256, 400] {
        let inst = wl::balanced_random(n, 42).unwrap();
        let basic = route_deterministic(&inst).unwrap().metrics;
        let opt = route_optimized(&inst).unwrap().metrics;
        let nlogn = (n as f64) * (n as f64).log2();
        println!(
            "{:>5} {:>8} {:>12} {:>12.1} | {:>8} {:>12} {:>12.1}",
            n,
            basic.comm_rounds(),
            basic.max_node_steps(),
            basic.max_node_steps() as f64 / nlogn,
            opt.comm_rounds(),
            opt.max_node_steps(),
            opt.max_node_steps() as f64 / nlogn,
        );
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Tag(u32, u32);
impl Payload for Tag {
    fn size_bits(&self, n: usize) -> u64 {
        2 * word_bits(n)
    }
}

/// E3: Corollary 3.3 — known-pattern exchange in 2 rounds.
pub fn e3() {
    header("E3", "Cor 3.3: known-demand exchange = 2 rounds (paper: 2)");
    println!(
        "{:<24} {:>5} {:>4} {:>7} {:>10}",
        "demand shape", "n", "|W|", "rounds", "messages"
    );
    for (n, w) in [(16usize, 4usize), (64, 8), (64, 64), (256, 16)] {
        for (name, f) in [("uniform 1/pair", 1u32), ("uniform 2/pair", 2)] {
            let group = NodeGroup::contiguous(0, w);
            let demands = {
                let mut d = DemandMatrix::new(w);
                for i in 0..w {
                    for j in 0..w {
                        d.set(i, j, f);
                    }
                }
                d
            };
            if demands.max_line_sum() > 8 * n as u64 {
                continue;
            }
            let report = run_protocol(CliqueSpec::new(n).unwrap().with_budget_words(64), |me| {
                if let Some(local) = group.local_index(me) {
                    let outgoing: Vec<Vec<Tag>> = (0..w)
                        .map(|j| {
                            (0..demands.get(local, j))
                                .map(|k| Tag(me.raw(), k))
                                .collect()
                        })
                        .collect();
                    drive(KnownExchange::member(
                        group.clone(),
                        demands.clone(),
                        outgoing,
                        CommonScope::new("bench.e3", (n * 64 + w) as u64),
                    ))
                } else {
                    drive(KnownExchange::relay_only())
                }
            })
            .unwrap();
            println!(
                "{:<24} {:>5} {:>4} {:>7} {:>10}",
                name,
                n,
                w,
                report.metrics.comm_rounds(),
                report.metrics.total_messages()
            );
        }
    }
}

/// E4: Corollary 3.4 — unknown-demand subset exchange in 4 rounds.
pub fn e4() {
    header(
        "E4",
        "Cor 3.4: subset exchange (|W| ≤ √n) = 4 rounds (paper: 4)",
    );
    println!("{:<5} {:>4} {:>7} {:>10}", "n", "|W|", "rounds", "messages");
    for (n, w) in [(16usize, 4usize), (64, 8), (144, 12), (256, 16)] {
        let group = NodeGroup::contiguous(0, w);
        let report = run_protocol(CliqueSpec::new(n).unwrap().with_budget_words(64), |me| {
            if let Some(local) = group.local_index(me) {
                let outgoing: Vec<Vec<Tag>> = (0..w)
                    .map(|j| {
                        (0..((local * 3 + j * 5) % w) as u32)
                            .map(|k| Tag(me.raw(), k))
                            .collect()
                    })
                    .collect();
                drive(SubsetExchange::member(
                    group.clone(),
                    local,
                    outgoing,
                    CommonScope::new("bench.e4", (n * 64 + w) as u64),
                ))
            } else {
                drive(SubsetExchange::relay_only())
            }
        })
        .unwrap();
        println!(
            "{:<5} {:>4} {:>7} {:>10}",
            n,
            w,
            report.metrics.comm_rounds(),
            report.metrics.total_messages()
        );
    }
}

/// E5: phase breakdown of Algorithm 1 (paper: 7 + 4 + 1 + 4 = 16).
pub fn e5() {
    header(
        "E5",
        "Alg 1 phase budget: 7 (Alg 2) + 4 + 1 + 4 = 16 rounds",
    );
    // The engine measures totals; the breakdown is structural (fixed call
    // schedule), so we print the designed schedule and confirm the total.
    println!(
        "  Alg 2 (Step 2 of Alg 1):   rounds  1–7   (2 count + 2 announce + 2 exchange + 1 move)"
    );
    println!("  Alg 1 Step 3:              rounds  8–11  (2 announce + 2 exchange)");
    println!("  Alg 1 Step 4:              round   12    (direct move)");
    println!("  Alg 1 Step 5 (Cor 3.4):    rounds 13–16");
    for n in [64usize, 256] {
        let inst = wl::balanced_random(n, 1).unwrap();
        let out = route_deterministic(&inst).unwrap();
        println!(
            "  measured total (n = {n}): {} rounds",
            out.metrics.comm_rounds()
        );
        // Per-round traffic confirms every scheduled round carries load.
        let busy: Vec<u64> = out.metrics.rounds().iter().map(|r| r.messages).collect();
        println!("  per-round messages: {busy:?}");
    }
}

/// E6: Algorithm 4 with Theorem 5.4's router in Step 6 — sorting in 33
/// rounds, with step breakdown (the paper states 37 with Theorem 3.7).
pub fn e6() {
    header(
        "E6",
        "Alg 4 + Thm 5.4 router: sorting = 33 rounds (0+1+8+2+0+12+8+2; the paper states 37 with Thm 3.7)",
    );
    println!(
        "{:<10} {:>5} {:>7} {:>10} {:>14}",
        "keys", "n", "rounds", "messages", "max edge bits"
    );
    for n in [16usize, 36, 64, 100] {
        for (name, keys) in [
            ("uniform", wl::uniform_keys(n, 5)),
            ("sorted", wl::sorted_keys(n)),
            ("reverse", wl::reverse_keys(n)),
            ("dup-heavy", wl::duplicate_keys(n, 4, 5)),
        ] {
            let out = sort_keys(&keys).unwrap();
            println!(
                "{:<10} {:>5} {:>7} {:>10} {:>14}",
                name,
                n,
                out.metrics.comm_rounds(),
                out.metrics.total_messages(),
                out.metrics.max_edge_bits()
            );
        }
    }
    println!("  schedule: 1 (sample) + 8 (Alg 3) + 2 (delimiters) + 12 (Thm 5.4) + 8 (Alg 3 ∥) + 2 (interval) = 33");
}

/// E7: Algorithm 3 in 10 rounds; Lemma 4.3's bucket bound < 4·cap.
pub fn e7() {
    header(
        "E7",
        "Lemma 4.4: subset sort = 10 rounds; Lemma 4.3: bucket < 2·(2·cap)",
    );
    println!(
        "{:<12} {:>5} {:>4} {:>7} {:>12} {:>10}",
        "keys", "n", "|W|", "rounds", "max bucket", "bound 4cap"
    );
    for (n, w) in [(16usize, 4usize), (64, 8), (256, 16)] {
        for (name, seed) in [("uniform", 3u64), ("dup-heavy", 4)] {
            let group = NodeGroup::contiguous(0, w);
            let cap = 2 * n;
            let report = run_protocol(CliqueSpec::new(n).unwrap().with_budget_words(512), |me| {
                if let Some(local) = group.local_index(me) {
                    let keys: Vec<cc_core::sorting::TaggedKey> = (0..cap)
                        .map(|i| {
                            let v = if name == "uniform" {
                                ((local * 7919 + i * 104729 + seed as usize) % 65536) as u64
                            } else {
                                ((local + i) % 5) as u64
                            };
                            cc_core::sorting::TaggedKey::new(v, me, i as u32)
                        })
                        .collect();
                    drive(SubsetSort::member(
                        group.clone(),
                        local,
                        keys,
                        cap,
                        false,
                        CommonScope::new("bench.e7", (n * 1024 + w) as u64 + seed),
                    ))
                } else {
                    drive(SubsetSort::relay_only(false))
                }
            })
            .unwrap();
            let max_bucket = report
                .outputs
                .iter()
                .map(|o| o.member_counts.iter().copied().max().unwrap_or(0))
                .max()
                .unwrap_or(0);
            println!(
                "{:<12} {:>5} {:>4} {:>7} {:>12} {:>10}",
                name,
                n,
                w,
                report.metrics.comm_rounds(),
                max_bucket,
                4 * cap
            );
        }
    }
}

/// E8: Corollary 4.6 — indices, selection, mode in O(1) rounds.
pub fn e8() {
    header(
        "E8",
        "Cor 4.6: index variant + selection + mode = O(1) rounds",
    );
    println!(
        "{:<10} {:>5} {:>14} {:>13} {:>11}",
        "keys", "n", "indices rounds", "select rounds", "mode rounds"
    );
    for n in [16usize, 36, 64] {
        let keys = wl::duplicate_keys(n, 7, 9);
        let idx = global_indices(&keys).unwrap();
        let sel = select_rank(&keys, (n * n / 2) as u64).unwrap();
        let md = mode_query(&keys).unwrap();
        println!(
            "{:<10} {:>5} {:>14} {:>13} {:>11}",
            "dup-heavy",
            n,
            idx.metrics.comm_rounds(),
            sel.metrics.comm_rounds(),
            md.metrics.comm_rounds()
        );
    }
}

/// E9: the paper's §1 comparison for routing.
pub fn e9() {
    header(
        "E9",
        "§1: randomized routing ≈ 2× faster (w.h.p.); direct = Θ(n) on skew",
    );
    println!(
        "{:<10} {:>5} {:>9} {:>7} {:>11} {:>8}",
        "workload", "n", "det-16", "det-12", "randomized", "direct"
    );
    for n in [16usize, 64, 144, 256] {
        for (name, inst) in [
            ("balanced", wl::balanced_random(n, 11).unwrap()),
            ("cyclic", wl::cyclic_skew(n).unwrap()),
        ] {
            let det = route_deterministic(&inst).unwrap().metrics.comm_rounds();
            let opt = route_optimized(&inst).unwrap().metrics.comm_rounds();
            let rnd = route_randomized(&inst, 1234).unwrap().metrics.comm_rounds();
            let dir = route_direct(&inst).unwrap().metrics.comm_rounds();
            println!(
                "{:<10} {:>5} {:>9} {:>7} {:>11} {:>8}",
                name, n, det, opt, rnd, dir
            );
        }
    }
}

/// E10: the comparison for sorting.
pub fn e10() {
    header(
        "E10",
        "§1: randomized sorting ≈ 2× faster (w.h.p.); gather = Θ(n)",
    );
    println!(
        "{:>5} {:>8} {:>11} {:>8}",
        "n", "det-33", "randomized", "gather"
    );
    for n in [16usize, 36, 64, 100] {
        let keys = wl::uniform_keys(n, 13);
        let det = sort_keys(&keys).unwrap().metrics.comm_rounds();
        let rnd = sort_randomized(&keys, 1234).unwrap().metrics.comm_rounds();
        let gat = sort_gather(&keys).unwrap().metrics.comm_rounds();
        println!("{:>5} {:>8} {:>11} {:>8}", n, det, rnd, gat);
    }
}

/// E11: §6.1 — large messages split into word-sized fragments.
pub fn e11() {
    header(
        "E11",
        "§6.1: L-bit messages → ⌈L/word⌉ sequential instances (rounds scale linearly)",
    );
    println!(
        "{:>5} {:>10} {:>11} {:>7}",
        "n", "frag count", "instances", "rounds"
    );
    for n in [16usize, 64] {
        for frags in [1usize, 2, 4, 8] {
            // A message of frags·(2 words) is shipped as `frags` sequential
            // full instances; total rounds = frags × 16.
            let mut total_rounds = 0u64;
            for f in 0..frags {
                let inst = wl::balanced_random(n, 100 + f as u64).unwrap();
                total_rounds += route_deterministic(&inst).unwrap().metrics.comm_rounds();
            }
            println!("{:>5} {:>10} {:>11} {:>7}", n, frags, frags, total_rounds);
        }
    }
}

/// E12: §6.3 — small keys counted in 2 rounds with ≤ 2-bit messages.
pub fn e12() {
    header(
        "E12",
        "§6.3: b-bit keys → 2 rounds, 1–2-bit messages (paper: 2)",
    );
    println!(
        "{:>9} {:>7} {:>5} {:>7} {:>14} {:>10}",
        "key bits", "values", "n", "rounds", "max edge bits", "messages"
    );
    for (bits, n) in [(1u32, 128usize), (2, 512), (3, 1024)] {
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..n / 2).map(|i| ((v + i) % (1 << bits)) as u64).collect())
            .collect();
        let out = small_key_census(&keys, bits).unwrap();
        println!(
            "{:>9} {:>7} {:>5} {:>7} {:>14} {:>10}",
            bits,
            1 << bits,
            n,
            out.metrics.comm_rounds(),
            out.metrics.max_edge_bits(),
            out.metrics.total_messages()
        );
    }
}

/// E13: Theorem 3.2 — exact König colorings use exactly Δ colors; greedy
/// stays below 2Δ.
pub fn e13() {
    header("E13", "Thm 3.2 / fn.3: exact = Δ colors, greedy ≤ 2Δ−1");
    println!(
        "{:>5} {:>5} {:>9} {:>11} {:>12} {:>12}",
        "|V|", "Δ", "edges", "exact", "alternating", "greedy"
    );
    let mut seed = 0x12345u64;
    for (v, d) in [(8usize, 4usize), (16, 16), (32, 64), (64, 128)] {
        // d-regular via random permutation sums.
        let mut demands = vec![0u32; v * v];
        for _ in 0..d {
            let mut perm: Vec<usize> = (0..v).collect();
            for i in (1..v).rev() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                perm.swap(i, (seed >> 33) as usize % (i + 1));
            }
            for (i, &j) in perm.iter().enumerate() {
                demands[i * v + j] += 1;
            }
        }
        let g = BipartiteMultigraph::from_demands(v, v, &demands).unwrap();
        let exact = color_exact(&g).unwrap().num_colors();
        let alt = color_alternating(&g).num_colors();
        let greedy = color_greedy(&g).num_colors();
        println!(
            "{:>5} {:>5} {:>9} {:>11} {:>12} {:>12}",
            2 * v,
            d,
            g.num_edges(),
            exact,
            alt,
            greedy
        );
        assert_eq!(exact as usize, d);
        assert!((greedy as usize) < 2 * d);
    }
}

/// E14: per-edge load balance — the deterministic plans keep every edge
/// at O(log n) bits, every round.
pub fn e14() {
    header(
        "E14",
        "load balance: per-edge bit-load histogram (det routing)",
    );
    let n = 64;
    let inst = wl::balanced_random(n, 21).unwrap();
    let spec = spec_for_routing(n).with_edge_histogram(true);
    let out = cc_core::routing::route_with_spec(&inst, spec).unwrap();
    let hist = out.metrics.edge_histogram().expect("histogram enabled");
    println!("  n = {n}, balanced workload; word = {} bits", word_bits(n));
    println!("{:>14} {:>16}", "bits/edge/rnd", "edge-rounds");
    for (bits, count) in hist.iter() {
        println!("{:>14} {:>16}", bits, count);
    }
    println!(
        "  max observed: {} bits (budget {})",
        hist.max_load(),
        spec_for_routing(n).bits_per_edge()
    );
}

/// Facade smoke run used by `tables all`.
pub fn facade_demo() {
    let clique = CongestedClique::new(25).unwrap();
    let inst = wl::permutation(25, 3).unwrap();
    let out = clique.route(&inst).unwrap();
    println!(
        "\nfacade: routed a permutation on n=25 in {} rounds",
        out.metrics.comm_rounds()
    );
    let _ = isqrt(25);
}

/// E15 (ablation): per-edge vs bundled exchange plans — identical
/// 2-round delivery, an order of magnitude less planning work (the §5
/// design choice isolated from the rest of the pipeline).
pub fn e15() {
    header(
        "E15",
        "ablation: Cor 3.3 plan strategy — per-edge vs bundled (§5 / fn. 3)",
    );
    println!(
        "{:>5} {:>4} {:>10} | {:>8} {:>12} | {:>8} {:>12}",
        "n", "|W|", "messages", "pe rnds", "pe work", "bd rnds", "bd work"
    );
    for (n, w, per_pair) in [(64usize, 8usize, 8u32), (256, 16, 16), (1024, 32, 32)] {
        let group = NodeGroup::contiguous(0, w);
        let mut demands = DemandMatrix::new(w);
        for i in 0..w {
            for j in 0..w {
                demands.set(i, j, per_pair);
            }
        }
        let mut results = Vec::new();
        for bundled in [false, true] {
            let report = run_protocol(CliqueSpec::new(n).unwrap().with_budget_words(64), |me| {
                if let Some(local) = group.local_index(me) {
                    let outgoing: Vec<Vec<Tag>> = (0..w)
                        .map(|j| {
                            (0..demands.get(local, j))
                                .map(|k| Tag(me.raw(), k))
                                .collect()
                        })
                        .collect();
                    let scope = CommonScope::new("bench.e15", (n * 2 + bundled as usize) as u64);
                    if bundled {
                        drive(KnownExchange::member_bundled(
                            group.clone(),
                            demands.clone(),
                            outgoing,
                            scope,
                        ))
                    } else {
                        drive(KnownExchange::member(
                            group.clone(),
                            demands.clone(),
                            outgoing,
                            scope,
                        ))
                    }
                } else {
                    drive(KnownExchange::relay_only())
                }
            })
            .unwrap();
            results.push((
                report.metrics.comm_rounds(),
                report.metrics.max_node_steps(),
                report.metrics.total_messages(),
            ));
        }
        println!(
            "{:>5} {:>4} {:>10} | {:>8} {:>12} | {:>8} {:>12}",
            n, w, results[0].2, results[0].0, results[0].1, results[1].0, results[1].1
        );
    }
}

/// E16: §6.2 — with globally known patterns, messages need *zero*
/// addressing bits: one-bit payloads route in 2 rounds at 1 bit per edge.
pub fn e16() {
    header(
        "E16",
        "§6.2: known patterns → headerless messages (B ∈ O(M), M = 1 bit)",
    );
    println!(
        "{:>5} {:>7} {:>14} {:>10}",
        "n", "rounds", "max edge bits", "messages"
    );
    for n in [16usize, 64, 256] {
        let group = cc_primitives::NodeGroup::whole_clique(n);
        let mut demands = DemandMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                demands.set(i, j, 1);
            }
        }
        #[derive(Clone, Debug)]
        struct Bit(bool);
        impl Payload for Bit {
            fn size_bits(&self, _n: usize) -> u64 {
                u64::from(self.0) | 1
            }
        }
        let report = run_protocol(CliqueSpec::new(n).unwrap().with_bits_per_edge(2), |me| {
            let outgoing: Vec<Vec<Bit>> = (0..n)
                .map(|j| vec![Bit((me.index() ^ j) % 2 == 0)])
                .collect();
            drive(cc_primitives::HeaderlessExchange::new(
                group.clone(),
                demands.clone(),
                outgoing,
                CommonScope::new("bench.e16", n as u64),
            ))
        })
        .unwrap();
        println!(
            "{:>5} {:>7} {:>14} {:>10}",
            n,
            report.metrics.comm_rounds(),
            report.metrics.max_edge_bits(),
            report.metrics.total_messages()
        );
    }
}
