//! Distributed order statistics over telemetry: each node holds a shard
//! of latency samples; the cluster computes exact global percentiles and
//! the most common value — in a constant number of rounds, using the
//! paper's sorting machinery (Theorem 4.5 + Corollary 4.6).
//!
//! ```sh
//! cargo run --release --example distributed_percentiles
//! ```

use congested_clique::{workloads, CongestedClique};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 36;
    let clique = CongestedClique::new(n)?;

    // Latency-like samples: a Zipf-flavoured long tail over 1..500 ms.
    let samples = workloads::zipf_keys(n, 500, 2024);
    let total: u64 = samples.iter().map(|s| s.len() as u64).sum();
    println!("{total} latency samples sharded over {n} nodes");

    // Exact percentiles via constant-round selection.
    for (label, pct) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let rank = ((total as f64 * pct) as u64).min(total - 1);
        let sel = clique.select(&samples, rank)?;
        println!(
            "  {label}: {} ms  (rank {rank}, {} rounds)",
            sel.key + 1,
            sel.metrics.comm_rounds()
        );
    }

    // The most common sample.
    let mode = clique.mode(&samples)?;
    println!(
        "  mode: {} ms seen {} times ({} rounds)",
        mode.key + 1,
        mode.count,
        mode.metrics.comm_rounds()
    );

    // Full global sort: node i ends with the i-th batch, e.g. to compute
    // an exact CDF shard-locally afterwards.
    let sorted = clique.sort(&samples)?;
    println!(
        "full sort: {} rounds (33: Algorithm 4 with Theorem 5.4's router in Step 6; \
         the paper states 37 with Theorem 3.7); node 0 holds ranks [0, {})",
        sorted.metrics.comm_rounds(),
        sorted.batches[0].len()
    );

    // Duplicate-aware indices: how many distinct latencies are below each
    // of my samples (Corollary 4.6).
    let idx = clique.global_indices(&samples)?;
    println!(
        "global distinct-value indices returned to every shard ({} rounds)",
        idx.metrics.comm_rounds()
    );
    let node0_first = samples[0].first().copied().unwrap_or(0);
    let node0_first_idx = idx.indices[0].first().copied().unwrap_or(0);
    println!("  e.g. node 0's first sample {node0_first} ms has distinct-index {node0_first_idx}");
    Ok(())
}
