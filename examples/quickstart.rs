//! Quickstart: route and sort on a simulated congested clique, printing
//! the measured round counts next to the paper's bounds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use congested_clique::{workloads, CongestedClique};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64;
    let clique = CongestedClique::new(n)?;
    println!(
        "congested clique with n = {n} nodes (groups of √n = {})\n",
        clique.sqrt_n()
    );

    // --- Routing (Problem 3.1) -------------------------------------------
    // Every node is source and destination of exactly n messages.
    let instance = workloads::balanced_random(n, 42)?;
    println!(
        "routing {} messages ({} per node):",
        instance.total_messages(),
        n
    );
    let basic = clique.route(&instance)?;
    println!(
        "  deterministic (Thm 3.7): {:2} rounds (paper: ≤ 16), max edge load {} bits",
        basic.metrics.comm_rounds(),
        basic.metrics.max_edge_bits()
    );
    let opt = clique.route_optimized(&instance)?;
    println!(
        "  work-optimal  (Thm 5.4): {:2} rounds (paper: ≤ 12), {} work/node vs {} basic",
        opt.metrics.comm_rounds(),
        opt.metrics.max_node_steps(),
        basic.metrics.max_node_steps()
    );

    // --- Sorting (Problem 4.1) -------------------------------------------
    let keys = workloads::uniform_keys(n, 7);
    let sorted = clique.sort(&keys)?;
    println!(
        "\nsorting {} keys:\n  deterministic (Alg 4):   {:2} rounds (33: Algorithm 4 with Theorem 5.4's \
         router in Step 6; the paper states 37 with Theorem 3.7)",
        sorted.total,
        sorted.metrics.comm_rounds()
    );
    let first = sorted
        .batches
        .first()
        .and_then(|b| b.first())
        .map(|k| k.key);
    let last = sorted.batches.last().and_then(|b| b.last()).map(|k| k.key);
    println!("  node 0 now holds the smallest keys (min = {first:?}), node {} the largest (max = {last:?})", n - 1);

    // --- Queries (Cor 4.6) -------------------------------------------------
    let median = clique.select(&keys, (sorted.total / 2).saturating_sub(1))?;
    println!(
        "\nmedian key via constant-round selection: {} ({} rounds)",
        median.key,
        median.metrics.comm_rounds()
    );
    let dupes = workloads::duplicate_keys(n, 5, 3);
    let mode = clique.mode(&dupes)?;
    println!(
        "mode of a 5-value distribution: key {} × {} ({} rounds)",
        mode.key,
        mode.count,
        mode.metrics.comm_rounds()
    );
    Ok(())
}
