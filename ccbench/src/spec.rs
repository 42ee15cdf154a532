//! The benchmark's fixed vocabulary: the four workloads and every metric
//! name with its unit. `BENCHMARK.json` at the repo root repeats these
//! tables for the driver; a unit test keeps the two from drifting.

/// How long one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Which serving path a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `RouteOptimized` straight into a warm `CliqueService`.
    LibRoute,
    /// `Sort` straight into a warm `CliqueService`.
    LibSort,
    /// Small `RouteOptimized` frames over one TCP connection.
    NetSmall,
    /// Census + route frames at the large clique size over two connections.
    NetBulk,
}

/// One closed-loop workload. Sizes are fields (not constants) only so the
/// plumbing test can drive the same code on small cliques.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Clique size of every request in the cycle.
    pub n: usize,
    /// Requests in the seed-generated cycle each caller walks.
    pub cycle_len: usize,
    /// Closed-loop callers (threads; connections for the net workloads).
    pub callers: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    pub why: &'static str,
}

impl Workload {
    pub fn is_net(&self) -> bool {
        matches!(self.kind, Kind::NetSmall | Kind::NetBulk)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lib_route",
        kind: Kind::LibRoute,
        n: 256,
        cycle_len: 8,
        callers: 1,
        setup_repeats: 5,
        why: "engine delivery-bound: 12 rounds of 60k messages through cc-sim delivery, \
              cc-primitives and cc-coloring; no cc-server, no cc-net",
    },
    Workload {
        name: "lib_sort",
        kind: Kind::LibSort,
        n: 128,
        cycle_len: 6,
        callers: 1,
        setup_repeats: 3,
        why: "same engine used differently: 37 short rounds dominated by node-local radix \
              sorting and per-round hand-off, with ties (uniform, zipf, duplicate keys)",
    },
    Workload {
        name: "net_small",
        kind: Kind::NetSmall,
        n: 16,
        cycle_len: 64,
        callers: 1,
        setup_repeats: 9,
        why: "per-request cost: 5 KB frames over one TCP connection, so codec, reactor \
              wake-ups, shard hand-off and session set-up outweigh compute",
    },
    Workload {
        name: "net_bulk",
        kind: Kind::NetBulk,
        n: 256,
        cycle_len: 8,
        callers: 2,
        setup_repeats: 5,
        why: "per-byte cost: 0.5-1.3 MB frames from two connections contending for one \
              reactor and one shard; p50 is a census, p90 a route or a census queued behind one",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the stack sees. `bound` is the
/// share by which it may worsen before a change counts as a regression
/// (confirmed by `--aa`; see the README for the evidence).
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.08,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.08,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
    },
    // An exact count: any positive bound below 1/total is "must not rise".
    EndToEnd {
        name: "comm_rounds",
        unit: "rounds",
        higher_is_better: false,
        bound: 0.001,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.20,
    },
];

/// Per-layer metrics, `(name, unit)`, grouped by the crate they watch.
/// The README says which end-to-end metric each one should move.
pub const PER_LAYER: [(&str, &str); 71] = [
    // cc-workloads
    ("workloads.generate_ms", "ms"),
    // cc-sim
    ("sim.radix.u64_ns_per_item", "ns"),
    ("sim.radix.bounded_ns_per_item", "ns"),
    ("sim.engine.deliver_ns_per_msg", "ns"),
    ("sim.engine.round_overhead_us", "us"),
    ("sim.session.run_overhead_us", "us"),
    ("sim.session.first_run_ms", "ms"),
    ("sim.pool.parallel_ratio", "x"),
    ("sim.messages_per_request", "count"),
    ("sim.bits_per_request", "bits"),
    ("sim.max_edge_bits", "bits"),
    ("sim.max_node_steps", "count"),
    // cc-coloring
    ("coloring.color_exact_ns_per_edge", "ns"),
    // cc-primitives
    ("primitives.known_exchange_ms", "ms"),
    ("primitives.subset_exchange_ms", "ms"),
    // cc-core
    ("core.route_ms", "ms"),
    ("core.route_optimized_ms", "ms"),
    ("core.sort_ms", "ms"),
    ("core.global_indices_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.mode_ms", "ms"),
    ("core.small_key_census_ms", "ms"),
    ("core.route_optimized_hotspot_ms", "ms"),
    ("core.rounds.route", "rounds"),
    ("core.rounds.route_optimized", "rounds"),
    ("core.rounds.sort", "rounds"),
    ("core.rounds.global_indices", "rounds"),
    ("core.rounds.select", "rounds"),
    ("core.rounds.mode", "rounds"),
    ("core.rounds.small_key_census", "rounds"),
    // cc-server
    ("server.dispatch_overhead_us", "us"),
    ("server.queue_wait_us_mean", "us"),
    ("server.queue_wait_us_p50", "us"),
    ("server.queue_wait_us_p90", "us"),
    ("server.session_run_us_mean", "us"),
    ("server.session_run_us_p50", "us"),
    ("server.mean_batch_len", "count"),
    ("server.peak_queue_depth", "count"),
    ("server.rejected", "count"),
    // cc-net
    ("net.codec.encode_request_ns_per_byte", "ns"),
    ("net.codec.decode_request_ns_per_byte", "ns"),
    ("net.codec.encode_reply_ns_per_byte", "ns"),
    ("net.codec.decode_reply_ns_per_byte", "ns"),
    ("net.codec.small_frame_us", "us"),
    ("net.frame.decoder_ns_per_byte", "ns"),
    ("net.frame.frame_into_ns_per_byte", "ns"),
    ("net.request_bytes", "bytes"),
    ("net.reply_bytes", "bytes"),
    ("net.client.submit_us_p50", "us"),
    ("net.client.wait_us_p50", "us"),
    ("net.client.rtt_us_mean", "us"),
    ("net.client.rtt_p99_us", "us"),
    ("net.server.decode_us_mean", "us"),
    ("net.server.decode_us_p50", "us"),
    ("net.server.write_us_mean", "us"),
    ("net.server.write_us_p50", "us"),
    ("net.reactor.wakeups_per_request", "count"),
    ("net.reactor.polls_per_request", "count"),
    ("net.residual_us", "us"),
    ("net.bind_ms", "ms"),
    ("net.connect_us", "us"),
    ("net.shutdown_ms", "ms"),
    // cc-obs
    ("obs.histogram_record_ns", "ns"),
    ("obs.snapshot_us", "us"),
    ("obs.stats_rtt_us", "us"),
    // process and the benchmark's own tracing
    ("proc.cpu_ms_per_request", "ms"),
    ("proc.threads", "count"),
    ("trace.requests", "count"),
    ("trace.request_self_us_p50", "us"),
    ("trace.untraced_requests_per_s", "1/s"),
    ("trace.overhead_share", "share"),
];

/// The paper's round bounds per entry point, as the repo's own tests
/// assert them (Theorems 3.7, 5.4, 4.5; Corollary 4.6 variants; §6.3).
pub const ROUND_BOUNDS: [(&str, u64); 7] = [
    ("route", 16),
    ("route_optimized", 12),
    ("sort", 37),
    ("global_indices", 54),
    ("select", 38),
    ("mode", 38),
    ("small_key_census", 2),
];

pub fn round_bound(entry: &str) -> u64 {
    ROUND_BOUNDS
        .iter()
        .find(|(name, _)| *name == entry)
        .map(|(_, bound)| *bound)
        .expect("entry point has a round bound")
}

/// Metric values of one run, checked against a table when emitted.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.get(name).is_none(),
            "metric {name} was measured twice in one run"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values in `table` order; panics if the run left one unmeasured
    /// or measured something the table does not name.
    pub fn in_order(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, unit, value)
            })
            .collect()
    }
}

pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}
