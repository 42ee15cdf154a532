//! End-to-end contract of the stats wire endpoint: a live [`NetServer`]
//! under a pipelined mixed workload answers [`CcClient::stats`] with a
//! registry snapshot whose per-stage latency histograms — queue wait,
//! session run, reply write — each hold **exactly one sample per
//! request the client sent**, under both reactor backends. The snapshot is
//! exact, not approximate: every stage's bookkeeping completes before
//! the reply it describes reaches the client, so a probe sent after the
//! last reply can never under-count.

use congested_clique::obs::Snapshot;
use congested_clique::workloads::RequestMix;
use congested_clique::{
    CcClient, NetServer, NetServerConfig, ReactorBackend, Request, ServerConfig,
};

/// A mixed, multi-size workload whose requests all succeed — so served
/// counts, reply counts and histogram counts must line up exactly.
///
/// These are the timing-on contract: force the lifecycle stamps live so
/// the suite holds even when the environment sets `CC_OBS=off`.
fn workload() -> Vec<Request> {
    congested_clique::obs::set_timing_enabled(true);
    RequestMix::new(vec![6usize, 8, 9])
        .with_zipf_theta(0.6)
        // Sort, select, mode, indices — no census (it errors on tiny n).
        .with_weights([0, 3, 2, 2, 2, 0, 0])
        .generate(48, 4242)
}

fn server_config() -> NetServerConfig {
    NetServerConfig::new(3).with_fleet(
        ServerConfig::new(3)
            .with_queue_capacity(16)
            .with_coalesce_limit(4),
    )
}

/// Sums one per-shard counter family (`fleet.shard{i}.<field>`) across
/// every shard present in the snapshot.
fn fleet_total(snapshot: &Snapshot, field: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix("fleet.shard")
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(shard, suffix)| {
                    shard.chars().all(|c| c.is_ascii_digit()) && suffix == field
                })
        })
        .map(|&(_, v)| v)
        .sum()
}

fn stats_snapshot_is_exact(backend: ReactorBackend) {
    let requests = workload();
    let sent = requests.len() as u64;
    let server = NetServer::bind("127.0.0.1:0", server_config().with_reactor_backend(backend))
        .expect("bind");
    let mut client = CcClient::connect(server.local_addr()).expect("connect");

    let results = client.pipeline(&requests).expect("pipeline");
    assert_eq!(results.len(), requests.len());
    assert!(results.iter().all(|r| r.is_ok()), "workload must succeed");

    let snapshot = client.stats().expect("stats roundtrip");

    // Counter exactness: every request was counted once, nothing was
    // rejected, and this connection is the only one the server saw.
    assert_eq!(fleet_total(&snapshot, "requests"), sent);
    assert_eq!(fleet_total(&snapshot, "rejected"), 0);
    assert_eq!(snapshot.counter("net.connections"), Some(1));
    // N data requests plus the stats probe itself.
    assert_eq!(snapshot.counter("net.frames_in"), Some(sent + 1));
    assert_eq!(snapshot.counter("net.frames_out"), Some(sent));

    // Per-stage histogram exactness: one sample per request at every
    // stage of the lifecycle, none from the stats probe.
    for stage in [
        "net.decode_ns",
        "fleet.queue_wait_ns",
        "fleet.session_run_ns",
        "net.write_ns",
    ] {
        let hist = snapshot.histogram(stage).expect(stage);
        assert_eq!(
            hist.count(),
            sent,
            "{stage}: want one sample per request under {backend:?}"
        );
    }

    // Queue gauges settled back to empty; the high-water mark saw at
    // least one queued job on some shard.
    let depth: i64 = snapshot
        .gauges
        .iter()
        .filter(|(name, _)| name.ends_with(".queue_depth"))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(depth, 0, "all queues drained");
    let peak: i64 = snapshot
        .gauges
        .iter()
        .filter(|(name, _)| name.ends_with(".peak_queue_depth"))
        .map(|&(_, v)| v)
        .sum();
    assert!(peak >= 1, "some shard must have held a job");

    // A second probe is monotone: nothing moved in between except the
    // probe's own frame accounting.
    let again = client.stats().expect("second stats roundtrip");
    assert_eq!(fleet_total(&again, "requests"), sent);
    assert_eq!(again.counter("net.frames_in"), Some(sent + 2));
    assert_eq!(
        again.histogram("net.write_ns").expect("write hist").count(),
        sent,
        "stats replies stay out of net.write_ns"
    );

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.fleet.requests(), sent);
}

#[test]
fn reactor_stats_snapshot_is_exact() {
    stats_snapshot_is_exact(ReactorBackend::Epoll);
    stats_snapshot_is_exact(ReactorBackend::Poll);
}

/// Interleaving: stats probes between pipelined bursts see strictly
/// increasing request counts, and the final totals still match.
#[test]
fn stats_probes_interleave_with_data_traffic() {
    let requests = workload();
    let server = NetServer::bind("127.0.0.1:0", server_config()).expect("bind");
    let mut client = CcClient::connect(server.local_addr()).expect("connect");

    let mut served_so_far = 0u64;
    for chunk in requests.chunks(12) {
        let results = client.pipeline(chunk).expect("pipeline chunk");
        assert!(results.iter().all(|r| r.is_ok()));
        served_so_far += chunk.len() as u64;
        let snapshot = client.stats().expect("stats between bursts");
        assert_eq!(fleet_total(&snapshot, "requests"), served_so_far);
        assert_eq!(
            snapshot
                .histogram("fleet.session_run_ns")
                .expect("session hist")
                .count(),
            served_so_far
        );
    }
    assert_eq!(served_so_far, requests.len() as u64);
}
