//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cc_core::obs::{HistogramSnapshot, Snapshot};
use cc_core::Outcome;
use cc_net::codec::{encode_reply, encode_request};
use cc_net::CcClient;
use cc_server::Request;

use crate::drive::{run_phase, set_up, Phase, Until};
use crate::json::RunResult;
use crate::kernels::{self, Scale};
use crate::spans::{self_times_ns, write_jsonl, Span};
use crate::spec::{end_to_end_table, Values, Workload, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile, samples_beyond};
use crate::{cycle, procfs};

fn result(
    table: &[(&'static str, &'static str)],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> RunResult {
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: values
            .in_order(table)
            .into_iter()
            .map(|(name, unit, value)| (name.to_owned(), unit.to_owned(), value))
            .collect(),
    }
}

fn print_metrics(result: &RunResult) {
    for (name, unit, value) in &result.metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

/// The untraced run, the benchmark's spans off and the server as shipped:
/// `setup_repeats` times over, a complete set-up followed by an equal
/// slice of the timed `window` on that fresh rig. `setup_s` is the median
/// set-up; throughput and latency pool the slices, so each run averages
/// over several independent heap and thread layouts instead of reporting
/// the luck of one; `peak_rss_mb` is read at the end of the first slice,
/// one set-up and its steady state, before torn-down rigs muddy it.
pub fn untraced(w: &Workload, seed: u64, window: Duration) -> RunResult {
    let refs = cycle::references(&cycle::generate(w, seed));
    let comm_rounds: u64 = refs.iter().map(|o| o.metrics().comm_rounds()).sum();

    let (mut attempted, mut failed) = (0, 0);
    let mut setup_s = Vec::new();
    let mut timed = Phase::default();
    let mut slice_p50_ms = Vec::new();
    let mut peak_rss_mb = 0.0;
    for slice in 0..w.setup_repeats {
        let mut setup = set_up(w, seed, &refs);
        attempted += setup.warmup.requests;
        failed += setup.warmup.failed;
        setup_s.push(setup.total_s);
        let mut phase = run_phase(
            &mut setup.rig,
            &setup.cycle,
            &refs,
            Until::Elapsed(window / w.setup_repeats as u32),
            None,
        );
        if slice == 0 {
            peak_rss_mb = procfs::peak_rss_mb();
        }
        setup.rig.tear_down();
        slice_p50_ms.push(percentile(&mut phase.latencies_ms, 50.0));
        timed.requests += phase.requests;
        timed.failed += phase.failed;
        timed.elapsed_s += phase.elapsed_s;
        timed.latencies_ms.append(&mut phase.latencies_ms);
    }
    attempted += timed.requests;
    failed += timed.failed;

    let samples = timed.latencies_ms.len();
    let mut values = Values::default();
    values.set("requests_per_s", timed.requests_per_s());
    values.set("latency_p50_ms", percentile(&mut timed.latencies_ms, 50.0));
    values.set("latency_p90_ms", percentile(&mut timed.latencies_ms, 90.0));
    values.set("comm_rounds", comm_rounds as f64);
    values.set("setup_s", median(&mut setup_s));
    values.set("peak_rss_mb", peak_rss_mb);

    println!(
        "{}: {samples} timed requests in {:.2} s from {} caller(s) over {} set-ups; {} beyond p90; \
         highest percentile with 10 samples beyond it: {}; failed_share {failed}/{attempted}",
        w.name,
        timed.elapsed_s,
        w.callers,
        setup_s.len(),
        samples_beyond(samples, 90.0),
        highest_supported_percentile(samples).map_or("none".to_owned(), |p| format!("p{p}")),
    );
    println!("  per-slice p50 (ms): {slice_p50_ms:.3?}");
    let result = result(&end_to_end_table(), &values, attempted, failed);
    print_metrics(&result);
    result
}

/// `after − before` of one histogram of the server's registry.
fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str) -> HistogramSnapshot {
    let after = *after
        .histogram(name)
        .unwrap_or_else(|| panic!("server registry has no {name}"));
    let before = before.histogram(name).copied().unwrap_or_default();
    let mut delta = after;
    for (d, b) in delta.buckets.iter_mut().zip(before.buckets) {
        *d -= b;
    }
    delta.sum -= before.sum;
    delta
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

/// Durations, in µs, of the spans called `name`.
fn span_durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Mean encoded frame size (length prefix included) over the cycle.
fn mean_frame_bytes(cycle: &[Request], refs: &[Outcome]) -> (f64, f64) {
    let requests: usize = cycle.iter().map(|r| 4 + encode_request(0, r).len()).sum();
    let replies: usize = refs
        .iter()
        .map(|o| 4 + encode_reply(0, &Ok(o.clone())).len())
        .sum();
    (
        requests as f64 / cycle.len() as f64,
        replies as f64 / refs.len() as f64,
    )
}

/// Where the traced run leaves its spans: beside the binary, so inside
/// the build directory wherever cargo was told to put it.
fn trace_path(workload: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent()
        .expect("the binary sits in a directory")
        .join("ccbench-trace")
        .join(format!("trace-{workload}.jsonl"))
}

/// The traced run. A quarter of `window` untraced (the base of
/// `trace.overhead_share`), a quarter with the benchmark's spans on and the
/// server's registry snapshotted before and after, then the layer kernels.
/// No end-to-end number is taken from here.
pub fn traced(w: &Workload, seed: u64, window: Duration, scale: &Scale) -> RunResult {
    let refs = cycle::references(&cycle::generate(w, seed));
    let mut setup = set_up(w, seed, &refs);
    let (mut attempted, mut failed) = (setup.warmup.requests, setup.warmup.failed);
    let mut values = Values::default();
    values.set("workloads.generate_ms", setup.generate_s * 1e3);

    let untraced = run_phase(
        &mut setup.rig,
        &setup.cycle,
        &refs,
        Until::Elapsed(window / 4),
        None,
    );

    // The stats endpoint is the only window onto the server's registry a
    // client has; a control connection keeps it off the callers' sockets.
    let mut control = setup
        .rig
        .server()
        .map(|server| CcClient::connect(server.local_addr()).expect("loopback connect"));
    let mut snapshot = || {
        control
            .as_mut()
            .map(|client| client.stats().expect("stats endpoint answers"))
    };
    let before = snapshot();
    let cpu_before = procfs::cpu_ms();
    let phase: Phase = run_phase(
        &mut setup.rig,
        &setup.cycle,
        &refs,
        Until::Elapsed(window / 4),
        Some(Instant::now()),
    );
    let cpu_ms = procfs::cpu_ms() - cpu_before;
    let after = snapshot();
    values.set("proc.threads", procfs::threads() as f64);
    let fleet = setup.rig.server().map(|server| server.stats().fleet);
    drop(control);
    setup.rig.tear_down();
    for p in [&untraced, &phase] {
        attempted += p.requests;
        failed += p.failed;
    }

    let spans = phase
        .spans
        .as_ref()
        .expect("traced phase records spans")
        .spans();
    let self_ns = self_times_ns(spans);
    let path = trace_path(w.name);
    write_jsonl(&path, spans).expect("trace file is writable");
    println!(
        "{}: traced {} requests ({} spans -> {}), {} untraced before them",
        w.name,
        phase.requests,
        spans.len(),
        path.display(),
        untraced.requests
    );
    for name in [
        "request",
        "core.call",
        "client.submit",
        "client.wait_next",
        "verify",
    ] {
        let (count, total, own) = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .fold((0u64, 0u64, 0u64), |(c, t, o), (s, own)| {
                (c + 1, t + s.duration_ns(), o + own)
            });
        if count > 0 {
            println!(
                "  span {name:<18} n={count:<7} mean {:>10.1} us  self {:>10.1} us",
                total as f64 / count as f64 / 1e3,
                own as f64 / count as f64 / 1e3
            );
        }
    }

    values.set("trace.requests", phase.requests as f64);
    let mut request_self_us: Vec<f64> = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "request")
        .map(|(_, &own)| own as f64 / 1e3)
        .collect();
    values.set("trace.request_self_us_p50", median(&mut request_self_us));
    values.set("trace.untraced_requests_per_s", untraced.requests_per_s());
    // Base: the untraced phase of this same run.
    values.set(
        "trace.overhead_share",
        1.0 - phase.requests_per_s() / untraced.requests_per_s(),
    );
    values.set("proc.cpu_ms_per_request", cpu_ms / phase.requests as f64);

    // The paper's own accounting, exact per cycle.
    let per_request =
        |f: &dyn Fn(&Outcome) -> u64| refs.iter().map(f).sum::<u64>() as f64 / refs.len() as f64;
    let max_of = |f: &dyn Fn(&Outcome) -> u64| refs.iter().map(f).max().unwrap_or(0) as f64;
    values.set(
        "sim.messages_per_request",
        per_request(&|o| o.metrics().total_messages()),
    );
    values.set(
        "sim.bits_per_request",
        per_request(&|o| o.metrics().total_bits()),
    );
    values.set(
        "sim.max_edge_bits",
        max_of(&|o| o.metrics().max_edge_bits()),
    );
    values.set(
        "sim.max_node_steps",
        max_of(&|o| o.metrics().max_node_steps()),
    );

    // Wire-side numbers; all zero on the lib_* workloads, whose requests
    // never reach cc-server or cc-net.
    const WIRE_ONLY: [&str; 21] = [
        "net.request_bytes",
        "net.reply_bytes",
        "net.client.submit_us_p50",
        "net.client.wait_us_p50",
        "net.client.rtt_us_mean",
        "net.client.rtt_p99_us",
        "net.server.decode_us_mean",
        "net.server.decode_us_p50",
        "net.server.write_us_mean",
        "net.server.write_us_p50",
        "server.queue_wait_us_mean",
        "server.queue_wait_us_p50",
        "server.queue_wait_us_p90",
        "server.session_run_us_mean",
        "server.session_run_us_p50",
        "server.mean_batch_len",
        "server.peak_queue_depth",
        "server.rejected",
        "net.reactor.wakeups_per_request",
        "net.reactor.polls_per_request",
        "net.residual_us",
    ];
    if let (Some(before), Some(after), Some(fleet)) = (before, after, fleet) {
        let (request_bytes, reply_bytes) = mean_frame_bytes(&setup.cycle, &refs);
        values.set("net.request_bytes", request_bytes);
        values.set("net.reply_bytes", reply_bytes);

        let mut submit_us = span_durations_us(spans, "client.submit");
        let mut wait_us = span_durations_us(spans, "client.wait_next");
        // Round trip as the caller sees it: submit start to reply decoded.
        let mut rtt_us: Vec<f64> = submit_us
            .iter()
            .zip(&wait_us)
            .map(|(submit, wait)| submit + wait)
            .collect();
        values.set("net.client.submit_us_p50", median(&mut submit_us));
        values.set("net.client.wait_us_p50", median(&mut wait_us));
        let rtt_mean = rtt_us.iter().sum::<f64>() / rtt_us.len() as f64;
        values.set("net.client.rtt_us_mean", rtt_mean);
        values.set("net.client.rtt_p99_us", percentile(&mut rtt_us, 99.0));

        // cc-obs histograms have power-of-two buckets: their percentiles
        // are bucket upper edges, their means exact. The residual uses
        // the means.
        let mut accounted = 0.0;
        for (histogram, mean_metric, p50_metric, p90_metric) in [
            (
                "net.decode_ns",
                "net.server.decode_us_mean",
                "net.server.decode_us_p50",
                None,
            ),
            (
                "fleet.queue_wait_ns",
                "server.queue_wait_us_mean",
                "server.queue_wait_us_p50",
                Some("server.queue_wait_us_p90"),
            ),
            (
                "fleet.session_run_ns",
                "server.session_run_us_mean",
                "server.session_run_us_p50",
                None,
            ),
            (
                "net.write_ns",
                "net.server.write_us_mean",
                "net.server.write_us_p50",
                None,
            ),
        ] {
            let delta = histogram_delta(&before, &after, histogram);
            if delta.count() != phase.requests {
                eprintln!(
                    "ccbench: {histogram} saw {} of {} traced requests",
                    delta.count(),
                    phase.requests
                );
            }
            accounted += delta.mean() / 1e3;
            values.set(mean_metric, delta.mean() / 1e3);
            values.set(p50_metric, delta.p50() as f64 / 1e3);
            if let Some(p90_metric) = p90_metric {
                values.set(p90_metric, delta.p90() as f64 / 1e3);
            }
        }
        // What no server-side stage claims: kernel socket path, reactor
        // and shard wake-ups, client-side encode and decode.
        values.set("net.residual_us", rtt_mean - accounted);

        let requests = phase.requests as f64;
        values.set(
            "net.reactor.wakeups_per_request",
            counter_delta(&before, &after, "net.reactor.wakeups") / requests,
        );
        values.set(
            "net.reactor.polls_per_request",
            (counter_delta(&before, &after, "net.reactor.polls.epoll")
                + counter_delta(&before, &after, "net.reactor.polls.poll"))
                / requests,
        );
        values.set("server.mean_batch_len", fleet.mean_batch_len());
        values.set("server.peak_queue_depth", fleet.peak_queue_depth() as f64);
        values.set("server.rejected", fleet.rejected() as f64);
    } else {
        for name in WIRE_ONLY {
            values.set(name, 0.0);
        }
    }

    kernels::run_all(seed, scale, &mut values);

    let result = result(&PER_LAYER, &values, attempted, failed);
    print_metrics(&result);
    result
}
