//! Per-layer kernels: each layer timed from outside, through the public
//! functions of its crate, on inputs derived from the seed. They do not
//! depend on which workload the traced run is for, so every traced run
//! reports all of them and they can be compared across workloads' runs.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use cc_coloring::{color_exact, BipartiteMultigraph};
use cc_core::CliqueService;
use cc_net::codec::{decode_frame, encode_reply, encode_request};
use cc_net::frame::{frame_into, frame_vec, FrameDecoder};
use cc_net::{CcClient, Frame, NetServer, NetServerConfig, WireResult, DEFAULT_MAX_FRAME_BYTES};
use cc_obs::Histogram;
use cc_primitives::{drive_protocol_on, DemandMatrix, KnownExchange, NodeGroup, SubsetExchange};
use cc_rand::DetRng;
use cc_server::{QueryServer, Request, ServerConfig};
use cc_sim::radix::{sort_by_bounded_key_with, sort_by_u64_key_with, RadixScratch};
use cc_sim::util::{isqrt, word_bits};
use cc_sim::{
    CliqueSession, CliqueSpec, CommonScope, Ctx, ExecMode, Inbox, NodeMachine, Payload, Step,
};
use cc_workloads as wl;

use crate::cycle;
use crate::spec::{round_bound, Values, Workload, WORKLOADS};
use crate::stats::median;

/// Problem sizes and sample counts. `full` is what the benchmark reports;
/// `smoke` shrinks everything so the plumbing test finishes in seconds.
#[derive(Clone, Debug)]
pub struct Scale {
    pub workloads: [Workload; 4],
    /// The large clique: delivery, bounded scatter, coloring, primitives.
    pub big: usize,
    /// The medium clique: u64 radix, round overhead, the core entry points.
    pub mid: usize,
    /// `small_key_census` with 1-bit keys needs `2·⌈log₂(n+1)⌉² ≤ n`.
    pub census_n: usize,
    /// Samples of a kernel that takes tens of milliseconds or more.
    pub heavy: usize,
    /// Samples of a millisecond-scale kernel.
    pub medium: usize,
    /// Samples of a kernel well under a millisecond.
    pub light: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            workloads: WORKLOADS,
            big: 256,
            mid: 128,
            census_n: 128,
            heavy: 3,
            medium: 15,
            light: 201,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Scale {
        let shrink = |w: Workload, n: usize, cycle_len: usize| Workload {
            n,
            cycle_len,
            setup_repeats: 1,
            ..w
        };
        let [route, sort, small, bulk] = WORKLOADS;
        Scale {
            workloads: [
                shrink(route, 32, 2),
                shrink(sort, 16, 3),
                shrink(small, 16, 4),
                shrink(bulk, 128, 4),
            ],
            big: 64,
            mid: 16,
            census_n: 128,
            heavy: 1,
            medium: 1,
            light: 5,
        }
    }

    pub fn workload(&self, name: &str) -> &Workload {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .expect("one of the four workloads")
    }
}

/// Median, in nanoseconds, of `samples` runs of `f` after one untimed
/// run. `f` times its own kernel and returns the duration, so per-sample
/// preparation (cloning an input) stays outside the measurement.
fn median_ns(samples: usize, mut f: impl FnMut() -> Duration) -> f64 {
    f();
    let mut ns: Vec<f64> = (0..samples).map(|_| f().as_nanos() as f64).collect();
    median(&mut ns)
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Every node broadcasts every round: `n²` messages per round through the
/// delivery path (the shape `benches/engine.rs` stresses).
struct AllToAll {
    rounds: u32,
    done: u32,
}

impl NodeMachine for AllToAll {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.broadcast(1);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
        let sum: u64 = inbox.drain().map(|(_, m)| m).sum();
        self.done += 1;
        if self.done >= self.rounds {
            return Step::Done(sum);
        }
        ctx.broadcast(1);
        Step::Continue
    }
}

/// Sends nothing for `rounds` rounds: what is left is stepping and the
/// per-round pool hand-off.
struct Silent {
    rounds: u32,
    done: u32,
}

impl NodeMachine for Silent {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, _ctx: &mut Ctx<'_, u64>) {}

    fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
        self.done += 1;
        if self.done >= self.rounds {
            Step::Done(())
        } else {
            Step::Continue
        }
    }
}

const DELIVER_ROUNDS: u32 = 8;
const SILENT_ROUNDS: u32 = 64;

fn all_to_all(session: &mut CliqueSession, n: usize, mode: ExecMode) -> (Duration, u64) {
    let spec = CliqueSpec::new(n).expect("n >= 1").with_exec(mode);
    let (took, report) = timed(|| {
        session
            .run_protocol(spec, |_| AllToAll {
                rounds: DELIVER_ROUNDS,
                done: 0,
            })
            .expect("all-to-all stays within the edge budget")
    });
    (took, report.metrics.total_messages())
}

fn silent(session: &mut CliqueSession, n: usize, rounds: u32) -> Duration {
    let spec = CliqueSpec::new(n)
        .expect("n >= 1")
        .with_max_silent_rounds(u64::from(rounds) + 1);
    timed(|| {
        session
            .run_protocol(spec, |_| Silent { rounds, done: 0 })
            .expect("silent protocol terminates")
    })
    .0
}

fn sim_kernels(seed: u64, scale: &Scale, out: &mut Values) {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x51b);
    let mut scratch = RadixScratch::new();

    let len = scale.mid * scale.mid;
    let pairs: Vec<(u64, u64)> = (0..len as u64)
        .map(|i| (rng.gen_range_u64(0..len as u64), i))
        .collect();
    let ns = median_ns(scale.light, || {
        let mut items = pairs.clone();
        let took = timed(|| sort_by_u64_key_with(&mut items, |p| p.0, &mut scratch)).0;
        black_box(items);
        took
    });
    out.set("sim.radix.u64_ns_per_item", ns / len as f64);

    let (len, buckets) = (scale.big * scale.big, scale.big);
    let addressed: Vec<(usize, u64)> = (0..len as u64)
        .map(|i| (rng.gen_range_usize(0..buckets), i))
        .collect();
    let ns = median_ns(scale.light, || {
        let mut items = addressed.clone();
        let took = timed(|| sort_by_bounded_key_with(&mut items, buckets, |p| p.0, &mut scratch)).0;
        black_box(items);
        took
    });
    out.set("sim.radix.bounded_ns_per_item", ns / len as f64);

    let n = scale.big;
    let mut session = CliqueSession::new();
    let messages = all_to_all(&mut session, n, ExecMode::Auto).1;
    let deliver = |session: &mut CliqueSession, mode| {
        median_ns(scale.medium, || all_to_all(session, n, mode).0)
    };
    out.set(
        "sim.engine.deliver_ns_per_msg",
        deliver(&mut session, ExecMode::Auto) / messages as f64,
    );
    let cores = crate::procfs::nproc();
    let sequential = deliver(&mut session, ExecMode::Sequential);
    let parallel = deliver(&mut session, ExecMode::Parallel { threads: cores });
    out.set("sim.pool.parallel_ratio", sequential / parallel);

    let ns = median_ns(scale.medium, || {
        let mut cold = CliqueSession::new();
        let took = all_to_all(&mut cold, n, ExecMode::Auto).0;
        drop(cold); // joining the workers is not part of a first run
        took
    });
    out.set("sim.session.first_run_ms", ns / 1e6);

    let ns = median_ns(scale.medium, || {
        silent(&mut session, scale.mid, SILENT_ROUNDS)
    });
    out.set(
        "sim.engine.round_overhead_us",
        ns / 1e3 / f64::from(SILENT_ROUNDS),
    );
    let ns = median_ns(scale.light, || silent(&mut session, 16, 1));
    out.set("sim.session.run_overhead_us", ns / 1e3);
}

fn coloring_kernel(seed: u64, scale: &Scale, out: &mut Values) {
    // The demand matrix of a `lib_route` instance: n-regular, n² edges.
    let n = scale.big;
    let instance = wl::balanced_random(n, seed).expect("n >= 1");
    let mut demands = vec![0u32; n * n];
    for (src, sends) in instance.all_sends().iter().enumerate() {
        for message in sends {
            demands[src * n + message.dst.index()] += 1;
        }
    }
    let graph = BipartiteMultigraph::from_demands(n, n, &demands).expect("n × n matrix");
    let ns = median_ns(scale.medium, || {
        let (took, coloring) = timed(|| color_exact(&graph).expect("balanced demands are regular"));
        assert_eq!(coloring.num_colors() as usize, n);
        took
    });
    out.set(
        "coloring.color_exact_ns_per_edge",
        ns / graph.num_edges() as f64,
    );
}

/// A two-word message, as in `benches/primitives.rs`; only its size
/// matters to the exchange.
#[derive(Clone, Debug)]
struct Tag {
    _src: u32,
    _seq: u32,
}

impl Payload for Tag {
    fn size_bits(&self, n: usize) -> u64 {
        2 * word_bits(n)
    }
}

/// Corollary 3.3 / 3.4 exchanges among the first `√n` nodes, driven as
/// `benches/primitives.rs` drives them, on a warm session.
fn primitives_kernels(scale: &Scale, out: &mut Values) {
    let n = scale.big;
    let w = isqrt(n);
    let group = NodeGroup::contiguous(0, w);
    let mut demands = DemandMatrix::new(w);
    for i in 0..w {
        for j in 0..w {
            demands.set(i, j, (n / w) as u32);
        }
    }
    let spec = || CliqueSpec::new(n).expect("n >= 1").with_budget_words(64);
    let outgoing = |me: u32, count: &dyn Fn(usize) -> u32| -> Vec<Vec<Tag>> {
        (0..w)
            .map(|j| (0..count(j)).map(|k| Tag { _src: me, _seq: k }).collect())
            .collect()
    };
    let mut session = CliqueSession::new();
    let mut tag = 0u64;

    let ns = median_ns(scale.medium, || {
        tag += 1;
        timed(|| {
            drive_protocol_on(&mut session, spec(), |me| match group.local_index(me) {
                Some(local) => KnownExchange::member(
                    group.clone(),
                    demands.clone(),
                    outgoing(me.raw(), &|j| demands.get(local, j)),
                    CommonScope::new("ccbench.kx", tag),
                ),
                None => KnownExchange::relay_only(),
            })
            .expect("known exchange completes")
        })
        .0
    });
    out.set("primitives.known_exchange_ms", ns / 1e6);

    let ns = median_ns(scale.medium, || {
        tag += 1;
        timed(|| {
            drive_protocol_on(&mut session, spec(), |me| match group.local_index(me) {
                Some(local) => SubsetExchange::member(
                    group.clone(),
                    local,
                    outgoing(me.raw(), &|j| ((local + j) % w) as u32),
                    CommonScope::new("ccbench.sx", tag),
                ),
                None => SubsetExchange::relay_only(),
            })
            .expect("subset exchange completes")
        })
        .0
    });
    out.set("primitives.subset_exchange_ms", ns / 1e6);
}

/// Warm direct-call medians for all seven entry points (five of which no
/// workload times end to end), with the paper's round bounds asserted.
fn core_kernels(seed: u64, scale: &Scale, out: &mut Values) {
    let n = scale.mid;
    let mut rng = DetRng::seed_from_u64(seed ^ 0xc07e);
    let mut s = || rng.next_u64();
    let balanced = |s| wl::balanced_random(n, s).expect("n >= 1");
    let calls: [(&'static str, &'static str, Request); 8] = [
        (
            "core.route_ms",
            "core.rounds.route",
            Request::Route(balanced(s())),
        ),
        (
            "core.route_optimized_ms",
            "core.rounds.route_optimized",
            Request::RouteOptimized(balanced(s())),
        ),
        (
            "core.sort_ms",
            "core.rounds.sort",
            Request::Sort(wl::uniform_keys(n, s())),
        ),
        (
            "core.global_indices_ms",
            "core.rounds.global_indices",
            Request::GlobalIndices(wl::zipf_keys(n, 4 * n as u64, s())),
        ),
        (
            "core.select_ms",
            "core.rounds.select",
            Request::Select {
                keys: wl::uniform_keys(n, s()),
                rank: (n * n / 2) as u64,
            },
        ),
        (
            "core.mode_ms",
            "core.rounds.mode",
            Request::Mode(wl::duplicate_keys(n, (n as u64 / 2).max(2), s())),
        ),
        (
            "core.small_key_census_ms",
            "core.rounds.small_key_census",
            Request::SmallKeyCensus {
                keys: wl::duplicate_keys(scale.census_n, 2, s()),
                key_bits: 1,
            },
        ),
        (
            "core.route_optimized_hotspot_ms",
            "",
            Request::RouteOptimized(wl::hotspot(n, s()).expect("n >= 1")),
        ),
    ];
    let mut service = CliqueService::new(n).expect("n >= 1");
    let mut census_service = CliqueService::new(scale.census_n).expect("n >= 1");
    for (time_metric, rounds_metric, request) in calls {
        let entry = cycle::entry_point(&request);
        let service = if request.n() == n {
            &mut service
        } else {
            &mut census_service
        };
        let mut rounds = 0;
        let samples = if entry == "small_key_census" {
            scale.medium
        } else {
            scale.heavy
        };
        let ns = median_ns(samples, || {
            let (took, outcome) = timed(|| request.serve_on(service));
            let outcome = outcome.unwrap_or_else(|e| panic!("{entry} kernel failed: {e}"));
            rounds = outcome.metrics().comm_rounds();
            took
        });
        assert!(
            rounds <= round_bound(entry),
            "{entry} took {rounds} rounds, above the paper's bound"
        );
        out.set(time_metric, ns / 1e6);
        if !rounds_metric.is_empty() {
            out.set(rounds_metric, rounds as f64);
        }
    }
}

/// `ServiceHandle::call` round trip minus the same request served
/// directly: what the shard queue and two thread hand-offs cost.
fn server_and_obs_kernels(seed: u64, scale: &Scale, out: &mut Values) {
    let request = cycle::generate(scale.workload("net_small"), seed).swap_remove(0);
    let server = QueryServer::new(ServerConfig::new(1)).expect("one shard is a valid fleet");
    let handle = server.handle();
    // `call` consumes its request; clone outside the timed region.
    let mut owned: Vec<Request> = vec![request.clone(); scale.light + 1];
    let via_shard = median_ns(scale.light, || {
        let request = owned.pop().expect("one clone per sample");
        timed(|| handle.call(request).expect("shard serves the request")).0
    });
    let mut service = CliqueService::new(request.n()).expect("n >= 1");
    let direct = median_ns(scale.light, || {
        timed(|| request.serve_on(&mut service).expect("request is valid")).0
    });
    out.set("server.dispatch_overhead_us", (via_shard - direct) / 1e3);

    let ns = median_ns(scale.light, || timed(|| server.registry().snapshot()).0);
    out.set("obs.snapshot_us", ns / 1e3);
    server.shutdown();

    const RECORDS: u64 = 1 << 20;
    let histogram = Histogram::new();
    let ns = median_ns(scale.medium, || {
        timed(|| {
            for v in 0..RECORDS {
                histogram.record(black_box(v));
            }
        })
        .0
    });
    out.set("obs.histogram_record_ns", ns / RECORDS as f64);
}

/// The four codec steps, in the order `codec_times` reports them, with
/// the per-byte metric each feeds.
const CODEC_STEPS: [&str; 4] = [
    "net.codec.encode_request_ns_per_byte",
    "net.codec.decode_request_ns_per_byte",
    "net.codec.encode_reply_ns_per_byte",
    "net.codec.decode_reply_ns_per_byte",
];

/// One frame pair's `CODEC_STEPS`, each `(median ns over samples, payload
/// bytes)`; also checks that decode inverts encode.
fn codec_times(request: &Request, reply: &WireResult, samples: usize) -> [(f64, usize); 4] {
    let request_payload = encode_request(7, request);
    let reply_payload = encode_reply(7, reply);
    assert_eq!(
        decode_frame(&request_payload),
        Ok(Frame::Request {
            id: 7,
            request: request.clone()
        })
    );
    assert_eq!(
        decode_frame(&reply_payload),
        Ok(Frame::Reply {
            id: 7,
            result: reply.clone()
        })
    );
    let decode = |payload: &[u8]| {
        median_ns(samples, || {
            let (took, frame) = timed(|| decode_frame(payload));
            black_box(frame.expect("payload decodes"));
            took
        })
    };
    let encode_request_ns = median_ns(samples, || {
        let (took, payload) = timed(|| encode_request(7, request));
        black_box(payload);
        took
    });
    let encode_reply_ns = median_ns(samples, || {
        let (took, payload) = timed(|| encode_reply(7, reply));
        black_box(payload);
        took
    });
    [
        (encode_request_ns, request_payload.len()),
        (decode(&request_payload), request_payload.len()),
        (encode_reply_ns, reply_payload.len()),
        (decode(&reply_payload), reply_payload.len()),
    ]
}

fn net_kernels(seed: u64, scale: &Scale, out: &mut Values) {
    // Codec cost per byte on `net_bulk`'s actual frames, both directions.
    let bulk = cycle::generate(scale.workload("net_bulk"), seed);
    let replies: Vec<WireResult> = cycle::references(&bulk).into_iter().map(Ok).collect();
    let mut totals = [(0.0, 0usize); 4];
    for (request, reply) in bulk.iter().zip(&replies) {
        for (total, (ns, bytes)) in totals
            .iter_mut()
            .zip(codec_times(request, reply, scale.medium))
        {
            total.0 += ns;
            total.1 += bytes;
        }
    }
    for (metric, (ns, bytes)) in CODEC_STEPS.into_iter().zip(totals) {
        out.set(metric, ns / bytes as f64);
    }

    // All four steps on one of `net_small`'s frames: the per-frame cost.
    let small = cycle::generate(scale.workload("net_small"), seed).swap_remove(0);
    let small_reply: WireResult =
        Ok(cycle::references(std::slice::from_ref(&small)).swap_remove(0));
    let steps = codec_times(&small, &small_reply, scale.light);
    out.set(
        "net.codec.small_frame_us",
        steps.iter().map(|(ns, _)| ns).sum::<f64>() / 1e3,
    );

    // Framing alone, over the bulk request stream held in memory.
    let payloads: Vec<Vec<u8>> = bulk.iter().map(|r| encode_request(7, r)).collect();
    let stream: Vec<u8> = payloads.iter().flat_map(|p| frame_vec(p)).collect();
    let mut decoder = FrameDecoder::new();
    let ns = median_ns(scale.medium, || {
        let mut reader = Cursor::new(&stream[..]);
        let mut frames = 0;
        let took = timed(|| loop {
            while let Some(range) = decoder
                .next_frame(DEFAULT_MAX_FRAME_BYTES)
                .expect("frames are under the cap")
            {
                black_box(decoder.payload(range));
                frames += 1;
            }
            if decoder.fill_from(&mut reader).expect("in-memory read") == 0 {
                break;
            }
        })
        .0;
        assert_eq!(frames, payloads.len());
        took
    });
    out.set("net.frame.decoder_ns_per_byte", ns / stream.len() as f64);
    let mut buffer = Vec::new();
    let ns = median_ns(scale.medium, || {
        timed(|| {
            for payload in &payloads {
                frame_into(&mut buffer, payload);
                black_box(&buffer);
            }
        })
        .0
    });
    out.set("net.frame.frame_into_ns_per_byte", ns / stream.len() as f64);

    // Server and connection life cycle, and the stats endpoint.
    let (mut bind, mut connect, mut shutdown, mut stats_rtt) = (vec![], vec![], vec![], vec![]);
    for _ in 0..scale.medium {
        let (took, server) = timed(|| {
            NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("loopback bind")
        });
        bind.push(took.as_nanos() as f64);
        let (took, mut client) =
            timed(|| CcClient::connect(server.local_addr()).expect("loopback connect"));
        connect.push(took.as_nanos() as f64);
        client.call(&small).expect("small request is served");
        stats_rtt.push(median_ns(scale.medium, || {
            timed(|| client.stats().expect("stats endpoint answers")).0
        }));
        drop(client);
        shutdown.push(timed(|| server.shutdown()).0.as_nanos() as f64);
    }
    out.set("net.bind_ms", median(&mut bind) / 1e6);
    out.set("net.connect_us", median(&mut connect) / 1e3);
    out.set("net.shutdown_ms", median(&mut shutdown) / 1e6);
    out.set("obs.stats_rtt_us", median(&mut stats_rtt) / 1e3);
}

/// Runs every kernel and records its metric in `out`.
pub fn run_all(seed: u64, scale: &Scale, out: &mut Values) {
    sim_kernels(seed, scale, out);
    coloring_kernel(seed, scale, out);
    primitives_kernels(scale, out);
    core_kernels(seed, scale, out);
    server_and_obs_kernels(seed, scale, out);
    net_kernels(seed, scale, out);
}
