//! The engine benchmark behind the parallel zero-churn round engine:
//! routing and sorting workloads executed under four `ExecMode`s —
//!
//! * `seed_reference` — the pre-optimization engine (comparison-sort
//!   delivery with a quadratic drain, fresh allocations every round);
//! * `sequential` — bucketed delivery + buffer reuse, one thread;
//! * `spawn_parallel` — threaded stepping with scoped workers spawned
//!   and joined *every round* (the pre-pool parallel engine, retained as
//!   a baseline);
//! * `parallel` — the persistent worker pool: workers spawned once per
//!   run, parked between rounds (`{ threads: 0 }` resolves to one worker
//!   per available core).
//!
//! The `spawn_parallel`-vs-`parallel` speedup rows isolate exactly what
//! the pool buys: the per-round hand-off cost. Every mode produces
//! bit-identical `RunReport`s (asserted here on the round counts); only
//! wall-clock differs. Results land in `BENCH_engine.json` at the
//! workspace root; each entry records host cores, the resolved worker
//! count and the quick flag, so 1-core quick artifacts are
//! self-identifying.
//!
//! A `sort_throughput` experiment measures the node-local hot path in
//! isolation: the radix scatter-key engine (sequential and pooled)
//! against the stable comparison sort it replaced, on bounded keys at
//! delivery scale.
//!
//! A final `session_throughput` experiment measures the session layer:
//! a batch of mixed route/sort queries answered on one persistent
//! `CliqueService` (threads and arenas reused across queries) vs the
//! stateless facade building a fresh simulator per query — and
//! `server_throughput` measures the layer above: the same mixed
//! route/sort traffic pushed through a sharded `QueryServer` by 4
//! concurrent client threads, 1 shard vs 4, against one directly driven
//! service — and `net_throughput` adds the final layer, the same traffic
//! over the `cc-net` TCP loopback (codec + framing + sockets) from 4
//! real client connections. Total round counts are asserted identical
//! across substrates, so the rows isolate dispatch/queueing overhead,
//! the wire tax, and (on multi-core hosts) shard parallelism. An
//! `obs_overhead` pair re-runs the reactor traffic with the cc-obs
//! lifecycle timestamps live vs stripped (the `CC_OBS=off` path) and
//! asserts the instrumented row stays within noise.

use cc_bench::harness::{self, Options};
use cc_core::routing::{route_optimized_with_spec, spec_for_optimized};
use cc_core::sorting::{sort_with_spec, spec_for_sorting};
use cc_core::{CliqueService, CongestedClique};
use cc_net::{CcClient, NetServer, NetServerConfig, ReactorBackend, ServingMode};
use cc_server::{QueryServer, Request, ServerConfig};
use cc_sim::{run_protocol, CliqueSpec, Ctx, ExecMode, Inbox, NodeMachine, Step};
use cc_workloads as wl;
use cc_workloads::RequestMix;

/// Heavy-fan-out delivery stress: every node broadcasts every round, so a
/// round moves `n²` messages through the delivery path (the exact shape
/// that made the seed engine's front-shifting drain quadratic).
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

const MODES: [(&str, ExecMode); 4] = [
    ("seed_reference", ExecMode::SeedReference),
    ("sequential", ExecMode::Sequential),
    ("spawn_parallel", ExecMode::SpawnParallel { threads: 0 }),
    ("parallel", ExecMode::Parallel { threads: 0 }),
];

/// Benchmarks one workload under all four modes, asserting the modes
/// agree on the observable round count, and records the
/// seed-vs-optimized and pool-vs-spawn speedups.
fn bench_modes(
    opts: &Options,
    entries: &mut Vec<harness::Entry>,
    speedups: &mut Vec<harness::Speedup>,
    group: &str,
    n: usize,
    run: &mut dyn FnMut(ExecMode) -> u64,
) {
    let mut rounds = Vec::new();
    let per_mode: Vec<harness::Entry> = MODES
        .iter()
        .map(|(name, mode)| {
            let mut entry = harness::bench(group, n, name, opts, || rounds.push(run(*mode)));
            entry.worker_threads = Some(mode.worker_threads(n));
            entry
        })
        .collect();
    assert!(
        rounds.windows(2).all(|w| w[0] == w[1]),
        "{group} n={n}: modes disagreed on round count: {rounds:?}"
    );
    speedups.push(harness::speedup(&per_mode[0], &per_mode[1]));
    speedups.push(harness::speedup(&per_mode[0], &per_mode[3]));
    // Pool vs per-round spawn: the hand-off cost the pool eliminates.
    speedups.push(harness::speedup(&per_mode[2], &per_mode[3]));
    entries.extend(per_mode);
}

/// Serves `requests` from `clients` concurrent worker threads, thread `c`
/// taking requests `c, c+clients, …`; each thread builds its own serving
/// closure from `factory` (an in-process handle, a TCP client, …) and the
/// total observed round count is returned — the cross-substrate parity
/// currency of the throughput benches.
fn strided_rounds<W, F>(clients: usize, requests: &[Request], factory: F) -> u64
where
    F: Fn() -> W + Sync,
    W: FnMut(&Request) -> u64,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let factory = &factory;
                scope.spawn(move || {
                    let mut serve = factory();
                    (c..requests.len())
                        .step_by(clients)
                        .map(|index| serve(&requests[index]))
                        .sum::<u64>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn main() {
    let opts = Options::from_env();
    let host_cores = harness::host_cores();
    println!(
        "host: {host_cores} hardware thread(s); quick={}; parallel modes resolve \
         `threads: 0` to {host_cores} worker(s)",
        opts.quick
    );
    let mut entries = Vec::new();
    let mut speedups = Vec::new();

    // Routing: the Theorem 5.4 (12-round) router on fully loaded balanced
    // instances — the acceptance workload.
    for n in [64usize, 256, 1024] {
        let inst = wl::balanced_random(n, 42).unwrap();
        bench_modes(
            &opts,
            &mut entries,
            &mut speedups,
            "route_optimized",
            n,
            &mut |mode| {
                let out = route_optimized_with_spec(&inst, spec_for_optimized(n).with_exec(mode))
                    .unwrap();
                out.metrics.comm_rounds()
            },
        );
    }

    // Sorting: the Algorithm 4 (33-round) sorter. n = 1024 sorts a million
    // keys; skip it in quick mode to keep CI smoke runs short.
    let sort_sizes: &[usize] = if opts.quick {
        &[64, 256]
    } else {
        &[64, 256, 1024]
    };
    for &n in sort_sizes {
        let keys = wl::uniform_keys(n, 5);
        bench_modes(
            &opts,
            &mut entries,
            &mut speedups,
            "sort_keys",
            n,
            &mut |mode| {
                let out = sort_with_spec(&keys, spec_for_sorting(n).with_exec(mode)).unwrap();
                out.metrics.comm_rounds()
            },
        );
    }

    // Node-local sort throughput: the radix scatter-key engine vs the
    // stable comparison sort it replaced, on the hot path's shape — a
    // clique-`n` round moves up to n² messages through the delivery
    // sort, as (u64 key, payload) pairs with keys bounded by the batch
    // size, so the empty high-byte passes are skipped. Each sample sorts
    // `sort_rounds` fresh clones (fewer rounds at larger n, roughly
    // constant elements per sample), approximating a protocol run's
    // node-local sorting bill rather than a single microsort.
    let sort_total = if opts.quick { 1usize << 20 } else { 1 << 22 };
    for n in [64usize, 256, 1024] {
        let len = n * n;
        let sort_rounds = (sort_total / len).max(1);
        let mut rng = cc_rand::DetRng::seed_from_u64(n as u64);
        let items: Vec<(u64, u64)> = (0..len as u64)
            .map(|i| (rng.next_u64() % len as u64, i))
            .collect();
        // Parity first: every variant must produce the same permutation.
        let sorted = {
            let mut v = items.clone();
            v.sort_by_key(|&(k, _)| k);
            v
        };
        {
            let mut v = items.clone();
            cc_sim::radix::sort_by_u64_key(&mut v, |&(k, _)| k);
            assert_eq!(v, sorted, "sort_throughput n={n}: radix diverged");
        }
        let comparison = {
            let mut entry = harness::bench("sort_throughput", n, "comparison", &opts, || {
                for _ in 0..sort_rounds {
                    let mut v = items.clone();
                    v.sort_by_key(|&(k, _)| k);
                    harness::black_box(&v);
                }
            });
            entry.worker_threads = Some(1);
            entry
        };
        let radix_seq = {
            let mut scratch = cc_sim::radix::RadixScratch::new();
            let mut entry = harness::bench("sort_throughput", n, "radix_sequential", &opts, || {
                for _ in 0..sort_rounds {
                    let mut v = items.clone();
                    cc_sim::radix::sort_by_u64_key_with(&mut v, |&(k, _)| k, &mut scratch);
                    harness::black_box(&v);
                }
            });
            entry.worker_threads = Some(1);
            entry
        };
        speedups.push(harness::speedup(&comparison, &radix_seq));
        entries.push(comparison.clone());
        entries.push(radix_seq);
        #[cfg(feature = "parallel")]
        {
            let workers = 2usize;
            let mut session = cc_sim::CliqueSession::new();
            {
                let mut v = items.clone();
                session.sort_by_u64_key_on(workers, &mut v, |&(k, _)| k);
                assert_eq!(v, sorted, "sort_throughput n={n}: pooled radix diverged");
            }
            let radix_par = {
                let mut entry =
                    harness::bench("sort_throughput", n, "radix_parallel", &opts, || {
                        for _ in 0..sort_rounds {
                            let mut v = items.clone();
                            session.sort_by_u64_key_on(workers, &mut v, |&(k, _)| k);
                            harness::black_box(&v);
                        }
                    });
                entry.worker_threads = Some(workers);
                entry
            };
            speedups.push(harness::speedup(&comparison, &radix_par));
            entries.push(radix_par);
        }
    }

    // Pure delivery stress: n² messages per round for 8 rounds.
    for n in [64usize, 256, 1024] {
        bench_modes(
            &opts,
            &mut entries,
            &mut speedups,
            "all_to_all_x8",
            n,
            &mut |mode| {
                let report = run_protocol(CliqueSpec::new(n).unwrap().with_exec(mode), |_| {
                    AllToAll { rounds: 8, done: 0 }
                })
                .unwrap();
                report.metrics.comm_rounds()
            },
        );
    }

    // Session throughput: `queries` successive mixed route/sort queries
    // answered by one persistent `CliqueService` (threads and arenas
    // reused across queries) vs by the stateless facade (a fresh
    // simulator per query). Both run under `ExecMode::Auto`; the
    // per-query answers are asserted identical, so the rows isolate pure
    // setup amortization.
    let queries = if opts.quick { 4usize } else { 8 };
    for n in [64usize, 256] {
        let inst = wl::balanced_random(n, 42).unwrap();
        let keys = wl::uniform_keys(n, 5);
        let mut rounds_seen: Vec<u64> = Vec::new();
        let fresh = {
            let mut entry =
                harness::bench("session_throughput", n, "fresh_simulator", &opts, || {
                    let clique = CongestedClique::new(n).unwrap();
                    let mut rounds = 0u64;
                    for q in 0..queries {
                        rounds += if q % 2 == 0 {
                            clique.route_optimized(&inst).unwrap().metrics.comm_rounds()
                        } else {
                            clique.sort(&keys).unwrap().metrics.comm_rounds()
                        };
                    }
                    rounds_seen.push(rounds);
                    rounds
                });
            entry.worker_threads = Some(ExecMode::Auto.worker_threads(n));
            entry
        };
        let session = {
            let mut entry = harness::bench("session_throughput", n, "session", &opts, || {
                let mut service = CliqueService::new(n).unwrap();
                let mut rounds = 0u64;
                for q in 0..queries {
                    rounds += if q % 2 == 0 {
                        service
                            .route_optimized(&inst)
                            .unwrap()
                            .metrics
                            .comm_rounds()
                    } else {
                        service.sort(&keys).unwrap().metrics.comm_rounds()
                    };
                }
                rounds_seen.push(rounds);
                rounds
            });
            entry.worker_threads = Some(ExecMode::Auto.worker_threads(n));
            entry
        };
        assert!(
            rounds_seen.windows(2).all(|w| w[0] == w[1]),
            "session_throughput n={n}: substrates disagreed on rounds: {rounds_seen:?}"
        );
        speedups.push(harness::speedup(&fresh, &session));
        entries.push(fresh);
        entries.push(session);
    }

    // Server throughput: the same mixed route/sort traffic as above, but
    // pushed through the sharded `QueryServer` by 4 concurrent client
    // threads — 1 shard vs 4 — against one directly driven warm service.
    // On a 1-core host the server rows measure pure dispatch/queue
    // overhead; on multi-core hosts the 4-shard row adds cross-size shard
    // parallelism (64- and 256-node requests hash to different shards).
    let server_queries = if opts.quick { 8usize } else { 16 };
    let clients = 4usize;
    for n in [64usize, 256] {
        let inst = wl::balanced_random(n, 42).unwrap();
        let keys = wl::uniform_keys(n, 5);
        let requests: Vec<Request> = (0..server_queries)
            .map(|q| {
                if q % 2 == 0 {
                    Request::RouteOptimized(inst.clone())
                } else {
                    Request::Sort(keys.clone())
                }
            })
            .collect();
        let mut rounds_seen: Vec<u64> = Vec::new();
        let direct = {
            let mut entry = harness::bench("server_throughput", n, "direct_service", &opts, || {
                let mut service = CliqueService::new(n).unwrap();
                let rounds: u64 = requests
                    .iter()
                    .map(|r| r.serve_on(&mut service).unwrap().metrics().comm_rounds())
                    .sum();
                rounds_seen.push(rounds);
                rounds
            });
            entry.worker_threads = Some(ExecMode::Auto.worker_threads(n));
            entry
        };
        let mut server_entries = Vec::new();
        for shards in [1usize, 4] {
            let mode = format!(
                "server_{shards}_shard{}",
                if shards == 1 { "" } else { "s" }
            );
            let mut entry = harness::bench("server_throughput", n, &mode, &opts, || {
                let server = QueryServer::new(
                    ServerConfig::new(shards)
                        .with_queue_capacity(32)
                        .with_coalesce_limit(8),
                )
                .unwrap();
                let rounds = strided_rounds(clients, &requests, || {
                    let handle = server.handle();
                    move |request: &Request| {
                        handle
                            .call(request.clone())
                            .unwrap()
                            .metrics()
                            .comm_rounds()
                    }
                });
                rounds_seen.push(rounds);
                rounds
            });
            entry.worker_threads = Some(ExecMode::Auto.worker_threads(n));
            server_entries.push(entry);
        }
        assert!(
            rounds_seen.windows(2).all(|w| w[0] == w[1]),
            "server_throughput n={n}: substrates disagreed on rounds: {rounds_seen:?}"
        );
        for served in &server_entries {
            speedups.push(harness::speedup(&direct, served));
        }
        entries.push(direct);
        entries.extend(server_entries);
    }

    // Net throughput: the same class of mixed route/sort traffic, served
    // three ways — one directly driven warm service (no concurrency, no
    // dispatch), the in-process sharded server (queues + threads, no
    // codec), and the full TCP loopback path (codec + framing + sockets
    // on top). 4 clients each way; the TCP clients each own a real
    // connection. Total round counts are asserted identical, so the row
    // deltas isolate, layer by layer, what dispatch and the wire cost.
    // Note the rows are single-clique-size by design (the fleet shards by
    // size, so each row's traffic serializes on one shard even on
    // multi-core hosts): they price the wire and dispatch layers, not
    // shard parallelism — mixed-size traffic, as in the net_swarm
    // example, is what spreads across shards.
    let net_queries = if opts.quick { 8usize } else { 16 };
    for n in [64usize, 256] {
        let requests: Vec<Request> = RequestMix::new(vec![n])
            .with_weights([0, 1, 1, 0, 0, 0, 0])
            .generate(net_queries, 42);
        let route_count = requests
            .iter()
            .filter(|r| matches!(r, Request::RouteOptimized(_)))
            .count();
        println!(
            "net_throughput n={n}: {net_queries} queries \
             ({route_count} route_optimized, {} sort)",
            net_queries - route_count
        );
        let mut rounds_seen: Vec<u64> = Vec::new();
        let direct = {
            let mut entry = harness::bench("net_throughput", n, "direct_service", &opts, || {
                let mut service = CliqueService::new(n).unwrap();
                let rounds: u64 = requests
                    .iter()
                    .map(|r| r.serve_on(&mut service).unwrap().metrics().comm_rounds())
                    .sum();
                rounds_seen.push(rounds);
                rounds
            });
            entry.worker_threads = Some(ExecMode::Auto.worker_threads(n));
            entry
        };
        let fleet_config = || {
            ServerConfig::new(4)
                .with_queue_capacity(32)
                .with_coalesce_limit(8)
        };
        let in_process = {
            let mut entry = harness::bench("net_throughput", n, "in_process_server", &opts, || {
                let server = QueryServer::new(fleet_config()).unwrap();
                let rounds = strided_rounds(clients, &requests, || {
                    let handle = server.handle();
                    move |request: &Request| {
                        handle
                            .call(request.clone())
                            .unwrap()
                            .metrics()
                            .comm_rounds()
                    }
                });
                rounds_seen.push(rounds);
                rounds
            });
            entry.worker_threads = Some(ExecMode::Auto.worker_threads(n));
            entry
        };
        // The two serving cores, same traffic, same fleet: `tcp_loopback`
        // stays pinned to the thread-per-connection backend (the
        // historical baseline this group has always priced), `tcp_reactor`
        // is the single-threaded event loop.
        let mut tcp_mode = |mode: &str, serving: ServingMode| {
            let mut entry = harness::bench("net_throughput", n, mode, &opts, || {
                let server = NetServer::bind(
                    "127.0.0.1:0",
                    NetServerConfig::new(4)
                        .with_fleet(fleet_config())
                        .with_serving_mode(serving),
                )
                .unwrap();
                let addr = server.local_addr();
                let rounds = strided_rounds(clients, &requests, || {
                    let mut client = CcClient::connect(addr).unwrap();
                    move |request: &Request| client.call(request).unwrap().metrics().comm_rounds()
                });
                rounds_seen.push(rounds);
                rounds
            });
            entry.worker_threads = Some(ExecMode::Auto.worker_threads(n));
            entry
        };
        let tcp = tcp_mode("tcp_loopback", ServingMode::ThreadPerConnection);
        let reactor = tcp_mode("tcp_reactor", ServingMode::Reactor);
        assert!(
            rounds_seen.windows(2).all(|w| w[0] == w[1]),
            "net_throughput n={n}: substrates disagreed on rounds: {rounds_seen:?}"
        );
        speedups.push(harness::speedup(&direct, &in_process));
        speedups.push(harness::speedup(&direct, &tcp));
        // What the wire itself costs, dispatch already paid for.
        speedups.push(harness::speedup(&in_process, &tcp));
        // What the reactor costs (or saves) against two-threads-per-conn.
        speedups.push(harness::speedup(&tcp, &reactor));
        entries.push(direct);
        entries.push(in_process);
        entries.push(tcp);
        entries.push(reactor);
    }

    // Connection scaling: a fixed budget of small queries driven by 16
    // active connections while the row's *remaining* connections sit
    // idle — the C10k shape, where almost everyone connected is quiet at
    // any instant. Setup (bind, connect, accept) happens OUTSIDE the
    // timed closure; the timed region is purely request traffic, so each
    // row prices what the idle crowd costs the active minority. (The
    // old rows timed connection setup inside the closure and made every
    // connection active, which measured accept throughput, not idle
    // cost — that is why 64 "idle" connections read as a 0.75x
    // regression.)
    //
    // Per-iteration syscall shape, which is the entire story of these
    // rows: the poll backend rebuilds and scans one pollfd per
    // connection on every wakeup — O(conns), idle or not — while the
    // epoll backend registers each fd once and reaps only ready events —
    // O(ready) — so idle connections never appear in its wakeup path at
    // all. Poll rows are pinned alongside the epoll rows at every scale
    // as the O(n) baseline the tentpole exists to beat.
    {
        let scaling_n = 16usize;
        let scaling_queries = if opts.quick { 64usize } else { 256 };
        let active = 16usize;
        // Idle sockets connect in accept-backlog-sized batches so no
        // connect times out behind thousands of unaccepted neighbours.
        let connect_batch = 128usize;
        let requests: Vec<Request> = RequestMix::new(vec![scaling_n])
            .with_weights([0, 1, 1, 0, 0, 0, 0])
            .generate(scaling_queries, 7);
        println!(
            "net_scaling: {scaling_queries} clique-size-{scaling_n} queries per row from \
             {active} active connections; the rest of each row's connections are idle.\n\
             net_scaling: syscall shape per wakeup: poll = O(conns) pollfd rebuild + scan; \
             epoll = O(ready) event reap, idle fds untouched"
        );
        let run_row = |backend: ReactorBackend, reactors: usize, conns: usize, mode: &str| {
            let server = NetServer::bind(
                "127.0.0.1:0",
                NetServerConfig::new(2)
                    .with_fleet(
                        ServerConfig::new(2)
                            .with_queue_capacity(32)
                            .with_coalesce_limit(8),
                    )
                    .with_reactor_backend(backend)
                    .with_reactor_threads(reactors),
            )
            .unwrap();
            let addr = server.local_addr();
            let mut clients: Vec<CcClient> = (0..active)
                .map(|_| CcClient::connect(addr).unwrap())
                .collect();
            let mut idle: Vec<std::net::TcpStream> = Vec::with_capacity(conns - active);
            while idle.len() < conns - active {
                let batch = connect_batch.min(conns - active - idle.len());
                for _ in 0..batch {
                    idle.push(std::net::TcpStream::connect(addr).unwrap());
                }
                let want = (active + idle.len()) as u64;
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while server.stats().connections < want {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "net_scaling {mode} conns={conns}: accept stalled at {}",
                        server.stats().connections
                    );
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            let mut rounds_seen: Vec<u64> = Vec::new();
            let mut entry = harness::bench("net_scaling", conns, mode, &opts, || {
                // Round-robin submit, then drain — all 16 active
                // connections hold work in flight at once, one thread
                // drives them all, the idle majority looks on.
                let mut rounds = 0u64;
                for batch in requests.chunks(active) {
                    for (client, request) in clients.iter_mut().zip(batch) {
                        client.submit(request).unwrap();
                    }
                    for client in clients.iter_mut().take(batch.len()) {
                        while client.pending() > 0 {
                            let (_, result) = client.wait_next().unwrap().unwrap();
                            rounds += result.unwrap().metrics().comm_rounds();
                        }
                    }
                }
                rounds_seen.push(rounds);
                rounds
            });
            entry.worker_threads = Some(reactors);
            assert!(
                rounds_seen.windows(2).all(|w| w[0] == w[1]),
                "net_scaling {mode} conns={conns}: rounds drifted across samples: {rounds_seen:?}"
            );
            drop(idle);
            drop(clients);
            server.shutdown();
            entry
        };
        let mut poll_rows: Vec<harness::Entry> = Vec::new();
        for (backend, mode) in [
            (ReactorBackend::Poll, "poll"),
            (ReactorBackend::Epoll, "epoll"),
        ] {
            let mut baseline: Option<harness::Entry> = None;
            for conns in [active, 256, 1024, 4096] {
                let entry = run_row(backend, 1, conns, mode);
                if let Some(base) = &baseline {
                    let s = harness::speedup(base, &entry);
                    // The PR's regression gate: with epoll, 240 idle
                    // bystanders must be (close to) free — the pre-fix
                    // bench read 0.75x here with only 48. The bound is
                    // lenient because quick mode is one sample on a
                    // shared host; the trend rows at 1024/4096 are the
                    // real evidence.
                    if backend == ReactorBackend::Epoll && entry.n == 256 {
                        assert!(
                            s.ratio > 0.6,
                            "net_scaling: 256-connection epoll row degraded to {:.2}x of \
                             its 16-connection baseline — idle sockets are not free",
                            s.ratio
                        );
                    }
                    speedups.push(s);
                } else {
                    baseline = Some(entry.clone());
                }
                if backend == ReactorBackend::Poll {
                    poll_rows.push(entry.clone());
                } else if let Some(poll) = poll_rows.iter().find(|e| e.n == entry.n) {
                    // Poll pinned as the baseline in the same row.
                    speedups.push(harness::speedup(poll, &entry));
                }
                entries.push(entry);
            }
        }
        // Multi-reactor serving at the top scale: accepted sockets dealt
        // least-connections across 2 and 4 event loops.
        let single = entries
            .iter()
            .find(|e| e.group == "net_scaling" && e.mode == "epoll" && e.n == 4096)
            .cloned()
            .expect("epoll 4096 row");
        for (reactors, mode) in [(2usize, "epoll_r2"), (4, "epoll_r4")] {
            let entry = run_row(ReactorBackend::Epoll, reactors, 4096, mode);
            speedups.push(harness::speedup(&single, &entry));
            entries.push(entry);
        }
    }

    // Observability overhead: the same single-connection reactor traffic
    // as net_throughput, once with the lifecycle timestamps live
    // (`timing_on`, the default) and once with them stripped to no-ops
    // (`timing_off` — the runtime path `CC_OBS=off` selects). Counters
    // and gauges stay on in both rows; the switch removes only the
    // `Instant` stamps feeding the per-stage latency histograms, so the
    // pair prices exactly what the histograms cost a serving request.
    {
        let obs_n = 64usize;
        let requests: Vec<Request> = RequestMix::new(vec![obs_n])
            .with_weights([0, 1, 1, 0, 0, 0, 0])
            .generate(net_queries, 42);
        let mut rounds_seen: Vec<u64> = Vec::new();
        let mut obs_row = |mode: &str, timing: bool| {
            cc_obs::set_timing_enabled(timing);
            let mut entry = harness::bench("obs_overhead", obs_n, mode, &opts, || {
                let server = NetServer::bind(
                    "127.0.0.1:0",
                    NetServerConfig::new(4).with_fleet(
                        ServerConfig::new(4)
                            .with_queue_capacity(32)
                            .with_coalesce_limit(8),
                    ),
                )
                .unwrap();
                let addr = server.local_addr();
                let rounds = strided_rounds(clients, &requests, || {
                    let mut client = CcClient::connect(addr).unwrap();
                    move |request: &Request| client.call(request).unwrap().metrics().comm_rounds()
                });
                rounds_seen.push(rounds);
                rounds
            });
            cc_obs::set_timing_enabled(true);
            entry.worker_threads = Some(ExecMode::Auto.worker_threads(obs_n));
            entry
        };
        let instrumented = obs_row("timing_on", true);
        let stripped = obs_row("timing_off", false);
        assert!(
            rounds_seen.windows(2).all(|w| w[0] == w[1]),
            "obs_overhead: rows disagreed on rounds: {rounds_seen:?}"
        );
        let s = harness::speedup(&instrumented, &stripped);
        // Acceptance target: instrumentation within ~3% of the stripped
        // path. The assert is lenient for the same reason as the
        // net_scaling gate — quick mode is one sample on a shared host —
        // while the JSON rows carry the real numbers.
        assert!(
            s.ratio < 1.5,
            "obs_overhead: timing_off runs {:.2}x faster than instrumented — \
             the lifecycle stamps are not within noise",
            s.ratio
        );
        speedups.push(s);
        entries.push(instrumented);
        entries.push(stripped);
    }

    harness::write_json("engine", &opts, &entries, &speedups);

    // Surface the acceptance numbers directly in the output.
    for s in &speedups {
        if s.group == "route_optimized" && s.n == 1024 {
            println!(
                "route_optimized n=1024: {} is {:.2}x vs {}",
                s.candidate, s.ratio, s.baseline
            );
        }
        // The pool's acceptance regime: profitable parallelism *below*
        // the old spawn-amortization threshold.
        if s.n == 256 && s.baseline == "spawn_parallel" {
            println!(
                "{} n=256: pooled {} is {:.2}x vs per-round {}",
                s.group, s.candidate, s.ratio, s.baseline
            );
        }
        // The radix engine's acceptance regime: node-local sorting faster
        // than the comparison sort it replaced at delivery scale.
        if s.group == "sort_throughput" && s.n == 1024 {
            println!(
                "sort_throughput n=1024: {} is {:.2}x vs {}",
                s.candidate, s.ratio, s.baseline
            );
        }
        // The session layer's acceptance regime: batched queries on one
        // persistent session vs a fresh simulator per query.
        if s.group == "session_throughput" {
            println!(
                "session_throughput n={}: one session answering {queries} mixed queries is \
                 {:.2}x vs fresh simulators",
                s.n, s.ratio
            );
        }
        // The server layer: sharded concurrent serving vs one directly
        // driven service (ratio > 1 needs multi-core shard parallelism;
        // on 1 core it reads as pure dispatch overhead).
        if s.group == "server_throughput" {
            println!(
                "server_throughput n={}: {} serving {server_queries} mixed queries from \
                 {clients} clients is {:.2}x vs direct_service",
                s.n, s.candidate, s.ratio
            );
        }
        // The wire layer: the TCP loopback path vs its in-process and
        // directly-driven baselines (ratio < 1 reads as the wire tax).
        if s.group == "net_throughput" {
            println!(
                "net_throughput n={}: {} serving {net_queries} mixed queries from \
                 {clients} clients is {:.2}x vs {}",
                s.n, s.candidate, s.ratio, s.baseline
            );
        }
        // Connection scaling: here `n` is the connection count (16 of
        // which are active; the rest idle). Within a backend the
        // baseline is its own 16-connection row — a ratio near 1.0 is
        // the point (idle connections are nearly free). Cross-backend
        // rows pin poll as the baseline epoll must beat at scale.
        if s.group == "net_scaling" {
            println!(
                "net_scaling: {} at {} connections runs at {:.2}x vs {}",
                s.candidate, s.n, s.ratio, s.baseline
            );
        }
        // The observability kit's acceptance regime: serving with the
        // lifecycle stamps live must sit within noise of the stripped
        // path (a ratio near 1.0 means the histograms are free).
        if s.group == "obs_overhead" {
            println!(
                "obs_overhead n={}: {} runs at {:.2}x vs instrumented {}",
                s.n, s.candidate, s.ratio, s.baseline
            );
        }
    }
}
