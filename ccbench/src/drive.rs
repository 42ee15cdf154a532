//! Set-up and the closed loop: build what a workload talks to, walk the
//! request cycle, time each call from the caller's side and compare every
//! reply with its reference.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cc_core::{CliqueService, Outcome};
use cc_net::{CcClient, NetServer, NetServerConfig};
use cc_server::Request;

use crate::cycle;
use crate::spans::SpanLog;
use crate::spec::Workload;

/// One closed-loop caller: it sends its next request only after the
/// previous reply arrived.
enum Caller {
    /// Straight into a warm in-process service.
    Lib(Box<CliqueService>),
    /// Over one TCP connection to the rig's `NetServer`.
    Net(Box<CcClient>),
}

impl Caller {
    /// Untraced call, exactly as a user of the layer would make it.
    fn call(&mut self, request: &Request) -> Result<Outcome, String> {
        match self {
            Caller::Lib(service) => request.serve_on(service).map_err(|e| e.to_string()),
            Caller::Net(client) => client.call(request).map_err(|e| e.to_string()),
        }
    }

    /// The same call with a span around each step into the layer below.
    /// (`CcClient::call` is `submit` + `wait_next`; the split is what
    /// lets the two halves be timed from outside.)
    fn call_traced(
        &mut self,
        request: &Request,
        log: &mut SpanLog,
        id: u64,
        parent: usize,
    ) -> Result<Outcome, String> {
        match self {
            Caller::Lib(service) => {
                let span = log.begin("core.call", id, Some(parent));
                let reply = request.serve_on(service);
                log.end(span);
                reply.map_err(|e| e.to_string())
            }
            Caller::Net(client) => {
                let span = log.begin("client.submit", id, Some(parent));
                let sent = client.submit(request);
                log.end(span);
                let sent = sent.map_err(|e| e.to_string())?;
                let span = log.begin("client.wait_next", id, Some(parent));
                let reply = client.wait_next();
                log.end(span);
                match reply.map_err(|e| e.to_string())? {
                    Some((got, result)) if got == sent => result.map_err(|e| e.to_string()),
                    other => Err(format!("reply to {sent} expected, got {other:?}")),
                }
            }
        }
    }
}

/// Everything one workload run talks to.
pub struct Rig {
    server: Option<NetServer>,
    callers: Vec<Caller>,
}

impl Rig {
    /// Builds the service, or the default `NetServer` on loopback plus one
    /// connection per caller. Nothing is warm yet.
    fn build(w: &Workload) -> Rig {
        if !w.is_net() {
            let service = CliqueService::new(w.n).expect("workload cliques are non-empty");
            return Rig {
                server: None,
                callers: vec![Caller::Lib(Box::new(service))],
            };
        }
        let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default())
            .expect("loopback bind succeeds");
        let callers = (0..w.callers)
            .map(|_| {
                let client = CcClient::connect(server.local_addr()).expect("loopback connect");
                Caller::Net(Box::new(client))
            })
            .collect();
        Rig {
            server: Some(server),
            callers,
        }
    }

    pub fn server(&self) -> Option<&NetServer> {
        self.server.as_ref()
    }

    /// Closes the connections, then shuts the server down gracefully.
    pub fn tear_down(self) {
        drop(self.callers);
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// When a caller stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many requests (the warm-up pass).
    Requests(usize),
    /// At the first request boundary after this long (the timed window).
    Elapsed(Duration),
}

/// What the callers of one phase observed, merged.
#[derive(Debug, Default)]
pub struct Phase {
    pub requests: u64,
    /// Errors plus replies that differ from the reference.
    pub failed: u64,
    /// Longest caller's wall time: the window throughput is taken over.
    pub elapsed_s: f64,
    pub latencies_ms: Vec<f64>,
    /// Present on a traced phase.
    pub spans: Option<SpanLog>,
}

impl Phase {
    pub fn requests_per_s(&self) -> f64 {
        self.requests as f64 / self.elapsed_s
    }
}

struct CallerReport {
    latencies_ns: Vec<u64>,
    failed: u64,
    elapsed: Duration,
    log: Option<SpanLog>,
}

fn drive_caller(
    caller: &mut Caller,
    cycle: &[Request],
    refs: &[Outcome],
    offset: usize,
    until: Until,
    trace_epoch: Option<Instant>,
    first_id: u64,
) -> CallerReport {
    let mut log = trace_epoch.map(|epoch| SpanLog::new(epoch, 1 << 16));
    let mut latencies_ns = Vec::with_capacity(1 << 16);
    let mut failed = 0;
    let start = Instant::now();
    loop {
        let done = latencies_ns.len();
        let stop = match until {
            Until::Requests(count) => done == count,
            Until::Elapsed(window) => start.elapsed() >= window,
        };
        if stop {
            break;
        }
        let slot = (offset + done) % cycle.len();
        let id = first_id + done as u64;
        let root = log.as_mut().map(|log| log.begin("request", id, None));
        let sent = Instant::now();
        let reply = match (&mut log, root) {
            (Some(log), Some(root)) => caller.call_traced(&cycle[slot], log, id, root),
            _ => caller.call(&cycle[slot]),
        };
        latencies_ns.push(sent.elapsed().as_nanos() as u64);
        let verify = log.as_mut().map(|log| log.begin("verify", id, root));
        let correct = matches!(&reply, Ok(outcome) if *outcome == refs[slot]);
        if let (Some(log), Some(verify), Some(root)) = (&mut log, verify, root) {
            log.end(verify);
            log.end(root);
        }
        if !correct {
            failed += 1;
            if let Err(error) = &reply {
                // A transport error poisons the connection: every later
                // call would fail at once and flood the sample.
                eprintln!("ccbench: request {id} failed: {error}");
                break;
            }
            eprintln!("ccbench: reply {id} differs from its sequential reference");
        }
    }
    CallerReport {
        latencies_ns,
        failed,
        elapsed: start.elapsed(),
        log,
    }
}

/// Runs every caller of the rig, each on a thread of its own, until
/// `until`; caller `c` starts at offset `c * len / callers` of the cycle.
pub fn run_phase(
    rig: &mut Rig,
    cycle: &[Request],
    refs: &[Outcome],
    until: Until,
    trace_epoch: Option<Instant>,
) -> Phase {
    let callers = rig.callers.len();
    let barrier = Barrier::new(callers);
    let reports: Vec<CallerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .callers
            .iter_mut()
            .enumerate()
            .map(|(c, caller)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    // Request ids are unique across callers.
                    let first_id = (c as u64) << 32;
                    let offset = c * cycle.len() / callers;
                    drive_caller(caller, cycle, refs, offset, until, trace_epoch, first_id)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread does not panic"))
            .collect()
    });
    let mut phase = Phase::default();
    for report in reports {
        phase.requests += report.latencies_ns.len() as u64;
        phase.failed += report.failed;
        phase.elapsed_s = phase.elapsed_s.max(report.elapsed.as_secs_f64());
        phase
            .latencies_ms
            .extend(report.latencies_ns.iter().map(|&ns| ns as f64 / 1e6));
        if let Some(log) = report.log {
            match &mut phase.spans {
                Some(all) => all.absorb(log),
                None => phase.spans = Some(log),
            }
        }
    }
    phase
}

/// One complete set-up, as `setup_s` times it: generate the inputs, build
/// the rig and walk the warm-up pass (thread spawn, arena fill), every
/// reply checked. Reference computation is not part of it.
pub struct SetUp {
    pub rig: Rig,
    pub cycle: Vec<Request>,
    pub generate_s: f64,
    pub total_s: f64,
    pub warmup: Phase,
}

pub fn set_up(w: &Workload, seed: u64, refs: &[Outcome]) -> SetUp {
    let started = Instant::now();
    let cycle = cycle::generate(w, seed);
    let generate_s = started.elapsed().as_secs_f64();
    let mut rig = Rig::build(w);
    let warmup = run_phase(&mut rig, &cycle, refs, Until::Requests(cycle.len()), None);
    SetUp {
        rig,
        cycle,
        generate_s,
        total_s: started.elapsed().as_secs_f64(),
        warmup,
    }
}
