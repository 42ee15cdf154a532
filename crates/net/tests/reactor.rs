//! Hostile-client tests for the reactor backend: slow-loris senders that
//! dribble bytes forever and gluttons that request replies they never
//! read. Either kind of client must be torn down by its deadline clock
//! (`idle_teardowns`), and — the actual point — a healthy neighbor on
//! the same reactor thread must keep getting full service the whole
//! time. Thread-per-connection servers get this isolation for free; an
//! event loop has to earn it.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cc_net::{codec, frame, CcClient, NetServer, NetServerConfig};
use cc_server::Request;

/// Pins a socket's kernel receive buffer to the floor. TCP autotuning
/// would otherwise happily grow a never-read receive queue toward
/// `tcp_rmem[2]` (tens of MB), letting a glutton absorb replies faster
/// than the fleet produces them; an explicit `SO_RCVBUF` switches
/// autotuning off so the write side clogs after a handful of frames.
#[cfg(target_os = "linux")]
fn pin_rcvbuf(sock: &TcpStream) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    let val: i32 = 4096;
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            std::ptr::from_ref(&val).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

fn mode_request(n: usize, salt: u64) -> Request {
    Request::Mode((0..n).map(|v| vec![(v as u64 + salt) % 5]).collect())
}

/// Serves a healthy call and asserts the answer matches the sequential
/// reference — the neighbor-is-unaffected probe used by both tests.
fn probe(client: &mut CcClient, n: usize, salt: u64) {
    let request = mode_request(n, salt);
    let got = client.call(&request).expect("healthy call");
    let want = request
        .serve_on(&mut cc_core::CliqueService::new(n).expect("service"))
        .expect("reference");
    assert_eq!(got, want);
}

/// A byte-dribbling client is killed by the idle deadline even though it
/// never actually stops sending: the partial-frame clock arms when the
/// first incomplete frame shows up and is *not* refreshed by further
/// dribbles, so "always sending, never completing" is indistinguishable
/// from silence.
#[test]
fn dribbling_client_is_torn_down_and_neighbors_are_not_stalled() {
    let idle = Duration::from_millis(150);
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig::new(1).with_idle_timeout(idle),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut healthy = CcClient::connect(addr).expect("connect healthy");
    probe(&mut healthy, 8, 0);

    let mut dribbler = TcpStream::connect(addr).expect("connect dribbler");
    let bytes = frame::frame_vec(&codec::encode_request(0, &mode_request(8, 1)));

    // Dribble one byte at a time, a healthy roundtrip between dribbles.
    // The loop ends when the server reports the teardown; the write-side
    // error path is tolerated (the socket dies under us mid-loop).
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut cursor = 0usize;
    while server.stats().idle_teardowns == 0 {
        assert!(Instant::now() < deadline, "dribbler never torn down");
        // Never let the frame complete: stop one byte short and keep
        // the connection in "partial frame" state forever.
        if cursor + 1 < bytes.len() {
            let _ = dribbler.write(&bytes[cursor..=cursor]);
            let _ = dribbler.flush();
            cursor += 1;
        }
        probe(&mut healthy, 8, cursor as u64);
        std::thread::sleep(Duration::from_millis(10));
    }

    // The dribbler was reaped; the neighbor never noticed.
    probe(&mut healthy, 9, 42);
    drop(healthy);
    drop(dribbler);
    let stats = server.shutdown();
    assert_eq!(stats.idle_teardowns, 1);
    // A torn-down partial frame is a deadline kill, not a decode error.
    assert_eq!(stats.protocol_errors, 0);
}

/// A client that submits work and never reads the replies stalls the
/// server's write side once the kernel buffers fill; the stalled-write
/// clock kills it, and the reply frames parked behind the dead socket
/// never block the neighbor. Linux-only: the test pins the glutton's
/// `SO_RCVBUF` so the clog point is deterministic.
#[cfg(target_os = "linux")]
#[test]
fn never_reading_client_is_torn_down_and_neighbors_are_not_stalled() {
    // Cap the kernel send buffer per connection: with autotuning on,
    // tcp_wmem would grow toward megabytes and absorb replies faster
    // than the fleet computes them, deferring the clog indefinitely.
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig::new(2)
            .with_write_timeout(Duration::from_millis(300))
            .with_conn_send_buffer(16 << 10),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut healthy = CcClient::connect(addr).expect("connect healthy");
    probe(&mut healthy, 8, 0);

    // The glutton asks for real work — replies with key batches and
    // metrics, a few KB each — and never reads a single byte back.
    let glutton = TcpStream::connect(addr).expect("connect glutton");
    pin_rcvbuf(&glutton);
    let mut writer = glutton.try_clone().expect("clone");
    let n = 9usize;
    let keys: Vec<Vec<u64>> = (0..n)
        .map(|i| (0..n).map(|j| ((i * 3 + j) % 7) as u64).collect())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut id = 0u64;
    while server.stats().idle_teardowns == 0 {
        assert!(Instant::now() < deadline, "glutton never torn down");
        // Keep the reply queue fed until the kernel buffers clog; once
        // the server kills the socket our writes start failing, which is
        // fine — we only stop on the server-side verdict.
        let payload = codec::encode_request(id, &Request::GlobalIndices(keys.clone()));
        if frame::write_frame(&mut writer, &payload).is_ok() {
            id += 1;
        } else {
            std::thread::sleep(Duration::from_millis(10));
        }
        probe(&mut healthy, 8, id);
    }

    probe(&mut healthy, 9, 7);
    drop(healthy);
    drop(glutton);
    drop(writer);
    let stats = server.shutdown();
    assert_eq!(stats.idle_teardowns, 1);
    assert_eq!(stats.protocol_errors, 0);
    // The glutton's requests were genuinely served before the teardown —
    // the fleet answered more than just the healthy probes.
    assert!(
        stats.fleet.requests() > id / 2,
        "fleet served {} of {} glutton requests",
        stats.fleet.requests(),
        id
    );
}
