//! Integration tests for the event-driven reactor transport (DESIGN.md
//! §5h) against a real TCP socket: partial-frame reassembly across many
//! readiness events, fault injection reused from `chaos`, the server's
//! health after misbehaving peers disconnect mid-frame, isolation
//! between event loops, the queued-reply (`EPOLLOUT`) path, descriptor
//! hygiene and shutdown.
//!
//! The descriptor and thread counts read here are process-wide, so
//! every test takes [`serial`] and the file's tests run one at a time.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rtcorba::cdr::Endian;
use rtcorba::chaos::{FaultPlan, FaultyConn};
use rtcorba::giop::{
    self, body_size, encode_trace_slot, GiopError, Message, ReplyStatus, RequestMessage,
    HEADER_LEN, TRACE_CONTEXT_SLOT,
};
use rtcorba::service::{EchoServant, ObjectRegistry, Servant};
use rtcorba::transport::{Connection, TcpConn};
use rtcorba::zen::ZenServer;

/// Serializes this file's tests (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn reactor_server() -> ZenServer {
    rtcorba::ServerBuilder::new(ObjectRegistry::with_echo())
        .observer(rtobs::Observer::new())
        .serve_zen()
        .expect("spawn reactor server")
}

/// Reads exactly one GIOP frame from a raw stream.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("reply header");
    let body = body_size(&header).expect("reply header parses");
    let mut frame = header.to_vec();
    frame.resize(HEADER_LEN + body, 0);
    stream
        .read_exact(&mut frame[HEADER_LEN..])
        .expect("reply body");
    frame
}

/// A request dripped one byte at a time — every byte its own TCP segment
/// and (on the server) its own readiness event — must produce exactly
/// one complete reply with the request's service contexts echoed back.
#[test]
fn dripped_request_yields_single_complete_reply() {
    let _serial = serial();
    let server = reactor_server();
    let req = RequestMessage {
        request_id: 77,
        response_expected: true,
        object_key: b"echo".to_vec(),
        operation: "echo".into(),
        body: vec![0xAB; 100],
        service_context: vec![
            (TRACE_CONTEXT_SLOT, encode_trace_slot(0x0DD_BA11, 3, 42)),
            (0xBEEF, vec![1, 2, 3, 4, 5]),
        ],
    };
    let frame = req.encode(Endian::Big);

    let mut stream = TcpStream::connect(server.addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();
    for (i, byte) in frame.iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        // Pause long enough for the reactor to observe most bytes as
        // separate partial reads, without making the test crawl.
        if i % 4 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let reply_frame = read_frame(&mut stream);
    match giop::decode(&reply_frame).expect("reply decodes") {
        Message::Reply(reply) => {
            assert_eq!(reply.request_id, 77);
            assert_eq!(reply.status, ReplyStatus::NoException);
            assert_eq!(reply.body, req.body, "echo must return the body");
            assert_eq!(
                reply.service_context, req.service_context,
                "contexts must survive reassembly from single-byte reads"
            );
        }
        other => panic!("expected a reply, got {other:?}"),
    }

    // Exactly one reply: nothing further arrives before a short timeout.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut extra = [0u8; 1];
    match stream.read(&mut extra) {
        Ok(0) => {} // server closed cleanly
        Ok(n) => panic!("unexpected extra {n} byte(s) after the reply"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error: {e}"
        ),
    }
    server.shutdown();
}

/// `chaos::FaultyConn` truncation, pointed at the reactor server: the
/// reply loses half its body in transit and must surface as the
/// documented `ShortBody` decode error — while the server keeps serving
/// untouched connections.
#[test]
fn truncated_reply_from_reactor_maps_to_short_body() {
    let _serial = serial();
    let server = reactor_server();
    let addr = server.addr().unwrap();

    let conn = FaultyConn::new(
        Arc::new(TcpConn::connect(addr).unwrap()),
        FaultPlan {
            truncate: 1.0,
            ..FaultPlan::quiet(11)
        },
    );
    let req = RequestMessage {
        request_id: 1,
        response_expected: true,
        object_key: b"echo".to_vec(),
        operation: "echo".into(),
        body: vec![7; 64],
        service_context: Vec::new(),
    };
    conn.send_frame(&req.encode(Endian::Big)).unwrap();
    let frame = conn.recv_frame().unwrap();
    match giop::decode(&frame) {
        Err(GiopError::ShortBody { declared, actual }) => {
            assert!(actual < declared, "truncation must shorten the body");
        }
        other => panic!("expected ShortBody from truncated reply, got {other:?}"),
    }
    assert_eq!(conn.injected().truncated, 1);

    // The fault was client-side: the reactor still answers cleanly.
    let client = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();
    assert_eq!(client.invoke(b"echo", "echo", &[9, 9]).unwrap(), vec![9, 9]);
    server.shutdown();
}

/// A peer that declares a large body, sends half of it, and hangs up
/// must not wedge the reactor: its connection is reaped and concurrent
/// plus subsequent clients are unaffected.
#[test]
fn midframe_hangup_leaves_reactor_healthy() {
    let _serial = serial();
    let server = reactor_server();
    let addr = server.addr().unwrap();

    // A well-behaved client connected before the misbehaving one.
    let bystander = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();

    let req = RequestMessage {
        request_id: 5,
        response_expected: true,
        object_key: b"echo".to_vec(),
        operation: "echo".into(),
        body: vec![3; 400],
        service_context: Vec::new(),
    };
    let frame = req.encode(Endian::Big);
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        stream.flush().unwrap();
        // Dropped here: RST/FIN mid-frame while the reactor holds the
        // partial bytes in the connection's reassembly buffer.
    }

    // Both the pre-existing and a fresh connection still round-trip.
    assert_eq!(
        bystander.invoke(b"echo", "reverse", &[1, 2, 3]).unwrap(),
        vec![3, 2, 1]
    );
    let fresh = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();
    assert_eq!(fresh.invoke(b"echo", "echo", &[8]).unwrap(), vec![8]);
    server.shutdown();
}

/// Beside echo: `block` parks its loop until the test releases it, and
/// `big` returns as many bytes as its 4-byte big-endian argument says,
/// a repeating counting pattern.
struct GateServant {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Servant for GateServant {
    fn invoke(&self, operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        match operation {
            "block" => {
                let _ = self.entered.lock().unwrap().send(());
                let _ = self
                    .release
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
                Ok(args.to_vec())
            }
            "big" => {
                let len = u32::from_be_bytes(args.try_into().map_err(|_| "bad length")?);
                Ok(pattern(len as usize))
            }
            other => EchoServant.invoke(other, args),
        }
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// A reactor ZenOrb server with `workers` loops serving a
/// [`GateServant`] under `b"echo"`; returns the server, its observer,
/// the "handler entered" receiver and the release sender.
fn gate_server(
    workers: usize,
) -> (
    ZenServer,
    Arc<rtobs::Observer>,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let registry = ObjectRegistry::new();
    registry.register(
        b"echo".to_vec(),
        Arc::new(GateServant {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        }),
    );
    let obs = rtobs::Observer::new();
    let server = rtcorba::ServerBuilder::new(Arc::new(registry))
        .workers(workers)
        .observer(Arc::clone(&obs))
        .serve_zen()
        .expect("spawn reactor server");
    (server, obs, entered_rx, release_tx)
}

fn request(id: u32, operation: &str, body: Vec<u8>) -> Vec<u8> {
    RequestMessage {
        request_id: id,
        response_expected: true,
        object_key: b"echo".to_vec(),
        operation: operation.into(),
        body,
        service_context: Vec::new(),
    }
    .encode(Endian::Big)
}

fn reply_of(frame: &[u8]) -> giop::ReplyMessage {
    match giop::decode(frame).expect("reply decodes") {
        Message::Reply(reply) => reply,
        other => panic!("expected a reply, got {other:?}"),
    }
}

/// With two loops, a servant blocked on connection A holds only A's
/// loop: an echo on connection B is answered while A is still blocked.
#[test]
fn blocked_servant_does_not_delay_other_connection() {
    let _serial = serial();
    let (server, _obs, entered, release) = gate_server(2);
    let addr = server.addr().unwrap();

    let a = std::thread::spawn(move || {
        let client = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();
        client
            .invoke(b"echo", "block", &[1])
            .map_err(|e| e.to_string())
    });
    entered
        .recv_timeout(Duration::from_secs(5))
        .expect("A's handler entered");

    let (done_tx, done_rx) = mpsc::channel();
    let b = std::thread::spawn(move || {
        let client = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();
        let _ = done_tx.send(
            client
                .invoke(b"echo", "echo", &[2, 2])
                .map_err(|e| e.to_string()),
        );
    });
    let b_reply = done_rx.recv_timeout(Duration::from_secs(5));
    release.send(()).unwrap();
    assert_eq!(
        b_reply.expect("B answered while A's handler was blocked"),
        Ok(vec![2, 2])
    );
    b.join().unwrap();
    assert_eq!(a.join().unwrap(), Ok(vec![1]));
}

/// A multi-MiB reply to a client that does not read at first cannot be
/// written at once: the remainder queues behind `EPOLLOUT`, and a small
/// reply pipelined after it waits its turn. Both arrive intact and in
/// order while the client reads slowly.
#[test]
fn large_reply_to_slow_reader_arrives_intact_and_in_order() {
    let _serial = serial();
    let (server, obs, _entered, _release) = gate_server(2);
    const BIG: usize = 12 << 20;
    let mut stream = TcpStream::connect(server.addr().unwrap()).unwrap();
    let mut burst = request(1, "big", (BIG as u32).to_be_bytes().to_vec());
    burst.extend(request(2, "echo", vec![7; 16]));
    stream.write_all(&burst).unwrap();
    // Let the server fill both socket buffers before reading anything.
    std::thread::sleep(Duration::from_millis(200));

    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    let mut frame = header.to_vec();
    frame.resize(HEADER_LEN + body_size(&header).unwrap(), 0);
    for chunk in frame[HEADER_LEN..].chunks_mut(256 << 10) {
        stream.read_exact(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let big = reply_of(&frame);
    assert_eq!(big.request_id, 1);
    assert_eq!(big.status, ReplyStatus::NoException);
    assert!(big.body == pattern(BIG), "large reply corrupted");

    let small = reply_of(&read_frame(&mut stream));
    assert_eq!(small.request_id, 2, "replies stay in request order");
    assert_eq!(small.body, vec![7; 16]);
    let backpressure = obs.counter_value(obs.counter("reactor_backpressure_total"));
    assert!(
        backpressure >= 1,
        "the reply must have taken the queued path"
    );
}

/// 100 requests written in one `write` are carved in one or a few turns
/// and answered one for one, in order.
#[test]
fn hundred_pipelined_requests_in_one_write_reply_in_order() {
    let _serial = serial();
    let server = reactor_server();
    let mut stream = TcpStream::connect(server.addr().unwrap()).unwrap();
    let burst: Vec<u8> = (0..100u32)
        .flat_map(|i| request(i, "echo", i.to_be_bytes().to_vec()))
        .collect();
    stream.write_all(&burst).unwrap();
    for i in 0..100u32 {
        let reply = reply_of(&read_frame(&mut stream));
        assert_eq!(reply.request_id, i, "FIFO per connection");
        assert_eq!(reply.body, i.to_be_bytes().to_vec());
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Connections that come and go leak no descriptor: after 300
/// connect/echo/close cycles the process's open-fd count returns to
/// its baseline.
#[test]
fn connect_close_cycles_leak_no_descriptors() {
    let _serial = serial();
    let server = reactor_server();
    let addr = server.addr().unwrap();
    let baseline = open_fds();
    for i in 0..300u32 {
        let mut stream = TcpStream::connect(addr).unwrap();
        if i % 3 == 0 {
            // Every third cycle carries a request, the rest only connect.
            stream.write_all(&request(i, "echo", vec![1])).unwrap();
            assert_eq!(reply_of(&read_frame(&mut stream)).request_id, i);
        }
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() > baseline {
        assert!(
            Instant::now() < deadline,
            "fd count stuck at {} (baseline {baseline})",
            open_fds()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn reactor_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("orb-reactor"))
        .count()
}

/// Shutdown with one idle connection and one handler mid-flight severs
/// the idle peer, and dropping the server joins every loop within 2 s.
#[test]
fn shutdown_with_idle_and_busy_connections_joins_every_loop() {
    let _serial = serial();
    let (server, _obs, entered, release) = gate_server(3);
    let addr = server.addr().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while reactor_threads() < 3 {
        assert!(Instant::now() < deadline, "loops named themselves");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(&request(1, "echo", vec![1])).unwrap();
    assert_eq!(reply_of(&read_frame(&mut idle)).request_id, 1);
    let busy = std::thread::spawn(move || {
        let client = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();
        client.invoke(b"echo", "block", &[5]).is_ok()
    });
    entered
        .recv_timeout(Duration::from_secs(5))
        .expect("handler entered");

    let t = Instant::now();
    server.shutdown();
    idle.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut byte = [0u8; 1];
    match idle.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("idle connection must be severed on shutdown, got {other:?}"),
    }
    release.send(()).unwrap();
    drop(server);
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "took {:?}",
        t.elapsed()
    );
    assert_eq!(reactor_threads(), 0, "every loop joined");
    // The in-flight reply raced the severing: either outcome is fine,
    // as long as the client returns.
    let _ = busy.join().unwrap();
}
