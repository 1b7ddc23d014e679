//! Layer probes of a traced run: each times one public entry point of a
//! layer from outside, on the workload's own inputs where the layer
//! handles them. Metrics a workload's own traffic does not exercise are
//! filled from short traced runs of the workload that does (see
//! README.md for the source of every number on every workload).

use std::sync::Arc;
use std::time::{Duration, Instant};

use compadres_bench::{DispatchMode, Fig6App};
use rtcorba::cdr::Endian;
use rtcorba::giop::{self, ReplyMessage, ReplyStatus};
use rtcorba::service::ObjectRegistry;
use rtcorba::transport::{Connection, TcpAcceptor, TcpConn};
use rtcorba::{ClientBuilder, OrbError, ServerBuilder};
use rtmem::{MemoryModel, ScopePool};
use rtplatform::bufchain::{SegPool, DEFAULT_SEG_SIZE};
use rtplatform::rng::SplitMix64;

use crate::{fig11, local, median, ns, params, payloads, Report, Series};

/// Length of each filler run and of each timed probe.
const SHORT: Duration = Duration::from_millis(600);
const PROBE: Duration = Duration::from_millis(200);

/// Fills every per-layer metric the workload's traced run did not set.
///
/// # Errors
///
/// Set-up failures of a probe.
pub(crate) fn fill(report: &mut Report, seed: u64) -> Result<(), String> {
    if !report.metrics.contains_key("core.send_ns") {
        report.fill_from(local::run(seed, SHORT, true)?);
    }
    if !report.metrics.contains_key("zen.client_self_ns") {
        report.fill_from(fig11::run(seed, SHORT, true)?);
    }
    giop_codec(report, seed, &[params::FIG11_PAYLOAD]);
    orb_variants(report).map_err(|e| format!("ORB probe: {e}"))?;
    memory_and_setup(report)
}

/// Median raw-socket round trip of request frames of `sizes` bytes of
/// payload, echoed verbatim by a bench-side thread: the socket floor
/// under any ORB round trip.
///
/// # Errors
///
/// Socket failures.
pub(crate) fn pingpong_ns(sizes: &[usize], dur: Duration) -> Result<f64, String> {
    let err = |e: rtcorba::transport::TransportError| format!("ping-pong probe: {e}");
    let acceptor = TcpAcceptor::bind_loopback().map_err(err)?;
    let addr = acceptor.local_addr().map_err(err)?;
    let echo = std::thread::spawn(move || {
        if let Ok(conn) = acceptor.accept() {
            while let Ok(frame) = conn.recv_frame() {
                if conn.send_frame(&frame).is_err() {
                    break;
                }
            }
        }
    });
    let pool = SegPool::new(16, DEFAULT_SEG_SIZE);
    let mut rng = SplitMix64::new(sizes.len() as u64);
    let frames: Vec<_> = payloads(&mut rng, sizes.iter().copied())
        .iter()
        .enumerate()
        .map(|(i, p)| {
            giop::encode_request_chain(
                i as u32,
                true,
                b"echo",
                "echo",
                p,
                &[],
                Endian::native(),
                &pool,
            )
        })
        .collect();
    let conn = TcpConn::connect(addr).map_err(err)?;
    let mut samples = Vec::new();
    let end = Instant::now() + dur;
    while Instant::now() < end || samples.is_empty() {
        let frame = &frames[samples.len() % frames.len()];
        let t = Instant::now();
        conn.send_chain(frame).map_err(err)?;
        let back = conn.recv_frame().map_err(err)?;
        samples.push(ns(t.elapsed()));
        if back.len() != frame.len() {
            return Err("ping-pong probe: echoed frame differs".into());
        }
    }
    conn.close();
    drop(conn);
    echo.join().map_err(|_| "ping-pong echo thread panicked")?;
    Ok(Series::of(&samples).p50())
}

/// `giop.encode_ns` and `giop.decode_ns`: encoding a request and its
/// reply into segment chains, and decoding both in place, over payloads
/// of `sizes`.
fn giop_codec(report: &mut Report, seed: u64, sizes: &[usize]) {
    let pool = SegPool::new(16, DEFAULT_SEG_SIZE);
    let endian = Endian::native();
    let mut rng = SplitMix64::new(seed);
    let inputs = payloads(&mut rng, sizes.iter().copied());
    let (mut enc, mut dec, mut n) = (0u64, 0u64, 0u64);
    let end = Instant::now() + PROBE;
    while Instant::now() < end || n == 0 {
        let p = &inputs[n as usize % inputs.len()];
        let t = Instant::now();
        let req =
            giop::encode_request_chain(n as u32, true, b"echo", "echo", p, &[], endian, &pool);
        let reply = ReplyMessage {
            request_id: n as u32,
            status: ReplyStatus::NoException,
            body: p.clone(),
            service_context: Vec::new(),
        }
        .encode_chain(endian, &pool);
        enc += ns(t.elapsed());
        let t = Instant::now();
        let (rs, ps) = (req.slices(), reply.slices());
        let ok = giop::decode_view(&rs).is_ok() && giop::decode_view(&ps).is_ok();
        dec += ns(t.elapsed());
        report.op(ok);
        n += 1;
    }
    report.set("giop.encode_ns", enc as f64 / n as f64);
    report.set("giop.decode_ns", dec as f64 / n as f64);
}

/// p50 round trip of 32 B echoes through `invoke` for [`PROBE`].
fn rtt_p50(report: &mut Report, mut invoke: impl FnMut(&[u8]) -> Result<Vec<u8>, OrbError>) -> f64 {
    let payload = [0x5Au8; params::FIG11_PAYLOAD];
    let mut samples = Vec::new();
    let end = Instant::now() + PROBE;
    while Instant::now() < end || samples.is_empty() {
        let t = Instant::now();
        let r = invoke(&payload);
        samples.push(ns(t.elapsed()));
        report.op(matches!(&r, Ok(b) if b.as_slice() == payload.as_slice()));
    }
    Series::of(&samples).p50()
}

/// Both ORBs over the in-process transport, and the Compadres ORB on the
/// thread-per-connection server: the same request without the socket,
/// and without the reactor hand-off.
fn orb_variants(report: &mut Report) -> Result<(), OrbError> {
    let server = ServerBuilder::new(ObjectRegistry::with_echo())
        .loopback()
        .serve()?;
    let client = ClientBuilder::new().over(Arc::new(server.attach_loopback()))?;
    let v = rtt_p50(report, |p| client.invoke(b"echo", "echo", p));
    report.set("corb.inproc_rtt_ns", v);
    drop(client);
    drop(server);

    let server = ServerBuilder::new(ObjectRegistry::with_echo())
        .loopback()
        .serve_zen()?;
    let client = ClientBuilder::new().over_zen(Arc::new(server.attach_loopback()))?;
    let v = rtt_p50(report, |p| client.invoke(b"echo", "echo", p));
    report.set("zen.inproc_rtt_ns", v);
    drop(client);
    drop(server);

    let server = ServerBuilder::new(ObjectRegistry::with_echo())
        .threaded()
        .serve()?;
    let client = ClientBuilder::new().connect(server.addr().expect("tcp server"))?;
    let v = rtt_p50(report, |p| client.invoke(b"echo", "echo", p));
    report.set("corb.threaded_rtt_ns", v);
    Ok(())
}

/// `rtmem.pool_lease_ns`, `core.connect_ns` and the `setup.*` stages.
fn memory_and_setup(report: &mut Report) -> Result<(), String> {
    let model = MemoryModel::new();
    let pool = ScopePool::new(&model, 1, 131_072, 2).map_err(|e| e.to_string())?;
    let (mut total, mut n) = (0u64, 0u64);
    let end = Instant::now() + PROBE;
    while Instant::now() < end || n == 0 {
        let t = Instant::now();
        let lease = pool.acquire();
        drop(lease);
        total += ns(t.elapsed());
        n += 1;
    }
    report.set("rtmem.pool_lease_ns", total as f64 / n as f64);

    // Connecting an idle scoped component materializes it; dropping the
    // handle reclaims its scope.
    let fig6 = Fig6App::new(DispatchMode::Synchronous, false);
    let (mut total, mut n) = (0u64, 0u64);
    let end = Instant::now() + PROBE;
    while Instant::now() < end || n == 0 {
        let t = Instant::now();
        let handle = fig6.app().connect("MyClient");
        report.op(handle.is_ok());
        drop(handle);
        total += ns(t.elapsed());
        n += 1;
    }
    report.set("core.connect_ns", total as f64 / n as f64);

    let (mut parse, mut build, mut start, mut serve, mut connect) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..params::SETUP_REPS {
        let (app, times) = local::Banded::new().map_err(|e| e.to_string())?;
        drop(app);
        parse.push(times.parse as f64);
        build.push(times.build as f64);
        start.push(times.start as f64);
        let t = Instant::now();
        let server = ServerBuilder::new(ObjectRegistry::with_echo())
            .serve()
            .map_err(|e| e.to_string())?;
        serve.push(ns(t.elapsed()) as f64);
        let t = Instant::now();
        let client = ClientBuilder::new()
            .connect(server.addr().expect("tcp server"))
            .map_err(|e| e.to_string())?;
        connect.push(ns(t.elapsed()) as f64);
        drop(client);
    }
    report.set("setup.parse_ns", median(&parse));
    report.set("setup.build_ns", median(&build));
    report.set("setup.start_ns", median(&start));
    report.set("setup.serve_ns", median(&serve));
    report.set("setup.connect_ns", median(&connect));
    Ok(())
}
