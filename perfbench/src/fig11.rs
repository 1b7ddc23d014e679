//! `fig11_small`: the paper's Fig. 11 round trip at its smallest point.
//!
//! Closed loop from one thread over TCP loopback: every iteration sends
//! one 32 B two-way `echo` to the Compadres ORB on the default reactor
//! server, then one to the ZenOrb comparator on the thread-per-connection
//! server, one connection to each. Interleaving the two ORBs keeps
//! machine drift from landing on one of them only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtcorba::corb::{CompadresClient, CompadresServer};
use rtcorba::service::ObjectRegistry;
use rtcorba::transport::{Connection, TcpConn};
use rtcorba::zen::{ZenClient, ZenServer};
use rtcorba::{ClientBuilder, OrbError, ServerBuilder};
use rtplatform::rng::SplitMix64;

use crate::{
    ns, params, payloads, probe, timed_reps, AppsSnap, Report, Series, Snap, Split, TimedConn,
    TimedServant,
};

/// Both ORBs, served and connected. Clients are declared first so they
/// close before their servers stop.
struct Pair {
    corb: CompadresClient,
    zen: ZenClient,
    corb_server: CompadresServer,
    _zen_server: ZenServer,
    taps: Option<Taps>,
}

/// The timing decorators of a traced pair.
struct Taps {
    armed: Arc<AtomicBool>,
    corb_conn: Arc<TimedConn>,
    zen_conn: Arc<TimedConn>,
    corb_servant: Arc<TimedServant>,
    zen_servant: Arc<TimedServant>,
}

impl Pair {
    /// Serves and connects both ORBs; `traced` installs the timing
    /// connection and servant decorators.
    ///
    /// # Errors
    ///
    /// Bind, connect or composition failures.
    fn new(traced: bool) -> Result<Pair, OrbError> {
        if !traced {
            let corb_server = ServerBuilder::new(ObjectRegistry::with_echo()).serve()?;
            let zen_server = ServerBuilder::new(ObjectRegistry::with_echo())
                .threaded()
                .serve_zen()?;
            let corb = ClientBuilder::new().connect(corb_server.addr().expect("tcp server"))?;
            let zen = ClientBuilder::new().connect_zen(zen_server.addr().expect("tcp server"))?;
            return Ok(Pair {
                corb,
                zen,
                corb_server,
                _zen_server: zen_server,
                taps: None,
            });
        }
        let armed = Arc::new(AtomicBool::new(false));
        let (corb_reg, corb_servant) = TimedServant::registry(Arc::clone(&armed));
        let (zen_reg, zen_servant) = TimedServant::registry(Arc::clone(&armed));
        let corb_server = ServerBuilder::new(corb_reg).serve()?;
        let zen_server = ServerBuilder::new(zen_reg).threaded().serve_zen()?;
        let corb_conn = TimedConn::new(
            Arc::new(TcpConn::connect(corb_server.addr().expect("tcp server"))?),
            Arc::clone(&armed),
        );
        let zen_conn = TimedConn::new(
            Arc::new(TcpConn::connect(zen_server.addr().expect("tcp server"))?),
            Arc::clone(&armed),
        );
        let corb = ClientBuilder::new().over(Arc::clone(&corb_conn) as Arc<dyn Connection>)?;
        let zen = ClientBuilder::new().over_zen(Arc::clone(&zen_conn) as Arc<dyn Connection>)?;
        Ok(Pair {
            corb,
            zen,
            corb_server,
            _zen_server: zen_server,
            taps: Some(Taps {
                armed,
                corb_conn,
                zen_conn,
                corb_servant,
                zen_servant,
            }),
        })
    }
}

/// One timed echo; the reply must equal the request byte for byte.
fn echo(
    invoke: impl FnOnce() -> Result<Vec<u8>, OrbError>,
    payload: &[u8],
    report: &mut Report,
) -> u64 {
    let t = Instant::now();
    let reply = invoke();
    let d = ns(t.elapsed());
    report.op(matches!(&reply, Ok(r) if r.as_slice() == payload));
    d
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub(crate) fn run(seed: u64, dur: Duration, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, pair) = timed_reps(params::SETUP_REPS, || Pair::new(traced))
        .map_err(|e| format!("fig11 set-up: {e}"))?;
    report.set("setup_s", setup_s);
    let mut rng = SplitMix64::new(seed);
    let inputs = payloads(&mut rng, [params::FIG11_PAYLOAD; 64]);

    let warm_end = Instant::now() + dur.mul_f64(params::WARMUP_SHARE);
    while Instant::now() < warm_end {
        let p = &inputs[rng.below(inputs.len())];
        echo(|| pair.corb.invoke(b"echo", "echo", p), p, &mut report);
        echo(|| pair.zen.invoke(b"echo", "echo", p), p, &mut report);
    }

    let apps = [pair.corb.app(), pair.corb_server.app()];
    let apps_before = AppsSnap::take(&apps);
    let server_before = Snap::take(pair.corb_server.app().observer());
    // Traced runs alternate armed and disarmed iterations: the armed ones
    // give the split, the disarmed ones the untraced comparison.
    let (mut corb_plain, mut zen_plain, mut corb_armed) =
        (Series::default(), Series::default(), Series::default());
    let (mut corb_split, mut zen_split) = (Split::default(), Split::default());
    let end = Instant::now() + dur.mul_f64(1.0 - params::WARMUP_SHARE);
    let mut requests = 0u64;
    while Instant::now() < end {
        let p = &inputs[rng.below(inputs.len())];
        let armed = traced && requests.is_multiple_of(2);
        if let Some(t) = &pair.taps {
            t.armed.store(armed, Ordering::Relaxed);
        }
        let c = echo(|| pair.corb.invoke(b"echo", "echo", p), p, &mut report);
        let z = echo(|| pair.zen.invoke(b"echo", "echo", p), p, &mut report);
        match (&pair.taps, armed) {
            (Some(t), true) => {
                corb_split.add(c, &t.corb_conn);
                zen_split.add(z, &t.zen_conn);
                corb_armed.push(c);
            }
            _ => {
                corb_plain.push(c);
                zen_plain.push(z);
            }
        }
        requests += 1;
    }
    let p50 = corb_plain.p50();
    let zen_p50 = zen_plain.p50();
    report.set("e2e.p99_us", corb_plain.p99() / 1e3);
    if !traced {
        report.set("p50_us", p50 / 1e3);
        report.set("alt_p50_us", zen_p50 / 1e3);
        report.set("rate_rps", 1e9 / corb_plain.mean());
        return Ok(report);
    }

    // Let the server finish the last request's bookkeeping before its
    // counters are read.
    pair.corb_server
        .app()
        .wait_quiescent(Duration::from_secs(1));
    std::thread::sleep(Duration::from_millis(20));
    let taps = pair.taps.as_ref().expect("traced pair has taps");
    let apps_after = AppsSnap::take(&apps);
    let server_after = Snap::take(pair.corb_server.app().observer());
    apps_after.per_request(&apps_before, requests, &mut report);
    reactor_per_request(&server_before, &server_after, requests, &mut report);

    let sizes: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let pingpong = probe::pingpong_ns(&sizes, Duration::from_millis(300))?;
    report.set("wire.pingpong_ns", pingpong);
    let (corb_servant_ns, corb_calls) = taps.corb_servant.take();
    let (zen_servant_ns, zen_calls) = taps.zen_servant.take();
    let servant = corb_servant_ns as f64 / corb_calls.max(1) as f64;
    let zen_servant = zen_servant_ns as f64 / zen_calls.max(1) as f64;
    split_metrics(&mut report, "corb", &corb_split, pingpong, servant);
    split_metrics(&mut report, "zen", &zen_split, pingpong, zen_servant);
    report.set("service.servant_ns", servant);
    report.set("ratio.corb_over_zen", p50 / zen_p50);
    let armed_p50 = corb_armed.p50();
    report.set("trace.overhead_pct", 100.0 * (armed_p50 - p50) / p50);
    Ok(report)
}

/// Sets `<orb>.client_self_ns` and `<orb>.server_self_ns` (and, for the
/// Compadres ORB, the transport split) from a traced client's sums. The
/// client split is of means, so it sums exactly to the mean invocation.
/// Server self time is a residual of medians, robust to the odd
/// scheduler stall: median reply wait minus the median raw-socket ping-
/// pong minus the mean servant time.
fn split_metrics(report: &mut Report, orb: &str, split: &Split, pingpong_p50: f64, servant: f64) {
    let (send, wait, client_self) = split.means();
    if orb == "corb" {
        report.set("transport.send_ns", send);
        report.set("transport.reply_wait_ns", wait);
    }
    report.set(&format!("{orb}.client_self_ns"), client_self);
    let wait_p50 = Series::of(&split.waits).p50();
    report.set(
        &format!("{orb}.server_self_ns"),
        wait_p50 - pingpong_p50 - servant,
    );
}

/// Per-request deltas of the reactor server's own counters.
fn reactor_per_request(before: &Snap, after: &Snap, requests: u64, report: &mut Report) {
    after.check_overflow(before, "ORB server", report);
    let n = requests.max(1) as f64;
    for (metric, counter) in [
        ("reactor.wakeups_per_req", "reactor_wakeups_total"),
        (
            "reactor.partial_frames_per_req",
            "reactor_partial_frames_total",
        ),
        ("reactor.shed_per_req", "reactor_shed_total"),
        ("reactor.backpressure_per_req", "reactor_backpressure_total"),
    ] {
        let d = after.delta(before, counter, report);
        report.set(metric, d as f64 / n);
    }
    let (writes, frames) = after.hist_delta(before, "reactor_coalesced_writes", report);
    report.set(
        "reactor.coalesced_writes_mean",
        frames as f64 / writes.max(1) as f64,
    );
}
