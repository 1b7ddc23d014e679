//! Seeded benchmark of the Compadres reproduction: two workloads, each
//! reporting the same end-to-end metrics, plus a traced mode that splits
//! a request's time across `rtcorba`, `compadres-core`, `rtsched` and
//! `rtmem` by timing calls into their public functions from outside.
//! See `README.md` beside this crate for what each number means.

mod fig11;
mod local;
mod params;
mod probe;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtcorba::service::{EchoServant, ObjectRegistry, Servant};
use rtcorba::transport::{Connection, TransportError};
use rtobs::Observer;
use rtplatform::bufchain::FrameBuf;
use rtplatform::rng::SplitMix64;

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 2] = ["fig11_small", "local_banded"];

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports every one of them; README.md maps each to its meaning per
/// workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("p50_us", "us"),
    ("alt_p50_us", "us"),
    ("rate_rps", "1/s"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("e2e.p99_us", "us"),
    ("transport.send_ns", "ns"),
    ("transport.reply_wait_ns", "ns"),
    ("wire.pingpong_ns", "ns"),
    ("corb.client_self_ns", "ns"),
    ("zen.client_self_ns", "ns"),
    ("corb.server_self_ns", "ns"),
    ("zen.server_self_ns", "ns"),
    ("corb.inproc_rtt_ns", "ns"),
    ("zen.inproc_rtt_ns", "ns"),
    ("corb.threaded_rtt_ns", "ns"),
    ("service.servant_ns", "ns"),
    ("giop.encode_ns", "ns"),
    ("giop.decode_ns", "ns"),
    ("reactor.wakeups_per_req", "count"),
    ("reactor.partial_frames_per_req", "count"),
    ("reactor.coalesced_writes_mean", "count"),
    ("reactor.shed_per_req", "count"),
    ("reactor.backpressure_per_req", "count"),
    ("core.activations_per_req", "count"),
    ("core.hops_per_req", "count"),
    ("core.connect_ns", "ns"),
    ("core.send_ns", "ns"),
    ("core.queue_wait_high_ns", "ns"),
    ("core.queue_wait_low_ns", "ns"),
    ("rtsched.park_per_msg", "count"),
    ("rtsched.spin_per_msg", "count"),
    ("rtmem.scope_enters_per_req", "count"),
    ("rtmem.pool_lease_ns", "ns"),
    ("setup.parse_ns", "ns"),
    ("setup.build_ns", "ns"),
    ("setup.start_ns", "ns"),
    ("setup.serve_ns", "ns"),
    ("setup.connect_ns", "ns"),
    ("gen.late_p99_us", "us"),
    ("ratio.corb_over_zen", "ratio"),
    ("trace.overhead_pct", "pct"),
    ("fail_permille", "permille"),
    ("high_miss_permille", "permille"),
    ("low_shed_permille", "permille"),
];

/// What one run measured and verified.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, round trips, messages offered).
    pub attempted: u64,
    /// Operations that failed: errors, timeouts, byte-mismatched
    /// replies, handler errors, lost or duplicated messages. Sheds by
    /// admission control are not failures.
    pub failed: u64,
    /// Correctness checks that did not hold (beyond per-op failures).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Sets a metric.
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed correctness check.
    pub(crate) fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Counts one attempted operation and whether it failed.
    pub(crate) fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Takes over another run's operations and problems, and those of
    /// its metrics this report does not have yet.
    pub(crate) fn fill_from(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        for (k, v) in other.metrics {
            self.metrics.entry(k).or_insert(v);
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Runs `workload` for about `dur`; `traced` selects the per-layer
/// metrics instead of the end-to-end ones.
///
/// # Errors
///
/// An unknown workload name, or a set-up failure (nothing measured).
pub fn run(workload: &str, seed: u64, dur: Duration, traced: bool) -> Result<Report, String> {
    // Every workload pins the allocator the same way, as the shipped
    // server examples do: freed memory stays mapped for reuse.
    rtplatform::heap::retain_freed_memory();
    let mut report = match workload {
        "fig11_small" => fig11::run(seed, dur, traced)?,
        "local_banded" => local::run(seed, dur, traced)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if traced {
        probe::fill(&mut report, seed)?;
        let permille = 1000.0 * report.failed as f64 / report.attempted.max(1) as f64;
        report.set("fail_permille", permille);
    } else {
        report.set("rss_peak_mb", rss_peak_mb());
    }
    let expected: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, _) in expected {
        match report.metrics.get(*name) {
            Some(v) if v.is_finite() => {}
            Some(v) => report.problem(format!("metric {name} is not finite ({v})")),
            None => report.problem(format!("metric {name} was not measured")),
        }
    }
    Ok(report)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub(crate) fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ---- statistics ---------------------------------------------------------

/// Nearest-rank quantile of an ascending slice.
pub(crate) fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a list of values (NaN when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency samples summarized chunk by chunk as they arrive: every
/// [`params::CHUNK`] consecutive samples contribute their mean, median
/// and 99th percentile, and only those are kept, so the benchmark's
/// memory does not grow with the program's speed.
///
/// A statistic is reported as the 5th percentile of its per-chunk values
/// ([`params::QUIET_QUANTILE`]). The reference host (2 vCPUs shared with
/// other tenants) switches between a fast state and one up to 45 %
/// slower, for seconds to minutes at a time, and stalls its vCPUs;
/// interference only ever adds time, so a low quantile of windowed
/// values follows the fast state whenever a twentieth of the run had it
/// and measures the program rather than its neighbours. Over eight
/// 15-second runs of `local_banded` it kept `p50_us` within 2.44-2.65 us
/// where the windowed lower quartile ranged 2.59-3.01 us.
#[derive(Debug, Default)]
pub(crate) struct Series {
    count: u64,
    chunk: Vec<u64>,
    means: Vec<u64>,
    p50s: Vec<u64>,
    p99s: Vec<u64>,
}

impl Series {
    /// Summarizes time-ordered samples.
    pub(crate) fn of(samples: &[u64]) -> Series {
        let mut s = Series::default();
        for &v in samples {
            s.push(v);
        }
        s
    }

    /// Adds the next sample.
    pub(crate) fn push(&mut self, v: u64) {
        self.count += 1;
        self.chunk.push(v);
        if self.chunk.len() == params::CHUNK {
            self.means
                .push(self.chunk.iter().sum::<u64>() / params::CHUNK as u64);
            self.chunk.sort_unstable();
            self.p50s.push(quantile(&self.chunk, 0.5));
            self.p99s.push(quantile(&self.chunk, 0.99));
            self.chunk.clear();
        }
    }

    /// Samples pushed.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The mean, from the per-chunk means: a host stall inflates the
    /// means of the chunks it hits and no others.
    pub(crate) fn mean(&self) -> f64 {
        if self.means.is_empty() && !self.chunk.is_empty() {
            return self.chunk.iter().sum::<u64>() as f64 / self.chunk.len() as f64;
        }
        self.reduce(&self.means, 0.5)
    }

    /// The median, from the per-chunk medians.
    pub(crate) fn p50(&self) -> f64 {
        self.reduce(&self.p50s, 0.5)
    }

    /// The 99th percentile, from the per-chunk ones.
    pub(crate) fn p99(&self) -> f64 {
        self.reduce(&self.p99s, 0.99)
    }

    /// A run too short for one whole chunk falls back to the partial one;
    /// otherwise the partial chunk is left out.
    fn reduce(&self, per_chunk: &[u64], q: f64) -> f64 {
        let mut v = per_chunk.to_vec();
        if v.is_empty() {
            let mut c = self.chunk.clone();
            c.sort_unstable();
            if c.is_empty() {
                return f64::NAN;
            }
            v.push(quantile(&c, q));
        }
        v.sort_unstable();
        quantile(&v, params::QUIET_QUANTILE) as f64
    }
}

/// Nanoseconds in a duration, saturating.
pub(crate) fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Median wall time of `reps` calls of `f`, in seconds; returns the
/// last call's value.
pub(crate) fn timed_reps<T, E>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<(f64, T), E> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Tear the previous set-up down before timing the next one.
        drop(last.take());
        let t = Instant::now();
        let v = f()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((median(&times), last.expect("at least one repetition")))
}

// ---- inputs ---------------------------------------------------------------

/// One seeded payload of random bytes per length in `sizes`.
pub(crate) fn payloads(
    rng: &mut SplitMix64,
    sizes: impl IntoIterator<Item = usize>,
) -> Vec<Vec<u8>> {
    sizes
        .into_iter()
        .map(|len| (0..len).map(|_| rng.next_u64() as u8).collect())
        .collect()
}

/// Waits until `due` (an instant on the open-loop schedule) by yielding.
/// It never sleeps: waking a sleeping thread on an idle virtual CPU costs
/// up to milliseconds on a shared host, which would be charged to the
/// requests as generator lateness. Yielding (not spinning) leaves the
/// CPU to any runnable thread of the program.
pub(crate) fn pace(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

// ---- counters -------------------------------------------------------------

/// A snapshot of every metric an observer already registered, read by
/// name through the registry's visitor (which allocates no slot).
#[derive(Debug, Default)]
pub(crate) struct Snap {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
}

impl Snap {
    /// Reads every registered counter and histogram of `obs`.
    pub fn take(obs: &Observer) -> Snap {
        let mut s = Snap::default();
        obs.registry().for_each(
            |name, v| {
                s.counters.insert(name.to_string(), v);
            },
            |_, _, _| {},
            |name, h| {
                s.hists.insert(name.to_string(), (h.count, h.sum));
            },
        );
        s
    }

    /// Growth of the counter `name` since `before`; a name the program
    /// never registered is a problem, not a zero.
    pub fn delta(&self, before: &Snap, name: &str, report: &mut Report) -> u64 {
        match self.counters.get(name) {
            Some(v) => v.saturating_sub(before.counters.get(name).copied().unwrap_or(0)),
            None => {
                report.problem(format!("counter {name} is not registered"));
                0
            }
        }
    }

    /// Growth of every counter whose name starts with `prefix` and ends
    /// with `suffix`, summed.
    pub fn delta_matching(&self, before: &Snap, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(n, v)| v.saturating_sub(before.counters.get(n).copied().unwrap_or(0)))
            .sum()
    }

    /// Growth of a histogram's (count, sum) since `before`.
    pub fn hist_delta(&self, before: &Snap, name: &str, report: &mut Report) -> (u64, u64) {
        match self.hists.get(name) {
            Some(&(c, s)) => {
                let (c0, s0) = before.hists.get(name).copied().unwrap_or((0, 0));
                (c.saturating_sub(c0), s.saturating_sub(s0))
            }
            None => {
                report.problem(format!("histogram {name} is not registered"));
                (0, 0)
            }
        }
    }

    /// Fails the run if the registry's `_overflow` slots moved since
    /// `before`: registrations past capacity alias into them and would
    /// corrupt per-request counts.
    pub fn check_overflow(&self, before: &Snap, what: &str, report: &mut Report) {
        let c = |s: &Snap| s.counters.get("_overflow").copied().unwrap_or(0);
        let h = |s: &Snap| s.hists.get("_overflow").map_or(0, |x| x.0);
        if c(self) != c(before) || h(self) != h(before) {
            report.problem(format!(
                "{what}: the metrics registry's _overflow slot moved"
            ));
        }
    }
}

// ---- outside-in timing decorators ----------------------------------------

/// A [`Connection`] decorator timing every send and every blocking
/// receive while `armed`. Installed between an ORB client and its
/// socket, it splits an invocation into transport send, reply wait and
/// the client's own work (the residual).
pub(crate) struct TimedConn {
    inner: Arc<dyn Connection>,
    armed: Arc<AtomicBool>,
    send_ns: AtomicU64,
    wait_ns: AtomicU64,
}

impl TimedConn {
    /// Wraps `inner`; timing is active while `armed` is set.
    pub fn new(inner: Arc<dyn Connection>, armed: Arc<AtomicBool>) -> Arc<TimedConn> {
        Arc::new(TimedConn {
            inner,
            armed,
            send_ns: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        })
    }

    /// Takes the send and reply-wait nanoseconds accumulated since the
    /// last call.
    pub fn take(&self) -> (u64, u64) {
        (
            self.send_ns.swap(0, Ordering::Relaxed),
            self.wait_ns.swap(0, Ordering::Relaxed),
        )
    }

    fn timed<T>(&self, acc: &AtomicU64, f: impl FnOnce() -> T) -> T {
        if !self.armed.load(Ordering::Relaxed) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        acc.fetch_add(ns(t.elapsed()), Ordering::Relaxed);
        out
    }
}

impl Connection for TimedConn {
    fn send_frame(&self, frame: &[u8]) -> Result<(), TransportError> {
        self.timed(&self.send_ns, || self.inner.send_frame(frame))
    }

    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        self.timed(&self.send_ns, || self.inner.send_chain(frame))
    }

    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        self.timed(&self.wait_ns, || self.inner.recv_frame())
    }

    fn set_deadline(&self, recv: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_deadline(recv)
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// A [`Servant`] around [`EchoServant`] that times each invocation while
/// `armed`.
pub(crate) struct TimedServant {
    armed: Arc<AtomicBool>,
    /// Nanoseconds spent in the servant.
    ns: AtomicU64,
    /// Invocations timed.
    calls: AtomicU64,
}

impl TimedServant {
    /// A registry holding a timed echo servant under `b"echo"`.
    pub fn registry(armed: Arc<AtomicBool>) -> (Arc<ObjectRegistry>, Arc<TimedServant>) {
        let servant = Arc::new(TimedServant {
            armed,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        });
        let reg = Arc::new(ObjectRegistry::new());
        reg.register(b"echo".to_vec(), Arc::clone(&servant) as Arc<dyn Servant>);
        (reg, servant)
    }

    /// Takes (nanoseconds, calls) accumulated since the last call.
    pub fn take(&self) -> (u64, u64) {
        (
            self.ns.swap(0, Ordering::Relaxed),
            self.calls.swap(0, Ordering::Relaxed),
        )
    }
}

impl Servant for TimedServant {
    fn invoke(&self, operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        if !self.armed.load(Ordering::Relaxed) {
            return EchoServant.invoke(operation, args);
        }
        let t = Instant::now();
        let out = EchoServant.invoke(operation, args);
        self.ns.fetch_add(ns(t.elapsed()), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// Counters of a set of component apps, read together.
#[derive(Debug, Default)]
pub(crate) struct AppsSnap {
    snaps: Vec<Snap>,
    activations: u64,
    processed: u64,
    handler_errors: u64,
}

impl AppsSnap {
    /// Reads the registries and `AppStats` of `apps`.
    pub fn take(apps: &[&compadres_core::App]) -> AppsSnap {
        let mut s = AppsSnap::default();
        for app in apps {
            let st = app.stats();
            s.activations += st.activations;
            s.processed += st.messages_processed;
            s.handler_errors += st.handler_errors + st.handler_panics;
            s.snaps.push(Snap::take(app.observer()));
        }
        s
    }

    /// Per-request component counts since `before` over `requests`
    /// requests: activations, handler hops and scope entries. Also fails
    /// the run on handler errors or a moved `_overflow` slot.
    pub fn per_request(&self, before: &AppsSnap, requests: u64, report: &mut Report) {
        let n = requests.max(1) as f64;
        let errors = self.handler_errors - before.handler_errors;
        if errors > 0 {
            report.problem(format!("{errors} component handlers failed"));
        }
        let mut enters = 0;
        for (after, before) in self.snaps.iter().zip(&before.snaps) {
            after.check_overflow(before, "component app", report);
            enters += after.delta(before, "rtmem_scope_enters_total", report);
        }
        report.set(
            "core.activations_per_req",
            (self.activations - before.activations) as f64 / n,
        );
        report.set(
            "core.hops_per_req",
            (self.processed - before.processed) as f64 / n,
        );
        report.set("rtmem.scope_enters_per_req", enters as f64 / n);
    }
}

/// Running sums of a traced client's split.
#[derive(Debug, Default)]
pub(crate) struct Split {
    /// Timed invocations.
    n: u64,
    /// Total invocation time.
    invoke: u64,
    /// Time inside the transport's send.
    send: u64,
    /// Time blocked on the reply.
    wait: u64,
    /// Each invocation's reply wait, in order.
    pub(crate) waits: Vec<u64>,
}

impl Split {
    /// Adds one invocation of `invoke_ns` whose transport share `conn`
    /// accumulated.
    pub fn add(&mut self, invoke_ns: u64, conn: &TimedConn) {
        let (send, wait) = conn.take();
        self.n += 1;
        self.invoke += invoke_ns;
        self.send += send;
        self.wait += wait;
        self.waits.push(wait);
    }

    fn mean(&self, v: u64) -> f64 {
        v as f64 / self.n.max(1) as f64
    }

    /// Mean send, mean reply wait and mean client self time (invoke
    /// minus both); the three sum exactly to the mean invocation time.
    pub fn means(&self) -> (f64, f64, f64) {
        (
            self.mean(self.send),
            self.mean(self.wait),
            self.mean(self.invoke.saturating_sub(self.send + self.wait)),
        )
    }
}
