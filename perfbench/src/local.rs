//! `local_banded`: in-process component dispatch, no sockets.
//!
//! Phase 1 runs the paper's Fig. 6 assembly (synchronous ports) in a
//! closed loop, alternating between an instance whose Client and Server
//! components are kept alive and one that materializes them per message.
//! Phase 2 is open loop: a Source feeds a Sink through an asynchronous
//! in-port under `AdmissionPolicy::banded()`, the Sink burning a fixed
//! service time, 20 % of messages in the high band, first at a fixed
//! nominal rate and then at a fixed 2x overload rate. Only
//! `compadres-core`, `rtsched` and `rtmem` run here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use compadres_bench::{DispatchMode, Fig6App};
use compadres_core::{
    AdmissionPolicy, App, AppBuilder, ChildHandle, CompadresError, HandlerCtx, Priority,
};
use rtplatform::rng::SplitMix64;

use crate::{median, ns, pace, params, quantile, timed_reps, AppsSnap, Report, Series, Snap};

/// One unit of phase-2 work.
#[derive(Debug, Default, Clone)]
struct Work {
    seq: u64,
    high: bool,
    /// Due and send instants, nanoseconds since the run's epoch.
    due_ns: u64,
    sent_ns: u64,
}

/// What the Sink saw of one message.
#[derive(Debug, Clone, Copy)]
struct Done {
    seq: u64,
    high: bool,
    due_ns: u64,
    sent_ns: u64,
    entry_ns: u64,
    done_ns: u64,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Work</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>Work</PortName><PortType>In</PortType><MessageType>Work</MessageType></Port>
  </Component>
</Components>"#;

const CCL: &str = r#"
<Application>
  <ApplicationName>BandedDispatch</ApplicationName>
  <Component>
    <InstanceName>TheSource</InstanceName>
    <ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>Out</PortName>
        <Link><PortType>Internal</PortType><ToComponent>TheSink</ToComponent><ToPort>Work</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>TheSink</InstanceName>
      <ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>Work</PortName>
          <PortAttributes>
            <BufferSize>256</BufferSize>
            <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>8000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

/// The Source → Sink app, started, with the Sink kept resident.
pub(crate) struct Banded {
    _sink: ChildHandle,
    app: App,
    epoch: Instant,
    done: Arc<Mutex<Vec<Done>>>,
}

/// Wall time of each set-up stage of the banded app, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetupTimes {
    /// `AppBuilder::from_xml`: parse and validate the documents.
    pub(crate) parse: u64,
    /// Bind the message type, register the handler, build.
    pub(crate) build: u64,
    /// `App::start` plus connecting the Sink.
    pub(crate) start: u64,
}

impl Banded {
    /// Builds and starts the app, timing each stage.
    ///
    /// # Errors
    ///
    /// Parse, validation or start-up failures.
    pub(crate) fn new() -> Result<(Banded, SetupTimes), CompadresError> {
        let epoch = Instant::now();
        let done: Arc<Mutex<Vec<Done>>> = Arc::default();
        let sink = Arc::clone(&done);
        let t = Instant::now();
        let builder = AppBuilder::from_xml(CDL, CCL)?;
        let parse = ns(t.elapsed());
        let t = Instant::now();
        let app = builder
            .bind_message_type::<Work>("Work")
            .port_admission("TheSink", "Work", AdmissionPolicy::banded(10, 40))
            .register_handler("Sink", "Work", move || {
                let sink = Arc::clone(&sink);
                move |msg: &mut Work, _ctx: &mut HandlerCtx<'_>| {
                    let entry_ns = ns(epoch.elapsed());
                    let spin = Instant::now();
                    while spin.elapsed() < params::LOCAL_SERVICE {
                        std::hint::spin_loop();
                    }
                    let done = Done {
                        seq: msg.seq,
                        high: msg.high,
                        due_ns: msg.due_ns,
                        sent_ns: msg.sent_ns,
                        entry_ns,
                        done_ns: ns(epoch.elapsed()),
                    };
                    sink.lock().expect("sink log poisoned").push(done);
                    Ok(())
                }
            })
            .build()?;
        let build = ns(t.elapsed());
        let t = Instant::now();
        app.start()?;
        let sink_handle = app.connect("TheSink")?;
        let start = ns(t.elapsed());
        Ok((
            Banded {
                _sink: sink_handle,
                app,
                epoch,
                done,
            },
            SetupTimes {
                parse,
                build,
                start,
            },
        ))
    }
}

/// Everything the workload sets up.
struct Local {
    kept: Fig6App,
    ephemeral: Fig6App,
    banded: Banded,
}

impl Local {
    fn new() -> Result<Local, String> {
        let fig6 = |keep| {
            catch_unwind(|| Fig6App::new(DispatchMode::Synchronous, keep))
                .map_err(|_| "Fig. 6 app failed to build".to_string())
        };
        Ok(Local {
            kept: fig6(true)?,
            ephemeral: fig6(false)?,
            banded: Banded::new().map_err(|e| e.to_string())?.0,
        })
    }
}

/// The outcome of one open-loop step of phase 2. Per-band arrays are
/// indexed low = 0, high = 1.
#[derive(Default)]
struct Step {
    /// High-band latency from due time to handler completion, in
    /// completion order.
    high_lat: Vec<u64>,
    /// Sink entry minus send stamp, per band.
    high_wait: Vec<u64>,
    low_wait: Vec<u64>,
    /// Messages offered per band.
    offered: [u64; 2],
    /// Messages shed or rejected per band.
    shed: [u64; 2],
    /// Messages the Sink processed.
    processed: u64,
    /// Wall time from the first due instant to the last completion.
    wall: Duration,
    /// Generator lateness of each send.
    late: Vec<u64>,
    /// Total time inside `send`.
    send_ns: u64,
}

impl Step {
    /// Appends another step of the same rate.
    fn merge(&mut self, o: Step) {
        self.high_lat.extend(o.high_lat);
        self.high_wait.extend(o.high_wait);
        self.low_wait.extend(o.low_wait);
        self.late.extend(o.late);
        for band in 0..2 {
            self.offered[band] += o.offered[band];
            self.shed[band] += o.shed[band];
        }
        self.processed += o.processed;
        self.wall += o.wall;
        self.send_ns += o.send_ns;
    }
}

impl Banded {
    /// Offers `rate` messages/s for `dur`, high band by `rng`, and checks
    /// conservation once the Sink is quiescent: every admitted message
    /// processed exactly once, none of the shed ones.
    fn step(&self, rng: &mut SplitMix64, rate: f64, dur: Duration, report: &mut Report) -> Step {
        let interval = Duration::from_secs_f64(1.0 / rate);
        let n = (dur.as_secs_f64() * rate).ceil().max(1.0) as u64;
        let highs: Vec<bool> = (0..n)
            .map(|_| rng.chance(params::LOCAL_HIGH_SHARE))
            .collect();
        let before = self.app.stats();
        let mut s = Step::default();
        let mut admitted = vec![false; n as usize];
        let first_due = Instant::now() + Duration::from_millis(2);
        let epoch = self.epoch;
        let sent = self.app.with_component("TheSource", |ctx| {
            let mut failed = 0u64;
            for (i, &high) in highs.iter().enumerate() {
                let due = first_due + interval * i as u32;
                pace(due);
                s.late.push(ns(Instant::now() - due));
                let band = usize::from(high);
                s.offered[band] += 1;
                let Ok(mut msg) = ctx.get_message::<Work>("Out") else {
                    failed += 1;
                    continue;
                };
                msg.seq = i as u64;
                msg.high = high;
                msg.due_ns = ns(due - epoch);
                let prio = if high {
                    params::LOCAL_HIGH_PRIO
                } else {
                    params::LOCAL_LOW_PRIO
                };
                let t = Instant::now();
                msg.sent_ns = ns(t - epoch);
                let r = ctx.send("Out", msg, Priority::new(prio));
                s.send_ns += ns(t.elapsed());
                match r {
                    Ok(()) => admitted[i] = true,
                    Err(CompadresError::Shed { .. } | CompadresError::BufferFull { .. }) => {
                        s.shed[band] += 1;
                    }
                    Err(_) => failed += 1,
                }
            }
            failed
        });
        let failed = match sent {
            Ok(f) => f,
            Err(e) => {
                report.problem(format!("source did not run: {e}"));
                n
            }
        };
        // The port's in-flight count drops when a worker dequeues a
        // message, before its handler runs, so also wait for the log and
        // the processed counter to catch up with what was admitted.
        let admitted_n = admitted.iter().filter(|a| **a).count() as u64;
        let drain_by = Instant::now() + Duration::from_secs(10);
        let drained = self.app.wait_quiescent(Duration::from_secs(10))
            && loop {
                let logged = self.done.lock().expect("sink log poisoned").len() as u64;
                let processed = self.app.stats().messages_processed - before.messages_processed;
                if logged >= admitted_n && processed >= admitted_n {
                    break true;
                }
                if Instant::now() >= drain_by {
                    break false;
                }
                std::thread::sleep(Duration::from_micros(200));
            };
        if !drained {
            report.problem("sink did not drain within 10 s");
        }
        let done = std::mem::take(&mut *self.done.lock().expect("sink log poisoned"));
        let after = self.app.stats();
        // Conservation: processed = sent - shed - rejected, each admitted
        // message exactly once.
        let mut seen = vec![false; n as usize];
        let mut lost_or_extra = 0u64;
        let mut last_done = 0;
        for d in &done {
            last_done = last_done.max(d.done_ns);
            let i = d.seq as usize;
            if i >= seen.len() || seen[i] || !admitted[i] {
                lost_or_extra += 1;
                continue;
            }
            seen[i] = true;
            let wait = d.entry_ns.saturating_sub(d.sent_ns);
            if d.high {
                s.high_lat.push(d.done_ns.saturating_sub(d.due_ns));
                s.high_wait.push(wait);
            } else {
                s.low_wait.push(wait);
            }
        }
        s.wall = Duration::from_nanos(last_done.saturating_sub(ns(first_due - epoch)));
        lost_or_extra += admitted
            .iter()
            .zip(&seen)
            .filter(|(a, s)| **a && !**s)
            .count() as u64;
        let processed = after.messages_processed - before.messages_processed;
        if processed != admitted_n || done.len() as u64 != admitted_n {
            report.problem(format!(
                "conservation: offered {n}, admitted {admitted_n}, sink logged {}, processed {processed}",
                done.len()
            ));
        }
        if after.handler_errors + after.handler_panics
            > before.handler_errors + before.handler_panics
        {
            report.problem("sink handler failed");
        }
        report.attempted += n;
        report.failed += failed + lost_or_extra;
        s.processed = processed;
        s
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub(crate) fn run(seed: u64, dur: Duration, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, local) = timed_reps(params::SETUP_REPS, Local::new)?;
    report.set("setup_s", setup_s);
    let mut rng = SplitMix64::new(seed);

    let apps = [local.kept.app(), local.ephemeral.app()];
    let round_trip = |app: &Fig6App, report: &mut Report| -> Option<u64> {
        let r = catch_unwind(AssertUnwindSafe(|| app.round_trip())).ok();
        report.op(r.is_some());
        r.map(ns)
    };
    let warm_end = Instant::now() + dur.mul_f64(params::WARMUP_SHARE);
    while Instant::now() < warm_end {
        round_trip(&local.kept, &mut report);
        round_trip(&local.ephemeral, &mut report);
    }
    let before = AppsSnap::take(&apps);
    let processed_before = apps.map(|a| a.stats().messages_processed);
    let sched_before = Snap::take(local.banded.app.observer());
    // The phases alternate in rounds, so each one samples the whole run
    // and not only the host's state during one part of it.
    let fig6_slice = dur.mul_f64(params::LOCAL_FIG6_SHARE / params::LOCAL_ROUNDS as f64);
    let step_dur = dur.mul_f64(
        (1.0 - params::WARMUP_SHARE - params::LOCAL_FIG6_SHARE) / 2.0 / params::LOCAL_ROUNDS as f64,
    );
    let (mut kept, mut ephemeral) = (Series::default(), Series::default());
    let (mut nominal, mut overload) = (Step::default(), Step::default());
    for _ in 0..params::LOCAL_ROUNDS {
        // Phase 1: Fig. 6 round trips, kept alive vs materialized. The
        // seed decides which instance goes first in each pair.
        let end = Instant::now() + fig6_slice;
        while Instant::now() < end {
            let kept_first = rng.chance(0.5);
            for keep in [kept_first, !kept_first] {
                let (app, series) = if keep {
                    (&local.kept, &mut kept)
                } else {
                    (&local.ephemeral, &mut ephemeral)
                };
                if let Some(rtt) = round_trip(app, &mut report) {
                    series.push(rtt);
                }
            }
        }
        // Phase 2: banded admission, nominal then 2x overload.
        let banded = &local.banded;
        nominal.merge(banded.step(&mut rng, params::LOCAL_NOMINAL_RPS, step_dur, &mut report));
        overload.merge(banded.step(&mut rng, params::LOCAL_OVERLOAD_RPS, step_dur, &mut report));
    }
    // Every synchronous round trip runs exactly three handlers.
    for (i, (app, n)) in apps
        .iter()
        .zip([kept.count(), ephemeral.count()])
        .enumerate()
    {
        let processed = app.stats().messages_processed - processed_before[i];
        if processed != 3 * n {
            report.problem(format!(
                "Fig. 6 app {i}: {n} round trips ran {processed} handlers"
            ));
        }
    }
    let after = AppsSnap::take(&apps);
    let sched_after = Snap::take(local.banded.app.observer());
    sched_after.check_overflow(&sched_before, "banded app", &mut report);

    report.set("e2e.p99_us", Series::of(&overload.high_lat).p99() / 1e3);
    if !traced {
        report.set("p50_us", kept.p50() / 1e3);
        report.set("alt_p50_us", ephemeral.p50() / 1e3);
        report.set(
            "rate_rps",
            overload.processed as f64 / overload.wall.as_secs_f64(),
        );
        return Ok(report);
    }
    after.per_request(&before, kept.count() + ephemeral.count(), &mut report);
    let deadline = ns(params::LOCAL_HIGH_DEADLINE);
    let high_missed =
        overload.shed[1] + overload.high_lat.iter().filter(|&&l| l > deadline).count() as u64;
    report.set(
        "high_miss_permille",
        1000.0 * high_missed as f64 / overload.offered[1].max(1) as f64,
    );
    report.set(
        "low_shed_permille",
        1000.0 * overload.shed[0] as f64 / overload.offered[0].max(1) as f64,
    );
    let sends = nominal
        .offered
        .iter()
        .chain(&overload.offered)
        .sum::<u64>()
        .max(1);
    report.set(
        "core.send_ns",
        (nominal.send_ns + overload.send_ns) as f64 / sends as f64,
    );
    let med = |v: &[u64]| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
    report.set("core.queue_wait_high_ns", med(&overload.high_wait));
    report.set("core.queue_wait_low_ns", med(&overload.low_wait));
    let processed = (nominal.processed + overload.processed).max(1) as f64;
    let parks = sched_after.delta_matching(&sched_before, "rtsched_", "_park_transitions_total");
    let spins = sched_after.delta_matching(&sched_before, "rtsched_", "_spin_transitions_total");
    report.set("rtsched.park_per_msg", parks as f64 / processed);
    report.set("rtsched.spin_per_msg", spins as f64 / processed);
    let mut late: Vec<u64> = nominal.late.iter().chain(&overload.late).copied().collect();
    late.sort_unstable();
    report.set("gen.late_p99_us", quantile(&late, 0.99) as f64 / 1e3);
    Ok(report)
}
