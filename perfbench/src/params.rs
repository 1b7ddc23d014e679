//! Fixed benchmark parameters. None of these is re-derived from a
//! measurement at run time: a run that cannot meet them reports worse
//! numbers instead of moving the goal posts.

use std::time::Duration;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Share of a run spent warming up before anything is timed.
pub const WARMUP_SHARE: f64 = 0.08;

/// Latency samples per chunk of a `Series`; 2000 leave 20 beyond the
/// 99th percentile.
pub const CHUNK: usize = 2000;

/// Quantile over a `Series`' per-chunk values that is reported.
pub const QUIET_QUANTILE: f64 = 0.05;

// ---- fig11_small -------------------------------------------------------

/// Payload of every `fig11_small` request (the smallest Fig. 11 point).
pub const FIG11_PAYLOAD: usize = 32;

// ---- local_banded ------------------------------------------------------

/// Share of the run spent on the Fig. 6 round trips (phase 1); the rest
/// is split evenly between the nominal and overload steps of phase 2.
pub const LOCAL_FIG6_SHARE: f64 = 0.4;
/// Rounds of phase 1, nominal step and overload step, in turn.
pub const LOCAL_ROUNDS: usize = 5;
/// Service time the Sink handler burns per message.
pub const LOCAL_SERVICE: Duration = Duration::from_micros(40);
/// Fixed nominal offered rate, messages/s.
pub const LOCAL_NOMINAL_RPS: f64 = 8_000.0;
/// Fixed overload offered rate, messages/s: twice the ~21 k msg/s the
/// Sink drains on a 2-core x86-64 host (`rate_rps` of this workload).
pub const LOCAL_OVERLOAD_RPS: f64 = 42_000.0;
/// Share of messages sent in the high band.
pub const LOCAL_HIGH_SHARE: f64 = 0.2;
/// Priorities of the two bands (admission floors 10 and 40).
pub const LOCAL_LOW_PRIO: u8 = 0;
/// High-band priority.
pub const LOCAL_HIGH_PRIO: u8 = 50;
/// A high-band message completing later than this after its due time
/// counts toward `high_miss_permille`.
pub const LOCAL_HIGH_DEADLINE: Duration = Duration::from_millis(2);
