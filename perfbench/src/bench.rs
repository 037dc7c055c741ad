//! The run loop shared by every workload: repeated set-up, the measured
//! session(s), the traced run and the layer probes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::Metrics;
use crate::oracle::Checker;
use crate::report::{quantile, Counts};
use crate::steal::{self, Steal};
use crate::{probes, trace};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Longest wait for a calm host before the end-to-end session (bounds a
/// run's length when the host stays busy).
const CALM_WAIT: Duration = Duration::from_secs(15);

/// One correct request (offline: one round): when it completed, its
/// latency and the outputs it returned.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: Instant,
    pub ms: f64,
    pub outputs: u64,
}

/// One measured stretch of a workload.
#[derive(Debug, Default)]
pub struct Session {
    pub counts: Counts,
    pub samples: Vec<Sample>,
    /// Wall seconds the session's throughput is taken over.
    pub busy_s: f64,
    /// Requests that failed, were wrong or exceeded the latency limit.
    pub late: u64,
    /// Per-layer metrics the session measured itself (stats deltas, bytes).
    pub layer: Metrics,
}

impl Session {
    pub fn p50_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        quantile(&ms, 0.5)
    }
}

/// Samples per window of [`windowed_p99`]: each window's 99th percentile
/// has 10 samples beyond it.
const P99_WINDOW: usize = 1000;

/// The median, over consecutive windows of [`P99_WINDOW`] samples, of each
/// window's 99th percentile (a plain 99th percentile below two windows).
/// A few stalls then move one window, not the run's figure.
fn windowed_p99(ms: &[f64]) -> f64 {
    if ms.len() < 2 * P99_WINDOW {
        return quantile(ms, 0.99);
    }
    let per_window: Vec<f64> = ms
        .chunks_exact(P99_WINDOW)
        .map(|w| quantile(w, 0.99))
        .collect();
    quantile(&per_window, 0.5)
}

/// The end-to-end figures of a session.
#[derive(Debug, Default)]
pub struct Figures {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub throughput_per_s: f64,
    /// Latency samples the figures rest on.
    pub samples: usize,
    /// Whether they rest on the calm seconds alone.
    pub calm_only: bool,
}

/// Takes the figures over the session's calm seconds (see [`Steal`]), or
/// over all of it when the host's steal could not be read.
pub fn figures(s: &Session, steal: &Steal) -> Figures {
    let calm_only = steal.calm_seconds() > 0.0;
    let kept: Vec<&Sample> = s
        .samples
        .iter()
        .filter(|x| !calm_only || steal.is_calm(x.at))
        .collect();
    let ms: Vec<f64> = kept.iter().map(|x| x.ms).collect();
    let outputs: u64 = kept.iter().map(|x| x.outputs).sum();
    let seconds = if calm_only {
        steal.calm_seconds()
    } else {
        s.busy_s
    };
    Figures {
        p50_ms: quantile(&ms, 0.5),
        p99_ms: windowed_p99(&ms),
        throughput_per_s: outputs as f64 / seconds.max(1e-9),
        samples: ms.len(),
        calm_only,
    }
}

pub trait Workload: Sized {
    /// The seeded inputs with their references, built once per run before
    /// any set-up. Returns them with the count of references that failed
    /// their own checks.
    type Pools;

    /// Latency limit that `late_share` counts against, ms.
    const LIMIT_MS: f64;

    fn pools(seed: u64) -> (Arc<Self::Pools>, u64);

    /// Builds, registers, binds, connects and warms: everything up to the
    /// first timed request.
    fn setup(pools: &Arc<Self::Pools>, seed: u64, checker: &Arc<Checker>) -> Self;

    /// Requests of the warm-up inside [`Workload::setup`].
    fn warm(&self) -> Counts;

    fn session(&mut self, seconds: f64) -> Session;

    /// Extra layer measurements of the traced run, after its session.
    fn trace_extra(&mut self, _out: &mut Metrics) -> Counts {
        Counts::default()
    }

    fn shutdown(self);
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The workload's latency limit for `late_share`, ms.
    pub limit_ms: f64,
    pub setup_samples_s: Vec<f64>,
    pub warm: Counts,
    pub timed: Counts,
    pub probe: Counts,
    pub session: Session,
    /// Host steal during the end-to-end session, and how long the run
    /// waited for a calm host before it (untraced runs only).
    pub steal: Steal,
    pub calm_wait_s: f64,
    /// Per-layer metrics (traced runs only).
    pub layer: Metrics,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn setup_s(&self) -> f64 {
        quantile(&self.setup_samples_s, 0.5)
    }

    pub fn all(&self) -> Counts {
        let mut c = self.warm;
        c.add(self.timed);
        c.add(self.probe);
        c
    }
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Output to corrupt before its check (self-tests only).
    pub tamper: Option<u64>,
}

pub fn run<W: Workload>(args: &RunArgs) -> Outcome {
    let checker = Arc::new(Checker::new(args.tamper));
    let (pools, pool_wrong) = W::pools(args.seed);
    let mut out = Outcome {
        limit_ms: W::LIMIT_MS,
        ..Outcome::default()
    };
    out.warm.wrong += pool_wrong;
    let mut current: Option<W> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = current.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        let w = W::setup(&pools, args.seed, &checker);
        out.setup_samples_s.push(start.elapsed().as_secs_f64());
        out.warm.add(w.warm());
        current = Some(w);
    }
    let mut w = current.expect("at least one set-up");
    if !args.trace {
        out.calm_wait_s = steal::wait_for_calm(CALM_WAIT).as_secs_f64();
        let monitor = steal::Monitor::start();
        out.session = w.session(args.seconds);
        out.steal = monitor.finish();
        out.timed = out.session.counts;
    } else {
        // The traced run measures the same workload untraced, traced, then
        // untraced again, so drift over the run cancels out of the tracing
        // overhead (traced median latency over the untraced one).
        let mut plain = w.session(args.seconds / 4.0);
        trace::set_enabled(true);
        let traced = w.session(args.seconds / 2.0);
        trace::set_enabled(false);
        let plain_after = w.session(args.seconds / 4.0);
        plain.samples.extend(plain_after.samples);
        plain.counts.add(plain_after.counts);
        plain.late += plain_after.late;
        let mut layer = traced.layer.clone();
        trace::set_enabled(true);
        out.probe = w.trace_extra(&mut layer);
        probes::run(&mut layer);
        trace::set_enabled(false);
        out.spans = trace::take();
        layer_from_spans(&out.spans, &mut layer);
        out.timed = plain.counts;
        out.timed.add(traced.counts);
        let c = out.timed;
        let sent = c.sent.max(1) as f64;
        let late = plain.late + traced.late;
        for (name, v) in [
            ("bench.sent", c.sent as f64),
            ("bench.ok", c.ok as f64),
            ("bench.failed", c.failed as f64),
            ("bench.wrong", c.wrong as f64),
            ("bench.late_share", late as f64 / sent),
            ("bench.failed_share", c.failed as f64 / sent),
            (
                "bench.trace_overhead_share",
                traced.p50_ms() / plain.p50_ms() - 1.0,
            ),
        ] {
            layer.insert(name.to_string(), v);
        }
        out.layer = layer;
        out.session = traced;
    }
    w.shutdown();
    out
}

/// Per-layer metrics that come straight from span statistics.
fn layer_from_spans(spans: &[trace::Span], out: &mut Metrics) {
    let means = trace::mean_self_us(spans);
    let self_us = |name: &str| means.get(name).copied().unwrap_or(0.0);
    out.insert("wire.encode_us".into(), self_us("wire.encode"));
    out.insert("wire.decode_us".into(), self_us("wire.decode"));
}

/// Calls per timed call site: at least the first, at most the second.
const CALLS: (usize, usize) = (10, 2000);

/// Runs `f` back to back for `budget` inside spans named `name` and returns
/// the median call time in µs.
pub fn time_calls(name: &'static str, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < CALLS.0 || (start.elapsed() < budget && times.len() < CALLS.1) {
        let t = Instant::now();
        {
            let _span = trace::span(name, 0, 0);
            f();
        }
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    quantile(&times, 0.5)
}
