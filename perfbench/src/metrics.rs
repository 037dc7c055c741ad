//! The metric catalog. Its names are the ones `BENCHMARK.json` lists; a
//! test keeps the two in step.

use std::collections::BTreeMap;

use circnn_serve::ServeStats;

use crate::models;

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// The bounded end-to-end metrics (measured with tracing off).
pub const END_TO_END: [&str; 4] = ["setup_s", "p50_ms", "throughput_per_s", "peak_rss_mb"];

/// Tenants of the open-loop server. The sharded workload reports its
/// shard legs under `fc` (they serve row slices of the same operator).
pub const TENANTS: [&str; 3] = ["fc", "fc_i16", "lenet"];

const SERVE: [(&str, &str); 10] = [
    ("occupancy", "count"),
    ("full_flush_share", "ratio"),
    ("timeout_flush_share", "ratio"),
    ("model_us_per_batch", "us"),
    ("latency_us", "us"),
    ("wait_us", "us"),
    ("rejected", "count"),
    ("shed", "count"),
    ("expired", "count"),
    ("panics", "count"),
];

const CORE: [(&str, &str); 6] = [
    ("f32_us_per_sample.b1", "us"),
    ("f32_us_per_sample.b32", "us"),
    ("i16_us_per_sample.b1", "us"),
    ("i16_us_per_sample.b32", "us"),
    ("i16_vs_f32", "ratio"),
    ("matvec_us_per_sample", "us"),
];

/// `nn.<net>.layer<i>.<kind>_us` for every layer of `net`.
pub fn layer_names(label: &str, net: &circnn_nn::Sequential) -> Vec<String> {
    net.iter()
        .enumerate()
        .map(|(i, l)| format!("nn.{label}.layer{i}.{}_us", l.name().to_lowercase()))
        .collect()
}

/// Every per-layer metric with its unit, in a fixed order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("wire.encode_us", "us"),
        ("wire.decode_us", "us"),
        ("wire.bytes_per_req", "bytes"),
        ("wire.outside_us", "us"),
        ("wire.connections", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for t in TENANTS {
        out.extend(SERVE.iter().map(|&(n, u)| (format!("serve.{t}.{n}"), u)));
    }
    for (n, u) in [
        ("shard.router_us", "us"),
        ("shard.front_us", "us"),
        ("shard.leg_model_us", "us"),
        ("shard.legs_per_req", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    for shape in [models::FC, models::WIDE] {
        out.extend(
            CORE.iter()
                .map(|&(n, u)| (format!("core.{}.{n}", shape.label), u)),
        );
    }
    for (label, net) in [("lenet", models::lenet()), ("cifar", models::cifar())] {
        out.extend(layer_names(label, &net).into_iter().map(|n| (n, "us")));
        out.push((format!("nn.{label}.infer_us"), "us"));
        out.push((format!("nn.{label}.sum_vs_whole"), "ratio"));
    }
    for (n, u) in [
        ("fft.forward_us", "us"),
        ("fft.inverse_us", "us"),
        ("bench.gen_lag_p99_ms", "ms"),
        ("bench.backlog_max", "count"),
        ("bench.sent", "count"),
        ("bench.ok", "count"),
        ("bench.failed", "count"),
        ("bench.wrong", "count"),
        ("bench.late_share", "ratio"),
        ("bench.failed_share", "ratio"),
        ("bench.trace_overhead_share", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Before/after difference of one or more tenants' serving statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeDelta {
    requests: f64,
    batches: f64,
    full: f64,
    timeout: f64,
    infer_us: f64,
    latency_us: f64,
    rejected: f64,
    shed: f64,
    expired: f64,
    panics: f64,
}

impl ServeDelta {
    pub fn between(before: &ServeStats, after: &ServeStats) -> Self {
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        Self {
            requests: d(after.requests, before.requests),
            batches: d(after.batches, before.batches),
            full: d(after.full_flushes, before.full_flushes),
            timeout: d(after.timeout_flushes, before.timeout_flushes),
            infer_us: after.mean_infer_us * after.batches as f64
                - before.mean_infer_us * before.batches as f64,
            latency_us: after.mean_latency_us * after.requests as f64
                - before.mean_latency_us * before.requests as f64,
            rejected: d(after.rejected, before.rejected),
            shed: d(after.shed, before.shed),
            expired: d(after.expired, before.expired),
            panics: d(after.panics, before.panics),
        }
    }

    pub fn add(&mut self, o: &ServeDelta) {
        self.requests += o.requests;
        self.batches += o.batches;
        self.full += o.full;
        self.timeout += o.timeout;
        self.infer_us += o.infer_us;
        self.latency_us += o.latency_us;
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.expired += o.expired;
        self.panics += o.panics;
    }

    pub fn requests(&self) -> f64 {
        self.requests
    }

    /// Mean model time of one batch (µs).
    pub fn model_us_per_batch(&self) -> f64 {
        self.infer_us / self.batches.max(1.0)
    }

    /// Mean server-side latency of one request, submit to reply (µs).
    pub fn latency_us(&self) -> f64 {
        self.latency_us / self.requests.max(1.0)
    }

    /// Writes the `serve.<tenant>.*` metrics. `wait_us` is the mean latency
    /// minus the mean model time of a batch: time spent queued or waiting
    /// for the batch to fill.
    pub fn write(&self, tenant: &str, out: &mut Metrics) {
        let batches = self.batches.max(1.0);
        let values = [
            ("occupancy", self.requests / batches),
            ("full_flush_share", self.full / batches),
            ("timeout_flush_share", self.timeout / batches),
            ("model_us_per_batch", self.model_us_per_batch()),
            ("latency_us", self.latency_us()),
            ("wait_us", self.latency_us() - self.model_us_per_batch()),
            ("rejected", self.rejected),
            ("shed", self.shed),
            ("expired", self.expired),
            ("panics", self.panics),
        ];
        for (n, v) in values {
            out.insert(format!("serve.{tenant}.{n}"), v);
        }
    }
}
