//! `offline-batch`: in-process closed loop with no server and no sockets.
//! Each round runs one B=32 slab through each of five models: f32 and i16
//! operators at 512×512 k=16 and at 2048×1024 k=128, and the circulant
//! CIFAR net.

use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn_core::{
    default_batch_threads, BlockCirculantMatrix, QuantWorkspace, QuantizedOperator, Workspace,
};
use circnn_nn::{InferScratch, Sequential};
use circnn_tensor::Tensor;

use crate::bench::{Sample, Session, Workload};
use crate::models::{self, CIFAR_SHAPE, FC, WIDE};
use crate::oracle::{self, near_naive, Checker, Pool};
use crate::report::{Counts, Rng};
use crate::trace;

pub const BATCH: usize = 32;
const POOL: usize = 64;

/// Span of each model's slab call, in round order.
const CALLS: [&str; 5] = [
    "core.512x512k16.f32.forward_batch_into",
    "core.512x512k16.i16.infer_batch_into",
    "core.2048x1024k128.f32.forward_batch_into",
    "core.2048x1024k128.i16.infer_batch_into",
    "nn.cifar.infer",
];

/// References in round order: f32 FC, i16 FC, f32 wide, i16 wide, CIFAR.
pub struct Pools([Pool; 5]);

pub struct Offline {
    pools: Arc<Pools>,
    checker: Arc<Checker>,
    ops: [BlockCirculantMatrix; 2],
    quant: [QuantizedOperator; 2],
    net: Sequential,
    ws: Workspace,
    qws: QuantWorkspace,
    scratch: InferScratch,
    rng: Rng,
    warm: Counts,
    x: Vec<f32>,
    y: Vec<f32>,
    picks: Vec<usize>,
}

impl Offline {
    /// Runs model `model` on one slab of pool inputs; returns the time of
    /// the call alone and checks every output row.
    fn slab(&mut self, model: usize, root: u64, round: u64, counts: &mut Counts) -> Duration {
        let pool = &self.pools.0[model];
        self.picks.clear();
        self.x.clear();
        for _ in 0..BATCH {
            let i = self.rng.below(POOL);
            self.picks.push(i);
            self.x.extend_from_slice(&pool.inputs[i]);
        }
        let out_len = pool.expected[0].len();
        self.y.resize(BATCH * out_len, 0.0);
        let threads = default_batch_threads();
        let start = Instant::now();
        {
            let _span = trace::span(CALLS[model], root, round);
            match model {
                0 | 2 => self.ops[model / 2]
                    .forward_batch_into(&self.x, BATCH, &mut self.ws, &mut self.y)
                    .expect("slab matches the operator"),
                1 | 3 => self.quant[model / 2]
                    .infer_batch_into(&self.x, BATCH, &mut self.qws, &mut self.y, threads)
                    .expect("slab matches the operator"),
                _ => {
                    let mut dims = vec![BATCH];
                    dims.extend_from_slice(&CIFAR_SHAPE);
                    let input = Tensor::from_vec(std::mem::take(&mut self.x), &dims);
                    let y = self.net.infer(&input, &mut self.scratch);
                    self.x = input.into_vec();
                    self.y.copy_from_slice(y.data());
                }
            }
        }
        let took = start.elapsed();
        let _span = trace::span("oracle.check", root, round);
        // Row 0 of each operator slab is also held against `matvec_naive`;
        // the i16 rows may differ from it by their quantization bound.
        let naive_slack = match model {
            0 | 2 => Some(0.0),
            1 | 3 => Some(self.quant[model / 2].error_bound()),
            _ => None,
        };
        for (b, &i) in self.picks.iter().enumerate() {
            let row = &mut self.y[b * out_len..(b + 1) * out_len];
            let mut good = self.checker.check(&pool.expected[i], row);
            if let (0, Some(slack)) = (b, naive_slack) {
                good &= near_naive(row, &pool.naive[i], slack);
            }
            counts.sent += 1;
            if good {
                counts.ok += 1;
            } else {
                counts.wrong += 1;
            }
        }
        took
    }

    /// One round over the five models: its busy time and per-sample counts.
    fn round(&mut self, round: u64) -> (Duration, Counts) {
        let root = trace::reserve_id();
        let start = Instant::now();
        let mut counts = Counts::default();
        let mut busy = Duration::ZERO;
        for model in 0..CALLS.len() {
            busy += self.slab(model, root, round, &mut counts);
        }
        trace::record(root, 0, round, "round", start, Instant::now());
        (busy, counts)
    }
}

impl Workload for Offline {
    type Pools = Pools;
    const LIMIT_MS: f64 = 60.0;

    fn pools(seed: u64) -> (Arc<Pools>, u64) {
        let mut rng = Rng::new(seed);
        let mut wrong = 0;
        let mut pools = Vec::new();
        for shape in [FC, WIDE] {
            let op = shape.operator();
            let (p, w) =
                oracle::operator_pool(&op, (0..POOL).map(|_| rng.signal(shape.n)).collect());
            let (q, wq) = oracle::quant_pool(&models::quantize(&op), &p);
            wrong += w + wq;
            pools.push(p);
            pools.push(q);
        }
        let len: usize = CIFAR_SHAPE.iter().product();
        pools.push(oracle::net_pool(
            &models::cifar(),
            &CIFAR_SHAPE,
            (0..POOL).map(|_| rng.signal(len)).collect(),
        ));
        let pools: [Pool; 5] = pools.try_into().expect("five pools");
        (Arc::new(Pools(pools)), wrong)
    }

    fn setup(pools: &Arc<Pools>, seed: u64, checker: &Arc<Checker>) -> Self {
        let ops = [FC.operator(), WIDE.operator()];
        let quant = [models::quantize(&ops[0]), models::quantize(&ops[1])];
        let mut w = Self {
            pools: Arc::clone(pools),
            checker: Arc::clone(checker),
            ops,
            quant,
            net: models::cifar(),
            ws: Workspace::new(),
            qws: QuantWorkspace::new(),
            scratch: InferScratch::new(),
            rng: Rng::new(seed ^ 0x5e55_1011),
            warm: Counts::default(),
            x: Vec::new(),
            y: Vec::new(),
            picks: Vec::new(),
        };
        let (_, counts) = w.round(0);
        w.warm = counts;
        w
    }

    fn warm(&self) -> Counts {
        self.warm
    }

    fn session(&mut self, seconds: f64) -> Session {
        let mut s = Session::default();
        let start = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let mut round = 1;
        while start.elapsed() < budget {
            let (busy, counts) = self.round(round);
            round += 1;
            let ms = busy.as_secs_f64() * 1e3;
            s.counts.add(counts);
            if ms > Self::LIMIT_MS || counts.ok < counts.sent {
                s.late += counts.sent;
            }
            if counts.ok == counts.sent {
                s.samples.push(Sample {
                    at: Instant::now(),
                    ms,
                    outputs: counts.ok,
                });
            }
        }
        s.busy_s = start.elapsed().as_secs_f64();
        s
    }

    fn shutdown(self) {}
}
