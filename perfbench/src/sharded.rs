//! `sharded-b1`: closed loop, one single-sample request in flight on one
//! connection: client → `RouterServer` → two shard `EventServer`s, each
//! holding a row slice of the 512×512 k=16 operator.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn_serve::ServeStats;
use circnn_shard::topology::segment_ranges;
use circnn_shard::{split_operator, ClusterSpec, RouterConfig, RouterServer, ShardRouter};
use circnn_wire::frame;
use circnn_wire::{EventConfig, EventServer, ModelRegistry, WireConfig};

use crate::bench::{time_calls, Sample, Session, Workload};
use crate::client::{self, Answer};
use crate::metrics::{Metrics, ServeDelta};
use crate::models::FC;
use crate::open_mixed::tenant_config;
use crate::oracle::{self, Checker, Pool};
use crate::report::{Counts, Rng};
use crate::trace;

const MODEL: &str = "fc";
const SHARDS: usize = 2;
const POOL: usize = 64;
const WARM: usize = 32;
/// How long the traced run calls the router in process.
const DIRECT: Duration = Duration::from_secs(1);

pub struct Sharded {
    pool: Arc<Pool>,
    checker: Arc<Checker>,
    shards: Vec<(Arc<ModelRegistry>, EventServer)>,
    router: Arc<ShardRouter>,
    front: RouterServer,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    rng: Rng,
    next_id: u64,
    warm: Counts,
    /// Median client latency of the last session, µs.
    last_client_us: f64,
    frame: Vec<u8>,
    out: Vec<u8>,
}

impl Sharded {
    /// One request through the router, checked; returns whether it was
    /// answered correctly (`Some(false)` for a wrong answer, `None` when
    /// it failed).
    fn call(&mut self, input: usize) -> Option<bool> {
        let id = self.next_id;
        self.next_id += 1;
        let root = trace::reserve_id();
        let start = Instant::now();
        self.out.clear();
        client::encode(
            id,
            MODEL,
            &self.pool.inputs[input],
            root,
            &mut self.frame,
            &mut self.out,
        );
        {
            let _span = trace::span("wire.write_frame", root, id);
            frame::write_frame(&mut self.writer, &self.out).ok()?;
        }
        {
            let _span = trace::span("wire.read_frame", root, id);
            frame::read_frame(&mut self.reader, &mut self.frame).ok()?;
        }
        let (reply_id, answer, dec_start, dec_end) = client::decode(&self.frame);
        trace::record(
            trace::reserve_id(),
            root,
            id,
            "wire.decode",
            dec_start,
            dec_end,
        );
        let good = match answer {
            Answer::Output(mut y) if reply_id == Some(id) => {
                let _span = trace::span("oracle.check", root, id);
                self.checker.check(&self.pool.expected[input], &mut y)
            }
            Answer::Refused => return None,
            _ => false,
        };
        trace::record(root, 0, id, "request", start, Instant::now());
        Some(good)
    }

    fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards
            .iter()
            .map(|(r, _)| r.stats(MODEL).expect("segment is registered"))
            .collect()
    }
}

fn tally(counts: &mut Counts, outcome: Option<bool>) {
    counts.sent += 1;
    match outcome {
        Some(true) => counts.ok += 1,
        Some(false) => counts.wrong += 1,
        None => counts.failed += 1,
    }
}

impl Workload for Sharded {
    type Pools = Pool;
    const LIMIT_MS: f64 = 10.0;

    fn pools(seed: u64) -> (Arc<Pool>, u64) {
        let mut rng = Rng::new(seed);
        let (pool, wrong) = oracle::operator_pool(
            &FC.operator(),
            (0..POOL).map(|_| rng.signal(FC.n)).collect(),
        );
        (Arc::new(pool), wrong)
    }

    fn setup(pool: &Arc<Pool>, seed: u64, checker: &Arc<Checker>) -> Self {
        let op = FC.operator();
        let slices = split_operator(&op, SHARDS).expect("splitting the operator");
        let ranges = segment_ranges(&slices);
        let mut shards = Vec::new();
        for slice in slices {
            let registry = Arc::new(ModelRegistry::new(1).expect("one worker"));
            registry
                .add_segment(MODEL, slice, tenant_config())
                .expect("registering a segment");
            let server =
                EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default())
                    .expect("binding a shard server");
            shards.push((registry, server));
        }
        let addrs: Vec<_> = shards.iter().map(|(_, s)| s.local_addr()).collect();
        let router = Arc::new(
            ShardRouter::new(
                &ClusterSpec::single_replica(&addrs),
                RouterConfig::default(),
            )
            .expect("building the router"),
        );
        router
            .add_sharded_model(MODEL, op.cols(), &ranges)
            .expect("registering the sharded model");
        let front = RouterServer::bind("127.0.0.1:0", Arc::clone(&router), WireConfig::default())
            .expect("binding the router server");
        let writer = client::connect(front.local_addr());
        let reader = BufReader::new(writer.try_clone().expect("cloning the socket"));
        let mut w = Self {
            pool: Arc::clone(pool),
            checker: Arc::clone(checker),
            shards,
            router,
            front,
            writer,
            reader,
            rng: Rng::new(seed ^ 0x5e55_1011),
            next_id: 1,
            warm: Counts::default(),
            last_client_us: 0.0,
            frame: Vec::new(),
            out: Vec::new(),
        };
        for i in 0..WARM {
            let outcome = w.call(i % POOL);
            tally(&mut w.warm, outcome);
        }
        w
    }

    fn warm(&self) -> Counts {
        self.warm
    }

    fn session(&mut self, seconds: f64) -> Session {
        let before = self.shard_stats();
        let mut s = Session::default();
        let start = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        while start.elapsed() < budget {
            let input = self.rng.below(POOL);
            let t = Instant::now();
            let outcome = self.call(input);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tally(&mut s.counts, outcome);
            if outcome == Some(true) {
                s.samples.push(Sample {
                    at: Instant::now(),
                    ms,
                    outputs: 1,
                });
                s.late += u64::from(ms > Self::LIMIT_MS);
            } else {
                s.late += 1;
            }
            if outcome.is_none() {
                // A failed exchange leaves the connection unusable.
                self.writer = client::connect(self.front.local_addr());
                self.reader = BufReader::new(self.writer.try_clone().expect("cloning the socket"));
            }
        }
        s.busy_s = start.elapsed().as_secs_f64();
        let after = self.shard_stats();

        let legs: Vec<ServeDelta> = before
            .iter()
            .zip(&after)
            .map(|(b, a)| ServeDelta::between(b, a))
            .collect();
        let mut all = ServeDelta::default();
        legs.iter().for_each(|d| all.add(d));
        all.write(MODEL, &mut s.layer);
        self.last_client_us = s.p50_ms() * 1e3;
        let leg_latency = legs.iter().map(ServeDelta::latency_us).sum::<f64>() / legs.len() as f64;
        let leg_model =
            legs.iter().map(ServeDelta::model_us_per_batch).sum::<f64>() / legs.len() as f64;
        let connections = self.front.connection_count()
            + self
                .shards
                .iter()
                .map(|(_, s)| s.connection_count())
                .sum::<usize>();
        let l = &mut s.layer;
        l.insert(
            "wire.bytes_per_req".into(),
            (self.out.len() + self.frame.len()) as f64,
        );
        l.insert("wire.outside_us".into(), self.last_client_us - leg_latency);
        l.insert("wire.connections".into(), connections as f64);
        l.insert("shard.leg_model_us".into(), leg_model);
        l.insert(
            "shard.legs_per_req".into(),
            all.requests() / s.counts.ok.max(1) as f64,
        );
        l.insert("bench.backlog_max".into(), 1.0);
        s
    }

    /// Times `ShardRouter::infer` in process, so the router server's own
    /// share of the client latency shows as `shard.front_us`.
    fn trace_extra(&mut self, out: &mut Metrics) -> Counts {
        let mut rng = self.rng.clone();
        let mut replies = Vec::new();
        let router_us = time_calls("shard.router_infer", DIRECT, || {
            let input = rng.below(POOL);
            replies.push((input, self.router.infer(MODEL, &self.pool.inputs[input])));
        });
        let mut counts = Counts::default();
        for (input, reply) in replies {
            let outcome = reply
                .ok()
                .map(|mut y| self.checker.check(&self.pool.expected[input], &mut y));
            tally(&mut counts, outcome);
        }
        out.insert("shard.router_us".into(), router_us);
        out.insert("shard.front_us".into(), self.last_client_us - router_us);
        counts
    }

    fn shutdown(self) {
        drop(self.writer);
        drop(self.reader);
        self.front.shutdown();
        drop(self.router);
        for (registry, server) in self.shards {
            server.shutdown();
            if let Ok(registry) = Arc::try_unwrap(registry) {
                registry.shutdown();
            }
        }
    }
}
