//! `open-mixed`: open-loop, seeded Poisson arrivals at a fixed rate over
//! one protocol-v3 connection to an `EventServer`, whose 2-worker
//! `ModelRegistry` serves three tenants with default batching.

use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use circnn_serve::{ServeStats, TenantConfig};
use circnn_wire::frame;
use circnn_wire::{EventConfig, EventServer, ModelRegistry};

use crate::bench::{Sample, Session, Workload};
use crate::client::{self, Answer};
use crate::metrics::{ServeDelta, TENANTS};
use crate::models::{self, FC, LENET_SHAPE};
use crate::oracle::{self, Checker, Pool};
use crate::report::{mean, quantile, Counts, Rng};
use crate::trace;

/// Offered load, requests per second: about half the mix's closed-loop
/// capacity with 8 requests in flight, 5.5k/s on a 2-vCPU Xeon VM (see
/// `capacity` in the tests). With 64 in flight the server fills its
/// batches and reaches 17.6k/s, but an open loop at half that forms small
/// batches and runs close to saturation.
pub const RATE_PER_S: f64 = 2500.0;

/// Share of arrivals per tenant (`fc`, `fc_i16`, `lenet`).
pub const MIX: [f64; 3] = [0.475, 0.475, 0.05];

const POOL: usize = 64;
const WARM_PER_TENANT: usize = 32;
/// Requests sent in one write when the generator runs late.
const MAX_BURST: usize = 64;
/// How long the generator waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(5);

/// The serving configuration of every tenant: the scheduler's defaults
/// with the 300 µs batching slack the serving tier is deployed with.
pub fn tenant_config() -> TenantConfig {
    TenantConfig {
        max_wait: Duration::from_micros(300),
        ..TenantConfig::default()
    }
}

pub struct OpenMixed {
    pools: Arc<[Pool; 3]>,
    checker: Arc<Checker>,
    registry: Arc<ModelRegistry>,
    server: EventServer,
    stream: TcpStream,
    rng: Rng,
    next_id: u64,
    warm: Counts,
}

/// One scheduled request: due time after the session start, tenant and
/// pool input.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    due_ns: u64,
    tenant: usize,
    input: usize,
}

fn pick_tenant(rng: &mut Rng) -> usize {
    let u = rng.unit();
    let mut acc = 0.0;
    for (t, share) in MIX.iter().enumerate() {
        acc += share;
        if u < acc {
            return t;
        }
    }
    MIX.len() - 1
}

impl OpenMixed {
    fn stats(&self) -> Vec<ServeStats> {
        TENANTS
            .iter()
            .map(|t| self.registry.stats(t).expect("tenant is registered"))
            .collect()
    }

    /// Pipelines `WARM_PER_TENANT` requests per tenant and checks every
    /// reply.
    fn warm_up(&mut self) {
        let mut frame_buf = Vec::new();
        let mut out = Vec::new();
        let mut sent = Vec::new();
        for (t, name) in TENANTS.iter().enumerate() {
            for i in 0..WARM_PER_TENANT {
                let input = i % POOL;
                client::encode(
                    self.next_id,
                    name,
                    &self.pools[t].inputs[input],
                    0,
                    &mut frame_buf,
                    &mut out,
                );
                sent.push((self.next_id, t, input));
                self.next_id += 1;
            }
        }
        self.warm.sent = sent.len() as u64;
        if frame::write_frame(&mut self.stream, &out).is_err() {
            self.warm.failed = self.warm.sent;
            return;
        }
        let mut reader = BufReader::new(self.stream.try_clone().expect("cloning the socket"));
        for _ in 0..sent.len() {
            if frame::read_frame(&mut reader, &mut frame_buf).is_err() {
                break;
            }
            let (id, answer, _, _) = client::decode(&frame_buf);
            let slot = id.and_then(|id| sent.iter().find(|s| s.0 == id));
            match (answer, slot) {
                (Answer::Output(mut y), Some(&(_, t, input))) => {
                    if self.checker.check(&self.pools[t].expected[input], &mut y) {
                        self.warm.ok += 1;
                    } else {
                        self.warm.wrong += 1;
                    }
                }
                (Answer::Refused, Some(_)) => {}
                _ => self.warm.wrong += 1,
            }
        }
        self.warm.failed = self.warm.sent - self.warm.ok - self.warm.wrong;
    }
}

/// What the receiver learned about one session.
#[derive(Default)]
struct Received {
    counts: Counts,
    samples: Vec<Sample>,
    client_us: Vec<f64>,
    reply_bytes: u64,
    last: Option<Instant>,
}

/// What the sender learned about one session.
#[derive(Default)]
struct Sent {
    lag_ms: Vec<f64>,
    backlog_max: u64,
    request_bytes: u64,
    shut: bool,
}

impl Workload for OpenMixed {
    type Pools = [Pool; 3];
    const LIMIT_MS: f64 = 50.0;

    fn pools(seed: u64) -> (Arc<[Pool; 3]>, u64) {
        let mut rng = Rng::new(seed);
        let op = FC.operator();
        let (fc, wrong_fc) =
            oracle::operator_pool(&op, (0..POOL).map(|_| rng.signal(FC.n)).collect());
        let (fc_i16, wrong_q) = oracle::quant_pool(&models::quantize(&op), &fc);
        let len: usize = LENET_SHAPE.iter().product();
        let lenet = oracle::net_pool(
            &models::lenet(),
            &LENET_SHAPE,
            (0..POOL).map(|_| rng.signal(len)).collect(),
        );
        (Arc::new([fc, fc_i16, lenet]), wrong_fc + wrong_q)
    }

    fn setup(pools: &Arc<[Pool; 3]>, seed: u64, checker: &Arc<Checker>) -> Self {
        let op = FC.operator();
        let q = models::quantize(&op);
        let registry = Arc::new(ModelRegistry::new(2).expect("two workers"));
        registry
            .add_model(TENANTS[0], op, tenant_config())
            .expect("registering fc");
        registry
            .add_model(TENANTS[1], q, tenant_config())
            .expect("registering fc_i16");
        registry
            .add_network(TENANTS[2], models::lenet(), &LENET_SHAPE, tenant_config())
            .expect("registering lenet");
        let server =
            EventServer::bind("127.0.0.1:0", Arc::clone(&registry), EventConfig::default())
                .expect("binding the event server");
        let stream = client::connect(server.local_addr());
        let mut w = Self {
            pools: Arc::clone(pools),
            checker: Arc::clone(checker),
            registry,
            server,
            stream,
            rng: Rng::new(seed ^ 0x5e55_1011),
            next_id: 1,
            warm: Counts::default(),
        };
        w.warm_up();
        w
    }

    fn warm(&self) -> Counts {
        self.warm
    }

    fn session(&mut self, seconds: f64) -> Session {
        let mut schedule = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.unit()).ln() / RATE_PER_S;
            if t >= seconds {
                break;
            }
            let tenant = pick_tenant(&mut self.rng);
            let input = self.rng.below(POOL);
            schedule.push(Arrival {
                due_ns: (t * 1e9) as u64,
                tenant,
                input,
            });
        }
        let n = schedule.len();
        let base_id = self.next_id;
        self.next_id += n as u64;
        let before = self.stats();

        let sent_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let roots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let received = AtomicU64::new(0);
        let receiver_done = AtomicBool::new(false);
        let start = Instant::now() + Duration::from_millis(2);
        let mut writer = self.stream.try_clone().expect("cloning the socket");
        let reader = self.stream.try_clone().expect("cloning the socket");
        let pools = &self.pools;
        let checker = &self.checker;

        let (sent, got) = std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let mut s = Sent::default();
                let mut frame_buf = Vec::new();
                let mut out = Vec::new();
                let mut i = 0;
                while i < n {
                    let due = start + Duration::from_nanos(schedule[i].due_ns);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let now = Instant::now();
                    out.clear();
                    let first = i;
                    while i < n
                        && i - first < MAX_BURST
                        && start + Duration::from_nanos(schedule[i].due_ns) <= now
                    {
                        let a = schedule[i];
                        let root = trace::reserve_id();
                        roots[i].store(root, Ordering::Relaxed);
                        let id = base_id + i as u64;
                        client::encode(
                            id,
                            TENANTS[a.tenant],
                            &pools[a.tenant].inputs[a.input],
                            root,
                            &mut frame_buf,
                            &mut out,
                        );
                        i += 1;
                    }
                    let at = Instant::now();
                    for j in first..i {
                        sent_ns[j].store(trace::ns(at).max(1), Ordering::Release);
                        let due = start + Duration::from_nanos(schedule[j].due_ns);
                        s.lag_ms
                            .push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                    }
                    s.request_bytes += out.len() as u64;
                    let write_ok = {
                        let _span = trace::span(
                            "wire.write_frame",
                            roots[first].load(Ordering::Relaxed),
                            base_id + first as u64,
                        );
                        frame::write_frame(&mut writer, &out).is_ok()
                    };
                    let backlog = i as u64 - received.load(Ordering::Relaxed);
                    s.backlog_max = s.backlog_max.max(backlog);
                    if !write_ok {
                        break;
                    }
                }
                // Wait for the replies still in flight; past the drain
                // limit, close the socket so the receiver stops waiting.
                let sent_count = i as u64;
                let drain_end = Instant::now() + DRAIN;
                while received.load(Ordering::Relaxed) < sent_count
                    && !receiver_done.load(Ordering::Relaxed)
                    && Instant::now() < drain_end
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
                if received.load(Ordering::Relaxed) < n as u64
                    && !receiver_done.load(Ordering::Relaxed)
                {
                    let _ = writer.shutdown(Shutdown::Both);
                    s.shut = true;
                }
                s
            });

            let mut r = Received::default();
            let mut reader = BufReader::new(reader);
            let mut frame_buf = Vec::new();
            let mut seen = vec![false; n];
            while (received.load(Ordering::Relaxed) as usize) < n {
                let read_start = Instant::now();
                if frame::read_frame(&mut reader, &mut frame_buf).is_err() {
                    break;
                }
                let read_end = Instant::now();
                r.reply_bytes += frame_buf.len() as u64;
                let (id, answer, dec_start, dec_end) = client::decode(&frame_buf);
                let index = id
                    .and_then(|id| id.checked_sub(base_id))
                    .map(|i| i as usize)
                    .filter(|&i| i < n && !seen[i]);
                let Some(i) = index else {
                    // A reply that matches no outstanding request.
                    r.counts.wrong += 1;
                    continue;
                };
                seen[i] = true;
                let root = roots[i].load(Ordering::Relaxed);
                let req = base_id + i as u64;
                trace::record(
                    trace::reserve_id(),
                    root,
                    req,
                    "wire.read_frame",
                    read_start,
                    read_end,
                );
                trace::record(
                    trace::reserve_id(),
                    root,
                    req,
                    "wire.decode",
                    dec_start,
                    dec_end,
                );
                let a = schedule[i];
                match answer {
                    Answer::Output(mut y) => {
                        let good = {
                            let _span = trace::span("oracle.check", root, req);
                            checker.check(&pools[a.tenant].expected[a.input], &mut y)
                        };
                        if good {
                            let done = Instant::now();
                            let due = start + Duration::from_nanos(a.due_ns);
                            r.counts.ok += 1;
                            r.samples.push(Sample {
                                at: done,
                                ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                                outputs: 1,
                            });
                            let sent_at = sent_ns[i].load(Ordering::Acquire);
                            r.client_us
                                .push(trace::ns(done).saturating_sub(sent_at) as f64 / 1e3);
                            r.last = Some(done);
                            trace::record(root, 0, req, "request", due, done);
                        } else {
                            r.counts.wrong += 1;
                        }
                    }
                    Answer::Refused => {}
                    Answer::Garbled => r.counts.wrong += 1,
                }
                received.fetch_add(1, Ordering::Relaxed);
            }
            receiver_done.store(true, Ordering::Relaxed);
            let s = sender.join().expect("the sender thread panicked");
            (s, r)
        });

        if sent.shut {
            self.stream = client::connect(self.server.local_addr());
        }
        let after = self.stats();
        let mut counts = got.counts;
        counts.sent = n as u64;
        counts.failed = counts.sent.saturating_sub(counts.ok + counts.wrong);
        let over = got.samples.iter().filter(|x| x.ms > Self::LIMIT_MS).count() as u64;

        let mut session = Session {
            counts,
            busy_s: got.last.map_or(seconds, |l| {
                l.saturating_duration_since(start).as_secs_f64()
            }),
            late: counts.failed + counts.wrong + over,
            samples: got.samples,
            ..Session::default()
        };
        let mut server_side = ServeDelta::default();
        for (t, name) in TENANTS.iter().enumerate() {
            let d = ServeDelta::between(&before[t], &after[t]);
            d.write(name, &mut session.layer);
            server_side.add(&d);
        }
        let l = &mut session.layer;
        l.insert(
            "wire.bytes_per_req".into(),
            (sent.request_bytes + got.reply_bytes) as f64 / counts.ok.max(1) as f64,
        );
        l.insert(
            "wire.outside_us".into(),
            mean(&got.client_us) - server_side.latency_us(),
        );
        l.insert(
            "wire.connections".into(),
            self.server.connection_count() as f64,
        );
        l.insert("bench.gen_lag_p99_ms".into(), quantile(&sent.lag_ms, 0.99));
        l.insert("bench.backlog_max".into(), sent.backlog_max as f64);
        session
    }

    fn shutdown(self) {
        drop(self.stream);
        self.server.shutdown();
        if let Ok(registry) = Arc::try_unwrap(self.registry) {
            registry.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed-loop capacity of the mix on one connection kept 8 and 64
    /// requests deep. `RATE_PER_S` is set near half of the 8-deep figure.
    #[test]
    #[ignore = "calibration; run with --release -- --ignored --nocapture"]
    fn capacity() {
        let (pools, _) = OpenMixed::pools(1);
        let checker = Arc::new(Checker::new(None));
        let mut w = OpenMixed::setup(&pools, 1, &checker);
        let mut reader = BufReader::new(w.stream.try_clone().expect("cloning the socket"));
        let mut rng = Rng::new(9);
        let (mut frame_buf, mut out, mut reply) = (Vec::new(), Vec::new(), Vec::new());
        let mut id = 1_000;
        for window in [8u64, 64] {
            let total = 20_000u64;
            let start = Instant::now();
            let mut send = |w: &mut OpenMixed| {
                let t = pick_tenant(&mut rng);
                out.clear();
                client::encode(
                    id,
                    TENANTS[t],
                    &w.pools[t].inputs[rng.below(POOL)],
                    0,
                    &mut frame_buf,
                    &mut out,
                );
                frame::write_frame(&mut w.stream, &out).expect("sending");
                id += 1;
            };
            for _ in 0..window {
                send(&mut w);
            }
            for i in window..total + window {
                frame::read_frame(&mut reader, &mut reply).expect("reading");
                if i < total {
                    send(&mut w);
                }
            }
            let rps = total as f64 / start.elapsed().as_secs_f64();
            println!("closed-loop capacity of the mix, {window} deep: {rps:.0} requests/s");
        }
        w.shutdown();
    }
}
