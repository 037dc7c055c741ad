//! Layer probes of the traced run: the engine (`core`), each network layer
//! (`nn`) and the plane FFTs (`fft`) timed in process on the shapes the
//! workloads serve. They are the same on every workload, so their numbers
//! compare across workloads.

use std::time::Duration;

use circnn_core::{default_batch_threads, QuantWorkspace, Workspace};
use circnn_fft::BatchFftPlan;
use circnn_nn::{InferScratch, Sequential};
use circnn_tensor::Tensor;

use crate::bench::time_calls;
use crate::metrics::{layer_names, Metrics};
use crate::models::{self, Shape, CIFAR_SHAPE, FC, LENET_SHAPE, WIDE};
use crate::offline::BATCH;
use crate::report::Rng;

/// Time spent on each timed call site.
const BUDGET: Duration = Duration::from_millis(150);

/// Names a span after a metric; the few probe names live for the run.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

pub fn run(out: &mut Metrics) {
    let mut rng = Rng::new(0x9e0b);
    for shape in [FC, WIDE] {
        core(shape, &mut rng, out);
    }
    for (label, net, shape) in [
        ("lenet", models::lenet(), LENET_SHAPE),
        ("cifar", models::cifar(), CIFAR_SHAPE),
    ] {
        nn(label, &net, &shape, &mut rng, out);
    }
    fft(&mut rng, out);
}

fn core(shape: Shape, rng: &mut Rng, out: &mut Metrics) {
    let op = shape.operator();
    let q = models::quantize(&op);
    let x = rng.signal(BATCH * shape.n);
    let mut y = vec![0.0; BATCH * shape.m];
    let (mut ws, mut qws) = (Workspace::new(), QuantWorkspace::new());
    let threads = default_batch_threads();
    let key = |what: &str| format!("core.{}.{what}", shape.label);
    let mut per_sample = |what: &str, batch: usize, f: &mut dyn FnMut(usize, &mut [f32])| {
        let us = time_calls(leak(key(what)), BUDGET, || {
            f(batch, &mut y[..batch * shape.m])
        });
        out.insert(key(what), us / batch as f64);
        us / batch as f64
    };
    let mut f32_call = |b: usize, y: &mut [f32]| {
        op.forward_batch_into(&x[..b * shape.n], b, &mut ws, y)
            .expect("slab matches the operator");
    };
    per_sample("f32_us_per_sample.b1", 1, &mut f32_call);
    let f32_b32 = per_sample("f32_us_per_sample.b32", BATCH, &mut f32_call);
    let mut i16_call = |b: usize, y: &mut [f32]| {
        q.infer_batch_into(&x[..b * shape.n], b, &mut qws, y, threads)
            .expect("slab matches the operator");
    };
    per_sample("i16_us_per_sample.b1", 1, &mut i16_call);
    let i16_b32 = per_sample("i16_us_per_sample.b32", BATCH, &mut i16_call);
    per_sample("matvec_us_per_sample", 1, &mut |_, y: &mut [f32]| {
        let v = op
            .matvec(&x[..shape.n])
            .expect("input matches the operator");
        y.copy_from_slice(&v);
    });
    // Speed of i16 relative to f32 at B=32: f32 time over i16 time, so
    // below 1 means the i16 path is slower.
    out.insert(key("i16_vs_f32"), f32_b32 / i16_b32);
}

/// Times every layer's `infer_batch` on its real input at B=32, and the
/// whole `Sequential::infer`.
fn nn(label: &str, net: &Sequential, shape: &[usize], rng: &mut Rng, out: &mut Metrics) {
    let mut dims = vec![BATCH];
    dims.extend_from_slice(shape);
    let x = Tensor::from_vec(rng.signal(dims.iter().product()), &dims);
    let mut scratch = InferScratch::new();
    let whole_name = format!("nn.{label}.infer_us");
    let whole = time_calls(leak(whole_name.clone()), BUDGET, || {
        std::hint::black_box(net.infer(&x, &mut scratch));
    });
    out.insert(whole_name, whole);
    let mut input = x;
    let mut sum = 0.0;
    for (layer, name) in net.iter().zip(layer_names(label, net)) {
        let mut scratch = InferScratch::new();
        let mut y = None;
        let us = time_calls(leak(name.clone()), BUDGET, || {
            scratch.rewind();
            y = Some(layer.infer_batch(&input, &mut scratch));
        });
        sum += us;
        out.insert(name, us);
        input = y.expect("the layer ran");
    }
    out.insert(format!("nn.{label}.sum_vs_whole"), sum / whole);
}

/// Replays the engine's plane FFTs for one B=32 slab of the 512×512 k=16
/// operator: one real-input forward per block column, one inverse per
/// block row, each on a `[k][32]` plane.
fn fft(rng: &mut Rng, out: &mut Metrics) {
    let k = FC.k;
    let plan = BatchFftPlan::<f32>::new(k).expect("valid FFT length");
    let signal = rng.signal(k * BATCH);
    let (mut re, mut im) = (vec![0.0f32; k * BATCH], vec![0.0f32; k * BATCH]);
    let forward = time_calls("fft.forward_planes_real", BUDGET, || {
        re.copy_from_slice(&signal);
        plan.forward_planes_real(&mut re, &mut im, BATCH)
            .expect("planes are k·batch long");
    });
    let (spec_re, spec_im) = (re.clone(), im.clone());
    let inverse = time_calls("fft.inverse_planes_real", BUDGET, || {
        re.copy_from_slice(&spec_re);
        im.copy_from_slice(&spec_im);
        plan.inverse_planes_real(&mut re, &mut im, BATCH)
            .expect("planes are k·batch long");
    });
    out.insert("fft.forward_us".into(), forward * (FC.n / k) as f64);
    out.insert("fft.inverse_us".into(), inverse * (FC.m / k) as f64);
}
