//! The models every workload serves or runs. Weights come from fixed seeds
//! so every run times the same arithmetic; only the inputs follow the
//! workload seed.

use circnn_core::{BlockCirculantMatrix, QuantConfig, QuantizedOperator};
use circnn_nn::{Layer, Sequential};
use circnn_tensor::init::seeded_rng;

const WEIGHT_SEED: u64 = 0xC12C;

/// Per-sample input shape of LeNet-5 (MNIST) and of the CIFAR net.
pub const LENET_SHAPE: [usize; 3] = [1, 28, 28];
pub const CIFAR_SHAPE: [usize; 3] = [3, 32, 32];

/// The two operator shapes: the serving FC layer, and the wide layer where
/// the i16 path was recorded at 0.75× f32.
pub const FC: Shape = Shape {
    label: "512x512k16",
    m: 512,
    n: 512,
    k: 16,
};
pub const WIDE: Shape = Shape {
    label: "2048x1024k128",
    m: 2048,
    n: 1024,
    k: 128,
};

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub label: &'static str,
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl Shape {
    pub fn operator(&self) -> BlockCirculantMatrix {
        BlockCirculantMatrix::random(&mut seeded_rng(WEIGHT_SEED), self.m, self.n, self.k)
            .expect("benchmark shapes are valid block-circulant shapes")
    }
}

pub fn quantize(op: &BlockCirculantMatrix) -> QuantizedOperator {
    QuantizedOperator::from_operator(op, QuantConfig::default())
        .expect("default formats cannot overflow at the benchmark shapes")
}

/// Circulant LeNet-5 in inference mode.
pub fn lenet() -> Sequential {
    let mut net = circnn_models::lenet5_circulant(&mut seeded_rng(WEIGHT_SEED + 1));
    net.set_training(false);
    net
}

/// Circulant CIFAR net in inference mode.
pub fn cifar() -> Sequential {
    let mut net = circnn_models::cifar_net_circulant(&mut seeded_rng(WEIGHT_SEED + 2));
    net.set_training(false);
    net
}
