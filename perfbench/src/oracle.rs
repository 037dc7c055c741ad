//! The output oracle. Every output the benchmark receives is checked
//! against a single-sample reference computed before the run, using
//! guarantees the repository's own tests already hold:
//!
//! * f32 operator replies are bitwise equal to `forward_batch_into(x, 1)`
//!   (batch-composition invariance; sharded ≡ single-process);
//! * i16 replies are bitwise equal to `QuantizedOperator::infer_batch_into`
//!   at batch 1, and that reference lies within `error_bound()` of the f32
//!   output;
//! * network outputs are bitwise equal to `Sequential::infer` on the single
//!   sample;
//! * f32 references lie within [`NAIVE_REL_BOUND`] of `matvec_naive`
//!   (the paper's Algorithm 1), and the offline run re-checks sampled rows
//!   against it directly.

use std::sync::atomic::{AtomicU64, Ordering};

use circnn_core::{BlockCirculantMatrix, QuantWorkspace, QuantizedOperator, Workspace};
use circnn_nn::{InferScratch, Sequential};
use circnn_tensor::Tensor;

/// Allowed max-abs gap between an f32 engine output and `matvec_naive`, as
/// a share of the naive output's max-abs value (at least 1). Observed gaps
/// are ≈ 2·10⁻⁷ at 512×512 k=16 and 2048×1024 k=128; this leaves 50×.
pub const NAIVE_REL_BOUND: f32 = 1e-5;

pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Whether `got` lies within `abs + NAIVE_REL_BOUND · max(1, ‖naive‖∞)` of
/// `naive`.
pub fn near_naive(got: &[f32], naive: &[f32], abs: f32) -> bool {
    let scale = naive.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    got.len() == naive.len() && max_abs_diff(got, naive) <= abs + NAIVE_REL_BOUND * scale
}

/// Bitwise output check. In the benchmark's self-tests it first corrupts
/// one chosen output, to prove that a wrong output fails the run.
#[derive(Debug, Default)]
pub struct Checker {
    seen: AtomicU64,
    tamper: Option<u64>,
}

impl Checker {
    /// `tamper`: index (in check order) of the output to corrupt; `None`
    /// outside the self-tests.
    pub fn new(tamper: Option<u64>) -> Self {
        Self {
            seen: AtomicU64::new(0),
            tamper,
        }
    }

    /// Whether `got` is bitwise equal to `expected`.
    pub fn check(&self, expected: &[f32], got: &mut [f32]) -> bool {
        let index = self.seen.fetch_add(1, Ordering::Relaxed);
        if self.tamper == Some(index) {
            if let Some(v) = got.first_mut() {
                *v = f32::from_bits(v.to_bits() ^ 1);
            }
        }
        got.len() == expected.len()
            && got
                .iter()
                .zip(expected)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Seeded inputs of one model with their single-sample references.
#[derive(Debug, Default)]
pub struct Pool {
    pub inputs: Vec<Vec<f32>>,
    pub expected: Vec<Vec<f32>>,
    /// `matvec_naive` outputs (operator pools only).
    pub naive: Vec<Vec<f32>>,
}

/// References of an f32 operator. Returns the pool and how many references
/// missed `matvec_naive` (each counts as a wrong output).
pub fn operator_pool(op: &BlockCirculantMatrix, inputs: Vec<Vec<f32>>) -> (Pool, u64) {
    let mut ws = Workspace::new();
    let mut wrong = 0;
    let mut pool = Pool::default();
    for x in &inputs {
        let mut y = vec![0.0; op.rows()];
        op.forward_batch_into(x, 1, &mut ws, &mut y)
            .expect("pool inputs match the operator");
        let naive = op.matvec_naive(x).expect("pool inputs match the operator");
        wrong += u64::from(!near_naive(&y, &naive, 0.0));
        pool.expected.push(y);
        pool.naive.push(naive);
    }
    pool.inputs = inputs;
    (pool, wrong)
}

/// References of the i16 operator quantized from the f32 operator behind
/// `f32_pool`, on the same inputs. Returns the pool and how many references
/// fell outside `error_bound()` of the f32 output.
pub fn quant_pool(q: &QuantizedOperator, f32_pool: &Pool) -> (Pool, u64) {
    let mut ws = QuantWorkspace::new();
    let bound = q.error_bound();
    let mut wrong = 0;
    let mut pool = Pool {
        inputs: f32_pool.inputs.clone(),
        naive: f32_pool.naive.clone(),
        ..Pool::default()
    };
    for (x, y32) in f32_pool.inputs.iter().zip(&f32_pool.expected) {
        let mut y = vec![0.0; q.rows()];
        q.infer_batch_into(x, 1, &mut ws, &mut y, 1)
            .expect("pool inputs match the operator");
        wrong += u64::from(max_abs_diff(&y, y32) > bound);
        pool.expected.push(y);
    }
    (pool, wrong)
}

/// References of a network: `Sequential::infer` on each single sample of
/// per-sample shape `shape`.
pub fn net_pool(net: &Sequential, shape: &[usize], inputs: Vec<Vec<f32>>) -> Pool {
    let mut scratch = InferScratch::new();
    let mut dims = vec![1];
    dims.extend_from_slice(shape);
    let expected = inputs
        .iter()
        .map(|x| {
            net.infer(&Tensor::from_vec(x.clone(), &dims), &mut scratch)
                .into_vec()
        })
        .collect();
    Pool {
        inputs,
        expected,
        naive: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_is_bitwise_and_tampers_only_the_chosen_output() {
        let checker = Checker::new(Some(1));
        let expected = [1.0f32, -0.0];
        assert!(checker.check(&expected, &mut [1.0, -0.0]));
        assert!(
            !checker.check(&expected, &mut [1.0, -0.0]),
            "output 1 is corrupted"
        );
        assert!(checker.check(&expected, &mut [1.0, -0.0]));
        assert!(
            !checker.check(&expected, &mut [1.0, 0.0]),
            "-0.0 and 0.0 differ in bits"
        );
        assert!(!checker.check(&expected, &mut [1.0]));
    }

    #[test]
    fn naive_bound_scales_with_the_output() {
        assert!(near_naive(&[100.0005], &[100.0], 0.0));
        assert!(!near_naive(&[100.01], &[100.0], 0.0));
        assert!(near_naive(&[0.000_005], &[0.0], 0.0));
    }
}
