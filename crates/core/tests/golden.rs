//! Golden-value regression test.
//!
//! A tiny fixed 6-sample / 3-class / 2-feature / 2-attribute dataset with the
//! trainer output committed as constants. The closed form
//! `W = (XᵀX + γI)⁻¹ XᵀYS (SᵀS + λI)⁻¹` with γ = λ = 0.1 was evaluated once
//! and frozen below; any future refactor of the matmul / Cholesky / trainer
//! hot paths that silently changes numerics fails this test.

// The frozen constants keep every digit the trainer produced, even where a
// shorter literal would round to the same f64.
#![allow(clippy::excessive_precision)]

use zsl_core::infer::{ScoringEngine, Similarity};
use zsl_core::linalg::Matrix;
use zsl_core::model::EszslConfig;

/// Two samples per class. Class 0 lives near feature (1,0), class 1 near
/// (0,1), class 2 near (1,1) — mirroring the attribute signatures exactly.
fn golden_inputs() -> (Matrix, Vec<usize>, Matrix) {
    let x = Matrix::from_rows(&[
        vec![1.0, 0.0],
        vec![0.9, 0.1],
        vec![0.0, 1.0],
        vec![0.1, 0.9],
        vec![1.0, 1.0],
        vec![0.9, 1.1],
    ]);
    let labels = vec![0, 0, 1, 1, 2, 2];
    let s = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
    (x, labels, s)
}

/// Frozen output of the γ = λ = 0.1 closed form on `golden_inputs`.
const GOLDEN_W: [[f64; 2]; 2] = [
    [6.402_481_153_367_824e-1, -3.235_786_338_302_802_4e-1],
    [-2.923_777_792_887_737_3e-1, 6.102_536_207_248_247e-1],
];

/// Frozen cosine scores for the three probe samples below.
const GOLDEN_SCORES: [[f64; 3]; 3] = [
    [
        8.802_505_516_706_164e-1,
        -4.745_091_846_145_609_3e-1,
        2.869_024_720_532_368_8e-1,
    ],
    [
        -4.320_776_173_653_739_3e-1,
        9.018_364_222_916_824e-1,
        3.321_696_364_854_812e-1,
    ],
    [
        8.166_625_264_063_641e-1,
        5.771_155_152_684_554e-1,
        9.855_499_047_371_712e-1,
    ],
];

#[test]
fn trainer_reproduces_golden_weights() {
    let (x, labels, s) = golden_inputs();
    let model = EszslConfig::new()
        .gamma(0.1)
        .lambda(0.1)
        .build()
        .train(&x, &labels, &s)
        .expect("train");
    let w = model.weights();
    assert_eq!((w.rows(), w.cols()), (2, 2));
    for (r, golden_row) in GOLDEN_W.iter().enumerate() {
        for (c, &golden) in golden_row.iter().enumerate() {
            let got = w.get(r, c);
            assert!(
                (got - golden).abs() < 1e-12,
                "W[{r}][{c}] drifted: got {got:.17e}, golden {golden:.17e}"
            );
        }
    }
}

#[test]
fn classifier_reproduces_golden_scores_and_predictions() {
    let (x, labels, s) = golden_inputs();
    let model = EszslConfig::new()
        .gamma(0.1)
        .lambda(0.1)
        .build()
        .train(&x, &labels, &s)
        .expect("train");
    let engine = ScoringEngine::new(model, s, Similarity::Cosine);

    let probes = Matrix::from_rows(&[vec![1.05, -0.05], vec![0.0, 1.1], vec![1.0, 0.95]]);
    assert_eq!(engine.predict(&probes), vec![0, 1, 2]);

    let scores = engine.scores(&probes);
    for (r, golden_row) in GOLDEN_SCORES.iter().enumerate() {
        for (c, &golden) in golden_row.iter().enumerate() {
            let got = scores.get(r, c);
            assert!(
                (got - golden).abs() < 1e-12,
                "score[{r}][{c}] drifted: got {got:.17e}, golden {golden:.17e}"
            );
        }
    }
}
