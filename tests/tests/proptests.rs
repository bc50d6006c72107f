//! Cross-crate property tests on the invariants the reproduction's claims
//! rest on.

// Exact float assertions are deliberate: bit-identical replay is what these tests check.
#![allow(clippy::float_cmp)]

use detrand::Philox;
use hwsim::{Device, ExecutionContext, ExecutionMode, OpClass};
use nstensor::{ReduceOrder, Reducer, Shape, Tensor, Workspace};
use proptest::prelude::*;
use std::ops::Range;

fn bounded_f32() -> impl Strategy<Value = f32> {
    (-1000i32..1000).prop_map(|v| v as f32 * 1e-3)
}

/// An accumulation order and a lane count drawn from `lanes`; one case in
/// three is the one-lane FixedTree of the CPU device.
fn order_and_lanes(lanes: Range<usize>) -> impl Strategy<Value = (ReduceOrder, usize)> {
    (0usize..3, lanes).prop_map(|(i, lanes)| match i {
        0 => (ReduceOrder::FixedTree, 1),
        1 => (ReduceOrder::FixedTree, lanes),
        _ => (ReduceOrder::Permuted, lanes),
    })
}

fn tensor_of(rows: usize, cols: usize, salt: u64) -> Tensor {
    let mut seed = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(Shape::of(&[rows, cols]), data).unwrap()
}

fn assert_tensor_bits(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deterministic execution contexts are pure functions of the data:
    /// entropy never leaks into any op class.
    #[test]
    fn deterministic_context_entropy_invariant(
        xs in prop::collection::vec(bounded_f32(), 1..512),
        e1 in any::<u64>(),
        e2 in any::<u64>(),
    ) {
        let mut a = ExecutionContext::new(Device::p100(), ExecutionMode::Deterministic, e1);
        let mut b = ExecutionContext::new(Device::p100(), ExecutionMode::Deterministic, e2);
        for class in OpClass::ALL {
            prop_assert_eq!(
                a.reducer(class).sum(&xs).to_bits(),
                b.reducer(class).sum(&xs).to_bits()
            );
        }
    }

    /// The TPU is deterministic in *default* mode (its design, not a flag).
    #[test]
    fn tpu_default_mode_entropy_invariant(
        xs in prop::collection::vec(bounded_f32(), 1..512),
        e1 in any::<u64>(),
        e2 in any::<u64>(),
    ) {
        let mut a = ExecutionContext::new(Device::tpu_v2(), ExecutionMode::Default, e1);
        let mut b = ExecutionContext::new(Device::tpu_v2(), ExecutionMode::Default, e2);
        for class in OpClass::ALL {
            prop_assert_eq!(
                a.reducer(class).sum(&xs).to_bits(),
                b.reducer(class).sum(&xs).to_bits()
            );
        }
    }

    /// Nondeterministic execution stays within the f32 error envelope of
    /// the exact sum — noise is rounding-scale, never magnitude-scale.
    #[test]
    fn gpu_noise_is_rounding_scale(
        xs in prop::collection::vec(bounded_f32(), 1..512),
        entropy in any::<u64>(),
    ) {
        let exact: f64 = xs.iter().map(|&x| x as f64).sum();
        let abs: f64 = xs.iter().map(|&x| (x as f64).abs()).sum();
        let bound = (xs.len() as f64) * (f32::EPSILON as f64) * abs + 1e-9;
        let mut ctx = ExecutionContext::new(Device::v100(), ExecutionMode::Default, entropy);
        for _ in 0..8 {
            let s = ctx.reducer(OpClass::WeightGrad).sum(&xs) as f64;
            prop_assert!((s - exact).abs() <= bound, "err {}", (s - exact).abs());
        }
    }

    /// Model construction is a pure function of the algorithmic seed.
    #[test]
    fn model_weights_pure_in_seed(seed in any::<u64>()) {
        let a = nnet::zoo::small_cnn(8, 3, 4, true, &Philox::from_seed(seed));
        let b = nnet::zoo::small_cnn(8, 3, 4, true, &Philox::from_seed(seed));
        let mut a = a;
        let mut b = b;
        prop_assert_eq!(a.flat_weights(), b.flat_weights());
    }

    /// Churn is a metric: symmetric, bounded, zero on the diagonal.
    #[test]
    fn churn_metric_properties(
        a in prop::collection::vec(0u32..5, 1..128),
        seed in any::<u64>(),
    ) {
        let mut rng = Philox::from_seed(seed).rng_at(0);
        let b: Vec<u32> = a.iter().map(|&v| if rng.next_f32() < 0.3 { (v + 1) % 5 } else { v }).collect();
        let ab = nsmetrics::churn(&a, &b);
        prop_assert_eq!(ab, nsmetrics::churn(&b, &a));
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert_eq!(nsmetrics::churn(&a, &a), 0.0);
    }

    /// Normalized L2 is scale-invariant and bounded by 2.
    #[test]
    fn l2_metric_properties(
        w in prop::collection::vec(bounded_f32(), 2..128),
        scale in 1u32..1000,
    ) {
        prop_assume!(w.iter().any(|&x| x != 0.0));
        let scaled: Vec<f32> = w.iter().map(|&x| x * scale as f32).collect();
        prop_assert!(nsmetrics::l2_normalized(&w, &scaled) < 1e-5);
        let neg: Vec<f32> = w.iter().map(|&x| -x).collect();
        let d = nsmetrics::l2_normalized(&w, &neg);
        prop_assert!((d - 2.0).abs() < 1e-5);
    }

    /// The blocked GEMM engine is bit-identical to the per-element
    /// reference path for every accumulation order, lane count,
    /// amplification tier and thread count — and leaves the reducer in
    /// the same state (RNG position + invocation count), so subsequent
    /// ops stay in sync too.
    #[test]
    fn blocked_gemm_bit_identical_to_reference(
        m in 1usize..24,
        k in 0usize..80,
        n in 1usize..24,
        (order, lanes) in order_and_lanes(1..nstensor::MAX_LANES + 1),
        amp in (0usize..2).prop_map(|i| if i == 0 { 0.0f32 } else { 1e4 }),
        threads in 1usize..5,
        salt in any::<u64>(),
    ) {
        let a = tensor_of(m, k, salt);
        let b = tensor_of(k, n, salt.wrapping_add(1));
        let base = Reducer::new(order, lanes, salt ^ 0xda7a).with_amplification(amp);
        let mut fast_red = base.clone();
        let mut ref_red = base.clone();
        let mut ws = Workspace::new();
        let fast = nstensor::matmul_ws(&a, &b, &mut fast_red, threads, &mut ws).unwrap();
        let reference = nstensor::matmul_reference(&a, &b, &mut ref_red).unwrap();
        assert_tensor_bits(&fast, &reference)?;
        prop_assert_eq!(fast_red.invocations(), ref_red.invocations());
        // Probe: the *next* reduction must agree bitwise, proving the
        // scheduler RNG advanced identically on both paths.
        let probe = tensor_of(1, k.max(1), salt.wrapping_add(2));
        prop_assert_eq!(
            fast_red.dot(probe.as_slice(), probe.as_slice()).to_bits(),
            ref_red.dot(probe.as_slice(), probe.as_slice()).to_bits()
        );
    }

    /// Same bit-identity contract for the transposed entry points.
    #[test]
    fn blocked_gemm_transposed_forms_bit_identical(
        m in 1usize..16,
        k in 1usize..48,
        n in 1usize..16,
        (order, lanes) in order_and_lanes(40..41),
        threads in 1usize..4,
        salt in any::<u64>(),
    ) {
        let base = Reducer::new(order, lanes, salt ^ 0x5eed).with_amplification(2e3);
        let mut ws = Workspace::new();
        let a = tensor_of(k, m, salt);
        let b = tensor_of(k, n, salt.wrapping_add(3));
        let fast = nstensor::matmul_at_b_ws(&a, &b, &mut base.clone(), threads, &mut ws).unwrap();
        let reference = nstensor::matmul_at_b_reference(&a, &b, &mut base.clone()).unwrap();
        assert_tensor_bits(&fast, &reference)?;
        let a = tensor_of(m, k, salt.wrapping_add(4));
        let b = tensor_of(n, k, salt.wrapping_add(5));
        let fast = nstensor::matmul_a_bt_ws(&a, &b, &mut base.clone(), threads, &mut ws).unwrap();
        let reference = nstensor::matmul_a_bt_reference(&a, &b, &mut base.clone()).unwrap();
        assert_tensor_bits(&fast, &reference)?;
    }

    /// Conv forward + backward on the engine are bit-invariant in thread
    /// count and workspace reuse for every order.
    #[test]
    fn conv_engine_bit_invariant_in_threads(
        (order, lanes) in order_and_lanes(40..41),
        threads in 2usize..5,
        salt in any::<u64>(),
    ) {
        let g = nstensor::ConvGeometry::new(2, 5, 3, 1, 1, 6, 6);
        let x = tensor_of(3, 2 * 6 * 6, salt).reshape(Shape::of(&[3, 2, 6, 6])).unwrap();
        let w = tensor_of(5, g.patch_len(), salt.wrapping_add(6));
        let bias = tensor_of(1, 5, salt.wrapping_add(7)).reshape(Shape::of(&[5])).unwrap();
        let base = Reducer::new(order, lanes, salt ^ 0xc0de).with_amplification(1e3);
        let mut ws = Workspace::new();
        let y1 = nstensor::conv2d_forward(&x, &w, &bias, &g, &mut base.clone()).unwrap();
        let yt = nstensor::conv2d_forward_ws(&x, &w, &bias, &g, &mut base.clone(), threads, &mut ws).unwrap();
        assert_tensor_bits(&y1, &yt)?;
        let mut dy = y1.clone();
        dy.scale(0.25);
        let g1 = nstensor::conv2d_backward(&x, &w, &dy, &g, &mut base.clone()).unwrap();
        let gt = nstensor::conv2d_backward_ws(&x, &w, &dy, &g, &mut base.clone(), threads, &mut ws).unwrap();
        assert_tensor_bits(&g1.dx, &gt.dx)?;
        assert_tensor_bits(&g1.dw, &gt.dw)?;
        assert_tensor_bits(&g1.db, &gt.db)?;
    }

    /// Dataset generation is pure in the spec.
    #[test]
    fn dataset_pure_in_seed(seed in any::<u64>()) {
        let spec = nsdata::GaussianSpec {
            classes: 3,
            train_per_class: 4,
            test_per_class: 2,
            hw: 6,
            seed,
            ..nsdata::GaussianSpec::cifar10_sim()
        };
        let a = spec.generate();
        let b = spec.generate();
        prop_assert_eq!(a.train.x.as_slice(), b.train.x.as_slice());
        prop_assert_eq!(a.test.x.as_slice(), b.test.x.as_slice());
    }
}
