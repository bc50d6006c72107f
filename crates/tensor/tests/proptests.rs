//! Property-based tests for the order-sensitive tensor substrate.

use nstensor::{matmul, ReduceOrder, Reducer, Shape, Tensor};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    // Bounded magnitudes so f64 reference sums are exact enough to compare.
    (-1000i32..1000).prop_map(|v| v as f32 * 1e-3)
}

proptest! {
    /// Any accumulation order must agree with the f64 reference to within
    /// the classic sequential-summation error bound.
    #[test]
    fn reduction_error_is_bounded(
        xs in prop::collection::vec(small_f32(), 0..2048),
        lanes in 1usize..64,
        seed in any::<u64>(),
    ) {
        let exact: f64 = xs.iter().map(|&x| x as f64).sum();
        let abs_sum: f64 = xs.iter().map(|&x| (x as f64).abs()).sum();
        let bound = (xs.len().max(1) as f64) * (f32::EPSILON as f64) * abs_sum + 1e-9;
        for (order, lanes) in [
            (ReduceOrder::FixedTree, 1),
            (ReduceOrder::FixedTree, lanes),
            (ReduceOrder::Permuted, lanes),
        ] {
            let mut r = Reducer::new(order, lanes, seed);
            let s = r.sum(&xs) as f64;
            prop_assert!((s - exact).abs() <= bound, "{order:?}: err {} > bound {bound}", (s - exact).abs());
        }
    }

    /// FixedTree reductions are a pure function of (data, lanes): bitwise
    /// identical across scheduler seeds and repeated calls.
    #[test]
    fn fixed_tree_bitwise_stable(
        xs in prop::collection::vec(small_f32(), 0..512),
        lanes in 1usize..64,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let mut a = Reducer::new(ReduceOrder::FixedTree, lanes, s1);
        let mut b = Reducer::new(ReduceOrder::FixedTree, lanes, s2);
        prop_assert_eq!(a.sum(&xs).to_bits(), b.sum(&xs).to_bits());
        prop_assert_eq!(a.sum(&xs).to_bits(), a.sum(&xs).to_bits());
    }

    /// Dot products agree with the f64 reference under every order.
    #[test]
    fn dot_error_is_bounded(
        pairs in prop::collection::vec((small_f32(), small_f32()), 0..512),
        lanes in 1usize..64,
        seed in any::<u64>(),
    ) {
        let a: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let exact: f64 = pairs.iter().map(|p| p.0 as f64 * p.1 as f64).sum();
        let abs: f64 = pairs.iter().map(|p| (p.0 as f64 * p.1 as f64).abs()).sum();
        let bound = (pairs.len().max(1) as f64 + 1.0) * (f32::EPSILON as f64) * abs + 1e-9;
        for (order, lanes) in [
            (ReduceOrder::FixedTree, 1),
            (ReduceOrder::FixedTree, lanes),
            (ReduceOrder::Permuted, lanes),
        ] {
            let mut r = Reducer::new(order, lanes, seed);
            let d = r.dot(&a, &b) as f64;
            prop_assert!((d - exact).abs() <= bound);
        }
    }

    /// Matmul under any order stays within tolerance of an f64 reference.
    #[test]
    fn matmul_close_to_reference(
        m in 1usize..6, k in 1usize..8, n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let gen = |len: usize, salt: u64| -> Vec<f32> {
            (0..len).map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt ^ seed);
                ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            }).collect()
        };
        let a = Tensor::from_vec(Shape::of(&[m, k]), gen(m * k, 1)).unwrap();
        let b = Tensor::from_vec(Shape::of(&[k, n]), gen(k * n, 2)).unwrap();
        let mut reference = vec![0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    reference[i * n + j] += a.get2(i, l) as f64 * b.get2(l, j) as f64;
                }
            }
        }
        let mut red = Reducer::new(ReduceOrder::Permuted, 32, seed);
        let c = matmul(&a, &b, &mut red).unwrap();
        for (x, e) in c.as_slice().iter().zip(&reference) {
            prop_assert!((*x as f64 - e).abs() < 1e-4);
        }
    }

    /// reshape preserves data; tensor round-trips through into_vec.
    #[test]
    fn tensor_round_trip(data in prop::collection::vec(small_f32(), 1..64)) {
        let n = data.len();
        let t = Tensor::from_vec(Shape::of(&[n]), data.clone()).unwrap();
        prop_assert_eq!(t.clone().into_vec(), data);
        let r = t.reshape(Shape::of(&[1, n])).unwrap();
        let rs = r.shape();
        prop_assert_eq!(rs.dims(), &[1, n][..]);
    }
}
