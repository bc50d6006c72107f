//! The committed hot-path suite behind `BENCH_9.json`: GEMM, conv forward,
//! conv backward, one training step, and a whole replica fleet, each under
//! the deterministic orders and under `Permuted` (nondeterministic mode).
//!
//! Benchmark names are stable identifiers — `scripts/bench_compare.sh`
//! parses them out of `cargo bench` output and compares against the
//! committed `BENCH_9.json`, so renaming one is a breaking change for the
//! regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use detrand::Philox;
use hwsim::{Device, ExecutionContext, ExecutionMode};
use nnet::loss::softmax_cross_entropy;
use nnet::zoo;
use noisescope::prelude::*;
use nsdata::GaussianSpec;
use nstensor::{
    conv2d_backward_ws, conv2d_forward_ws, matmul_ws, ConvGeometry, ReduceOrder, Reducer, Shape,
    Tensor, Workspace,
};

/// Amplification `repro` runs nondeterministic mode at by default
/// (`ExperimentSettings::amp_ulps`).
const AMP_ULPS: f32 = 512.0;

/// Deterministic pseudo-random tensor fill (no RNG crates in benches).
fn filled(shape: Shape, seed: u64) -> Tensor {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let n = shape.len();
    let data = (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(shape, data).expect("bench tensor")
}

fn bench_gemm(c: &mut Criterion) {
    let m = 96usize;
    let a = filled(Shape::of(&[m, m]), 1);
    let b = filled(Shape::of(&[m, m]), 2);
    let mut group = c.benchmark_group("gemm_96");
    group.sample_size(20);
    group.throughput(Throughput::Elements((m * m * m) as u64));
    for (name, order) in [
        ("sequential", ReduceOrder::Sequential),
        ("fixed_tree", ReduceOrder::FixedTree),
        ("permuted", ReduceOrder::Permuted),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &order, |bch, &order| {
            let mut red = Reducer::new(order, 40, 7);
            let mut ws = Workspace::new();
            bch.iter(|| std::hint::black_box(matmul_ws(&a, &b, &mut red, 1, &mut ws).unwrap()));
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let geom = ConvGeometry::new(8, 16, 3, 1, 1, 16, 16);
    let batch = 8usize;
    let x = filled(Shape::of(&[batch, geom.in_c, geom.in_h, geom.in_w]), 3);
    let w = filled(Shape::of(&[geom.out_c, geom.patch_len()]), 4);
    let b = filled(Shape::of(&[geom.out_c]), 5);

    let mut group = c.benchmark_group("conv_fwd");
    group.sample_size(10);
    group.throughput(Throughput::Elements(geom.flops(batch)));
    for (name, order) in [
        ("sequential", ReduceOrder::Sequential),
        ("fixed_tree", ReduceOrder::FixedTree),
        ("permuted", ReduceOrder::Permuted),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &order, |bch, &order| {
            let mut red = Reducer::new(order, 40, 7).with_amplification(AMP_ULPS);
            let mut ws = Workspace::new();
            bch.iter(|| {
                std::hint::black_box(
                    conv2d_forward_ws(&x, &w, &b, &geom, &mut red, 1, &mut ws).unwrap(),
                )
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("conv_bwd");
    group.sample_size(10);
    let mut red = Reducer::sequential();
    let mut ws = Workspace::new();
    let y = conv2d_forward_ws(&x, &w, &b, &geom, &mut red, 1, &mut ws).unwrap();
    for (name, base) in [
        ("sequential", Reducer::sequential()),
        (
            "permuted",
            Reducer::new(ReduceOrder::Permuted, 40, 7).with_amplification(AMP_ULPS),
        ),
    ] {
        group.bench_function(name, |bch| {
            let mut red = base.clone();
            let mut ws = Workspace::new();
            bch.iter(|| {
                std::hint::black_box(
                    conv2d_backward_ws(&x, &w, &y, &geom, &mut red, 1, &mut ws).unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let root = Philox::from_seed(7);
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    for (name, device, mode) in [
        ("small_cnn/cpu", Device::cpu(), ExecutionMode::Default),
        (
            "small_cnn/v100_det",
            Device::v100(),
            ExecutionMode::Deterministic,
        ),
        (
            "small_cnn/v100_default",
            Device::v100(),
            ExecutionMode::Default,
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &mode, |bch, &mode| {
            let mut net = zoo::small_cnn(12, 3, 10, false, &root);
            let mut exec = ExecutionContext::builder(device)
                .mode(mode)
                .entropy(3)
                .amp_ulps(AMP_ULPS)
                .build();
            let x = filled(Shape::of(&[16, 3, 12, 12]), 11);
            let labels: Vec<u32> = (0..16).map(|i| (i % 10) as u32).collect();
            let mut step = 0u64;
            bch.iter(|| {
                let logits = net.forward(x.clone(), &mut exec, &root, step, true);
                let (_, dl) = softmax_cross_entropy(&logits, &labels);
                net.backward(dl, &mut exec);
                step += 1;
            });
        });
    }
    group.finish();
}

fn bench_run_variant(c: &mut Criterion) {
    let mut task = TaskSpec::small_cnn_cifar10();
    task.data = DataSource::Gaussian(GaussianSpec {
        classes: 4,
        train_per_class: 8,
        test_per_class: 4,
        hw: 8,
        ..GaussianSpec::cifar10_sim()
    });
    task.train.epochs = 1;
    task.augment = false;
    let prepared = PreparedTask::prepare(&task);
    let settings = ExperimentSettings {
        replicas: 2,
        ..ExperimentSettings::default()
    };
    let mut group = c.benchmark_group("run_variant");
    group.sample_size(3);
    group.bench_function("control_v100_x2", |bch| {
        bch.iter(|| {
            std::hint::black_box(run_variant(
                &prepared,
                &Device::v100(),
                NoiseVariant::Control,
                &settings,
            ))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_conv,
    bench_train_step,
    bench_run_variant
);
criterion_main!(benches);
