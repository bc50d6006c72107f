//! Kernel pass: `matmul_ws`, `conv2d_forward_ws` and `conv2d_backward_ws`
//! timed at the shapes a workload's models run, under `FixedTree` and
//! `Permuted` reduction with `amp_ulps = 512`.

use crate::replay::{conv_geometries, dense_shapes, model_plan};
use crate::stats::median;
use crate::workloads::Workload;
use detrand::SplitMix64;
use hwsim::Device;
use nstensor::{
    conv2d_backward_ws, conv2d_forward_ws, matmul_ws, ConvGeometry, ReduceOrder, Reducer, Shape,
    Tensor, Workspace,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Amplification used by the permuted cases (the settings' default).
pub const AMP_ULPS: f32 = 512.0;

/// One timed (kernel, reduction order, shape) case.
#[derive(Debug, Clone)]
pub struct KernelCase {
    /// `gemm`, `conv_fwd` or `conv_bwd`.
    pub op: &'static str,
    /// `fixed_tree` or `permuted`.
    pub mode: &'static str,
    /// Human-readable shape.
    pub shape: String,
    /// Median microseconds per call.
    pub us: f64,
    /// Calls timed.
    pub calls: usize,
    /// Multiply-adds per call.
    pub madds: u64,
}

/// A distinct kernel shape a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape3 {
    Gemm { m: usize, k: usize, n: usize },
    Conv { geom: ConvGeometry, batch: usize },
}

fn tensor(dims: &[usize], rng: &mut SplitMix64) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0)
        .collect();
    Tensor::from_vec(Shape::of(dims), data).expect("kernel input shape")
}

/// Times `f` until `budget` has passed (at least 3 calls, at most 500)
/// after one warm-up call; returns the median call in microseconds.
fn time_calls(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 500) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&samples), samples.len())
}

fn shapes(w: &Workload) -> Result<Vec<Shape3>, String> {
    let mut out: Vec<Shape3> = Vec::new();
    for t in &w.tasks {
        let plan = model_plan(t)?;
        let train_len = match t.data {
            noisescope::task::DataSource::Gaussian(g) => g.classes * g.train_per_class,
            noisescope::task::DataSource::Celeba(_) => t.train.batch_size,
        };
        let batch = t.train.batch_size.min(train_len);
        for geom in conv_geometries(&plan) {
            out.push(Shape3::Conv { geom, batch });
        }
        for (k, n) in dense_shapes(&plan) {
            out.push(Shape3::Gemm { m: batch, k, n });
        }
    }
    let mut distinct: Vec<Shape3> = Vec::new();
    for s in out {
        if !distinct.contains(&s) {
            distinct.push(s);
        }
    }
    Ok(distinct)
}

/// Runs the kernel pass over every distinct shape of the workload.
///
/// # Errors
///
/// A model without a traced rebuild, or a kernel shape error.
pub fn kernel_pass(w: &Workload, budget: Duration) -> Result<Vec<KernelCase>, String> {
    let lanes = Device::v100().lanes();
    let mut rng = SplitMix64::new(w.seed ^ 0x6B65_726E);
    let mut ws = Workspace::new();
    let mut cases = Vec::new();
    for shape in shapes(w)? {
        for (mode, order) in [
            ("fixed_tree", ReduceOrder::FixedTree),
            ("permuted", ReduceOrder::Permuted),
        ] {
            let mut red = Reducer::new(order, lanes, 1).with_amplification(AMP_ULPS);
            match shape {
                Shape3::Gemm { m, k, n } => {
                    let a = tensor(&[m, k], &mut rng);
                    let b = tensor(&[k, n], &mut rng);
                    let mut err = None;
                    let (us, calls) = time_calls(budget, || {
                        if let Err(e) = matmul_ws(&a, &b, &mut red, 1, &mut ws).map(black_box) {
                            err = Some(e);
                        }
                    });
                    if let Some(e) = err {
                        return Err(e.to_string());
                    }
                    cases.push(KernelCase {
                        op: "gemm",
                        mode,
                        shape: format!("{m}x{k}x{n}"),
                        us,
                        calls,
                        madds: (m * k * n) as u64,
                    });
                }
                Shape3::Conv { geom: g, batch } => {
                    let x = tensor(&[batch, g.in_c, g.in_h, g.in_w], &mut rng);
                    let wt = tensor(&[g.out_c, g.patch_len()], &mut rng);
                    let bias = tensor(&[g.out_c], &mut rng);
                    let dy = tensor(&[batch, g.out_c, g.out_h(), g.out_w()], &mut rng);
                    let fwd_madds = (batch * g.out_c * g.out_pixels() * g.patch_len()) as u64;
                    let shape = format!(
                        "n{batch} c{}->{} k{} s{} {}x{}",
                        g.in_c, g.out_c, g.k, g.stride, g.in_h, g.in_w
                    );
                    let mut err = None;
                    let (us, calls) = time_calls(budget, || {
                        let r = conv2d_forward_ws(&x, &wt, &bias, &g, &mut red, 1, &mut ws);
                        if let Err(e) = r.map(black_box) {
                            err = Some(e);
                        }
                    });
                    cases.push(KernelCase {
                        op: "conv_fwd",
                        mode,
                        shape: shape.clone(),
                        us,
                        calls,
                        madds: fwd_madds,
                    });
                    let (us, calls) = time_calls(budget, || {
                        let r = conv2d_backward_ws(&x, &wt, &dy, &g, &mut red, 1, &mut ws);
                        if let Err(e) = r.map(black_box) {
                            err = Some(e);
                        }
                    });
                    if let Some(e) = err {
                        return Err(e.to_string());
                    }
                    // Weight gradient plus input gradient: twice the forward.
                    cases.push(KernelCase {
                        op: "conv_bwd",
                        mode,
                        shape,
                        us,
                        calls,
                        madds: 2 * fwd_madds,
                    });
                }
            }
        }
    }
    Ok(cases)
}
