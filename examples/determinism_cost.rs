//! The price of determinism: what does flipping on deterministic kernels
//! cost *your* model on *your* GPU?
//!
//! Uses the calibrated kernel cost model to compare default vs
//! deterministic training time for the paper's ten profiled networks and
//! the filter-size sweep, and prints the kernel-level explanation: each
//! convolution's default and deterministic kernels, and its slowdown.
//!
//! ```text
//! cargo run --release -p ns-examples --bin determinism_cost [network]
//! ```

use hwsim::{profile_workload, ConvPass, Device, ExecutionMode, KernelProfile, WorkloadOp};
use noisescope::experiments::cost;
use nstensor::ConvGeometry;

/// The kernel that a one-convolution profile ran for `pass`.
fn kernel(profile: &KernelProfile, pass: ConvPass) -> &str {
    profile
        .records()
        .iter()
        .find(|r| r.name.contains(pass.tag()))
        .map_or("", |r| &r.name)
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "ResNet50".into());

    println!("== Determinism overhead across models (batch 64) ==");
    let all = cost::fig8a(64);
    for p in all.iter().filter(|p| p.device == "V100") {
        let bar = "#".repeat(((p.overhead_pct - 100.0) / 5.0).max(0.5) as usize + 1);
        println!("{:16} {:7.1}%  {}", p.workload, p.overhead_pct, bar);
    }

    println!("\n== Filter-size sensitivity (medium CNN) ==");
    for p in cost::fig8b(64) {
        println!("{:16} {:8} {:7.1}%", p.workload, p.device, p.overhead_pct);
    }

    // Kernel-level explanation for one network: each convolution profiled
    // alone, once per mode.
    let descs = nnet::arch::profiled_networks(64);
    let desc = descs
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(&which))
        .unwrap_or(&descs[5]);
    println!("\n== Why: kernel selection for {} on V100 ==", desc.name);
    let convs: Vec<(&WorkloadOp, &ConvGeometry)> = desc
        .ops
        .iter()
        .filter_map(|op| match op {
            WorkloadOp::Conv { geom, .. } => Some((op, geom)),
            _ => None,
        })
        .collect();
    for &(op, geom) in convs.iter().take(8) {
        let profile = |mode| profile_workload(std::slice::from_ref(op), &Device::v100(), mode, 1);
        let nd = profile(ExecutionMode::Default);
        let det = profile(ExecutionMode::Deterministic);
        println!(
            "conv {}x{} {:>4}->{:<4}: {:.0}% slower",
            geom.k,
            geom.k,
            geom.in_c,
            geom.out_c,
            100.0 * (det.total_time_s() / nd.total_time_s() - 1.0),
        );
        for pass in ConvPass::ALL {
            println!("  {} -> {}", kernel(&nd, pass), kernel(&det, pass));
        }
    }
    if convs.len() > 8 {
        println!("... ({} convolutions total)", convs.len());
    }
    println!(
        "\nDeterministic mode forfeits Winograd/FFT transforms and atomic split-K\n\
         accumulation; the penalty grows with filter size and is worst on Pascal."
    );
}
