//! The determinism cost experiments: Figures 7 and 8.

use crate::report::render_table;
use hwsim::{profile_workload, Device, ExecutionMode, KernelProfile};
use nnet::arch::{self, ArchDescriptor};
use serde::{Deserialize, Serialize};

/// One overhead measurement: deterministic relative to default GPU time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadPoint {
    /// Workload name (network, or `MediumCNN k=N`).
    pub workload: String,
    /// Device name.
    pub device: String,
    /// Simulated GPU time of default (nondeterministic) training, seconds.
    pub default_time_s: f64,
    /// Simulated GPU time of deterministic training, seconds.
    pub deterministic_time_s: f64,
    /// `100 × deterministic / default` (the paper's "relative GPU time").
    pub overhead_pct: f64,
}

fn measure(desc: &ArchDescriptor, device: &Device, steps: u64) -> OverheadPoint {
    let nd = profile_workload(&desc.ops, device, ExecutionMode::Default, steps);
    let det = profile_workload(&desc.ops, device, ExecutionMode::Deterministic, steps);
    OverheadPoint {
        workload: desc.name.to_string(),
        device: device.name().to_string(),
        default_time_s: nd.total_time_s(),
        deterministic_time_s: det.total_time_s(),
        overhead_pct: 100.0 * det.total_time_s() / nd.total_time_s(),
    }
}

/// Figure 8 (left): deterministic overhead of the ten profiled networks on
/// P100, V100 and T4 (ImageNet shapes, batch 64, as in the paper).
pub fn fig8a(batch: usize) -> Vec<OverheadPoint> {
    let mut out = Vec::new();
    for desc in arch::profiled_networks(batch) {
        for device in Device::overhead_gpus() {
            out.push(measure(&desc, &device, 1));
        }
    }
    out
}

/// Figure 8 (right): deterministic overhead of the six-layer medium CNN
/// as its filter size sweeps over {1, 3, 5, 7}.
pub fn fig8b(batch: usize) -> Vec<OverheadPoint> {
    let mut out = Vec::new();
    for k in [1usize, 3, 5, 7] {
        let desc = arch::medium_cnn(k, batch);
        for device in Device::overhead_gpus() {
            let mut p = measure(&desc, &device, 1);
            p.workload = format!("MediumCNN k={k}");
            out.push(p);
        }
    }
    out
}

/// Figure 7: the top-20 kernel cumulative-runtime profiles of 100 training
/// steps of ResNet-50 on V100, default vs deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7 {
    /// Profile under default execution.
    pub default_profile: KernelProfile,
    /// Profile under deterministic execution.
    pub deterministic_profile: KernelProfile,
}

/// Runs the Figure-7 profiling experiment.
pub fn fig7(steps: u64) -> Fig7 {
    let desc = arch::resnet50(64);
    let device = Device::v100();
    Fig7 {
        default_profile: profile_workload(&desc.ops, &device, ExecutionMode::Default, steps),
        deterministic_profile: profile_workload(
            &desc.ops,
            &device,
            ExecutionMode::Deterministic,
            steps,
        ),
    }
}

/// Renders a Figure-8-style overhead table.
pub fn render_overheads(title: &str, points: &[OverheadPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workload.clone(),
                p.device.clone(),
                format!("{:.1}%", p.overhead_pct),
                format!("{:.3}s", p.default_time_s),
                format!("{:.3}s", p.deterministic_time_s),
            ]
        })
        .collect();
    render_table(
        title,
        &[
            "Workload",
            "GPU",
            "Relative time",
            "Default",
            "Deterministic",
        ],
        &rows,
    )
}

/// Renders the Figure-7 top-20 kernel comparison.
pub fn render_fig7(fig: &Fig7) -> String {
    let mut out = String::new();
    for (label, profile) in [
        ("Default mode", &fig.default_profile),
        ("TF-deterministic mode", &fig.deterministic_profile),
    ] {
        let rows: Vec<Vec<String>> = profile
            .top_k(20)
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.invocations.to_string(),
                    format!("{:.4}s", r.total_time_s),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &format!(
                "Figure 7 [{label}]: top-20 kernels, {} distinct kernels, total {:.3}s",
                profile.distinct_kernels(),
                profile.total_time_s()
            ),
            &["Kernel", "Calls", "Cumulative time"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8b_overheads_grow_with_filter_size() {
        let points = fig8b(8);
        assert_eq!(points.len(), 12);
        for device in ["P100", "V100", "T4"] {
            let series: Vec<f64> = points
                .iter()
                .filter(|p| p.device == device)
                .map(|p| p.overhead_pct)
                .collect();
            assert_eq!(series.len(), 4);
            for w in series.windows(2) {
                assert!(w[1] >= w[0] * 0.999, "{device}: {series:?} not monotone");
            }
            assert!(series[0] >= 100.0, "{device}: overhead below parity");
        }
    }

    #[test]
    fn fig8a_covers_ten_networks_times_three_gpus() {
        let points = fig8a(4);
        assert_eq!(points.len(), 30);
        assert!(points.iter().all(|p| p.overhead_pct >= 99.9));
    }

    #[test]
    fn fig7_deterministic_profile_is_slower_and_narrower() {
        let fig = fig7(10);
        assert!(fig.deterministic_profile.total_time_s() > fig.default_profile.total_time_s());
        // Deterministic mode schedules a narrower kernel set and never a
        // nondeterministic algorithm.
        assert!(
            fig.deterministic_profile.distinct_kernels() < fig.default_profile.distinct_kernels()
        );
        assert!(fig
            .deterministic_profile
            .records()
            .iter()
            .all(|r| !r.name.contains("atomic")
                && !r.name.contains("winograd")
                && !r.name.contains("fft")));
        assert!(fig
            .default_profile
            .records()
            .iter()
            .any(|r| r.name.contains("winograd")));
        assert!(!render_fig7(&fig).is_empty());
    }

    #[test]
    fn renderers_are_nonempty() {
        let pts = fig8b(2);
        let s = render_overheads("Figure 8 (right)", &pts);
        assert!(s.contains("MediumCNN k=7"));
    }
}
