//! Stability reports and text-table rendering.

use crate::runner::{Preds, PreparedTask, VariantRuns};
use crate::variant::NoiseVariant;
use hwsim::Device;
use nnet::trainer::Targets;
use nsmetrics::{mean, pairwise_mean_churn, pairwise_mean_l2, per_class_accuracy, stddev};
use serde::{Deserialize, Serialize};

/// Publishes a JSON report atomically (pretty-printed, via the same
/// write-temp-then-rename helper the checkpoint store uses), so an
/// interrupt mid-write can never leave a truncated `results/*.json` on
/// disk where a plotting script or CI comparison would read it.
///
/// # Errors
///
/// Propagates filesystem errors from the temp write or rename.
pub fn save_json(path: &std::path::Path, value: &serde_json::Value) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    crate::resume::write_atomic(path, text.as_bytes())
}

/// The stability measures of one (task, device, variant) cell — one bar
/// group of the paper's Figures 1/2/5/9/10 and one cell of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Task name.
    pub task: String,
    /// Device name.
    pub device: String,
    /// Noise variant.
    pub variant: NoiseVariant,
    /// Replica count.
    pub replicas: usize,
    /// Mean test accuracy.
    pub mean_accuracy: f64,
    /// Standard deviation of test accuracy across replicas.
    pub std_accuracy: f64,
    /// Mean pairwise predictive churn.
    pub churn: f64,
    /// Mean pairwise normalized-L2 weight distance.
    pub l2: f64,
    /// Per-class accuracy stddev across replicas (empty for binary tasks).
    pub per_class_std: Vec<f64>,
    /// Largest per-class stddev divided by the top-line stddev (the
    /// paper's "up to 4×/23×" numbers). 0 when undefined.
    pub max_per_class_ratio: f64,
    /// Replica indices that exhausted their retry budget. Non-empty marks
    /// the cell as incomplete: its statistics cover fewer replicas than
    /// requested and should be read accordingly.
    pub failed_replicas: Vec<u32>,
    /// Replicas that needed at least one supervised retry (their results
    /// are still bit-identical to fault-free runs, so this is purely
    /// provenance, not a quality flag).
    pub retried_replicas: usize,
    /// Replicas that learned nothing: on a class task they predict fewer
    /// than half the classes and score under twice chance; on a binary
    /// task they predict one value everywhere. Non-empty marks the cell as
    /// degenerate: its churn and distances compare dead models, not
    /// training noise.
    pub degenerate_replicas: Vec<u32>,
}

impl StabilityReport {
    /// Whether every requested replica contributed to the statistics.
    pub fn is_complete(&self) -> bool {
        self.failed_replicas.is_empty()
    }

    /// One-line human-readable summary. Incomplete and degenerate cells
    /// are flagged.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{:<22} {:<10} {:<10} acc {:.2}%±{:.2} churn {:.4} l2 {:.4}",
            self.task,
            self.device,
            self.variant.label(),
            100.0 * self.mean_accuracy,
            100.0 * self.std_accuracy,
            self.churn,
            self.l2
        );
        if !self.failed_replicas.is_empty() {
            line.push_str(&format!(
                " [INCOMPLETE: {} of {} replicas failed]",
                self.failed_replicas.len(),
                self.replicas + self.failed_replicas.len()
            ));
        }
        line.push_str(&degenerate_tag(&self.degenerate_replicas));
        line
    }
}

/// ` [DEGENERATE: replicas 0, 2]` for a cell with degenerate replicas, and
/// nothing for a cell without: the suffix every rendering of a cell
/// carries, the way `[INCOMPLETE]` marks a cell with failed replicas.
pub fn degenerate_tag(replicas: &[u32]) -> String {
    if replicas.is_empty() {
        return String::new();
    }
    let list: Vec<String> = replicas.iter().map(u32::to_string).collect();
    format!(" [DEGENERATE: replicas {}]", list.join(", "))
}

/// The learning-sanity gate: a replica learned nothing when, on a class
/// task, it predicts fewer than half the classes *and* scores under twice
/// chance, or, on a binary task, predicts one value everywhere. Either
/// class test alone misfires: CIFAR-100 replicas that learn predict under
/// half the classes at the quick budget, and a replica can score near
/// chance while still spreading its predictions.
fn is_degenerate(preds: &Preds, accuracy: f64, classes: usize) -> bool {
    match preds {
        Preds::Classes(p) => {
            let mut seen = vec![false; classes];
            for &c in p {
                if let Some(s) = seen.get_mut(c as usize) {
                    *s = true;
                }
            }
            let predicted = seen.iter().filter(|&&s| s).count();
            2 * predicted < classes && accuracy < 2.0 / classes as f64
        }
        Preds::Binary(b) => b.windows(2).all(|w| w[0] == w[1]),
    }
}

/// Builds the stability report for a variant's replica fleet.
pub fn stability_report(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    runs: &VariantRuns,
) -> StabilityReport {
    let accs = runs.accuracies();
    let weights = runs.weight_sets();
    let l2 = pairwise_mean_l2(&weights);

    let (churn, per_class_std) = match &runs.results.first().map(|r| &r.preds) {
        Some(Preds::Classes(_)) => {
            let preds = runs
                .class_pred_sets()
                .expect("matched Preds::Classes above");
            let churn = pairwise_mean_churn(&preds);
            // Per-class accuracy stddev across replicas.
            let labels = match &prepared.test_set().targets {
                Targets::Classes(l) => l.clone(),
                Targets::Binary(_) => unreachable!("class preds imply class labels"),
            };
            let classes = prepared.classes();
            let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); classes];
            for p in &preds {
                for (c, acc) in per_class_accuracy(p, &labels, classes)
                    .into_iter()
                    .enumerate()
                {
                    if let Some(a) = acc {
                        per_class[c].push(a);
                    }
                }
            }
            (churn, per_class.iter().map(|xs| stddev(xs)).collect())
        }
        Some(Preds::Binary(_)) => {
            let preds = runs
                .binary_pred_sets()
                .expect("matched Preds::Binary above");
            (pairwise_mean_churn(&preds), Vec::new())
        }
        None => (0.0, Vec::new()),
    };

    let overall_std = stddev(&accs);
    let max_ratio = if overall_std > 0.0 {
        per_class_std
            .iter()
            .fold(0.0f64, |m, &s| m.max(s / overall_std))
    } else {
        0.0
    };

    let classes = prepared.classes();
    let degenerate_replicas = runs
        .results
        .iter()
        .filter(|r| is_degenerate(&r.preds, r.accuracy, classes))
        .map(|r| r.replica)
        .collect();

    StabilityReport {
        task: prepared.spec.name.clone(),
        device: device.name().to_string(),
        variant,
        replicas: runs.results.len(),
        mean_accuracy: mean(&accs),
        std_accuracy: overall_std,
        churn,
        l2,
        per_class_std,
        max_per_class_ratio: max_ratio,
        failed_replicas: runs.failed_replicas(),
        retried_replicas: runs.retried_replicas(),
        degenerate_replicas,
    }
}

/// Renders an aligned text table.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        line.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ReplicaResult;

    fn fake_runs(preds: Vec<Vec<u32>>, accs: Vec<f64>) -> VariantRuns {
        let statuses = vec![crate::runner::ReplicaStatus::Ok; preds.len()];
        VariantRuns {
            variant: NoiseVariant::AlgoImpl,
            results: preds
                .into_iter()
                .zip(accs)
                .enumerate()
                .map(|(i, (p, a))| ReplicaResult {
                    replica: i as u32,
                    accuracy: a,
                    preds: Preds::Classes(p),
                    weights: vec![1.0, 2.0, i as f32],
                    final_train_loss: 0.1,
                })
                .collect(),
            statuses,
        }
    }

    fn tiny_prepared() -> PreparedTask {
        use crate::task::{DataSource, TaskSpec};
        use nsdata::GaussianSpec;
        let mut t = TaskSpec::small_cnn_cifar10();
        t.data = DataSource::Gaussian(GaussianSpec {
            classes: 2,
            train_per_class: 4,
            test_per_class: 2,
            ..GaussianSpec::cifar10_sim()
        });
        PreparedTask::prepare(&t)
    }

    #[test]
    fn report_aggregates_fleet() {
        let prepared = tiny_prepared();
        // Test labels for 2 classes × 2/class: [0, 0, 1, 1].
        let runs = fake_runs(vec![vec![0, 0, 1, 1], vec![0, 1, 1, 1]], vec![1.0, 0.75]);
        let rep = stability_report(&prepared, &Device::v100(), NoiseVariant::AlgoImpl, &runs);
        assert_eq!(rep.replicas, 2);
        assert!((rep.mean_accuracy - 0.875).abs() < 1e-12);
        assert!((rep.churn - 0.25).abs() < 1e-12);
        assert_eq!(rep.per_class_std.len(), 2);
        // Class 0: accs (1.0, 0.5); class 1: (1.0, 1.0).
        assert!(rep.per_class_std[0] > rep.per_class_std[1]);
        assert!(rep.max_per_class_ratio > 1.0);
        assert!(rep.summary_line().contains("ALGO+IMPL"));
    }

    #[test]
    fn incomplete_cells_are_flagged() {
        let prepared = tiny_prepared();
        let mut runs = fake_runs(vec![vec![0, 0, 1, 1]], vec![1.0]);
        runs.statuses.push(crate::runner::ReplicaStatus::Failed {
            reason: "2 attempts exhausted; last: injected".into(),
        });
        let rep = stability_report(&prepared, &Device::v100(), NoiseVariant::AlgoImpl, &runs);
        assert!(!rep.is_complete());
        assert_eq!(rep.failed_replicas, vec![1]);
        assert_eq!(rep.replicas, 1, "statistics cover survivors only");
        assert!(
            rep.summary_line().contains("INCOMPLETE: 1 of 2"),
            "{}",
            rep.summary_line()
        );
    }

    /// The gate flags a constant predictor and a near-dead replica on a
    /// 10-class task, but not a CIFAR-100 replica that covers under half
    /// its classes while scoring well above chance.
    #[test]
    fn degenerate_replicas_are_flagged() {
        let constant = Preds::Classes(vec![3; 200]);
        assert!(is_degenerate(&constant, 0.10, 10));
        let near_dead = Preds::Classes((0..200).map(|i| i % 4).collect());
        assert!(is_degenerate(&near_dead, 0.15, 10));
        let cifar100 = Preds::Classes((0..2000).map(|i| i % 44).collect());
        assert!(!is_degenerate(&cifar100, 0.095, 100));
        assert!(is_degenerate(&Preds::Binary(vec![0; 40]), 0.88, 2));
        assert!(!is_degenerate(&Preds::Binary(vec![0, 1, 0, 0]), 0.75, 2));

        // 10 classes × 2 test samples: labels [0, 0, 1, 1, ..., 9, 9].
        let prepared = {
            use crate::task::{DataSource, TaskSpec};
            let mut t = TaskSpec::small_cnn_cifar10();
            t.data = DataSource::Gaussian(nsdata::GaussianSpec {
                classes: 10,
                train_per_class: 2,
                test_per_class: 2,
                ..nsdata::GaussianSpec::cifar10_sim()
            });
            PreparedTask::prepare(&t)
        };
        let learned: Vec<u32> = (0..20).map(|i| i / 2).collect();
        let runs = fake_runs(
            vec![vec![0; 20], learned, (0..20).map(|i| i % 4).collect()],
            vec![0.10, 1.0, 0.15],
        );
        let rep = stability_report(&prepared, &Device::v100(), NoiseVariant::AlgoImpl, &runs);
        assert_eq!(rep.degenerate_replicas, vec![0, 2]);
        assert!(
            rep.summary_line().ends_with(" [DEGENERATE: replicas 0, 2]"),
            "{}",
            rep.summary_line()
        );
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "Demo",
            &["a", "bb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        assert!(t.contains("Demo"));
        assert!(t.contains("long"));
        assert_eq!(t.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn ragged_rows_rejected() {
        render_table("t", &["a"], &[vec!["x".into(), "y".into()]]);
    }
}
