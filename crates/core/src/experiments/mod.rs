//! One entry point per table and figure of the paper.
//!
//! A training experiment is a [`Plan`]: the [`Cell`]s it trains and a
//! read step that turns their runs into its result. `repro` collects the
//! cells of every experiment it runs, trains each distinct cell once
//! through one [`crate::runner::run_grid`] call (in process or in worker
//! processes, durable under a checkpoint store), and reads each
//! experiment from its cells' runs; [`Plan::run`] trains one experiment
//! on its own, in process.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 2 (accuracy ± std per hardware × task × variant) | [`stability::table2`] + [`stability::render_table2`] |
//! | Figure 1 (stddev/churn/L2 by noise source, V100) | [`stability::render_fig_panel`] |
//! | Figure 2 (batch-norm ablation) | [`stability::fig2`] |
//! | Table 3 (CelebA subgroup counts) | [`fairness::table3`] |
//! | Figure 3 / Table 5 (subgroup variance) | [`fairness::fig3_table5`] |
//! | Figure 4 (per-class vs overall variance) | [`stability::fig4_from_reports`] |
//! | Figure 5 (hardware comparison incl. TC, TPU) | [`stability::fig5`] |
//! | Figure 6 (data-order noise vs batch size) | [`ordering::fig6`] |
//! | Figure 7 (top-20 kernel time, det vs default) | [`cost::fig7`] |
//! | Figure 8 left (overhead across 10 networks) | [`cost::fig8a`] |
//! | Figure 8 right (overhead vs filter size) | [`cost::fig8b`] |
//! | Figures 9/10 (Fig. 1 on P100 / RTX5000) | [`stability::render_fig_panel`] |
//! | Extension: parallelism → noise ablation (§3.3) | [`extensions::lanes_sweep`] |
//! | Extension: per-source ALGO decomposition (Table 1) | [`extensions::algo_source_decomposition`] |

use crate::report::{stability_report, StabilityReport};
use crate::runner::{run_grid, Cell, VariantRuns};
use crate::settings::ExperimentSettings;

pub mod cost;
pub mod extensions;
pub mod fairness;
pub mod ordering;
pub mod stability;

/// Why a training experiment produced no result: an error from
/// [`crate::runner::run_grid`], a [`crate::runner::PredsKindError`], or a
/// cell whose replicas failed.
pub type ExperimentError = Box<dyn std::error::Error + Send + Sync>;

/// How a [`Plan`] reads its result from its cells and their runs.
type Read<T> = Box<dyn FnOnce(&[Cell], &[VariantRuns]) -> Result<T, ExperimentError>>;

/// A training experiment split in two: the cells it trains and a read step
/// over their runs.
pub struct Plan<T> {
    /// The cells the experiment reads, in the order its read step takes
    /// their runs.
    pub cells: Vec<Cell>,
    read: Read<T>,
}

impl<T> std::fmt::Debug for Plan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("cells", &self.cells)
            .finish_non_exhaustive()
    }
}

impl<T: 'static> Plan<T> {
    /// A plan over `cells` whose result `read` derives from them and their
    /// runs.
    pub fn new(
        cells: Vec<Cell>,
        read: impl FnOnce(&[Cell], &[VariantRuns]) -> Result<T, ExperimentError> + 'static,
    ) -> Self {
        Plan {
            cells,
            read: Box::new(read),
        }
    }

    /// The result, from the runs of [`Plan::cells`] in order, as
    /// [`run_grid`] returns them.
    ///
    /// # Errors
    ///
    /// Whatever the plan's read step finds wrong with the runs.
    pub fn read(self, runs: &[VariantRuns]) -> Result<T, ExperimentError> {
        (self.read)(&self.cells, runs)
    }

    /// Trains the plan's cells in process, with no store, and reads the
    /// result.
    ///
    /// # Errors
    ///
    /// An error from [`run_grid`] or from [`Plan::read`].
    pub fn run(self, settings: &ExperimentSettings) -> Result<T, ExperimentError> {
        let runs = run_grid(&self.cells, settings, None, None)?;
        self.read(&runs)
    }

    /// The plan with `f` applied to its result.
    pub fn map<U>(self, f: impl FnOnce(T) -> U + 'static) -> Plan<U> {
        let read = self.read;
        Plan {
            cells: self.cells,
            read: Box::new(move |cells, runs| read(cells, runs).map(f)),
        }
    }
}

impl Plan<Vec<StabilityReport>> {
    /// A plan that reports every cell, in order. A cell with failed
    /// replicas is reported and flagged
    /// ([`StabilityReport::failed_replicas`]).
    pub fn reports(cells: Vec<Cell>) -> Self {
        Plan::new(cells, |cells, runs| {
            let report =
                |(c, runs): (&Cell, _)| stability_report(&c.task, &c.device, c.variant, runs);
            Ok(cells.iter().zip(runs).map(report).collect())
        })
    }

    /// [`Plan::reports`], except that a cell with a failed replica is an
    /// error naming the failed ones: a pairwise metric over a partial cell
    /// would silently compare fewer replicas than asked for.
    pub fn strict_reports(cells: Vec<Cell>) -> Self {
        Plan::new(cells, |cells, runs| {
            let report = |(c, runs): (&Cell, _)| {
                let runs = require_complete(runs)?;
                Ok(stability_report(&c.task, &c.device, c.variant, runs))
            };
            cells.iter().zip(runs).map(report).collect()
        })
    }
}

/// `runs` when every replica delivered, else an error naming the failed
/// ones.
fn require_complete(runs: &VariantRuns) -> Result<&VariantRuns, ExperimentError> {
    match runs.failed_replicas() {
        failed if failed.is_empty() => Ok(runs),
        failed => Err(format!("{} cell: replicas {failed:?} failed", runs.variant).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::tests::Scratch;
    use crate::task::{DataSource, TaskSpec};
    use crate::variant::NoiseVariant;
    use hwsim::Device;
    use std::path::{Path, PathBuf};

    fn tiny_task(name: &str) -> TaskSpec {
        let mut t = TaskSpec::small_cnn_cifar10();
        t.name = name.into();
        t.data = DataSource::Gaussian(nsdata::GaussianSpec {
            classes: 3,
            train_per_class: 8,
            test_per_class: 6,
            ..nsdata::GaussianSpec::cifar10_sim()
        });
        t.train.epochs = 2;
        t.augment = false;
        t
    }

    /// Every file under `dir` with its inode: a rewrite, atomic or not,
    /// shows as a new inode or a new path.
    #[cfg(unix)]
    fn files(dir: &Path, out: &mut Vec<(PathBuf, u64)>) {
        use std::os::unix::fs::MetadataExt;
        for entry in std::fs::read_dir(dir).expect("read store") {
            let path = entry.expect("store entry").path();
            let meta = std::fs::metadata(&path).expect("stat");
            if meta.is_dir() {
                files(&path, out);
            } else {
                out.push((path, meta.ino()));
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_cell_two_experiments_ask_for_trains_once() {
        let settings = ExperimentSettings {
            replicas: 2,
            ..ExperimentSettings::default()
        };
        let (v100, (algo, imp)) = (Device::v100(), (NoiseVariant::Algo, NoiseVariant::Impl));
        // Both experiments read (A, V100, IMPL).
        let plans = || {
            (
                stability::grid(&[tiny_task("A")], &[v100], &[imp, algo], 2),
                stability::grid(&[tiny_task("B"), tiny_task("A")], &[v100], &[imp], 2),
            )
        };
        let scratch = Scratch::new("shared-cell");
        let run = || {
            let (first, second) = plans();
            let cells: Vec<Cell> = first.cells.iter().chain(&second.cells).cloned().collect();
            let runs = run_grid(&cells, &settings, Some(&scratch.0), None).expect("one run");
            let json = |grid| serde_json::to_string(&grid).expect("grid serializes");
            let first = json(first.read(&runs[..2]).expect("first reads"));
            let second = json(second.read(&runs[2..]).expect("second reads"));
            (runs, first, second)
        };
        let (runs, first, second) = run();
        let (a, b) = (&runs[0], &runs[3]);
        assert_eq!(a.statuses, b.statuses);
        assert_eq!(a.results.len(), 2);
        let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(bits(&x.weights), bits(&y.weights), "replica {}", x.replica);
            assert_eq!(x.preds, y.preds, "replica {}", x.replica);
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
        }

        // One directory per distinct cell, and the shared one holds one
        // result per replica and nothing else.
        let mut stored = Vec::new();
        files(scratch.0.root(), &mut stored);
        let mut cells: Vec<_> = stored.iter().filter_map(|(p, _)| p.parent()).collect();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 3, "{stored:?}");
        let shared = scratch.0.cell_dir(&tiny_task("A"), &v100, imp);
        let mut names: Vec<_> = std::fs::read_dir(&shared)
            .expect("shared cell")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        names.sort();
        assert_eq!(names, ["r0.result", "r1.result"]);

        // A rerun harvests the complete store: the same reports, and every
        // path and inode of the store unchanged.
        let (_, first_again, second_again) = run();
        assert_eq!((first_again, second_again), (first, second));
        let mut restored = Vec::new();
        files(scratch.0.root(), &mut restored);
        assert_eq!(restored, stored);

        // The shared cell is dispatched once per replica: workers that only
        // log their spec line, on a fresh store, are started 3 cells × 2
        // replicas times, not 4 × 2.
        let fresh = Scratch::new("shared-cell-dispatch");
        let log = std::env::temp_dir().join(format!("noisescope-dispatch-{}", std::process::id()));
        let fleet = crate::fleet::FleetOptions {
            procs: 2,
            worker_exe: Some(PathBuf::from("/bin/sh")),
            worker_args: vec!["-c".into(), format!("cat >> '{}'", log.display()).into()],
        };
        let once = ExperimentSettings {
            retry_budget: 0,
            ..settings
        };
        let (first, second) = plans();
        let cells: Vec<Cell> = first.cells.iter().chain(&second.cells).cloned().collect();
        run_grid(&cells, &once, Some(&fresh.0), Some(&fleet)).expect("logging fleet");
        let dispatched = std::fs::read_to_string(&log).expect("dispatch log");
        std::fs::remove_file(&log).ok();
        assert_eq!(dispatched.lines().count(), 6, "{dispatched}");
    }

    #[test]
    fn no_experiment_reports_a_dead_cell_as_noise_free() {
        // Persistent faults and no retries: every replica of every cell
        // fails, which must be an error naming them, not churn 0.
        let settings = ExperimentSettings {
            replicas: 2,
            epochs_scale: 0.01,
            retry_budget: 0,
            chaos: Some(hwsim::ChaosConfig {
                persistent: true,
                ..hwsim::ChaosConfig::standard(3)
            }),
            ..ExperimentSettings::default()
        };
        let outcomes = [
            (
                "lanes_sweep",
                extensions::lanes_sweep(&settings).run(&settings).map(drop),
            ),
            (
                "algo_source_decomposition",
                extensions::algo_source_decomposition(&settings)
                    .run(&settings)
                    .map(drop),
            ),
            (
                "fig3_table5",
                fairness::fig3_table5(&settings).run(&settings).map(drop),
            ),
        ];
        for (name, outcome) in outcomes {
            let err = outcome.expect_err(name).to_string();
            assert!(
                err.contains("cell: replicas [0, 1] failed"),
                "{name}: {err}"
            );
        }
    }
}
