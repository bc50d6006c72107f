//! Integration coverage for the data-ordering (Fig. 6) and subgroup
//! fairness (Fig. 3 / Tables 3, 5) pipelines.

use detrand::Philox;
use hwsim::{Device, ExecutionContext, ExecutionMode};
use nnet::trainer::Trainer;
use noisescope::experiments::fairness;
use noisescope::prelude::*;
use ns_integration::tiny_task;

#[test]
fn data_order_alone_diverges_weights_on_deterministic_hardware() {
    // The Figure-6 mechanism at test scale: same seed, deterministic TPU,
    // only the shuffle order differs → weights must differ (at least one
    // ulp) because gradient accumulation follows the visit order.
    let task = tiny_task();
    let prepared = PreparedTask::prepare(&task);
    let algo = Philox::from_seed(99);
    let run = |shuffle_seed: u64| {
        let mut cfg = task.train;
        cfg.epochs = 4;
        cfg.shuffle_seed_override = Some(shuffle_seed);
        let mut exec = ExecutionContext::new(Device::tpu_v2(), ExecutionMode::Default, 0);
        let mut net = task.build_model(&algo);
        Trainer::new(cfg)
            .fit(&mut net, prepared.train_set(), &mut exec, &algo, None)
            .expect("order-only run trains");
        net.flat_weights()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "different data order left weights bitwise identical");
    // And the same order replays exactly.
    assert_eq!(a, run(1));
}

#[test]
fn full_batch_training_is_still_order_sensitive() {
    let task = tiny_task();
    let prepared = PreparedTask::prepare(&task);
    let algo = Philox::from_seed(99);
    let full = prepared.train_set().len();
    let run = |shuffle_seed: u64| {
        let mut cfg = task.train;
        cfg.epochs = 6;
        cfg.batch_size = full; // one batch: identical gradient *terms*
        cfg.shuffle_seed_override = Some(shuffle_seed);
        let mut exec = ExecutionContext::new(Device::tpu_v2(), ExecutionMode::Default, 0);
        let mut net = task.build_model(&algo);
        Trainer::new(cfg)
            .fit(&mut net, prepared.train_set(), &mut exec, &algo, None)
            .expect("full-batch run trains");
        net.flat_weights()
    };
    assert_ne!(
        run(1),
        run(2),
        "mathematically identical full-batch gradients still depend on \
         accumulation order — the paper's latent implementation noise"
    );
}

#[test]
fn celeba_pipeline_produces_complete_table5() {
    let settings = ExperimentSettings {
        replicas: 2,
        epochs_scale: 0.34, // 2 epochs
        ..ExperimentSettings::default()
    };
    let tables = fairness::fig3_table5(&settings)
        .run(&settings)
        .expect("the CelebA cells train");
    assert_eq!(tables.len(), 3, "one table per measured variant");
    for t in &tables {
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0].group, "All");
        // The "All" row is its own baseline.
        if t.rows[0].std_accuracy > 0.0 {
            assert!((t.rows[0].rel_accuracy - 1.0).abs() < 1e-9);
        }
        for row in &t.rows {
            assert!(row.std_accuracy >= 0.0 && row.std_fpr >= 0.0 && row.std_fnr >= 0.0);
        }
    }
}

#[test]
fn table3_proportions_track_the_paper() {
    let c = fairness::table3();
    let total = c.total() as f64;
    // Male ≈ 42 % of the population; positives rare among males.
    let male_frac = (c.male_pos + c.male_neg) as f64 / total;
    assert!(
        (0.36..0.48).contains(&male_frac),
        "male fraction {male_frac}"
    );
    let male_rate = c.male_pos as f64 / (c.male_pos + c.male_neg) as f64;
    let female_rate = c.female_pos as f64 / (c.female_pos + c.female_neg) as f64;
    assert!(male_rate < 0.07, "male positive rate {male_rate}");
    assert!(female_rate > 0.15, "female positive rate {female_rate}");
    // Old is the minority age group.
    assert!((c.old_pos + c.old_neg) < (c.young_pos + c.young_neg));
}
