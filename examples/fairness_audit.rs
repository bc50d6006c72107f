//! Fairness audit: does training noise harm protected subgroups unevenly?
//!
//! Reproduces the paper's CelebA study at demo scale: trains attribute
//! predictors under each noise variant and dis-aggregates the stability of
//! accuracy/FPR/FNR over protected subgroups (Male/Female, Young/Old)
//! whose positive-label representation matches the paper's Table 3. The
//! underrepresented groups (Male: ~2 % positive, Old) show the largest
//! run-to-run variance — models with identical top-line metrics can treat
//! them very differently depending on nothing but noise.
//!
//! ```text
//! cargo run --release -p ns-examples --bin fairness_audit
//! ```

use noisescope::experiments::fairness;
use noisescope::prelude::*;

fn main() {
    let settings = ExperimentSettings {
        replicas: 4,
        ..ExperimentSettings::default()
    };

    let counts = fairness::table3();
    println!("{}", fairness::render_table3(&counts));
    println!(
        "Male positive rate: {:.1}% — Female: {:.1}% (the imbalance driving the result)\n",
        100.0 * counts.male_pos as f64 / (counts.male_pos + counts.male_neg) as f64,
        100.0 * counts.female_pos as f64 / (counts.female_pos + counts.female_neg) as f64,
    );

    println!(
        "Training {} replicas per noise variant on V100...\n",
        settings.replicas
    );
    let tables = fairness::fig3_table5(&settings)
        .run(&settings)
        .expect("the CelebA cells train");
    println!("{}", fairness::render_table5(&tables));

    for t in &tables {
        let all = &t.rows[0];
        if let Some(worst) = t
            .rows
            .iter()
            .skip(1)
            .max_by(|a, b| a.rel_fnr.total_cmp(&b.rel_fnr))
        {
            println!(
                "[{}] worst FNR instability: {} at {:.1}x the population level \
                 (population stddev {:.4})",
                t.variant.label(),
                worst.group,
                worst.rel_fnr,
                all.std_fnr
            );
        }
    }
    println!(
        "\nEven when top-line accuracy variance is tiny, subgroup error rates swing far\n\
         more between retrainings — noise amplifies bias on the long tail."
    );
}
