//! Calibration guards for the determinism cost model: the reproduced
//! Figure-7/8 results must keep the paper's shape (and roughly its
//! magnitudes) as the code evolves.

use noisescope::experiments::cost::{fig7, fig8a, fig8b};

fn series(points: &[noisescope::experiments::cost::OverheadPoint], device: &str) -> Vec<f64> {
    points
        .iter()
        .filter(|p| p.device == device)
        .map(|p| p.overhead_pct)
        .collect()
}

#[test]
fn filter_sweep_is_monotone_and_in_paper_ranges() {
    let pts = fig8b(64);
    // Paper Fig. 8 (right): 284–746 % on P100, 129–241 % on V100,
    // 117–196 % on T4, monotone in filter size.
    let expect = [
        ("P100", 230.0, 900.0),
        ("V100", 115.0, 300.0),
        ("T4", 105.0, 240.0),
    ];
    for (device, lo, hi) in expect {
        let s = series(&pts, device);
        assert_eq!(s.len(), 4, "{device}");
        for w in s.windows(2) {
            assert!(w[1] >= w[0], "{device}: overhead not monotone in k: {s:?}");
        }
        assert!(s[0] >= lo && s[0] <= hi, "{device} k=1: {}", s[0]);
        assert!(s[3] >= lo && s[3] <= hi, "{device} k=7: {}", s[3]);
        // Dynamic range of the sweep must be substantial, like the paper's.
        assert!(s[3] / s[0] > 1.5, "{device}: sweep too flat: {s:?}");
    }
}

#[test]
fn pascal_pays_most_for_determinism() {
    let pts = fig8b(64);
    for i in 0..4 {
        let p100 = series(&pts, "P100")[i];
        let v100 = series(&pts, "V100")[i];
        let t4 = series(&pts, "T4")[i];
        assert!(p100 > v100, "point {i}");
        assert!(v100 > t4, "point {i}");
    }
}

#[test]
fn model_sweep_shape_matches_paper() {
    let pts = fig8a(64);
    let get = |w: &str, d: &str| {
        pts.iter()
            .find(|p| p.workload == w && p.device == d)
            .map(|p| p.overhead_pct)
            .unwrap_or_else(|| panic!("missing {w}/{d}"))
    };
    for device in ["P100", "V100", "T4"] {
        // MobileNet is the cheapest network to make deterministic
        // (pointwise + depthwise convolutions).
        let mobile = get("MobileNetV2", device);
        for heavy in ["VGG16", "VGG19", "InceptionV3"] {
            assert!(
                get(heavy, device) > mobile,
                "{heavy} should exceed MobileNetV2 on {device}"
            );
        }
        // Every model pays at least parity; none explodes past the
        // medium-CNN extremes.
        for p in pts.iter().filter(|p| p.device == device) {
            assert!(p.overhead_pct >= 99.9, "{}: {}", p.workload, p.overhead_pct);
        }
    }
    // V100 VGG-19 lands near the paper's 185 % (generous tolerance).
    let vgg19_v100 = get("VGG19", "V100");
    assert!(
        (120.0..220.0).contains(&vgg19_v100),
        "VGG19/V100 {vgg19_v100}"
    );
}

#[test]
fn fig7_profile_has_paper_properties() {
    let fig = fig7(100);
    // Deterministic mode is slower overall...
    assert!(fig.deterministic_profile.total_time_s() > fig.default_profile.total_time_s());
    // ...schedules a narrower kernel set...
    assert!(fig.deterministic_profile.distinct_kernels() < fig.default_profile.distinct_kernels());
    // ...and its invocation counts scale with the profiled steps.
    let top = &fig.default_profile.top_k(1)[0];
    assert_eq!(top.invocations % 100, 0);
    // Top-20 cumulative time must dominate the profile (skewed allocation).
    let top20: f64 = fig
        .default_profile
        .top_k(20)
        .iter()
        .map(|r| r.total_time_s)
        .sum();
    assert!(top20 / fig.default_profile.total_time_s() > 0.5);
}

/// Known answer: the JSON of Figures 7 and 8, pinned by length and FNV-1a
/// 64 digest. The range checks above let a pricing change through as long
/// as it stays inside the paper's bands; these three pairs do not.
#[test]
fn figures_are_pinned() {
    fn pin(value: &impl serde::Serialize) -> (usize, u64) {
        let json = serde_json::to_string(value).expect("serialize");
        let fnv1a = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        (json.len(), fnv1a)
    }
    assert_eq!(pin(&fig7(100)), (6794, 0x89e9_ff45_c54f_3c9f));
    assert_eq!(pin(&fig8a(64)), (4631, 0x4afd_2d50_79fe_c627));
    assert_eq!(pin(&fig8b(64)), (1910, 0xa4cc_ae36_6e5b_adb4));
}
