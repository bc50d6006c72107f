//! Fault-tolerance guarantees, end to end: interrupt/resume is bitwise
//! lossless, chaos-injected fleets recover to bit-identical results, and
//! exhausted retry budgets degrade into flagged reports instead of
//! panics.

// Exact float assertions are deliberate: bit-identical replay is what these tests check.
#![allow(clippy::float_cmp)]

use detrand::{Philox, StreamId};
use hwsim::ChaosConfig;
use nnet::checkpoint::Checkpoint;
use nnet::trainer::Trainer;
use noisescope::prelude::*;
use ns_integration::{tiny_settings, tiny_task};
use proptest::prelude::*;

/// Runs `train` three times: uninterrupted, with a sink that keeps the
/// epoch-2 checkpoint a durable sink would have persisted before the
/// process died, and resumed from that checkpoint. Returns the
/// uninterrupted and the resumed outcome.
fn interrupted_at_epoch_2<T>(train: impl Fn(FitOptions<'_>) -> T) -> (T, T) {
    let reference = train(FitOptions::default());
    let mut at_k: Option<Checkpoint> = None;
    let mut sink = |c: &Checkpoint| {
        if c.epochs_done == 2 {
            at_k = Some(c.clone());
        }
    };
    train(FitOptions {
        sink: Some(&mut sink),
        ..FitOptions::default()
    });
    let ck = at_k.expect("epoch-2 checkpoint was emitted");
    let resumed = train(FitOptions {
        resume: Some(&ck),
        ..FitOptions::default()
    });
    (reference, resumed)
}

/// The bits of the eval-mode test-set logits of a model of `prepared`
/// trained on `device` with `opts`. Eval mode normalizes with batch-norm
/// running statistics, which the replica weights do not hold.
fn eval_logits(prepared: &PreparedTask, device: &Device, opts: FitOptions<'_>) -> Vec<u32> {
    let algo = Philox::from_seed(5);
    let mut exec = ExecutionContext::builder(*device).entropy(9).build();
    let mut net = prepared.spec.build_model(&algo);
    Trainer::new(prepared.spec.train_config(&tiny_settings()))
        .fit_with(&mut net, prepared.train_set(), &mut exec, &algo, None, opts)
        .expect("model trains");
    let x = prepared.test_set().x.clone();
    let logits = net.forward(x, &mut exec, &algo, 0, false);
    logits.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The golden interrupt/resume property on a deterministic device and a
/// noisy GPU, without and with batch norm: training interrupted at an
/// epoch boundary and resumed from the persisted checkpoint must
/// reproduce the uninterrupted run bit-for-bit — weights, predictions,
/// accuracy and eval-mode logits.
#[test]
fn golden_interrupt_resume_is_bitwise_identical_on_cpu_and_gpu() {
    let mut bn_task = tiny_task();
    bn_task.model = ModelKind::SmallCnn { with_bn: true };
    let settings = tiny_settings();
    for mut task in [tiny_task(), bn_task] {
        task.train.epochs = 4;
        let prepared = PreparedTask::prepare(&task);
        for device in [Device::cpu(), Device::v100()] {
            let on = format!("{:?} on {}", task.model, device.name());
            let (reference, resumed) = interrupted_at_epoch_2(|opts| {
                run_replica_with(
                    &prepared,
                    &device,
                    NoiseVariant::Impl,
                    &settings,
                    0,
                    0,
                    opts,
                )
                .expect("replica trains")
            });
            let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&reference.weights),
                bits(&resumed.weights),
                "resume-at-epoch-2 weights diverged, {on}"
            );
            assert_eq!(reference.preds, resumed.preds, "{on}");
            assert_eq!(
                reference.accuracy.to_bits(),
                resumed.accuracy.to_bits(),
                "{on}"
            );
            let (reference, resumed) =
                interrupted_at_epoch_2(|opts| eval_logits(&prepared, &device, opts));
            assert_eq!(reference, resumed, "eval logits diverged, {on}");
        }
    }
}

/// Chaos-injected transient faults (a launch failure and a kernel panic)
/// are recovered by the supervisor into a fleet bit-identical to a
/// fault-free one, with the retries visible in the statuses.
#[test]
fn chaos_fleet_recovers_bit_identically_with_retried_statuses() {
    let prepared = PreparedTask::prepare(&tiny_task());
    let clean = tiny_settings();
    let chaotic = ExperimentSettings {
        chaos: Some(ChaosConfig::standard(41)),
        ..clean
    };
    let baseline = run_variant(&prepared, &Device::v100(), NoiseVariant::AlgoImpl, &clean);
    let faulted = run_variant(&prepared, &Device::v100(), NoiseVariant::AlgoImpl, &chaotic);
    assert!(faulted.is_complete(), "statuses: {:?}", faulted.statuses);
    assert!(
        faulted.retried_replicas() > 0,
        "chaos must fault at least one replica: {:?}",
        faulted.statuses
    );
    assert_eq!(baseline.results.len(), faulted.results.len());
    for (a, b) in baseline.results.iter().zip(&faulted.results) {
        assert_eq!(a.weights, b.weights, "replica {}", a.replica);
        assert_eq!(a.preds, b.preds, "replica {}", a.replica);
    }
}

/// Persistent faults that outlive the retry budget cost the fleet those
/// replicas — and nothing else: no panic, a degraded `VariantRuns`, and a
/// stability report that flags itself as incomplete.
#[test]
fn exhausted_budget_degrades_into_flagged_report() {
    let prepared = PreparedTask::prepare(&tiny_task());
    let settings = ExperimentSettings {
        retry_budget: 1,
        chaos: Some(ChaosConfig {
            persistent: true,
            ..ChaosConfig::standard(7)
        }),
        ..tiny_settings()
    };
    let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &settings);
    assert!(!runs.is_complete());
    assert!(runs.results.is_empty());
    let report = stability_report(&prepared, &Device::v100(), NoiseVariant::Impl, &runs);
    assert!(!report.is_complete());
    assert_eq!(report.failed_replicas, vec![0, 1]);
    assert!(
        report.summary_line().contains("INCOMPLETE: 2 of 2"),
        "{}",
        report.summary_line()
    );
}

proptest! {
    /// The checkpoint codec is byte-exact over arbitrary training state:
    /// decode(encode(ck)) == ck, including non-trivial RNG stream and
    /// scheduler positions.
    #[test]
    fn checkpoint_codec_round_trips(
        seed in any::<u64>(),
        draws in 0usize..40,
        epochs_done in 0u32..100,
        steps in any::<u64>(),
        // Floats travel the codec as raw bits, so arbitrary bit patterns
        // (subnormals, infinities, NaN payloads) are the honest domain.
        loss_bits in proptest::collection::vec(any::<u32>(), 0..8),
        weight_bits in proptest::collection::vec(any::<u32>(), 0..64),
        velocity_bits in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..16), 0..4),
        order in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        let floats = |bits: Vec<u32>| bits.into_iter().map(f32::from_bits).collect::<Vec<_>>();
        let epoch_losses = floats(loss_bits);
        let weights = floats(weight_bits);
        let velocity: Vec<Vec<f32>> = velocity_bits.into_iter().map(floats).collect();
        let root = Philox::from_seed(seed);
        let mut shuffle = root.stream(StreamId::SHUFFLE);
        let mut augment = root.stream(StreamId::AUGMENT);
        for _ in 0..draws {
            let _ = shuffle.next_u64();
            let _ = augment.next_f32();
        }
        let mut exec = ExecutionContext::builder(Device::v100())
            .entropy(seed ^ 0xABCD)
            .build();
        // Advance scheduler state so the snapshot is not the trivial one.
        for _ in 0..(draws % 7) {
            let _ = exec.reducer(OpClass::WeightGrad).sum(&[1.0, 2.0, 3.0]);
        }
        let ck = Checkpoint {
            epochs_done,
            steps,
            epoch_losses,
            weights,
            velocity,
            shuffle_rng: shuffle.snapshot(),
            augment_rng: augment.snapshot(),
            exec: exec.snapshot(),
            order,
        };
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("decode");
        // PartialEq would treat NaN losses as unequal; compare the exact
        // byte encodings instead (byte-exactness is the property anyway).
        prop_assert_eq!(bytes, back.to_bytes());
    }
}
