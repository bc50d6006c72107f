//! Benchmark self-tests: the traced rebuild trains bit-identically to the
//! zoo models, the replay loop reproduces the runner, and every workload
//! runs end to end at smoke size, traced and untraced.

use detrand::Philox;
use hwsim::{Device, ExecutionContext, ExecutionMode};
use nnet::trainer::Trainer;
use noisebench::replay::{build_traced, replay_replica, SharedTracer};
use noisebench::run::{run, Options};
use noisebench::tracer::Tracer;
use noisebench::workloads::{Kind, Scale, Workload};
use noisescope::runner::{run_replica, PreparedTask};
use noisescope::task::{ModelKind, TaskSpec};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

fn tracer() -> SharedTracer {
    Rc::new(RefCell::new(Tracer::new(Instant::now(), 0, None)))
}

fn bits(w: &[f32]) -> Vec<u32> {
    w.iter().map(|v| v.to_bits()).collect()
}

/// A smoke-size task of the given model from the benchmark's own specs.
fn smoke_task(model: ModelKind) -> TaskSpec {
    let w = Workload::build(Kind::ImplNoise, 3, Scale::Smoke).expect("valid workload");
    let mut t = match model {
        ModelKind::MicroResNet18 => w.tasks[1].clone(),
        _ => w.tasks[0].clone(),
    };
    t.model = model;
    t.train.epochs = 2;
    t
}

#[test]
fn wrapped_rebuild_trains_bit_identically_to_the_zoo() {
    for model in [
        ModelKind::SmallCnn { with_bn: false },
        ModelKind::SmallCnn { with_bn: true },
        ModelKind::MicroResNet18,
    ] {
        let task = smoke_task(model);
        let prepared = PreparedTask::prepare(&task);
        let root = Philox::from_seed(11);
        let train = |net: &mut nnet::Network| {
            // Permuted reductions: any difference in reducer call order
            // between the two models would change the bits.
            let mut exec = ExecutionContext::builder(Device::v100())
                .mode(ExecutionMode::Default)
                .entropy(5)
                .amp_ulps(512.0)
                .build();
            Trainer::new(task.train)
                .fit(net, prepared.train_set(), &mut exec, &root, None)
                .expect("training succeeds");
        };
        let mut zoo = task.build_model(&root);
        let t = tracer();
        let mut wrapped = build_traced(&task, &root, &t).expect("traced rebuild");
        assert_eq!(
            bits(&zoo.flat_weights()),
            bits(&wrapped.flat_weights()),
            "{model:?}: initial weights"
        );
        assert_eq!(zoo.layer_kinds(), wrapped.layer_kinds(), "{model:?}");
        train(&mut zoo);
        train(&mut wrapped);
        assert_eq!(
            bits(&zoo.flat_weights()),
            bits(&wrapped.flat_weights()),
            "{model:?}: trained weights"
        );
        assert!(
            t.borrow_mut().begin("probe") > 0,
            "{model:?}: the wrappers recorded spans"
        );
    }
}

#[test]
fn replay_loop_reproduces_the_runner() {
    let w = Workload::build(Kind::ImplNoise, 4, Scale::Smoke).expect("valid workload");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay-selftest");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for cell in &w.cells {
        let prepared = PreparedTask::prepare(&w.tasks[cell.task]);
        for replica in 0..w.settings.replicas {
            let want = run_replica(&prepared, &cell.device, cell.variant, &w.settings, replica)
                .expect("runner trains");
            let got = replay_replica(
                &prepared,
                &cell.device,
                cell.variant,
                &w.settings,
                replica,
                &tracer(),
                &dir.join("r.ckpt"),
            )
            .expect("replay trains");
            assert_eq!(bits(&want.weights), bits(&got.result.weights));
            assert_eq!(want.preds, got.result.preds);
            assert_eq!(want.accuracy.to_bits(), got.result.accuracy.to_bits());
            assert_eq!(
                want.final_train_loss.to_bits(),
                got.result.final_train_loss.to_bits()
            );
            assert!(got.steps > 0);
            assert!(got.reducer_calls[0] > 0, "matmul reductions were counted");
        }
    }
    // The replay checkpoints as a fleet worker would.
    assert!(dir.join("r.ckpt").is_file());
}

fn smoke(kind: Kind, trace: bool) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        kind.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload: kind,
        seed: 9,
        seconds: 0.01,
        trace,
        scale: Scale::Smoke,
        out_dir: out.clone(),
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_noisebench")),
    };
    let outcome = run(&opts).expect("run completes");
    assert!(outcome.correct, "{}: {:?}", kind.name(), outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    if trace {
        for want in [
            "nstensor.conv_fwd.permuted.us",
            "nnet.step_ms.p50",
            "fleet.worker_s.p50",
            "resume.harvest_ms",
            "trace.overhead_s",
        ] {
            assert!(names.contains(&want), "{}: missing {want}", kind.name());
        }
        assert!(out
            .join(format!("trace-{}-seed9.json", kind.name()))
            .is_file());
    } else {
        assert_eq!(
            names,
            [
                "wall_s",
                "setup_s",
                "samples_per_core_s",
                "cpu_util",
                "peak_rss_mb"
            ]
        );
    }
    for m in &outcome.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            kind.name(),
            m.name,
            m.value
        );
    }
    // Scratch stores are gone once the run ends.
    let leftovers: Vec<String> = std::fs::read_dir(&out)
        .expect("out dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| !n.ends_with(".json"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn smoke_impl_noise() {
    smoke(Kind::ImplNoise, false);
    smoke(Kind::ImplNoise, true);
}

#[test]
fn smoke_det_control() {
    smoke(Kind::DetControl, false);
    smoke(Kind::DetControl, true);
}

#[test]
fn smoke_fleet_resume() {
    smoke(Kind::FleetResume, false);
    smoke(Kind::FleetResume, true);
}
