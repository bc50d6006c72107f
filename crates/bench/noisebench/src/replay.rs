//! The traced run's replay: each in-process replica is retrained by the
//! benchmark's own step loop, on a model rebuilt with every layer wrapped
//! in a timing wrapper.
//!
//! The loop mirrors `Trainer::fit_with` as `noisescope::runner` drives it
//! (same streams, same order of reducer calls), so a replayed replica is
//! bit-identical to the untraced one; the digest check proves it.

use crate::tracer::Tracer;
use detrand::{shuffle_in_place, Philox, StreamId};
use hwsim::{Device, ExecutionContext, OpClass};
use nnet::checkpoint::Checkpoint;
use nnet::layers::{
    BatchNorm2d, Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu, ResidualBlock,
};
use nnet::loss::softmax_cross_entropy;
use nnet::optim::Sgd;
use nnet::trainer::{predict_classes, Augment, Targets};
use nnet::Network;
use noisescope::runner::{Preds, PreparedTask, ReplicaResult};
use noisescope::settings::ExperimentSettings;
use noisescope::task::{ModelKind, TaskSpec};
use noisescope::variant::NoiseVariant;
use nsdata::ShiftFlip;
use nstensor::reduce::sum_ordered_f64;
use nstensor::{ConvGeometry, Tensor};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

/// The tracer shared by one replica's loop and its layer wrappers.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// One layer of a zoo model, in construction order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `Conv2d` with its geometry.
    Conv(ConvGeometry),
    /// `BatchNorm2d` over this many channels.
    BatchNorm(usize),
    /// `Relu`.
    Relu,
    /// `MaxPool2d(2)`.
    MaxPool,
    /// `Flatten`.
    Flatten,
    /// `Dense(in, out)`.
    Dense(usize, usize),
    /// `ResidualBlock(in_c, out_c, stride, hw, hw)`.
    Residual {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Stride of the first conv.
        stride: usize,
        /// Input side length.
        hw: usize,
    },
    /// `GlobalAvgPool`.
    GlobalAvgPool,
}

/// The layer sequence `nnet::zoo` builds for a task's model.
///
/// # Errors
///
/// Models other than SmallCNN (with or without BN) and MicroResNet18 have
/// no traced rebuild.
pub fn model_plan(spec: &TaskSpec) -> Result<Vec<Op>, String> {
    let mut hw = spec.data.input_hw();
    let classes = spec.data.output_dim();
    let mut c_in = spec.data.channels();
    let mut ops = Vec::new();
    match spec.model {
        // Mirrors `nnet::zoo::small_cnn`.
        ModelKind::SmallCnn { with_bn } => {
            for i in 0..3 {
                ops.push(Op::Conv(ConvGeometry::new(c_in, 16, 3, 1, 1, hw, hw)));
                if with_bn {
                    ops.push(Op::BatchNorm(16));
                }
                ops.push(Op::Relu);
                if i < 2 {
                    ops.push(Op::MaxPool);
                    hw /= 2;
                }
                c_in = 16;
            }
            ops.extend([
                Op::Flatten,
                Op::Dense(c_in * hw * hw, 32),
                Op::Relu,
                Op::Dense(32, classes),
            ]);
        }
        // Mirrors `nnet::zoo::micro_resnet18`.
        ModelKind::MicroResNet18 => {
            ops.extend([
                Op::Conv(ConvGeometry::new(c_in, 8, 3, 1, 1, hw, hw)),
                Op::BatchNorm(8),
                Op::Relu,
                Op::Residual {
                    in_c: 8,
                    out_c: 8,
                    stride: 1,
                    hw,
                },
                Op::Residual {
                    in_c: 8,
                    out_c: 16,
                    stride: 2,
                    hw,
                },
                Op::Residual {
                    in_c: 16,
                    out_c: 32,
                    stride: 2,
                    hw: hw / 2,
                },
                Op::GlobalAvgPool,
                Op::Dense(32, classes),
            ]);
        }
        other => return Err(format!("no traced rebuild for model {other:?}")),
    }
    Ok(ops)
}

/// Every convolution geometry a plan runs, residual blocks expanded the
/// way `ResidualBlock::new` builds them.
pub fn conv_geometries(plan: &[Op]) -> Vec<ConvGeometry> {
    let mut out = Vec::new();
    for op in plan {
        match *op {
            Op::Conv(g) => out.push(g),
            Op::Residual {
                in_c,
                out_c,
                stride,
                hw,
            } => {
                let g1 = ConvGeometry::new(in_c, out_c, 3, stride, 1, hw, hw);
                out.push(g1);
                out.push(ConvGeometry::new(
                    out_c,
                    out_c,
                    3,
                    1,
                    1,
                    g1.out_h(),
                    g1.out_w(),
                ));
                if stride != 1 || in_c != out_c {
                    out.push(ConvGeometry::new(in_c, out_c, 1, stride, 0, hw, hw));
                }
            }
            _ => {}
        }
    }
    out
}

/// Every dense layer's `(in, out)` shape in a plan.
pub fn dense_shapes(plan: &[Op]) -> Vec<(usize, usize)> {
    plan.iter()
        .filter_map(|op| match *op {
            Op::Dense(i, o) => Some((i, o)),
            _ => None,
        })
        .collect()
}

/// Span names of a layer kind's forward and backward passes.
fn span_names(kind: &str) -> (&'static str, &'static str) {
    match kind {
        "conv2d" => ("fwd.conv2d", "bwd.conv2d"),
        "residual_block" => ("fwd.residual_block", "bwd.residual_block"),
        "batchnorm2d" => ("fwd.batchnorm2d", "bwd.batchnorm2d"),
        "relu" => ("fwd.relu", "bwd.relu"),
        "maxpool2d" => ("fwd.maxpool2d", "bwd.maxpool2d"),
        "global_avg_pool" => ("fwd.global_avg_pool", "bwd.global_avg_pool"),
        "flatten" => ("fwd.flatten", "bwd.flatten"),
        "dense" => ("fwd.dense", "bwd.dense"),
        _ => ("fwd.other", "bwd.other"),
    }
}

/// The per-step metric group a layer span belongs to: residual blocks are
/// convolution work, flatten is grouped with pooling.
pub fn layer_group(span: &str) -> Option<(&'static str, &'static str)> {
    let (dir, kind) = span.split_once('.')?;
    let dir = match dir {
        "fwd" => "forward",
        "bwd" => "backward",
        _ => return None,
    };
    let group = match kind {
        "conv2d" | "residual_block" => "conv",
        "batchnorm2d" => "batchnorm",
        "relu" => "relu",
        "maxpool2d" | "global_avg_pool" | "flatten" => "pool",
        "dense" => "dense",
        _ => "other",
    };
    Some((dir, group))
}

/// A layer whose forward and backward passes each record a span.
#[derive(Debug)]
struct Timed {
    inner: Box<dyn Layer>,
    fwd: &'static str,
    bwd: &'static str,
    tracer: SharedTracer,
}

impl Timed {
    fn open(&self, name: &'static str) -> Option<usize> {
        let mut t = self.tracer.borrow_mut();
        t.layers_on.then(|| t.begin(name))
    }

    fn close(&self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.tracer.borrow_mut().end(i);
        }
    }
}

impl Layer for Timed {
    fn forward(
        &mut self,
        x: Tensor,
        exec: &mut ExecutionContext,
        algo: &Philox,
        step: u64,
        training: bool,
    ) -> Tensor {
        let idx = self.open(self.fwd);
        let y = self.inner.forward(x, exec, algo, step, training);
        self.close(idx);
        y
    }

    fn backward(&mut self, dy: Tensor, exec: &mut ExecutionContext) -> Tensor {
        let idx = self.open(self.bwd);
        let dx = self.inner.backward(dy, exec);
        self.close(idx);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.inner.visit_params(f);
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Rebuilds a task's zoo model with every layer wrapped in a timing
/// wrapper. Layers are constructed in zoo order from the same init
/// stream, so the weights are bit-identical to `TaskSpec::build_model`.
///
/// # Errors
///
/// As [`model_plan`].
pub fn build_traced(
    spec: &TaskSpec,
    root: &Philox,
    tracer: &SharedTracer,
) -> Result<Network, String> {
    let mut rng = root.stream(StreamId::INIT.child(0));
    let mut net = Network::new();
    for op in model_plan(spec)? {
        let inner: Box<dyn Layer> = match op {
            Op::Conv(g) => Box::new(Conv2d::new(g, &mut rng)),
            Op::BatchNorm(c) => Box::new(BatchNorm2d::new(c, &mut rng)),
            Op::Relu => Box::new(Relu::new()),
            Op::MaxPool => Box::new(MaxPool2d::new(2)),
            Op::Flatten => Box::new(Flatten::new()),
            Op::Dense(i, o) => Box::new(Dense::new(i, o, &mut rng)),
            Op::Residual {
                in_c,
                out_c,
                stride,
                hw,
            } => Box::new(ResidualBlock::new(in_c, out_c, stride, hw, hw, &mut rng)),
            Op::GlobalAvgPool => Box::new(GlobalAvgPool::new()),
        };
        let (fwd, bwd) = span_names(inner.kind());
        net.push(Timed {
            inner,
            fwd,
            bwd,
            tracer: Rc::clone(tracer),
        });
    }
    Ok(net)
}

/// What one replayed replica produced.
#[derive(Debug)]
pub struct Replayed {
    /// The replica's result, comparable bit for bit with the runner's.
    pub result: ReplicaResult,
    /// Optimizer steps taken.
    pub steps: u64,
    /// Reducer invocations per op class over training, in `OpClass::ALL`
    /// order.
    pub reducer_calls: [u64; 5],
    /// Checkpoint bytes written per epoch.
    pub ckpt_bytes: Vec<u64>,
}

fn begin(t: &SharedTracer, name: &'static str) -> usize {
    t.borrow_mut().begin(name)
}

fn end(t: &SharedTracer, idx: usize) {
    t.borrow_mut().end(idx);
}

/// Retrains one replica under spans and returns its result.
///
/// After each epoch the replica's checkpoint is captured, encoded,
/// decoded, and written atomically under `ckpt_dir`, as a fleet worker
/// checkpointing every epoch would.
///
/// # Errors
///
/// A diverged run, a model without a traced rebuild, binary targets, or a
/// checkpoint that fails to write or decode.
#[allow(clippy::too_many_arguments)]
pub fn replay_replica(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    replica: u32,
    tracer: &SharedTracer,
    ckpt_path: &Path,
) -> Result<Replayed, String> {
    let spec = &prepared.spec;
    let algo = variant.seed_policy().root_for(settings.base_seed, replica);
    let mut exec = ExecutionContext::builder(*device)
        .mode(variant.exec_mode())
        .entropy(settings.entropy_for(replica))
        .amp_ulps(settings.amp_ulps)
        .threads(settings.exec_threads)
        .build();
    let mut net = build_traced(spec, &algo, tracer)?;
    let cfg = spec.train_config(settings);
    let data = prepared.train_set();
    let augment = ShiftFlip::standard();
    let mut opt = Sgd::new(cfg.sgd);
    let mut shuffle_rng = match cfg.shuffle_seed_override {
        Some(seed) => Philox::from_seed(seed).stream(StreamId::SHUFFLE),
        None => algo.stream(StreamId::SHUFFLE),
    };
    let mut augment_rng = match cfg.augment_seed_override {
        Some(seed) => Philox::from_seed(seed).stream(StreamId::AUGMENT),
        None => algo.stream(StreamId::AUGMENT),
    };
    let forward_root = cfg
        .dropout_seed_override
        .map(Philox::from_seed)
        .unwrap_or(algo);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let sample_dims: Vec<usize> = data.x.shape().dims()[1..].to_vec();
    let sl = data.sample_len();
    let mut step = 0u64;
    let mut epoch_losses: Vec<f32> = Vec::new();
    let mut ckpt_bytes = Vec::new();

    for epoch in 0..cfg.epochs {
        let ep = begin(tracer, "epoch");
        if cfg.shuffle {
            let s = begin(tracer, "shuffle");
            shuffle_in_place(&mut shuffle_rng, &mut order);
            end(tracer, s);
        }
        let lr = cfg.schedule.lr_at(epoch);
        let mut losses: Vec<f64> = Vec::new();
        for chunk in order.chunks(cfg.batch_size) {
            let st = begin(tracer, "step");
            exec.begin_step(step);
            let g = begin(tracer, "gather");
            let mut batch = data.gather(chunk);
            end(tracer, g);
            if spec.augment {
                let a = begin(tracer, "augment");
                for s in 0..chunk.len() {
                    augment.apply(
                        &mut batch.x.as_mut_slice()[s * sl..(s + 1) * sl],
                        &sample_dims,
                        &mut augment_rng,
                    );
                }
                end(tracer, a);
            }
            let Targets::Classes(labels) = &batch.targets else {
                return Err("replay supports class targets only".into());
            };
            let f = begin(tracer, "forward");
            let logits = net.forward(batch.x, &mut exec, &forward_root, step, true);
            end(tracer, f);
            let l = begin(tracer, "loss");
            let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
            end(tracer, l);
            let b = begin(tracer, "backward");
            net.backward(dlogits, &mut exec);
            end(tracer, b);
            if !loss.is_finite() {
                return Err(format!("diverged at epoch {epoch} step {step}"));
            }
            let o = begin(tracer, "optim");
            let stepped = opt.step(&mut net, lr);
            end(tracer, o);
            if !stepped {
                return Err(format!("non-finite gradient at epoch {epoch} step {step}"));
            }
            losses.push(f64::from(loss));
            step += 1;
            end(tracer, st);
        }
        let mean = sum_ordered_f64(losses.iter().copied()) / losses.len().max(1) as f64;
        epoch_losses.push(mean as f32);

        let ck = begin(tracer, "checkpoint");
        let snapshot = Checkpoint {
            epochs_done: epoch + 1,
            steps: step,
            epoch_losses: epoch_losses.clone(),
            weights: net.flat_weights(),
            velocity: opt.velocity().to_vec(),
            shuffle_rng: shuffle_rng.snapshot(),
            augment_rng: augment_rng.snapshot(),
            exec: exec.snapshot(),
            order: order.iter().map(|&i| i as u32).collect(),
        };
        let e = begin(tracer, "ckpt.encode");
        let bytes = snapshot.to_bytes();
        end(tracer, e);
        let d = begin(tracer, "ckpt.decode");
        let decoded = Checkpoint::from_bytes(&bytes);
        end(tracer, d);
        decoded.map_err(|e| format!("checkpoint does not decode: {e}"))?;
        let w = begin(tracer, "store.write_atomic");
        let written = noisescope::resume::write_atomic(ckpt_path, &bytes);
        end(tracer, w);
        written.map_err(|e| format!("checkpoint write {}: {e}", ckpt_path.display()))?;
        ckpt_bytes.push(bytes.len() as u64);
        end(tracer, ck);
        end(tracer, ep);
    }
    let mut finite = true;
    net.visit_params(&mut |p, _| finite &= p.as_slice().iter().all(|v| v.is_finite()));
    if !finite {
        return Err("non-finite weights after training".into());
    }
    let reducer_calls = OpClass::ALL.map(|c| exec.reducer(c).invocations());

    let test = prepared.test_set();
    let Targets::Classes(labels) = &test.targets else {
        return Err("replay supports class targets only".into());
    };
    let ev = begin(tracer, "eval");
    tracer.borrow_mut().layers_on = false;
    let preds = predict_classes(&mut net, test, &mut exec, &algo, 64);
    tracer.borrow_mut().layers_on = true;
    let accuracy = nsmetrics::accuracy(&preds, labels);
    end(tracer, ev);

    Ok(Replayed {
        result: ReplicaResult {
            replica,
            accuracy,
            preds: Preds::Classes(preds),
            weights: net.flat_weights(),
            final_train_loss: *epoch_losses.last().ok_or("no epochs trained")?,
        },
        steps: step,
        reducer_calls,
        ckpt_bytes,
    })
}
