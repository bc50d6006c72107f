//! Execution contexts: the bridge from a (device, mode) pair to the
//! accumulation order of every reduction class in a training run.

use crate::chaos::{FaultKind, FaultPlan, PlannedFault};
use crate::device::Device;
use detrand::SplitMix64;
use nstensor::{ReduceOrder, Reducer, ReducerSnapshot};
use serde::{Deserialize, Serialize};

/// Framework-level execution mode — the paper's "TF deterministic ops"
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Fastest available kernels; nondeterministic on GPUs.
    Default,
    /// Only deterministic kernels (the software patches the paper measures
    /// the cost of).
    Deterministic,
}

/// Classes of reduction in a training step, distinguished because hardware
/// routes them differently (e.g. Tensor Cores run matmuls on systolic units
/// but fall back to CUDA cores for gradient and statistics accumulations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Forward matmul/conv inner products.
    MatmulForward,
    /// Input-gradient (dgrad) accumulations.
    InputGrad,
    /// Weight-gradient (wgrad) accumulations — reductions across the batch.
    WeightGrad,
    /// Batch statistics (batch-norm mean/variance).
    Statistics,
    /// Bias sums and other miscellaneous accumulations.
    Misc,
}

impl OpClass {
    /// All classes, in a stable order.
    pub const ALL: [OpClass; 5] = [
        OpClass::MatmulForward,
        OpClass::InputGrad,
        OpClass::WeightGrad,
        OpClass::Statistics,
        OpClass::Misc,
    ];

    fn index(self) -> usize {
        match self {
            OpClass::MatmulForward => 0,
            OpClass::InputGrad => 1,
            OpClass::WeightGrad => 2,
            OpClass::Statistics => 3,
            OpClass::Misc => 4,
        }
    }

    /// Whether this class runs on systolic units when the device has them.
    fn is_matmul_class(self) -> bool {
        matches!(self, OpClass::MatmulForward | OpClass::InputGrad)
    }
}

/// The execution state of one simulated run: a reducer per op class, wired
/// to the device's accumulation semantics and (for nondeterministic
/// execution) to the run's scheduler entropy.
///
/// See the [crate-level docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct ExecutionContext {
    device: Device,
    mode: ExecutionMode,
    threads: usize,
    reducers: [Reducer; 5],
    /// The armed fault, until [`ExecutionContext::begin_step`] fires it.
    /// Reductions never read it.
    chaos: FaultPlan,
    /// A fired launch failure awaiting [`ExecutionContext::take_fault`].
    fault: Option<PlannedFault>,
}

/// The replayable state of an [`ExecutionContext`]: one
/// [`ReducerSnapshot`] per op class, in [`OpClass::ALL`] order. Device,
/// mode and chaos configuration are *not* part of the snapshot — they are
/// rebuilt from the experiment description when resuming.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecSnapshot {
    /// Per-op-class reducer states.
    pub reducers: Vec<ReducerSnapshot>,
}

/// Fluent constructor for [`ExecutionContext`], obtained from
/// [`ExecutionContext::builder`]. Every knob has a sensible default
/// (`Default` mode, entropy 0, no amplification, single-threaded), so call
/// sites only name what they change:
///
/// ```
/// use hwsim::{Device, ExecutionContext, ExecutionMode};
/// let ctx = ExecutionContext::builder(Device::v100())
///     .mode(ExecutionMode::Deterministic)
///     .entropy(42)
///     .threads(4)
///     .build();
/// assert!(!ctx.is_nondeterministic());
/// assert_eq!(ctx.threads(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionContextBuilder {
    device: Device,
    mode: ExecutionMode,
    entropy: u64,
    amp_ulps: f32,
    threads: usize,
    chaos: FaultPlan,
}

impl ExecutionContextBuilder {
    /// Sets the framework execution mode (default: [`ExecutionMode::Default`]).
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Seeds the scheduler RNG (default: 0). Only consumed when the
    /// device/mode combination is nondeterministic; deterministic execution
    /// produces bitwise-identical results for any entropy.
    pub fn entropy(mut self, entropy: u64) -> Self {
        self.entropy = entropy;
        self
    }

    /// Enables the amplified-noise tier
    /// (see [`nstensor::Reducer::with_amplification`]): `amp_ulps` models
    /// the longer accumulation chains of full-scale workloads. Ignored by
    /// deterministic execution. Default: 0 (faithful order-only noise).
    pub fn amp_ulps(mut self, amp_ulps: f32) -> Self {
        self.amp_ulps = amp_ulps;
        self
    }

    /// Sets the host thread count the blocked GEMM engine may use for this
    /// context's tensor ops (default: 1). Purely a wall-clock knob: the
    /// engine is bitwise invariant in the thread count, so this never
    /// changes simulated results — simulated nondeterminism comes only from
    /// the device/mode reducer configuration. Clamped to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Arms chaos injection with a pre-built fault schedule (default: no
    /// faults). A fault fires at a step boundary and touches no reducer,
    /// so chaos never consumes scheduler entropy or perturbs any measured
    /// number.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Builds the context.
    pub fn build(self) -> ExecutionContext {
        let mut seeder = SplitMix64::new(self.entropy);
        let reducers = core::array::from_fn(|i| {
            let class = OpClass::ALL[i];
            let order = ExecutionContext::order_for(&self.device, self.mode, class);
            let lanes = self.device.lanes();
            let seed = seeder.next_u64();
            Reducer::new(order, lanes, seed).with_amplification(self.amp_ulps)
        });
        ExecutionContext {
            device: self.device,
            mode: self.mode,
            threads: self.threads,
            reducers,
            chaos: self.chaos,
            fault: None,
        }
    }
}

impl ExecutionContext {
    /// Starts a fluent builder for a context on `device`. See
    /// [`ExecutionContextBuilder`] for the knobs and their defaults.
    pub fn builder(device: Device) -> ExecutionContextBuilder {
        ExecutionContextBuilder {
            device,
            mode: ExecutionMode::Default,
            entropy: 0,
            amp_ulps: 0.0,
            threads: 1,
            chaos: FaultPlan::none(),
        }
    }

    /// Creates a context for `device` in `mode`.
    ///
    /// `entropy` seeds the scheduler RNG. It is only consumed when the
    /// device/mode combination is nondeterministic; deterministic execution
    /// produces bitwise-identical results for any entropy.
    pub fn new(device: Device, mode: ExecutionMode, entropy: u64) -> Self {
        Self::builder(device).mode(mode).entropy(entropy).build()
    }

    /// The accumulation order a given op class uses on this device/mode.
    pub fn order_for(device: &Device, mode: ExecutionMode, class: OpClass) -> ReduceOrder {
        if device.deterministic_by_design() || mode == ExecutionMode::Deterministic {
            return ReduceOrder::FixedTree;
        }
        if device.systolic_matmul() && class.is_matmul_class() {
            // Tensor Cores: fixed-order systolic accumulation for matmuls...
            ReduceOrder::FixedTree
        } else {
            // ...but everything else still lands on CUDA cores.
            ReduceOrder::Permuted
        }
    }

    /// The reducer for an op class.
    pub fn reducer(&mut self, class: OpClass) -> &mut Reducer {
        &mut self.reducers[class.index()]
    }

    /// Announces the start of training step `step`; training loops call
    /// it once per optimizer step, before the step's first reduction.
    ///
    /// When chaos injection is armed ([`ExecutionContextBuilder::chaos`])
    /// and the planned fault's step has come, the fault fires here, once:
    /// a [`FaultKind::LaunchFailure`] is recorded for
    /// [`ExecutionContext::take_fault`], a [`FaultKind::KernelPanic`]
    /// panics the calling thread, a [`FaultKind::Hang`] stalls it for the
    /// plan's configured duration, and a [`FaultKind::Abort`] takes the
    /// whole process down.
    #[inline]
    pub fn begin_step(&mut self, step: u64) {
        let Some(fault) = self.chaos.take_due(step) else {
            return;
        };
        match fault.kind {
            FaultKind::LaunchFailure => self.fault = Some(fault),
            FaultKind::KernelPanic => panic!("hwsim chaos: {fault}"),
            FaultKind::Hang => {
                // A real stall, not a simulated one. Arithmetic is
                // untouched, so in-process results are bit-identical;
                // under the fleet runner the silence starves the
                // heartbeat watchdog.
                let ms = self.chaos.hang_ms();
                std::thread::sleep(std::time::Duration::from_millis(ms.into()));
            }
            FaultKind::Abort => {
                eprintln!("hwsim chaos: {fault}");
                std::process::abort();
            }
        }
    }

    /// Takes the injected launch failure, if one fired since the last
    /// poll. Training loops poll this once per step and convert the fault
    /// into a structured error.
    pub fn take_fault(&mut self) -> Option<PlannedFault> {
        self.fault.take()
    }

    /// Disarms chaos injection for the rest of this context's life (the
    /// training loop calls this after the final optimizer step so that
    /// evaluation and prediction run clean).
    pub fn disarm_chaos(&mut self) {
        self.chaos = FaultPlan::none();
        self.fault = None;
    }

    /// Whether chaos injection is currently armed: a fault is planned and
    /// has not fired yet.
    pub fn chaos_armed(&self) -> bool {
        !self.chaos.is_empty()
    }

    /// Captures the replayable execution state (per-op-class reducer
    /// scheduler positions and invocation counters). Chaos state is not
    /// captured; resuming rebuilds the fault schedule from the experiment
    /// description.
    pub fn snapshot(&self) -> ExecSnapshot {
        ExecSnapshot {
            reducers: self.reducers.iter().map(|r| r.snapshot()).collect(),
        }
    }

    /// Restores the state captured by [`ExecutionContext::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not hold exactly one entry per op class.
    pub fn restore(&mut self, s: &ExecSnapshot) {
        assert_eq!(
            s.reducers.len(),
            self.reducers.len(),
            "snapshot op-class count mismatch"
        );
        for (r, snap) in self.reducers.iter_mut().zip(&s.reducers) {
            r.restore(*snap);
        }
    }

    /// The device.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Host threads the blocked GEMM engine may use for this context's
    /// tensor ops. Bitwise irrelevant to results; see
    /// [`ExecutionContextBuilder::threads`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether any op class in this context is nondeterministic.
    pub fn is_nondeterministic(&self) -> bool {
        self.reducers.iter().any(|r| !r.order().is_deterministic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_is_one_lane_fixed_tree_everywhere() {
        let mut ctx = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 5);
        for class in OpClass::ALL {
            let r = ctx.reducer(class);
            assert_eq!((r.order(), r.lanes()), (ReduceOrder::FixedTree, 1));
        }
    }

    #[test]
    fn gpu_default_mode_is_permuted_everywhere() {
        for class in OpClass::ALL {
            assert_eq!(
                ExecutionContext::order_for(&Device::v100(), ExecutionMode::Default, class),
                ReduceOrder::Permuted
            );
        }
    }

    #[test]
    fn gpu_deterministic_mode_is_fixed_everywhere() {
        for class in OpClass::ALL {
            assert_eq!(
                ExecutionContext::order_for(&Device::p100(), ExecutionMode::Deterministic, class),
                ReduceOrder::FixedTree
            );
        }
    }

    #[test]
    fn tensor_cores_split_by_class() {
        let d = Device::rtx5000_tensor_cores();
        assert_eq!(
            ExecutionContext::order_for(&d, ExecutionMode::Default, OpClass::MatmulForward),
            ReduceOrder::FixedTree
        );
        assert_eq!(
            ExecutionContext::order_for(&d, ExecutionMode::Default, OpClass::WeightGrad),
            ReduceOrder::Permuted
        );
        assert_eq!(
            ExecutionContext::order_for(&d, ExecutionMode::Default, OpClass::Statistics),
            ReduceOrder::Permuted
        );
        // So TC execution is still nondeterministic overall:
        let ctx = ExecutionContext::new(d, ExecutionMode::Default, 5);
        assert!(ctx.is_nondeterministic());
    }

    #[test]
    fn tpu_is_deterministic_in_default_mode() {
        let ctx = ExecutionContext::new(Device::tpu_v2(), ExecutionMode::Default, 5);
        assert!(!ctx.is_nondeterministic());
    }

    #[test]
    fn deterministic_mode_ignores_entropy() {
        let xs: Vec<f32> = (0..500).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut a = ExecutionContext::new(Device::v100(), ExecutionMode::Deterministic, 111);
        let mut b = ExecutionContext::new(Device::v100(), ExecutionMode::Deterministic, 222);
        for class in OpClass::ALL {
            assert_eq!(
                a.reducer(class).sum(&xs).to_bits(),
                b.reducer(class).sum(&xs).to_bits()
            );
        }
    }

    #[test]
    fn default_mode_entropy_changes_results_eventually() {
        let xs: Vec<f32> = (0..2000).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut a = ExecutionContext::new(Device::v100(), ExecutionMode::Default, 111);
        let mut b = ExecutionContext::new(Device::v100(), ExecutionMode::Default, 222);
        let mut any_diff = false;
        for _ in 0..64 {
            if a.reducer(OpClass::WeightGrad).sum(&xs).to_bits()
                != b.reducer(OpClass::WeightGrad).sum(&xs).to_bits()
            {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "different entropy never changed a GPU reduction");
    }

    #[test]
    fn reducers_use_device_lanes() {
        let mut ctx = ExecutionContext::new(Device::t4(), ExecutionMode::Default, 0);
        assert_eq!(ctx.reducer(OpClass::Misc).lanes(), Device::t4().lanes());
    }

    #[test]
    fn builder_defaults() {
        let ctx = ExecutionContext::builder(Device::v100()).build();
        assert_eq!(ctx.mode(), ExecutionMode::Default);
        assert_eq!(ctx.threads(), 1);
        assert_eq!(ctx.device().name(), Device::v100().name());
    }

    #[test]
    fn builder_threads_clamped_to_one() {
        let ctx = ExecutionContext::builder(Device::cpu()).threads(0).build();
        assert_eq!(ctx.threads(), 1);
    }

    #[test]
    fn builder_threads_do_not_change_reducer_state() {
        let xs: Vec<f32> = (0..800).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut a = ExecutionContext::builder(Device::v100()).entropy(9).build();
        let mut b = ExecutionContext::builder(Device::v100())
            .entropy(9)
            .threads(8)
            .build();
        for class in OpClass::ALL {
            assert_eq!(
                a.reducer(class).sum(&xs).to_bits(),
                b.reducer(class).sum(&xs).to_bits()
            );
        }
    }

    #[test]
    fn snapshot_restore_replays_nondeterministic_context() {
        let xs: Vec<f32> = (0..600).map(|i| (i as f32 * 0.4).sin()).collect();
        let mut a = ExecutionContext::builder(Device::v100())
            .entropy(13)
            .build();
        for class in OpClass::ALL {
            a.reducer(class).sum(&xs);
        }
        let snap = a.snapshot();
        let ahead: Vec<u32> = OpClass::ALL
            .map(|c| a.reducer(c).sum(&xs).to_bits())
            .to_vec();
        // Restore into a context built with *different* entropy: the
        // snapshot carries the full scheduler position.
        let mut b = ExecutionContext::builder(Device::v100())
            .entropy(999)
            .build();
        b.restore(&snap);
        let replayed: Vec<u32> = OpClass::ALL
            .map(|c| b.reducer(c).sum(&xs).to_bits())
            .to_vec();
        assert_eq!(ahead, replayed);
    }

    #[test]
    fn chaos_off_is_default_and_unarmed() {
        let ctx = ExecutionContext::builder(Device::v100()).build();
        assert!(!ctx.chaos_armed());
        let ctx2 = ExecutionContext::builder(Device::v100())
            .chaos(crate::chaos::FaultPlan::none())
            .build();
        assert!(!ctx2.chaos_armed());
    }

    /// A context armed with `schedule` (an `NS_CHAOS` string) for replica
    /// 0's first attempt over `horizon` steps.
    fn armed(schedule: &str, horizon: u64) -> ExecutionContext {
        use crate::chaos::{ChaosConfig, FaultPlan};
        let cfg = ChaosConfig::parse(schedule).unwrap();
        ExecutionContext::builder(Device::v100())
            .entropy(4)
            .chaos(FaultPlan::build(&cfg, 0, 0, horizon))
            .build()
    }

    #[test]
    fn chaos_does_not_perturb_results_before_fault_steps() {
        // Nor at or after them: a fault fires at a step boundary and
        // touches no reducer.
        let xs: Vec<f32> = (0..400).map(|i| (i as f32 * 0.8).cos()).collect();
        let mut armed = armed("5:1,0,0,0", 32);
        let mut clean = ExecutionContext::builder(Device::v100()).entropy(4).build();
        for step in 0..32 {
            armed.begin_step(step);
            clean.begin_step(step);
            for class in OpClass::ALL {
                assert_eq!(
                    armed.reducer(class).sum(&xs).to_bits(),
                    clean.reducer(class).sum(&xs).to_bits()
                );
            }
        }
    }

    #[test]
    fn launch_failure_is_recorded_and_polled() {
        let mut ctx = armed("9:1,0,0,0", 64);
        let mut fired = Vec::new();
        for step in 0..64 {
            ctx.begin_step(step);
            if let Some(fault) = ctx.take_fault() {
                assert_eq!(fault.kind, FaultKind::LaunchFailure);
                fired.push((step, fault.step));
            }
        }
        assert_eq!(fired.len(), 1, "one fault per attempt: {fired:?}");
        assert_eq!(fired[0].0, fired[0].1, "fired at its planned step");
        assert!(!ctx.chaos_armed());
    }

    #[test]
    fn a_resumed_attempt_past_its_fault_step_takes_the_fault_first() {
        let mut ctx = armed("9:1,0,0,0", 64);
        ctx.begin_step(u64::MAX);
        assert!(ctx.take_fault().is_some());
    }

    #[test]
    #[should_panic(expected = "hwsim chaos: injected KernelPanic at step 0")]
    fn kernel_panic_panics() {
        armed("2:0,1,0,0", 1).begin_step(0);
    }

    #[test]
    fn hang_stalls_but_does_not_perturb_results() {
        let mut armed = armed("4:0,0,1,0@60", 1);
        let mut clean = ExecutionContext::builder(Device::v100()).entropy(4).build();
        let start = std::time::Instant::now();
        armed.begin_step(0);
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(60),
            "hang never stalled"
        );
        let xs = [1.0f32, 2.0, 3.0];
        for class in OpClass::ALL {
            assert_eq!(
                armed.reducer(class).sum(&xs).to_bits(),
                clean.reducer(class).sum(&xs).to_bits()
            );
        }
        assert!(armed.take_fault().is_none(), "a hang is not an error");
        assert!(!armed.chaos_armed());
    }

    #[test]
    fn abort_is_planned_but_never_fired_here() {
        // Firing an abort would take the test harness down, which is
        // exactly the property that motivates process isolation; here the
        // context only carries it, and disarming keeps it from firing.
        let mut ctx = armed("4:0,0,0,1", 1);
        assert!(ctx.chaos_armed());
        ctx.disarm_chaos();
        ctx.begin_step(0);
    }

    #[test]
    fn disarm_stops_injection() {
        let mut ctx = armed("2:0,1,0,0", 1);
        assert!(ctx.chaos_armed());
        ctx.disarm_chaos();
        assert!(!ctx.chaos_armed());
        ctx.begin_step(0);
        assert!(ctx.take_fault().is_none());
    }
}
