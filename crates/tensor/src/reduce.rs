//! Order-sensitive floating-point reduction.
//!
//! This module is the physical site of *implementation noise* in the
//! reproduction. A [`Reducer`] performs every sum and dot product in the
//! training hot path; its [`ReduceOrder`] decides whether the combination
//! order of partial sums is fixed (deterministic execution) or perturbed by
//! a scheduler RNG between calls (nondeterministic execution, as on GPUs
//! whose atomics and split-K kernels combine partials in arrival order).
//!
//! Two fidelity tiers are supported:
//!
//! - **Order-only** (`amp_ulps == 0`): the partial sums are mathematically
//!   identical across orders and differ only through f32 rounding — a
//!   faithful model, producing 1-ulp seeds that amplify through SGD.
//! - **Amplified** (`amp_ulps > 0`): an additional relative perturbation of
//!   `amp_ulps` ulps is applied to the combined result, modelling the far
//!   longer accumulation chains (millions of MACs) of full-scale workloads
//!   that a scaled-down simulation cannot afford to execute. The
//!   perturbation is proportional to the result's magnitude and vanishes
//!   identically under deterministic orders.

use crate::pack::{MR, NR};
use crate::tile::{self, TileSpecs};
use detrand::splitmix::GAMMA;
use detrand::SplitMix64;
use serde::{Deserialize, Serialize};

/// Maximum number of accumulation lanes a reducer will materialize.
///
/// Real devices have thousands of FP units; the *noise-relevant* property is
/// the number of independently-ordered partial sums, which saturates quickly.
/// Device models map core counts into `8..=MAX_LANES`.
pub const MAX_LANES: usize = 64;

/// The accumulation-order policy of a [`Reducer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOrder {
    /// Strided multi-lane partials combined in fixed (index) order.
    /// Deterministic: bitwise-stable across calls and runs. Models
    /// deterministic GPU kernels and TPU systolic arrays; with one lane it
    /// is a plain left-to-right sum, the host CPU's semantics.
    FixedTree,
    /// Strided multi-lane partials combined in an order perturbed by the
    /// scheduler RNG on every call. Models nondeterministic GPU kernels
    /// (atomic split-K, Winograd with atomic reductions, ...).
    Permuted,
}

impl ReduceOrder {
    /// Whether this order is bitwise reproducible across runs.
    pub fn is_deterministic(self) -> bool {
        self == ReduceOrder::FixedTree
    }
}

/// An order-sensitive reduction engine.
///
/// Cheap to construct; typically one per simulated device execution stream.
/// See the [crate-level docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Reducer {
    order: ReduceOrder,
    lanes: usize,
    sched: SplitMix64,
    /// Relative perturbation amplitude in ulps (0 = faithful order-only).
    amp_ulps: f32,
    /// Count of reductions performed (for profiling/attribution).
    invocations: u64,
}

/// The replayable state of a [`Reducer`]: the scheduler RNG position and
/// the invocation counter. Configuration (order, lanes, amplification) is
/// not part of the snapshot — it is rebuilt from the device/mode pair —
/// so restoring into a reducer with different configuration is a logic
/// error the caller must avoid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReducerSnapshot {
    /// The scheduler RNG state.
    pub sched_state: u64,
    /// Reductions performed so far.
    pub invocations: u64,
}

impl Reducer {
    /// Creates a reducer.
    ///
    /// `lanes` is clamped into `1..=MAX_LANES`. `sched_seed` seeds the
    /// scheduler RNG (only consumed by [`ReduceOrder::Permuted`]).
    pub fn new(order: ReduceOrder, lanes: usize, sched_seed: u64) -> Self {
        Self {
            order,
            lanes: lanes.clamp(1, MAX_LANES),
            sched: SplitMix64::new(sched_seed),
            amp_ulps: 0.0,
            invocations: 0,
        }
    }

    /// Captures the replayable state (scheduler RNG + invocation count).
    pub fn snapshot(&self) -> ReducerSnapshot {
        ReducerSnapshot {
            sched_state: self.sched.state(),
            invocations: self.invocations,
        }
    }

    /// Restores the state captured by [`Reducer::snapshot`].
    pub fn restore(&mut self, s: ReducerSnapshot) {
        self.sched = SplitMix64::new(s.sched_state);
        self.invocations = s.invocations;
    }

    /// The reference reducer: one-lane [`ReduceOrder::FixedTree`], a plain
    /// left-to-right sum.
    pub fn sequential() -> Self {
        Self::new(ReduceOrder::FixedTree, 1, 0)
    }

    /// Sets the amplified-noise tier (relative perturbation in ulps).
    ///
    /// Only affects [`ReduceOrder::Permuted`]; deterministic orders ignore it
    /// so that deterministic execution stays bitwise stable.
    ///
    /// # Panics
    ///
    /// Panics if `ulps` is negative or non-finite.
    pub fn with_amplification(mut self, ulps: f32) -> Self {
        assert!(ulps.is_finite() && ulps >= 0.0, "bad amplification {ulps}");
        self.amp_ulps = ulps;
        self
    }

    /// The accumulation-order policy.
    pub fn order(&self) -> ReduceOrder {
        self.order
    }

    /// The effective lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of reductions performed so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Sums a slice under the configured accumulation order.
    pub fn sum(&mut self, xs: &[f32]) -> f32 {
        self.invocations += 1;
        let mut p = [0f32; MAX_LANES];
        let l = self.fill_lanes_sum(xs, &mut p);
        self.combine(&mut p[..l])
    }

    /// Dot product of two equal-length slices under the configured order.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(&mut self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        self.invocations += 1;
        let mut p = [0f32; MAX_LANES];
        let l = self.fill_lanes_dot(a, b, &mut p);
        self.combine(&mut p[..l])
    }

    /// Sums `xs[start], xs[start+stride], ...` (`count` elements) under the
    /// configured order. Used for reductions over strided tensor axes
    /// without materializing a copy.
    pub fn sum_strided(&mut self, xs: &[f32], start: usize, stride: usize, count: usize) -> f32 {
        self.invocations += 1;
        let l = self.lanes.min(count.max(1));
        let mut p = [0f32; MAX_LANES];
        let mut idx = start;
        for i in 0..count {
            p[i % l] += xs[idx];
            idx += stride;
        }
        self.combine(&mut p[..l])
    }

    /// Fills lane partials for a plain sum; returns the lane count used.
    ///
    /// Element `i` lands in lane `i mod lanes`, iterated block-wise so the
    /// inner loop vectorizes.
    #[inline]
    fn fill_lanes_sum(&self, xs: &[f32], p: &mut [f32; MAX_LANES]) -> usize {
        let l = self.lanes.min(xs.len().max(1));
        let mut chunks = xs.chunks_exact(l);
        for chunk in &mut chunks {
            for (lane, &x) in p[..l].iter_mut().zip(chunk) {
                *lane += x;
            }
        }
        for (lane, &x) in p[..l].iter_mut().zip(chunks.remainder()) {
            *lane += x;
        }
        l
    }

    /// Fills lane partials for a dot product; returns the lane count used.
    #[inline]
    fn fill_lanes_dot(&self, a: &[f32], b: &[f32], p: &mut [f32; MAX_LANES]) -> usize {
        let l = self.lanes.min(a.len().max(1));
        let n = a.len();
        let full = n / l * l;
        let mut i = 0;
        while i < full {
            for j in 0..l {
                p[j] += a[i + j] * b[i + j];
            }
            i += l;
        }
        for j in 0..(n - full) {
            p[j] += a[i + j] * b[i + j];
        }
        l
    }

    /// Combines lane partials under the configured order: in index order
    /// from `+0.0` for [`ReduceOrder::FixedTree`], or in a
    /// scheduler-perturbed order for [`ReduceOrder::Permuted`].
    #[inline]
    fn combine(&mut self, p: &mut [f32]) -> f32 {
        match self.order {
            ReduceOrder::FixedTree => sum_ordered_f32(p.iter().copied()),
            ReduceOrder::Permuted => self.combine_permuted(p),
        }
    }

    /// Combines lane partials in a scheduler-perturbed order, optionally
    /// applying the amplified-noise tier.
    #[inline]
    fn combine_permuted(&mut self, p: &mut [f32]) -> f32 {
        let l = p.len();
        let mut s = if l > 1 {
            // Two random transpositions followed by a random rotation: cheap
            // (three RNG draws) yet changes the combine order of most calls.
            let j1 = self.sched.next_below(l as u32) as usize;
            let j2 = self.sched.next_below(l as u32) as usize;
            p.swap(0, j1);
            p.swap(1.min(l - 1), j2);
            let rot = self.sched.next_below(l as u32) as usize;
            let mut s = 0f32;
            for k in 0..l {
                s += p[(k + rot) % l];
            }
            s
        } else {
            p[0]
        };
        if self.amp_ulps > 0.0 {
            let u = (self.sched.next_f64() as f32) * 2.0 - 1.0;
            s *= 1.0 + u * self.amp_ulps * f32::EPSILON;
        }
        s
    }
}

/// How one output's lane partials must be combined: what the reference
/// [`Reducer::dot`] draws for it, as read back from a plan by
/// [`DotPlan::spec`].
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PermuteSpec {
    /// First transposition target (`p.swap(0, j1)`).
    pub j1: u16,
    /// Second transposition target (`p.swap(1.min(l - 1), j2)`).
    pub j2: u16,
    /// Rotation offset of the combine loop.
    pub rot: u16,
    /// Amplified-noise multiplier (1.0 when the plan is not amplified).
    pub scale: f32,
}

/// An accumulation plan for a batch of equal-length dot products (one
/// GEMM). See [`Reducer::plan_dots`].
///
/// The plan holds no per-output state. A Permuted output's combine spec
/// is a closed-form function of the scheduler state before the batch and
/// of the output's position in the reference draw order, so the engine
/// derives each tile's specs where it combines them
/// ([`DotPlan::tile_specs`]). The reference position of GEMM output
/// `(row, col)` is `row·n + col`, unless the columns run in sample blocks
/// ([`DotPlan::sample_blocks`]).
#[derive(Debug, Clone)]
pub(crate) struct DotPlan {
    /// The accumulation order the batch runs under.
    pub order: ReduceOrder,
    /// Effective lane count (`lanes.min(k_len.max(1))`), as
    /// [`Reducer::dot`] would clamp it.
    pub lanes: usize,
    /// Whether the amplified-noise multiplier is applied.
    pub amplified: bool,
    /// The scheduler before the batch's first draw.
    sched: SplitMix64,
    /// Draws per output: `3·[lanes > 1] + [amplified]`.
    per: u64,
    /// The amplification in ulps.
    amp_ulps: f32,
    /// The number of outputs the plan was drawn for; `None` for a
    /// stateless [`DotPlan::fixed_lanes`] plan.
    count: Option<usize>,
    /// Output columns per sample block, if the columns run in blocks.
    block: Option<usize>,
}

impl DotPlan {
    /// A plan with deterministic fixed-lane combination and no reducer
    /// involvement — used for gradient paths whose reference code uses a
    /// fixed `index % lanes` lane assignment with left-to-right combining
    /// (e.g. the conv input-gradient loop) rather than a [`Reducer`] call.
    pub fn fixed_lanes(lanes: usize) -> Self {
        DotPlan {
            order: ReduceOrder::FixedTree,
            lanes: lanes.clamp(1, MAX_LANES),
            amplified: false,
            sched: SplitMix64::new(0),
            per: 0,
            amp_ulps: 0.0,
            count: None,
            block: None,
        }
    }

    /// Reads the GEMM's columns as blocks of `pixels` columns, one block
    /// per sample, for a conv forward whose reference draws one sample's
    /// whole `[m, pixels]` output block before the next sample's: output
    /// `(o, s·pixels + p)` then sits at reference position
    /// `s·m·pixels + o·pixels + p`.
    pub fn sample_blocks(mut self, pixels: usize) -> Self {
        self.block = Some(pixels.max(1));
        self
    }

    /// Asserts that a reducer-drawn plan was drawn for exactly the `m·n`
    /// outputs of the GEMM about to consume it; a fixed-lane plan draws
    /// nothing and fits any GEMM.
    ///
    /// # Panics
    ///
    /// Panics if the counts differ.
    pub fn check_outputs(&self, m: usize, n: usize) {
        if let Some(count) = self.count {
            assert_eq!(count, m * n, "plan drawn for a different GEMM");
        }
    }

    /// The reference position of output `(row, col)` of an `m × n` GEMM
    /// on this plan: `row·n + col`, or `s·m·pixels + row·pixels + p` for
    /// column `s·pixels + p` when the columns run in sample blocks.
    #[inline]
    pub fn output_index(&self, m: usize, n: usize, row: usize, col: usize) -> usize {
        let b = self.block.unwrap_or(n).max(1);
        col / b * m * b + row * b + col % b
    }

    /// The combine spec of the output at reference position `index`: the
    /// draws `index·per ..` ahead of the plan's scheduler, converted as
    /// [`Reducer::dot`] converts them.
    #[cfg(test)]
    pub fn spec(&self, index: usize) -> PermuteSpec {
        use crate::tile::portable::{amp_scale, below};
        let first = index as u64 * self.per;
        let below = |d: u64| below(self.sched.peek(first + d), self.lanes) as u16;
        let swaps = self.lanes > 1;
        PermuteSpec {
            j1: if swaps { below(0) } else { 0 },
            j2: if swaps { below(1) } else { 0 },
            rot: if swaps { below(2) } else { 0 },
            scale: if self.amplified {
                amp_scale(self.sched.peek(first + self.per - 1), self.amp_ulps)
            } else {
                1.0
            },
        }
    }

    /// The counter offsets of the `NR` columns of the panel starting at
    /// column `col0` of an `m × n` GEMM. The reference position of output
    /// `(row, col)` is the sum of `output_index(m, n, 0, col)` and
    /// `output_index(m, n, row, 0)`, so its draw `d` mixes
    /// `row_counter(row) + column_counters[j] + d·γ`. Computed once per
    /// panel; padding columns past `n` get offsets too, and their specs
    /// are discarded.
    #[inline]
    pub fn column_counters(&self, m: usize, n: usize, col0: usize) -> [u64; NR] {
        let step = self.per.wrapping_mul(GAMMA);
        core::array::from_fn(|j| (self.output_index(m, n, 0, col0 + j) as u64).wrapping_mul(step))
    }

    /// The counter of the first draw of column 0 in row `row` of an
    /// `m × n` GEMM (see [`DotPlan::column_counters`]).
    #[inline]
    pub fn row_counter(&self, m: usize, n: usize, row: usize) -> u64 {
        let step = self.per.wrapping_mul(GAMMA);
        let index = self.output_index(m, n, row, 0) as u64;
        self.sched.counter(0).wrapping_add(index.wrapping_mul(step))
    }

    /// Derives the combine specs of the `MR × NR` tile whose rows start
    /// at the counters `rows` and whose columns sit at the offsets `cols`:
    /// output `(r, j)`'s draw `d` mixes `rows[r] + cols[j] + d·γ`, the
    /// counter [`SplitMix64::peek`] mixes for it. The amplification
    /// branch is the const parameter; the derivation
    /// itself is [`crate::tile`]'s.
    #[inline(always)]
    pub fn tile_specs<const AMP: bool>(&self, rows: &[u64; MR], cols: &[u64; NR]) -> TileSpecs {
        let last = (self.per.wrapping_sub(1)).wrapping_mul(GAMMA);
        tile::derive_specs::<AMP>(self.lanes, last, self.amp_ulps, rows, cols)
    }
}

impl Reducer {
    /// Plans `count` dot products of length `k_len`, advancing this
    /// reducer's state (invocation counter and — for
    /// [`ReduceOrder::Permuted`] — the scheduler RNG) exactly as `count`
    /// sequential [`Reducer::dot`] calls would.
    ///
    /// This is the bridge that keeps the blocked GEMM engine bit-identical
    /// to the per-element reference path: the plan records the scheduler
    /// state before the batch, which fixes every output's combine order
    /// up front, so the engine is free to reorder which outputs are
    /// computed when. Each reference call draws `per = 3·[l > 1] +
    /// [amplified]` values in a fixed order — `j1`, `j2`, `rot` when the
    /// combine has more than one lane, then the amplification draw — so
    /// output `o`'s draw `d` is the scheduler's `(o·per + d)`-th draw
    /// ahead, which the engine computes where it needs it
    /// ([`DotPlan::tile_specs`]). The scheduler skips past the batch in
    /// O(1).
    pub(crate) fn plan_dots(&mut self, count: usize, k_len: usize) -> DotPlan {
        self.invocations += count as u64;
        let lanes = self.lanes.min(k_len.max(1));
        let amplified = self.amp_ulps > 0.0;
        let per = if self.order == ReduceOrder::Permuted {
            3 * u64::from(lanes > 1) + u64::from(amplified)
        } else {
            0
        };
        let plan = DotPlan {
            order: self.order,
            lanes,
            amplified,
            sched: self.sched,
            per,
            amp_ulps: self.amp_ulps,
            count: Some(count),
            block: None,
        };
        self.sched.skip(count as u64 * per);
        plan
    }
}

/// Fixed-order (left-to-right) `f64` summation for aggregation and
/// reporting paths.
///
/// Folds from `+0.0`, so it equals `Iterator::sum::<f64>()` over the same
/// sequence except on an empty or all-`-0.0` input, where std's float
/// `Sum` (which starts from `-0.0`) returns `-0.0` and this returns
/// `+0.0`. The point of routing through this function is that the
/// evaluation order is explicit and lives in the one module audited for it. detlint rule DL004
/// flags ad-hoc float reductions and exempts this module, so every float
/// sum in the workspace is either a simulated-device [`Reducer`] call or
/// one of these ordered helpers.
pub fn sum_ordered_f64(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(0.0, |acc, x| acc + x)
}

/// Fixed-order (left-to-right) `f32` summation. See [`sum_ordered_f64`].
pub fn sum_ordered_f32(xs: impl IntoIterator<Item = f32>) -> f32 {
    xs.into_iter().fold(0.0, |acc, x| acc + x)
}

#[cfg(test)]
// Tests assert exact float values: bit-identical replay is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (((i * 2654435761) % 1000) as f32 - 500.0) * 1.7e-3)
            .collect()
    }

    /// The sequential draw loop `plan_dots` replaced: one output after
    /// another, each drawing from the scheduler exactly as
    /// [`Reducer::dot`] does. The oracle for the closed-form plan.
    fn plan_specs_sequential(r: &mut Reducer, count: usize, k_len: usize) -> Vec<PermuteSpec> {
        r.invocations += count as u64;
        let lanes = r.lanes.min(k_len.max(1));
        (0..count)
            .map(|_| {
                let (j1, j2, rot) = if lanes > 1 {
                    (
                        r.sched.next_below(lanes as u32) as u16,
                        r.sched.next_below(lanes as u32) as u16,
                        r.sched.next_below(lanes as u32) as u16,
                    )
                } else {
                    (0, 0, 0)
                };
                let scale = if r.amp_ulps > 0.0 {
                    let u = (r.sched.next_f64() as f32) * 2.0 - 1.0;
                    1.0 + u * r.amp_ulps * f32::EPSILON
                } else {
                    1.0
                };
                PermuteSpec { j1, j2, rot, scale }
            })
            .collect()
    }

    /// [`DotPlan::tile_specs`] with the const parameters the engine
    /// picks for `plan`.
    fn derive_tile(plan: &DotPlan, rows: &[u64; MR], cols: &[u64; NR]) -> TileSpecs {
        if plan.amplified {
            plan.tile_specs::<true>(rows, cols)
        } else {
            plan.tile_specs::<false>(rows, cols)
        }
    }

    #[test]
    fn closed_form_plan_matches_sequential_draws() {
        const COUNT: usize = 4096;
        // (lanes, k_len): l = 1 from one lane and from an empty reduction,
        // then l = 27 and l = 40 with every rotation drawn at COUNT.
        let shapes = [(1, 100), (40, 0), (27, 100), (40, 100), (MAX_LANES, 7)];
        for (lanes, k_len) in shapes {
            for amp in [0.0, 512.0] {
                for seed in [0, 7, u64::MAX - 5] {
                    let what = format!("lanes {lanes}, k {k_len}, amp {amp}, seed {seed:#x}");
                    let base =
                        Reducer::new(ReduceOrder::Permuted, lanes, seed).with_amplification(amp);
                    let mut fast = base.clone();
                    let mut oracle = base.clone();
                    let plan = fast.plan_dots(COUNT, k_len);
                    let want = plan_specs_sequential(&mut oracle, COUNT, k_len);
                    let specs: Vec<PermuteSpec> = (0..COUNT).map(|o| plan.spec(o)).collect();
                    assert_eq!(specs.len(), want.len(), "{what}");
                    for (o, (got, want)) in specs.iter().zip(&want).enumerate() {
                        assert_eq!(
                            (got.j1, got.j2, got.rot, got.scale.to_bits()),
                            (want.j1, want.j2, want.rot, want.scale.to_bits()),
                            "{what}: output {o}"
                        );
                    }
                    assert_eq!(fast.snapshot(), oracle.snapshot(), "{what}");
                    // The engine derives the same specs tile by tile: under
                    // the row-major map, and under a conv map of 128
                    // samples × 4 pixels, where output (o, s·4 + p) is
                    // reference output s·32 + o·4 + p, not o·512 + s·4 + p.
                    for (m, n, pixels) in [(64, 64, None), (8, 512, Some(4))] {
                        let mut tiled = base.clone().plan_dots(COUNT, k_len);
                        if let Some(p) = pixels {
                            tiled = tiled.sample_blocks(p);
                        }
                        tiled.check_outputs(m, n);
                        for col0 in (0..n).step_by(NR) {
                            let cols = tiled.column_counters(m, n, col0);
                            for row0 in (0..m).step_by(MR) {
                                let rows =
                                    core::array::from_fn(|r| tiled.row_counter(m, n, row0 + r));
                                let tile = derive_tile(&tiled, &rows, &cols);
                                for (r, j) in (0..MR).flat_map(|r| (0..NR).map(move |j| (r, j))) {
                                    let (row, col) = (row0 + r, col0 + j);
                                    let o = match pixels {
                                        None => row * n + col,
                                        Some(p) => col / p * m * p + row * p + col % p,
                                    };
                                    assert_eq!(tiled.output_index(m, n, row, col), o, "{what}");
                                    let spec = tiled.spec(o);
                                    let derived = (
                                        tile.j1[r][j] as u16,
                                        tile.j2[r][j] as u16,
                                        tile.rot[r][j] as u16,
                                        tile.scale[r][j].to_bits(),
                                    );
                                    let want = &want[o];
                                    let want = (want.j1, want.j2, want.rot, want.scale.to_bits());
                                    let read = (spec.j1, spec.j2, spec.rot, spec.scale.to_bits());
                                    assert_eq!(read, want, "{what}: {m}x{n} ({row}, {col})");
                                    assert_eq!(
                                        derived, want,
                                        "{what}: {m}x{n} tile ({row}, {col})"
                                    );
                                }
                            }
                        }
                    }
                    if plan.lanes > 1 {
                        let mut seen = vec![false; plan.lanes];
                        for spec in &specs {
                            seen[spec.rot as usize] = true;
                        }
                        assert!(seen.iter().all(|&s| s), "{what}: a rotation never drawn");
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_matches_iter_sum() {
        let xs = data(100);
        let mut r = Reducer::sequential();
        assert_eq!(r.sum(&xs), xs.iter().sum::<f32>());
    }

    #[test]
    fn fixed_tree_is_bitwise_stable() {
        let xs = data(10_000);
        let mut r1 = Reducer::new(ReduceOrder::FixedTree, 48, 1);
        let mut r2 = Reducer::new(ReduceOrder::FixedTree, 48, 99);
        // Different scheduler seeds, same result: seed must be irrelevant.
        assert_eq!(r1.sum(&xs).to_bits(), r2.sum(&xs).to_bits());
        // And stable across repeated calls.
        assert_eq!(r1.sum(&xs).to_bits(), r1.sum(&xs).to_bits());
    }

    #[test]
    fn permuted_differs_across_calls_sometimes() {
        let xs = data(4096);
        let mut r = Reducer::new(ReduceOrder::Permuted, 48, 7);
        let first = r.sum(&xs);
        let mut any_diff = false;
        for _ in 0..64 {
            if r.sum(&xs).to_bits() != first.to_bits() {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "permuted reduction never changed in 64 calls");
    }

    #[test]
    fn permuted_error_is_ulp_scale() {
        let xs = data(4096);
        let exact: f64 = xs.iter().map(|&x| x as f64).sum();
        let mut r = Reducer::new(ReduceOrder::Permuted, 48, 7);
        for _ in 0..100 {
            let s = r.sum(&xs) as f64;
            // Accumulation error of a 4096-element f32 sum is bounded well
            // below 1e-3 for these magnitudes.
            assert!((s - exact).abs() < 1e-3, "error too large: {}", s - exact);
        }
    }

    #[test]
    fn all_orders_agree_to_f32_tolerance() {
        let xs = data(2000);
        let exact: f64 = xs.iter().map(|&x| x as f64).sum();
        for (order, lanes) in [
            (ReduceOrder::FixedTree, 1),
            (ReduceOrder::FixedTree, 32),
            (ReduceOrder::Permuted, 32),
        ] {
            let mut r = Reducer::new(order, lanes, 3);
            let s = r.sum(&xs) as f64;
            assert!(
                (s - exact).abs() < 1e-3,
                "{order:?}/{lanes} error {}",
                s - exact
            );
        }
    }

    #[test]
    fn dot_matches_reference() {
        let a = data(512);
        let b: Vec<f32> = data(512).iter().map(|x| x * 0.5 + 0.1).collect();
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        for (order, lanes) in [
            (ReduceOrder::FixedTree, 1),
            (ReduceOrder::FixedTree, 32),
            (ReduceOrder::Permuted, 32),
        ] {
            let mut r = Reducer::new(order, lanes, 3);
            let d = r.dot(&a, &b) as f64;
            assert!(
                (d - exact).abs() < 1e-3,
                "{order:?}/{lanes} error {}",
                d - exact
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_length_mismatch() {
        Reducer::sequential().dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn sum_strided_matches_dense() {
        let xs = data(300);
        let mut r = Reducer::new(ReduceOrder::FixedTree, 16, 0);
        // Sum every third element starting at 1.
        let dense: Vec<f32> = xs.iter().skip(1).step_by(3).copied().collect();
        let a = r.sum_strided(&xs, 1, 3, dense.len());
        let b = r.sum(&dense);
        assert!((a - b).abs() < 1e-5);
    }

    #[test]
    fn empty_inputs_sum_to_zero() {
        for (order, lanes) in [
            (ReduceOrder::FixedTree, 1),
            (ReduceOrder::FixedTree, 32),
            (ReduceOrder::Permuted, 32),
        ] {
            let mut r = Reducer::new(order, lanes, 1);
            assert_eq!(r.sum(&[]), 0.0);
            assert_eq!(r.dot(&[], &[]), 0.0);
            assert_eq!(r.sum_strided(&[], 0, 1, 0), 0.0);
        }
    }

    #[test]
    fn one_lane_zero_sums_are_positive_zero() {
        // std's float `Sum` starts from -0.0; every one-lane reduction
        // starts from +0.0, as the GEMM kernel's chains do.
        let mut r = Reducer::sequential();
        let nz = [-0.0f32, -0.0];
        for got in [
            r.sum(&[]),
            r.sum(&nz),
            r.sum_strided(&nz, 0, 1, 2),
            r.dot(&[], &[]),
            r.dot(&nz, &[1.0, 1.0]),
        ] {
            assert_eq!(got.to_bits(), 0.0f32.to_bits());
        }
        let a = crate::Tensor::from_vec(crate::Shape::of(&[1, 2]), nz.to_vec()).unwrap();
        let b = crate::Tensor::from_vec(crate::Shape::of(&[2, 1]), vec![1.0; 2]).unwrap();
        let c = crate::linalg::matmul(&a, &b, &mut r).unwrap();
        assert_eq!(c.as_slice()[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn lanes_are_clamped() {
        assert_eq!(Reducer::new(ReduceOrder::FixedTree, 0, 0).lanes(), 1);
        assert_eq!(
            Reducer::new(ReduceOrder::FixedTree, 10_000, 0).lanes(),
            MAX_LANES
        );
    }

    #[test]
    fn amplification_respected_only_by_permuted() {
        let xs = data(128);
        let mut det = Reducer::new(ReduceOrder::FixedTree, 16, 5).with_amplification(1e6);
        assert_eq!(det.sum(&xs).to_bits(), det.sum(&xs).to_bits());
        let mut nd1 = Reducer::new(ReduceOrder::Permuted, 16, 5).with_amplification(1e6);
        let mut nd2 = Reducer::new(ReduceOrder::Permuted, 16, 6).with_amplification(1e6);
        assert_ne!(nd1.sum(&xs).to_bits(), nd2.sum(&xs).to_bits());
    }

    #[test]
    #[should_panic(expected = "bad amplification")]
    fn negative_amplification_panics() {
        Reducer::sequential().with_amplification(-1.0);
    }

    #[test]
    fn snapshot_restore_resumes_permuted_stream() {
        let xs = data(512);
        let mut r = Reducer::new(ReduceOrder::Permuted, 32, 11);
        for _ in 0..5 {
            r.sum(&xs);
        }
        let snap = r.snapshot();
        let ahead: Vec<u32> = (0..8).map(|_| r.sum(&xs).to_bits()).collect();
        let mut fresh = Reducer::new(ReduceOrder::Permuted, 32, 0);
        fresh.restore(snap);
        let replayed: Vec<u32> = (0..8).map(|_| fresh.sum(&xs).to_bits()).collect();
        assert_eq!(ahead, replayed);
        assert_eq!(fresh.invocations(), r.invocations());
    }

    #[test]
    fn invocation_counter_increments() {
        let mut r = Reducer::sequential();
        r.sum(&[1.0]);
        r.dot(&[1.0], &[2.0]);
        r.sum_strided(&[1.0, 2.0], 0, 1, 2);
        assert_eq!(r.invocations(), 3);
    }

    #[test]
    fn deterministic_flag() {
        assert!(ReduceOrder::FixedTree.is_deterministic());
        assert!(!ReduceOrder::Permuted.is_deterministic());
    }

    #[test]
    fn ordered_sums_are_bit_identical_to_iter_sum() {
        let xs: Vec<f64> = data(1000).iter().map(|&x| x as f64).collect();
        assert_eq!(
            sum_ordered_f64(xs.iter().copied()).to_bits(),
            xs.iter().sum::<f64>().to_bits()
        );
        let ys = data(1000);
        assert_eq!(
            sum_ordered_f32(ys.iter().copied()).to_bits(),
            ys.iter().sum::<f32>().to_bits()
        );
    }

    #[test]
    fn ordered_sums_of_zero_inputs_are_positive_zero() {
        // Where they part from std: its float `Sum` starts from -0.0.
        assert_eq!(
            std::iter::empty::<f32>().sum::<f32>().to_bits(),
            0x8000_0000
        );
        for xs in [&[][..], &[-0.0, -0.0]] {
            assert_eq!(sum_ordered_f32(xs.iter().copied()).to_bits(), 0);
            assert_eq!(
                sum_ordered_f64(xs.iter().map(|&x| f64::from(x))).to_bits(),
                0
            );
        }
    }
}
