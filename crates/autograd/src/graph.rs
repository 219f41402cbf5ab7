//! The differentiation tape.
//!
//! [`Graph`] owns a flat vector of nodes; every operation appends one node
//! holding the forward value plus enough information to compute the adjoint.
//! [`Var`] is a copyable handle (an index into the tape). Because nodes are
//! appended in execution order, a single reverse sweep in `backward` visits
//! every node after all of its consumers — the classic tape invariant.
//!
//! ## Buffer pool
//!
//! Training runs thousands of short-lived tapes, and profiling showed the
//! dominant cost after kernel time is allocator churn: every op allocates its
//! output, every backward allocates adjoints. The tape therefore owns a free
//! list of `Vec<f32>` buffers. [`Graph::reset`] clears the tape for reuse but
//! harvests every node's value/grad (and fused-op scratch) into the free
//! list, so a tape that has processed one sample replays the next one with
//! **zero** heap allocation in steady state. Reuse is numerically inert:
//! pooled buffers are fully overwritten (or zero-filled) before use, so a
//! reused tape produces bit-identical values and gradients to a fresh one —
//! a property the proptests pin down.
//!
//! ## Fused ops
//!
//! RouteNet's hot loop is one GRU step per sequence position per
//! message-passing iteration. Expressed in primitive ops that is ~20 tape
//! nodes per position; the fused [`Graph::gather_mask`], [`Graph::gru_step`]
//! and [`Graph::segment_acc`] collapse it to 3, shrinking tape length (and
//! backward dispatch + allocation) by roughly an order of magnitude. The
//! primitive ops remain — tests use them as the numerical reference.

use crate::activations as act;
use crate::index::{IndexInput, IndexList};
use rn_tensor::simd::activations as vact;
use rn_tensor::Matrix;

/// Handle to a node on the tape. Cheap to copy; only valid for the [`Graph`]
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The six parameter handles of one bound GRU cell, as the fused
/// [`Graph::gru_step`] op consumes them. Constructed by `rn_nn`'s
/// `BoundGruCell`; kernels are `(hidden + input) x hidden`, biases `1 x
/// hidden`.
#[derive(Debug, Clone, Copy)]
pub struct GruVars {
    /// Update-gate kernel.
    pub w_z: Var,
    /// Update-gate bias.
    pub b_z: Var,
    /// Reset-gate kernel.
    pub w_r: Var,
    /// Reset-gate bias.
    pub b_r: Var,
    /// Candidate kernel.
    pub w_c: Var,
    /// Candidate bias.
    pub b_c: Var,
    /// Optional merged `[W_z | W_r]` kernel (`(hidden + input) x 2*hidden`),
    /// cached at bind time. When present, the fused forward computes both
    /// gate pre-activations with ONE matmul over `[h|x]` instead of two,
    /// halving A-matrix traffic. Per-element accumulation order is identical
    /// to the split matmuls, so results are bitwise equal. The adjoint still
    /// accumulates into `w_z`/`w_r` separately; this node never receives a
    /// gradient and should be registered as a constant.
    pub w_zr: Option<Var>,
}

/// Forward intermediates the fused GRU step saves for its adjoint.
#[derive(Debug)]
pub(crate) struct GruSaved {
    /// `[h | x]`, `n x (hidden + input)`.
    hx: Matrix,
    /// `[r ⊙ h | x]`, `n x (hidden + input)`.
    rhx: Matrix,
    /// Update gate (post-sigmoid).
    z: Matrix,
    /// Reset gate (post-sigmoid).
    r: Matrix,
    /// Candidate state (post-tanh).
    c: Matrix,
    /// Row activity mask (`n x 1`), if this was a masked step.
    mask: Option<Matrix>,
}

/// Recorded operation: the inputs and any auxiliary data the adjoint needs.
#[derive(Debug)]
pub(crate) enum Op {
    /// Leaf node. `requires_grad = false` marks constants whose gradient is
    /// never materialized (saves memory for targets and masks).
    Leaf {
        requires_grad: bool,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// Matrix product `a · b`.
    MatMul {
        a: Var,
        b: Var,
    },
    /// Broadcast-add a `1 x c` bias row to every row of `x`.
    AddBias {
        x: Var,
        bias: Var,
    },
    /// Element-wise `a * x + b`. Only the slope is recorded: the adjoint of
    /// an affine map does not depend on the offset.
    Affine {
        x: Var,
        a: f32,
    },
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Selu(Var),
    Softplus(Var),
    Abs(Var),
    Square(Var),
    /// Element-wise `min(x, c)` for a scalar cap `c`.
    ClampMax {
        x: Var,
        cap: f32,
    },
    ConcatCols(Var, Var),
    SliceCols {
        x: Var,
        start: usize,
        end: usize,
    },
    GatherRows {
        x: Var,
        indices: IndexList,
    },
    SegmentSum {
        x: Var,
        segments: IndexList,
    },
    /// Multiply each row of `x` by the matching entry of a constant `n x 1`
    /// mask. The mask is captured by value: it is padding structure, not a
    /// differentiable quantity.
    MaskRows {
        x: Var,
        mask: Matrix,
    },
    Sum(Var),
    Mean(Var),
    /// Fused `gather_rows` + `mask_rows`: `out[i] = mask[i] * x[indices[i]]`.
    GatherMask {
        x: Var,
        indices: IndexList,
        mask: Matrix,
    },
    /// Fused masked scatter-add accumulate:
    /// `out = acc; out[segments[i]] += mask[i] * x[i]`.
    SegmentAcc {
        acc: Var,
        x: Var,
        segments: IndexList,
        mask: Matrix,
    },
    /// One whole (optionally masked) GRU step as a single node.
    GruStep {
        vars: GruVars,
        h: Var,
        x: Var,
        saved: Box<GruSaved>,
    },
    /// Row-compacted GRU step: only `rows` advance; all other rows of `h`
    /// pass through untouched. `x` is already compacted (`rows.len()` rows).
    GruStepRows {
        vars: GruVars,
        h: Var,
        x: Var,
        rows: IndexList,
        saved: Box<GruSaved>,
    },
    /// Row-compacted scatter-add accumulate:
    /// `out = acc; out[segments[k]] += x[rows[k]]`.
    SegmentAccRows {
        acc: Var,
        x: Var,
        rows: IndexList,
        segments: IndexList,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A define-by-run differentiation tape.
///
/// Typical lifecycle: create, register parameters/inputs, run ops, call
/// [`Graph::backward`] once, read gradients with [`Graph::grad`] — then
/// either drop it or [`Graph::reset`] it to replay the next sample with the
/// same buffers.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Free list of recycled backing buffers (see module docs).
    pool: Vec<Vec<f32>>,
    /// Free list of recycled index buffers (gather/scatter id lists).
    idx_pool: Vec<Vec<usize>>,
    /// Seed-faithful reference mode: primitive matmul/activation ops run the
    /// pre-refactor naive kernels and libm transcendentals. Used as the
    /// "before" side of the training-step benchmark and by equivalence tests.
    reference_mode: bool,
    /// Inference mode: fused GRU ops recycle their saved-for-backward
    /// activations immediately instead of keeping them resident until
    /// `reset`. Forward values are bitwise unchanged; `backward` is
    /// unavailable. This is the serving hot path's memory-footprint lever:
    /// a megabatch forward stops dragging ~10x its working set through the
    /// cache for gradients nobody will ask for.
    ///
    /// Inference mode additionally updates GRU states and scatter-add
    /// accumulators **in place**: the fused step ops steal the input state's
    /// buffer instead of copying it, so a megabatch inference stops paying
    /// an `n x state_dim` copy per sequence position. The consumed input
    /// `Var`'s value becomes empty — see [`Graph::gru_step_rows`].
    inference_mode: bool,
    /// Cumulative count of index words the tape has copied into pooled
    /// buffers (never cleared by `reset`). Tests assert this stays
    /// flat across steps bound against a cached composition.
    idx_copied: u64,
}

/// Pop a recycled buffer (or allocate) and shape it into a zeroed matrix.
fn pool_matrix(pool: &mut Vec<Vec<f32>>, rows: usize, cols: usize) -> Matrix {
    let len = rows * cols;
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    Matrix::from_vec(rows, cols, buf)
}

/// Pop a recycled buffer and shape it into a matrix of **arbitrary
/// contents** — for scratch every element of which is overwritten before it
/// is read (gathered/copied/matmul-`into` targets). Skipping the zero fill
/// is a measurable win: the fused hot loop shapes several such buffers per
/// tape node.
fn pool_matrix_scratch(pool: &mut Vec<Vec<f32>>, rows: usize, cols: usize) -> Matrix {
    let len = rows * cols;
    let mut buf = pool.pop().unwrap_or_default();
    if buf.len() > len {
        buf.truncate(len);
    } else {
        buf.resize(len, 0.0);
    }
    Matrix::from_vec(rows, cols, buf)
}

/// Return a matrix's backing buffer to the free list. Buffers without
/// capacity (discarded GRU scratch, states stolen by an in-place step) are
/// dropped: pooling them would hand out empty buffers first and let the
/// free list grow on every reuse.
fn pool_recycle(pool: &mut Vec<Vec<f32>>, m: Matrix) {
    let buf = m.into_vec();
    if buf.capacity() > 0 {
        pool.push(buf);
    }
}

/// A copy of `src` in a pooled buffer.
fn pooled_copy(pool: &mut Vec<Vec<f32>>, src: &Matrix) -> Matrix {
    let mut out = pool_matrix_scratch(pool, src.rows(), src.cols());
    out.as_mut_slice().copy_from_slice(src.as_slice());
    out
}

/// `f` of every element of `x`, in a pooled buffer (bitwise
/// [`Matrix::map`]).
fn pooled_map(pool: &mut Vec<Vec<f32>>, x: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    let mut out = pool_matrix_scratch(pool, x.rows(), x.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o = f(v);
    }
    out
}

/// `f` of every element pair of `a` and `b`, in a pooled buffer (bitwise
/// [`Matrix::zip`]).
fn pooled_zip(
    pool: &mut Vec<Vec<f32>>,
    a: &Matrix,
    b: &Matrix,
    f: impl Fn(f32, f32) -> f32,
) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "element-wise op: shapes differ");
    let mut out = pool_matrix_scratch(pool, a.rows(), a.cols());
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = f(x, y);
    }
    out
}

/// A `rows x cols` matrix filled with `value`, in a pooled buffer.
fn pooled_filled(pool: &mut Vec<Vec<f32>>, rows: usize, cols: usize, value: f32) -> Matrix {
    let mut out = pool_matrix_scratch(pool, rows, cols);
    out.as_mut_slice().fill(value);
    out
}

/// `x` with every row scaled by the matching entry of the `n x 1` `col`,
/// in a pooled buffer (bitwise [`Matrix::mul_col_broadcast`]).
fn pooled_mul_col(pool: &mut Vec<Vec<f32>>, x: &Matrix, col: &Matrix) -> Matrix {
    let mut out = pooled_copy(pool, x);
    out.mul_col_broadcast_assign(col);
    out
}

impl GruSaved {
    /// The post-discard placeholder inference mode stores on the node: every
    /// matrix empty, nothing resident.
    fn discarded() -> Self {
        Self {
            hx: Matrix::zeros(0, 0),
            rhx: Matrix::zeros(0, 0),
            z: Matrix::zeros(0, 0),
            r: Matrix::zeros(0, 0),
            c: Matrix::zeros(0, 0),
            mask: None,
        }
    }
}

/// Return a fused GRU node's saved activations to the free list.
fn recycle_gru_saved(pool: &mut Vec<Vec<f32>>, s: GruSaved) {
    pool_recycle(pool, s.hx);
    pool_recycle(pool, s.rhx);
    pool_recycle(pool, s.z);
    pool_recycle(pool, s.r);
    pool_recycle(pool, s.c);
    if let Some(m) = s.mask {
        pool_recycle(pool, m);
    }
}

/// Copy an index slice into a recycled buffer (or a fresh one), counting the
/// copied words into the tape's traffic counter.
fn pool_indices(pool: &mut Vec<Vec<usize>>, copied: &mut u64, src: &[usize]) -> Vec<usize> {
    *copied += src.len() as u64;
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    v.extend_from_slice(src);
    v
}

/// Record an index input on the tape: copy a borrowed slice into a pooled
/// buffer, or store a shared view as-is (zero words copied).
fn intern_indices(
    pool: &mut Vec<Vec<usize>>,
    copied: &mut u64,
    input: &IndexInput<'_>,
) -> IndexList {
    match input {
        IndexInput::Copied(s) => IndexList::Pooled(pool_indices(pool, copied, s)),
        IndexInput::Shared(sh) => IndexList::Shared(sh.clone()),
    }
}

/// Return a recorded index list to the free list (pooled copies only; shared
/// views are just dropped).
fn recycle_index(idx_pool: &mut Vec<Vec<usize>>, list: IndexList) {
    if let IndexList::Pooled(v) = list {
        idx_pool.push(v);
    }
}

/// Add the column sums of `src` into the `1 x cols` accumulator `bias_grad`.
fn add_col_sums(bias_grad: &mut Matrix, src: &Matrix) {
    debug_assert_eq!(bias_grad.cols(), src.cols());
    let cols = src.cols();
    let acc = bias_grad.as_mut_slice();
    for r in 0..src.rows() {
        for (a, &v) in acc
            .iter_mut()
            .zip(&src.as_slice()[r * cols..(r + 1) * cols])
        {
            *a += v;
        }
    }
}

/// Compute both gate pre-activations `z = hx·W_z` and `r = hx·W_r` — through
/// the merged `[W_z|W_r]` kernel when one is bound (one matmul, one pass over
/// `hx`), through two matmuls otherwise. Each output element is accumulated
/// in the same order either way, so the two paths are bitwise identical.
#[allow(clippy::too_many_arguments)]
fn gate_matmuls(
    pool: &mut Vec<Vec<f32>>,
    hx: &Matrix,
    w_z: &Matrix,
    w_r: &Matrix,
    w_zr: Option<&Matrix>,
    hidden: usize,
    z: &mut Matrix,
    r: &mut Matrix,
) {
    match w_zr {
        Some(wzr) => {
            assert_eq!(
                wzr.shape(),
                (w_z.rows(), 2 * hidden),
                "gru_step: merged [W_z|W_r] kernel shape"
            );
            let n = hx.rows();
            let mut zr = pool_matrix_scratch(pool, n, 2 * hidden);
            hx.matmul_into(wzr, &mut zr);
            for i in 0..n {
                let src = zr.row(i);
                z.row_mut(i).copy_from_slice(&src[..hidden]);
                r.row_mut(i).copy_from_slice(&src[hidden..]);
            }
            pool_recycle(pool, zr);
        }
        None => {
            hx.matmul_into(w_z, z);
            hx.matmul_into(w_r, r);
        }
    }
}

/// Copy `[left_row | right_row]` into each row of `out`.
fn concat_rows_into(out: &mut Matrix, left: &Matrix, right: &Matrix) {
    let (n, lc, rc) = (left.rows(), left.cols(), right.cols());
    debug_assert_eq!(out.shape(), (n, lc + rc));
    for i in 0..n {
        let dst = out.row_mut(i);
        dst[..lc].copy_from_slice(left.row(i));
        dst[lc..].copy_from_slice(right.row(i));
    }
}

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty tape with room for `capacity` nodes (avoids reallocation in the
    /// message-passing hot loop, where the node count is predictable).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of buffers currently parked in the free list (observability
    /// for tests and benchmarks).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Switch the primitive ops to the pre-refactor kernels (naive matmul,
    /// libm sigmoid/tanh/selu). Fused ops are unaffected — reference mode
    /// exists to reproduce the seed's hot path for honest before/after
    /// benchmarking and golden tests. Survives [`Graph::reset`].
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
    }

    /// Toggle inference mode (see the struct docs): fused GRU steps drop
    /// their backward scratch as soon as the forward value is computed.
    /// Values are bitwise identical either way. [`Graph::backward`] panics
    /// while the mode is on; after toggling it off, [`Graph::reset`] before
    /// recording anything you intend to differentiate — nodes recorded
    /// under inference mode have no saved activations. The `predict_*`
    /// entry points scope the mode per call (reset, enable, run, disable).
    pub fn set_inference_mode(&mut self, on: bool) {
        self.inference_mode = on;
    }

    /// True while the tape records forward-only (inference) computations.
    pub fn inference_mode(&self) -> bool {
        self.inference_mode
    }

    /// Cumulative count of index words this tape has copied into pooled
    /// buffers at record time (never cleared by [`Graph::reset`]). A step
    /// recorded entirely against shared composition views leaves this flat —
    /// the cached-composition tests assert exactly that.
    pub fn index_words_copied(&self) -> u64 {
        self.idx_copied
    }

    /// Clear the tape for reuse, retaining every allocation.
    ///
    /// All `Var` handles from before the reset become invalid. Node values,
    /// gradients and fused-op scratch matrices are harvested into the free
    /// list, so the next forward/backward replays allocation-free once the
    /// pool has warmed up. A reset tape computes bit-identical results to a
    /// fresh one (pooled buffers are fully overwritten before use).
    pub fn reset(&mut self) {
        let pool = &mut self.pool;
        let idx_pool = &mut self.idx_pool;
        for node in self.nodes.drain(..) {
            pool_recycle(pool, node.value);
            if let Some(g) = node.grad {
                pool_recycle(pool, g);
            }
            match node.op {
                Op::MaskRows { mask, .. } => pool_recycle(pool, mask),
                Op::GatherRows { indices, .. } => recycle_index(idx_pool, indices),
                Op::SegmentSum { segments, .. } => recycle_index(idx_pool, segments),
                Op::GatherMask { mask, indices, .. } => {
                    pool_recycle(pool, mask);
                    recycle_index(idx_pool, indices);
                }
                Op::SegmentAcc { mask, segments, .. } => {
                    pool_recycle(pool, mask);
                    recycle_index(idx_pool, segments);
                }
                Op::SegmentAccRows { rows, segments, .. } => {
                    recycle_index(idx_pool, rows);
                    recycle_index(idx_pool, segments);
                }
                Op::GruStep { saved, .. } => {
                    recycle_gru_saved(pool, *saved);
                }
                Op::GruStepRows { rows, saved, .. } => {
                    recycle_index(idx_pool, rows);
                    recycle_gru_saved(pool, *saved);
                }
                _ => {}
            }
        }
    }

    /// `f` of every element of the value of `x`, in a pooled buffer.
    fn map_value(&mut self, x: Var, f: impl Fn(f32) -> f32) -> Matrix {
        pooled_map(&mut self.pool, &self.nodes[x.0].value, f)
    }

    /// `f` of every element pair of the values of `a` and `b`, in a pooled
    /// buffer.
    fn zip_values(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Matrix {
        pooled_zip(
            &mut self.pool,
            &self.nodes[a.0].value,
            &self.nodes[b.0].value,
            f,
        )
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Register a differentiable leaf (a model parameter or input).
    pub fn param(&mut self, value: Matrix) -> Var {
        self.push(
            value,
            Op::Leaf {
                requires_grad: true,
            },
        )
    }

    /// Register a differentiable leaf holding a copy of `src`, built in a
    /// pooled buffer: binding a model's weights on a warm tape allocates
    /// nothing.
    pub fn param_copy(&mut self, src: &Matrix) -> Var {
        let m = pooled_copy(&mut self.pool, src);
        self.param(m)
    }

    /// Register a non-differentiable leaf (targets, masks, constants).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(
            value,
            Op::Leaf {
                requires_grad: false,
            },
        )
    }

    /// Register a non-differentiable leaf built in a pooled buffer by `fill`.
    ///
    /// `fill` receives a zeroed `rows x cols` matrix; this is the
    /// allocation-free path for per-sample inputs on a reused tape.
    pub fn constant_with(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Matrix),
    ) -> Var {
        let mut m = pool_matrix(&mut self.pool, rows, cols);
        fill(&mut m);
        self.constant(m)
    }

    /// Register a non-differentiable leaf holding a copy of `src`, built in
    /// a pooled (allocation-free once warm) buffer.
    ///
    /// This is how a forward pass binds **float** state from a borrowed plan
    /// (a cached megabatch composition shared behind an `Arc`): the tape
    /// needs its own mutable copy because the fused step ops may advance
    /// states in place, stealing the leaf's buffer. Note the contrast with
    /// the tape's *index* lists, which cached compositions hand over as
    /// refcounted [`crate::SharedIndices`] views precisely because no op
    /// ever mutates them.
    pub fn constant_copy(&mut self, src: &Matrix) -> Var {
        let m = pooled_copy(&mut self.pool, src);
        self.constant(m)
    }

    /// Forward value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of the last `backward` call w.r.t. `v`, if one was produced.
    ///
    /// `None` for constants and for nodes the loss does not depend on.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Element-wise sum. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_values(a, b, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Element-wise difference. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_values(a, b, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_values(a, b, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        if self.reference_mode {
            let v = self.value(a).matmul_reference(self.value(b));
            return self.push(v, Op::MatMul { a, b });
        }
        let (m, k) = self.value(a).shape();
        let n = self.value(b).cols();
        assert_eq!(
            self.value(b).rows(),
            k,
            "matmul: inner dimensions differ ({m}x{k} * {}x{n})",
            self.value(b).rows()
        );
        let mut pool = std::mem::take(&mut self.pool);
        let mut out = pool_matrix_scratch(&mut pool, m, n);
        self.value(a).matmul_into(self.value(b), &mut out);
        self.pool = pool;
        self.push(out, Op::MatMul { a, b })
    }

    /// Broadcast-add a `1 x c` bias row vector to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let cols = self.value(x).cols();
        assert_eq!(
            self.value(bias).shape(),
            (1, cols),
            "add_bias: bias must be 1 x cols"
        );
        let mut v = pooled_copy(&mut self.pool, &self.nodes[x.0].value);
        v.add_row_broadcast_assign(self.value(bias));
        self.push(v, Op::AddBias { x, bias })
    }

    /// Element-wise affine map `a * x + b`.
    pub fn affine(&mut self, x: Var, a: f32, b: f32) -> Var {
        let v = self.map_value(x, |t| a * t + b);
        self.push(v, Op::Affine { x, a })
    }

    /// Multiply by a scalar.
    pub fn scale(&mut self, x: Var, a: f32) -> Var {
        self.affine(x, a, 0.0)
    }

    /// `1 - x`, element-wise (the GRU blend complement).
    pub fn one_minus(&mut self, x: Var) -> Var {
        self.affine(x, -1.0, 1.0)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        // Reference mode keeps the seed's libm map; the fast path runs the
        // vectorized slice kernel (bitwise-identical to the scalar fast
        // form) into a pooled buffer.
        let v = if self.reference_mode {
            self.value(x).map(act::sigmoid_precise)
        } else {
            let (rows, cols) = self.value(x).shape();
            let mut pool = std::mem::take(&mut self.pool);
            let mut out = pool_matrix_scratch(&mut pool, rows, cols);
            vact::sigmoid_map(self.value(x).as_slice(), out.as_mut_slice());
            self.pool = pool;
            out
        };
        self.push(v, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let v = if self.reference_mode {
            self.value(x).map(act::tanh_precise)
        } else {
            let (rows, cols) = self.value(x).shape();
            let mut pool = std::mem::take(&mut self.pool);
            let mut out = pool_matrix_scratch(&mut pool, rows, cols);
            vact::tanh_map(self.value(x).as_slice(), out.as_mut_slice());
            self.pool = pool;
            out
        };
        self.push(v, Op::Tanh(x))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.map_value(x, act::relu);
        self.push(v, Op::Relu(x))
    }

    /// Scaled exponential linear unit (RouteNet's readout activation).
    pub fn selu(&mut self, x: Var) -> Var {
        let v = if self.reference_mode {
            self.value(x).map(act::selu_precise)
        } else {
            let (rows, cols) = self.value(x).shape();
            let mut pool = std::mem::take(&mut self.pool);
            let mut out = pool_matrix_scratch(&mut pool, rows, cols);
            vact::selu_map(self.value(x).as_slice(), out.as_mut_slice());
            self.pool = pool;
            out
        };
        self.push(v, Op::Selu(x))
    }

    /// Softplus `ln(1+e^x)`.
    pub fn softplus(&mut self, x: Var) -> Var {
        let v = self.map_value(x, act::softplus);
        self.push(v, Op::Softplus(x))
    }

    /// Element-wise absolute value.
    pub fn abs(&mut self, x: Var) -> Var {
        let v = self.map_value(x, f32::abs);
        self.push(v, Op::Abs(x))
    }

    /// Element-wise square.
    pub fn square(&mut self, x: Var) -> Var {
        let v = self.map_value(x, |t| t * t);
        self.push(v, Op::Square(x))
    }

    /// Element-wise `min(x, cap)`. Gradient flows only where `x < cap`
    /// (the tie at `x == cap` takes the pass-through branch).
    pub fn clamp_max(&mut self, x: Var, cap: f32) -> Var {
        let v = self.map_value(x, |t| t.min(cap));
        self.push(v, Op::ClampMax { x, cap })
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Horizontal concatenation `[a | b]`. Row counts must match.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Column slice `x[:, start..end]`.
    pub fn slice_cols(&mut self, x: Var, start: usize, end: usize) -> Var {
        let v = self.value(x).slice_cols(start, end);
        self.push(v, Op::SliceCols { x, start, end })
    }

    /// Gather rows: `out[i] = x[indices[i]]`. Indices may repeat; the adjoint
    /// scatter-adds into the repeated rows. Output comes from the buffer pool.
    /// A borrowed index slice is copied onto the tape; a
    /// [`crate::SharedIndices`] view is recorded by refcount (see
    /// [`crate::index`]).
    pub fn gather_rows<'a>(&mut self, x: Var, ids: impl Into<IndexInput<'a>>) -> Var {
        let ids = ids.into();
        let mut pool = std::mem::take(&mut self.pool);
        let xv = self.value(x);
        let indices = ids.as_slice();
        let mut out = pool_matrix_scratch(&mut pool, indices.len(), xv.cols());
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(xv.row(idx));
        }
        self.pool = pool;
        let indices = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &ids);
        self.push(out, Op::GatherRows { x, indices })
    }

    /// Segment sum: `out[segments[i]] += x[i]` with `num_segments` output rows.
    /// This is RouteNet's message aggregation (paths → links, paths → nodes).
    pub fn segment_sum(&mut self, x: Var, segments: &[usize], num_segments: usize) -> Var {
        let v = self.value(x).segment_sum(segments, num_segments);
        let segments = IndexList::Pooled(pool_indices(
            &mut self.idx_pool,
            &mut self.idx_copied,
            segments,
        ));
        self.push(v, Op::SegmentSum { x, segments })
    }

    /// Multiply each row of `x` by the matching entry of the constant `n x 1`
    /// mask matrix (used to zero padded sequence positions).
    pub fn mask_rows(&mut self, x: Var, mask: &Matrix) -> Var {
        let v = pooled_mul_col(&mut self.pool, &self.nodes[x.0].value, mask);
        let mask = pooled_copy(&mut self.pool, mask);
        self.push(v, Op::MaskRows { x, mask })
    }

    // ------------------------------------------------------------------
    // Fused message-passing ops
    // ------------------------------------------------------------------

    /// Fused gather + row mask: `out[i] = mask[i] * x[indices[i]]`.
    ///
    /// One tape node replacing the `gather_rows` → `mask_rows` pair. The
    /// production sweep uses the row-compacted form ([`Graph::gather_rows`]
    /// over active ids); this masked form is kept as the dense reference the
    /// compacted ops are validated against, and for callers whose masks are
    /// not 0/1. Masked rows are exact zeros, like the unfused pair.
    pub fn gather_mask(&mut self, x: Var, indices: &[usize], mask: &Matrix) -> Var {
        let mut pool = std::mem::take(&mut self.pool);
        let xv = self.value(x);
        assert_eq!(
            indices.len(),
            mask.rows(),
            "gather_mask: indices/mask mismatch"
        );
        let cols = xv.cols();
        let mut out = pool_matrix_scratch(&mut pool, indices.len(), cols);
        for (i, &idx) in indices.iter().enumerate() {
            let m = mask.get(i, 0);
            let dst = out.row_mut(i);
            let src = xv.row(idx);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = m * s;
            }
        }
        let mask_copy = pooled_copy(&mut pool, mask);
        self.pool = pool;
        let indices = IndexList::Pooled(pool_indices(
            &mut self.idx_pool,
            &mut self.idx_copied,
            indices,
        ));
        self.push(
            out,
            Op::GatherMask {
                x,
                indices,
                mask: mask_copy,
            },
        )
    }

    /// Fused masked scatter-add accumulate:
    /// `out = acc` then `out[segments[i]] += mask[i] * x[i]`.
    ///
    /// One tape node replacing the `mask_rows` → `segment_sum` → `add` chain
    /// that folds per-position messages into the per-entity accumulator.
    /// The production sweep uses [`Graph::segment_acc_rows`]; this masked
    /// form is the dense reference it is validated against.
    pub fn segment_acc(&mut self, acc: Var, x: Var, segments: &[usize], mask: &Matrix) -> Var {
        let mut pool = std::mem::take(&mut self.pool);
        let (acc_v, x_v) = (self.value(acc), self.value(x));
        assert_eq!(
            segments.len(),
            x_v.rows(),
            "segment_acc: segments/x mismatch"
        );
        assert_eq!(mask.rows(), x_v.rows(), "segment_acc: mask/x mismatch");
        assert_eq!(acc_v.cols(), x_v.cols(), "segment_acc: width mismatch");
        let num_segments = acc_v.rows();
        let mut out = pool_matrix_scratch(&mut pool, num_segments, acc_v.cols());
        out.as_mut_slice().copy_from_slice(acc_v.as_slice());
        for (i, &s) in segments.iter().enumerate() {
            assert!(
                s < num_segments,
                "segment_acc: segment id {s} out of range {num_segments}"
            );
            let m = mask.get(i, 0);
            let src = x_v.row(i);
            let dst = out.row_mut(s);
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += m * v;
            }
        }
        let mask_copy = pooled_copy(&mut pool, mask);
        self.pool = pool;
        let segments = IndexList::Pooled(pool_indices(
            &mut self.idx_pool,
            &mut self.idx_copied,
            segments,
        ));
        self.push(
            out,
            Op::SegmentAcc {
                acc,
                x,
                segments,
                mask: mask_copy,
            },
        )
    }

    /// Row-compacted scatter-add accumulate:
    /// `out = acc` then `out[segments[k]] += x[rows[k]]`.
    ///
    /// The compacted sibling of [`Graph::segment_acc`]: instead of masking
    /// inactive rows to zero and still touching them, only the active
    /// `rows` are visited at all. With RouteNet's path-length distribution
    /// most positions are inactive in late steps, so this trims both the
    /// forward scatter and the backward gather to the live set.
    /// In **inference mode** this op is destructive like
    /// [`Graph::gru_step_rows`]: it steals `acc`'s buffer and scatter-adds
    /// in place (the `Var` passed as `acc` must not be read afterwards).
    pub fn segment_acc_rows<'a>(
        &mut self,
        acc: Var,
        x: Var,
        rows: impl Into<IndexInput<'a>>,
        segments: impl Into<IndexInput<'a>>,
    ) -> Var {
        let (rows_in, segments_in) = (rows.into(), segments.into());
        let mut pool = std::mem::take(&mut self.pool);
        let (num_segments, cols) = self.value(acc).shape();
        let (rows, segments) = (rows_in.as_slice(), segments_in.as_slice());
        assert_eq!(
            rows.len(),
            segments.len(),
            "segment_acc_rows: rows/segments mismatch"
        );
        assert_eq!(
            self.value(x).cols(),
            cols,
            "segment_acc_rows: width mismatch"
        );
        for &s in segments {
            assert!(
                s < num_segments,
                "segment_acc_rows: segment id {s} out of range"
            );
        }

        // In-place inference: steal the accumulator instead of copying it.
        let mut out = if self.inference_mode {
            std::mem::replace(&mut self.nodes[acc.0].value, Matrix::zeros(0, 0))
        } else {
            pooled_copy(&mut pool, self.value(acc))
        };
        let xv = self.value(x);
        for (&row, &seg) in rows.iter().zip(segments) {
            for (d, &v) in out.row_mut(seg).iter_mut().zip(xv.row(row)) {
                *d += v;
            }
        }
        self.pool = pool;
        let rows = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &rows_in);
        let segments = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &segments_in);
        self.push(
            out,
            Op::SegmentAccRows {
                acc,
                x,
                rows,
                segments,
            },
        )
    }

    /// Row-compacted GRU step: only `rows` advance, every other row of `h`
    /// passes through bitwise untouched. `x` must already be compacted to
    /// `rows.len()` rows (e.g. by [`Graph::gather_rows`] with active ids).
    ///
    /// Numerically identical to [`Graph::gru_step`] with a 0/1 mask, but the
    /// gate matmuls and transcendentals shrink from all paths to the active
    /// set — the biggest single win on RouteNet's tail steps, where only a
    /// handful of long paths remain active.
    /// In **inference mode** this op is destructive: it steals `h`'s buffer
    /// and advances the active rows in place instead of copying all `n`
    /// rows (the `Var` passed as `h` must not be read afterwards — its value
    /// becomes empty). Training mode copies, so `h` stays intact for the
    /// adjoint. Output bits are identical either way.
    pub fn gru_step_rows<'a>(
        &mut self,
        vars: &GruVars,
        h: Var,
        x: Var,
        rows: impl Into<IndexInput<'a>>,
    ) -> Var {
        let rows_in = rows.into();
        let mut pool = std::mem::take(&mut self.pool);
        let (n, hidden) = self.value(h).shape();
        let rows = rows_in.as_slice();
        let a = rows.len();
        let input = self.value(x).cols();
        assert_eq!(
            self.value(x).rows(),
            a,
            "gru_step_rows: x must be compacted to rows"
        );
        assert_eq!(
            self.value(vars.w_z).shape(),
            (hidden + input, hidden),
            "gru_step_rows: W_z shape"
        );
        for &row in rows {
            assert!(row < n, "gru_step_rows: row {row} out of range {n}");
        }

        let mut hx = pool_matrix_scratch(&mut pool, a, hidden + input);
        let mut z = pool_matrix_scratch(&mut pool, a, hidden);
        let mut r = pool_matrix_scratch(&mut pool, a, hidden);
        let mut rhx = pool_matrix_scratch(&mut pool, a, hidden + input);
        let mut c = pool_matrix_scratch(&mut pool, a, hidden);

        // In-place inference: steal the state buffer instead of copying it.
        // Either way the old state rows are read from `out`, so both modes
        // compute identical bits.
        let mut out = if self.inference_mode {
            let stolen = std::mem::replace(&mut self.nodes[h.0].value, Matrix::zeros(0, 0));
            debug_assert_eq!(stolen.shape(), (n, hidden));
            stolen
        } else {
            pooled_copy(&mut pool, self.value(h))
        };
        let xv = self.value(x);
        // hx = [h | x] over the active rows.
        for (k, &row) in rows.iter().enumerate() {
            let dst = hx.row_mut(k);
            dst[..hidden].copy_from_slice(out.row(row));
            dst[hidden..].copy_from_slice(xv.row(k));
        }
        let (w_z, w_r) = (self.value(vars.w_z), self.value(vars.w_r));
        let w_zr = vars.w_zr.map(|v| self.value(v));
        gate_matmuls(&mut pool, &hx, w_z, w_r, w_zr, hidden, &mut z, &mut r);
        if hidden > 0 && a > 0 {
            vact::sigmoid_bias_map_inplace(z.as_mut_slice(), self.value(vars.b_z).as_slice());
            vact::sigmoid_bias_map_inplace(r.as_mut_slice(), self.value(vars.b_r).as_slice());
        }
        // rhx = [r ⊙ h | x]; candidate c = tanh(rhx·W_c + b_c).
        for (k, &row) in rows.iter().enumerate() {
            let dst = rhx.row_mut(k);
            for ((d, &rv), &hv) in dst[..hidden].iter_mut().zip(r.row(k)).zip(out.row(row)) {
                *d = rv * hv;
            }
            dst[hidden..].copy_from_slice(xv.row(k));
        }
        rhx.matmul_into(self.value(vars.w_c), &mut c);
        if hidden > 0 && a > 0 {
            vact::tanh_bias_map_inplace(c.as_mut_slice(), self.value(vars.b_c).as_slice());
        }
        // h' = (1 − z)⊙h + z⊙c on the active rows; inactive rows pass through.
        for (k, &row) in rows.iter().enumerate() {
            for ((o, &zj), &cj) in out.row_mut(row).iter_mut().zip(z.row(k)).zip(c.row(k)) {
                *o = (1.0 - zj) * *o + zj * cj;
            }
        }

        let saved = if self.inference_mode {
            pool_recycle(&mut pool, hx);
            pool_recycle(&mut pool, rhx);
            pool_recycle(&mut pool, z);
            pool_recycle(&mut pool, r);
            pool_recycle(&mut pool, c);
            Box::new(GruSaved::discarded())
        } else {
            Box::new(GruSaved {
                hx,
                rhx,
                z,
                r,
                c,
                mask: None,
            })
        };
        self.pool = pool;
        let rows = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &rows_in);
        self.push(
            out,
            Op::GruStepRows {
                vars: *vars,
                h,
                x,
                rows,
                saved,
            },
        )
    }

    /// One whole GRU step as a single tape node:
    ///
    /// ```text
    /// z = σ([h|x]·W_z + b_z)       r = σ([h|x]·W_r + b_r)
    /// c = tanh([r⊙h|x]·W_c + b_c)  h' = (1−z)⊙h + z⊙c
    /// out = mask⊙h' + (1−mask)⊙h   (out = h' when mask is None)
    /// ```
    ///
    /// Replaces the ~17-node unfused expansion. Forward intermediates are
    /// kept on the node for the adjoint; all scratch comes from the pool.
    /// Numerics match the unfused op chain operation-for-operation. The
    /// production sweep uses the row-compacted [`Graph::gru_step_rows`];
    /// the masked form here is the dense reference it is validated against
    /// (and the fused step for callers without compaction lists).
    pub fn gru_step(&mut self, vars: &GruVars, h: Var, x: Var, mask: Option<&Matrix>) -> Var {
        let mut pool = std::mem::take(&mut self.pool);
        let (n, hidden) = self.value(h).shape();
        let input = self.value(x).cols();
        let hv = self.value(h);
        let xv = self.value(x);
        let w_z = self.value(vars.w_z);
        let b_z = self.value(vars.b_z);
        let w_r = self.value(vars.w_r);
        let b_r = self.value(vars.b_r);
        let w_c = self.value(vars.w_c);
        let b_c = self.value(vars.b_c);
        assert_eq!(w_z.shape(), (hidden + input, hidden), "gru_step: W_z shape");
        if let Some(m) = mask {
            assert_eq!(m.shape(), (n, 1), "gru_step: mask shape");
        }

        let w_zr = vars.w_zr.map(|v| self.value(v));

        let mut hx = pool_matrix_scratch(&mut pool, n, hidden + input);
        concat_rows_into(&mut hx, hv, xv);

        let mut z = pool_matrix_scratch(&mut pool, n, hidden);
        let mut r = pool_matrix_scratch(&mut pool, n, hidden);
        gate_matmuls(&mut pool, &hx, w_z, w_r, w_zr, hidden, &mut z, &mut r);
        // Fused bias + activation over the whole gate block: one pass, same
        // per-element chain as broadcast-add followed by the scalar map.
        if hidden > 0 && n > 0 {
            vact::sigmoid_bias_map_inplace(z.as_mut_slice(), b_z.as_slice());
            vact::sigmoid_bias_map_inplace(r.as_mut_slice(), b_r.as_slice());
        }

        let mut rhx = pool_matrix_scratch(&mut pool, n, hidden + input);
        for i in 0..n {
            let dst = rhx.row_mut(i);
            for ((d, &rv), &hvv) in dst[..hidden].iter_mut().zip(r.row(i)).zip(hv.row(i)) {
                *d = rv * hvv;
            }
            dst[hidden..].copy_from_slice(xv.row(i));
        }

        let mut c = pool_matrix_scratch(&mut pool, n, hidden);
        rhx.matmul_into(w_c, &mut c);
        if hidden > 0 && n > 0 {
            vact::tanh_bias_map_inplace(c.as_mut_slice(), b_c.as_slice());
        }

        // In-place inference: steal the state buffer (the pass-through part
        // of the blend is then already in place); training mode copies so
        // the adjoint can still read `h`. Old state is read from `out` in
        // both modes — identical values, identical bits.
        let mut out = if self.inference_mode {
            std::mem::replace(&mut self.nodes[h.0].value, Matrix::zeros(0, 0))
        } else {
            let mut fresh = pool_matrix_scratch(&mut pool, n, hidden);
            fresh
                .as_mut_slice()
                .copy_from_slice(self.value(h).as_slice());
            fresh
        };
        for i in 0..n {
            let dst = out.row_mut(i);
            let (zr, cr) = (z.row(i), c.row(i));
            match mask {
                // Same operation sequence as the unfused chain:
                // (1-z)*h + z*c, then blended with the mask.
                None => {
                    for j in 0..hidden {
                        let hvj = dst[j];
                        dst[j] = (1.0 - zr[j]) * hvj + zr[j] * cr[j];
                    }
                }
                Some(m) => {
                    let mv = m.get(i, 0);
                    let keep = 1.0 - mv;
                    for j in 0..hidden {
                        let hvj = dst[j];
                        let blended = (1.0 - zr[j]) * hvj + zr[j] * cr[j];
                        dst[j] = keep * hvj + mv * blended;
                    }
                }
            }
        }

        let saved = if self.inference_mode {
            pool_recycle(&mut pool, hx);
            pool_recycle(&mut pool, rhx);
            pool_recycle(&mut pool, z);
            pool_recycle(&mut pool, r);
            pool_recycle(&mut pool, c);
            Box::new(GruSaved::discarded())
        } else {
            let mask_copy = mask.map(|m| {
                let mut mc = pool_matrix_scratch(&mut pool, n, 1);
                mc.as_mut_slice().copy_from_slice(m.as_slice());
                mc
            });
            Box::new(GruSaved {
                hx,
                rhx,
                z,
                r,
                c,
                mask: mask_copy,
            })
        };
        self.pool = pool;
        self.push(
            out,
            Op::GruStep {
                vars: *vars,
                h,
                x,
                saved,
            },
        )
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements, as a `1 x 1` matrix.
    pub fn sum(&mut self, x: Var) -> Var {
        let total = self.value(x).sum();
        let v = pooled_filled(&mut self.pool, 1, 1, total);
        self.push(v, Op::Sum(x))
    }

    /// Mean of all elements, as a `1 x 1` matrix.
    pub fn mean(&mut self, x: Var) -> Var {
        let mean = self.value(x).mean();
        let v = pooled_filled(&mut self.pool, 1, 1, mean);
        self.push(v, Op::Mean(x))
    }

    /// Mean squared error between `pred` and `target` as a scalar node.
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.square(d);
        self.mean(sq)
    }

    /// Mean absolute error between `pred` and `target` as a scalar node.
    pub fn mae(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let a = self.abs(d);
        self.mean(a)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Run the reverse sweep from `loss`, which must be a `1 x 1` node.
    ///
    /// Gradients accumulate into every node that (transitively) influences the
    /// loss; read them with [`Graph::grad`]. Calling `backward` twice on the
    /// same tape accumulates into existing gradients, which is almost never
    /// what you want — [`Graph::reset`] and rebuild instead.
    pub fn backward(&mut self, loss: Var) {
        assert!(
            !self.inference_mode,
            "backward: tape is in inference mode (saved activations were discarded)"
        );
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be scalar (1x1), got {:?}",
            self.value(loss).shape()
        );
        let n = self.nodes.len();
        let mut pool = std::mem::take(&mut self.pool);
        let mut grads: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        grads[loss.0] = Some(pooled_filled(&mut pool, 1, 1, 1.0));

        for id in (0..n).rev() {
            let Some(g) = grads[id].take() else { continue };
            // Per-op-kind timing (RN_TRACE=1): a drop-guard so arms that
            // `continue` out of the match are still attributed. Inert (one
            // relaxed atomic load, no clock read) while tracing is off.
            let _op_span = crate::trace::OpSpan::begin(&self.nodes[id].op);
            match &self.nodes[id].op {
                Op::Leaf { .. } => {}
                &Op::Add(a, b) => {
                    accumulate_ref(&mut grads, &mut pool, a, &g);
                    accumulate_ref(&mut grads, &mut pool, b, &g);
                }
                &Op::Sub(a, b) => {
                    accumulate_ref(&mut grads, &mut pool, a, &g);
                    let gb = pooled_map(&mut pool, &g, |v| -v);
                    accumulate_pooled(&mut grads, &mut pool, b, gb);
                }
                &Op::Mul(a, b) => {
                    let ga = pooled_zip(&mut pool, &g, self.value(b), |x, y| x * y);
                    let gb = pooled_zip(&mut pool, &g, self.value(a), |x, y| x * y);
                    accumulate_pooled(&mut grads, &mut pool, a, ga);
                    accumulate_pooled(&mut grads, &mut pool, b, gb);
                }
                &Op::MatMul { a, b } => {
                    if self.reference_mode {
                        let ga = g.matmul_nt_reference(self.value(b));
                        let gb = self.value(a).matmul_tn_reference(&g);
                        accumulate(&mut grads, a, ga);
                        accumulate(&mut grads, b, gb);
                    } else {
                        let bv = self.value(b);
                        let mut bt = pool_matrix_scratch(&mut pool, bv.cols(), bv.rows());
                        bv.transpose_into(&mut bt);
                        let mut ga = pool_matrix_scratch(&mut pool, g.rows(), bv.rows());
                        g.matmul_into(&bt, &mut ga);
                        pool_recycle(&mut pool, bt);
                        let mut gb = pool_matrix_scratch(&mut pool, self.value(a).cols(), g.cols());
                        self.value(a).matmul_tn_into(&g, &mut gb);
                        accumulate_pooled(&mut grads, &mut pool, a, ga);
                        accumulate_pooled(&mut grads, &mut pool, b, gb);
                    }
                }
                &Op::AddBias { x, bias } => {
                    let mut gbias = pool_matrix(&mut pool, 1, g.cols());
                    add_col_sums(&mut gbias, &g);
                    accumulate_pooled(&mut grads, &mut pool, bias, gbias);
                    accumulate_ref(&mut grads, &mut pool, x, &g);
                }
                &Op::Affine { x, a } => {
                    let gx = pooled_map(&mut pool, &g, |v| v * a);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Sigmoid(x) => {
                    // gx = g ⊙ y(1-y) via the fused vector kernel (bitwise
                    // identical to the scalar chain).
                    let (rows, cols) = g.shape();
                    let mut gx = pool_matrix_scratch(&mut pool, rows, cols);
                    vact::sigmoid_deriv_mul(
                        g.as_slice(),
                        self.nodes[id].value.as_slice(),
                        gx.as_mut_slice(),
                    );
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Tanh(x) => {
                    let (rows, cols) = g.shape();
                    let mut gx = pool_matrix_scratch(&mut pool, rows, cols);
                    vact::tanh_deriv_mul(
                        g.as_slice(),
                        self.nodes[id].value.as_slice(),
                        gx.as_mut_slice(),
                    );
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Relu(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| {
                        gi * act::relu_deriv(xi)
                    });
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Selu(x) => {
                    if self.reference_mode {
                        // Seed-faithful libm derivative.
                        let gx = g.zip(self.value(x), |gi, xi| gi * act::selu_deriv_precise(xi));
                        accumulate(&mut grads, x, gx);
                    } else {
                        let (rows, cols) = g.shape();
                        let mut gx = pool_matrix_scratch(&mut pool, rows, cols);
                        vact::selu_deriv_mul(
                            g.as_slice(),
                            self.value(x).as_slice(),
                            gx.as_mut_slice(),
                        );
                        accumulate_pooled(&mut grads, &mut pool, x, gx);
                    }
                }
                &Op::Softplus(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| {
                        gi * act::softplus_deriv(xi)
                    });
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Abs(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| gi * xi.signum());
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Square(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| gi * 2.0 * xi);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::ClampMax { x, cap } => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| {
                        if xi <= cap {
                            gi
                        } else {
                            0.0
                        }
                    });
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::ConcatCols(a, b) => {
                    let ca = self.value(a).cols();
                    let cb = self.value(b).cols();
                    accumulate(&mut grads, a, g.slice_cols(0, ca));
                    accumulate(&mut grads, b, g.slice_cols(ca, ca + cb));
                }
                &Op::SliceCols { x, start, end } => {
                    let (rows, cols) = self.value(x).shape();
                    let mut gx = pool_matrix(&mut pool, rows, cols);
                    for r in 0..rows {
                        gx.row_mut(r)[start..end].copy_from_slice(g.row(r));
                    }
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                Op::GatherRows { x, indices } => {
                    // Adjoint of gather = scatter-add back to the source rows.
                    let (x_rows, cols) = self.value(*x).shape();
                    let mut gx = pool_matrix(&mut pool, x_rows, cols);
                    for (k, &idx) in indices.iter().enumerate() {
                        for (d, &v) in gx.row_mut(idx).iter_mut().zip(g.row(k)) {
                            *d += v;
                        }
                    }
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                }
                Op::SegmentSum { x, segments } => {
                    // Adjoint of scatter-add = gather from the output rows.
                    let gx = g.gather_rows(segments);
                    accumulate(&mut grads, *x, gx);
                }
                Op::MaskRows { x, mask } => {
                    let gx = pooled_mul_col(&mut pool, &g, mask);
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                }
                &Op::Sum(x) => {
                    let s = g.get(0, 0);
                    let (rows, cols) = self.value(x).shape();
                    let gx = pooled_filled(&mut pool, rows, cols, s);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Mean(x) => {
                    let (rows, cols) = self.value(x).shape();
                    let denom = (rows * cols).max(1) as f32;
                    let s = g.get(0, 0) / denom;
                    let gx = pooled_filled(&mut pool, rows, cols, s);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                Op::GatherMask { x, indices, mask } => {
                    // out[i] = mask[i] * x[idx[i]]  =>  gx[idx[i]] += mask[i]*g[i]
                    let (rows, cols) = self.value(*x).shape();
                    let mut gx = pool_matrix(&mut pool, rows, cols);
                    for (i, &idx) in indices.iter().enumerate() {
                        let m = mask.get(i, 0);
                        if m == 0.0 {
                            continue;
                        }
                        let dst = gx.row_mut(idx);
                        for (d, &v) in dst.iter_mut().zip(g.row(i)) {
                            *d += m * v;
                        }
                    }
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                }
                Op::SegmentAcc {
                    acc,
                    x,
                    segments,
                    mask,
                } => {
                    // out = acc + scatter(mask*x): g_acc += g,
                    // g_x[i] += mask[i] * g[segments[i]].
                    let (rows, cols) = self.value(*x).shape();
                    let mut gx = pool_matrix(&mut pool, rows, cols);
                    for (i, &s) in segments.iter().enumerate() {
                        let m = mask.get(i, 0);
                        if m == 0.0 {
                            continue;
                        }
                        let dst = gx.row_mut(i);
                        for (d, &v) in dst.iter_mut().zip(g.row(s)) {
                            *d = m * v;
                        }
                    }
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                    accumulate_ref(&mut grads, &mut pool, *acc, &g);
                }
                Op::GruStep { vars, h, x, saved } => {
                    let (vars, h, x) = (*vars, *h, *x);
                    let s: &GruSaved = saved;
                    let hv = self.value(h);
                    let hidden = hv.cols();
                    let input = self.value(x).cols();
                    let n_rows = hv.rows();

                    // Mask the incoming gradient; the pass-through part goes
                    // straight to h.
                    let mut gh = pool_matrix(&mut pool, n_rows, hidden);
                    let mut gm = pool_matrix_scratch(&mut pool, n_rows, hidden);
                    match &s.mask {
                        None => gm.as_mut_slice().copy_from_slice(g.as_slice()),
                        Some(m) => {
                            for i in 0..n_rows {
                                let mv = m.get(i, 0);
                                let keep = 1.0 - mv;
                                let g_row = g.row(i);
                                let gm_row = gm.row_mut(i);
                                for j in 0..hidden {
                                    gm_row[j] = mv * g_row[j];
                                }
                                let gh_row = gh.row_mut(i);
                                for j in 0..hidden {
                                    gh_row[j] += keep * g_row[j];
                                }
                            }
                        }
                    }

                    // gz = gm ⊙ (c - h); gc = gm ⊙ z; gh += gm ⊙ (1-z)
                    let mut gz = pool_matrix_scratch(&mut pool, n_rows, hidden);
                    let mut gc = pool_matrix_scratch(&mut pool, n_rows, hidden);
                    for i in 0..n_rows {
                        let gm_r = gm.row(i);
                        let zr = s.z.row(i);
                        let cr = s.c.row(i);
                        let hr = hv.row(i);
                        {
                            let gz_r = gz.row_mut(i);
                            for j in 0..hidden {
                                gz_r[j] = gm_r[j] * (cr[j] - hr[j]);
                            }
                        }
                        {
                            let gc_r = gc.row_mut(i);
                            for j in 0..hidden {
                                gc_r[j] = gm_r[j] * zr[j];
                            }
                        }
                        {
                            let gh_r = gh.row_mut(i);
                            for j in 0..hidden {
                                gh_r[j] += gm_r[j] * (1.0 - zr[j]);
                            }
                        }
                    }

                    // Candidate branch: gc_pre = gc ⊙ (1 - c²), vectorized.
                    vact::tanh_deriv_mul_inplace(gc.as_mut_slice(), s.c.as_slice());
                    let gc_pre = gc;
                    // gW_c += rhx^T · gc_pre ; gb_c += colsum(gc_pre)
                    {
                        let slot =
                            grad_slot(&mut grads, vars.w_c, hidden + input, hidden, &mut pool);
                        s.rhx.matmul_tn_acc(&gc_pre, slot);
                    }
                    {
                        let slot = grad_slot(&mut grads, vars.b_c, 1, hidden, &mut pool);
                        add_col_sums(slot, &gc_pre);
                    }
                    // g_rhx = gc_pre · W_c^T
                    let mut g_rhx = pool_matrix_scratch(&mut pool, n_rows, hidden + input);
                    {
                        // Pooled transpose: matmul_nt_* would re-transpose the
                        // weight (allocating) on every step's adjoint.
                        let w_c = self.value(vars.w_c);
                        let mut w_t = pool_matrix_scratch(&mut pool, w_c.cols(), w_c.rows());
                        w_c.transpose_into(&mut w_t);
                        gc_pre.matmul_into(&w_t, &mut g_rhx);
                        pool_recycle(&mut pool, w_t);
                    }
                    pool_recycle(&mut pool, gc_pre);

                    // Split g_rhx: left -> r⊙h branch, right -> x
                    let mut gx_acc = pool_matrix_scratch(&mut pool, n_rows, input);
                    let mut gr = pool_matrix_scratch(&mut pool, n_rows, hidden);
                    for i in 0..n_rows {
                        let row = g_rhx.row(i);
                        let (rr, hr) = (s.r.row(i), hv.row(i));
                        let gr_r = gr.row_mut(i);
                        for j in 0..hidden {
                            gr_r[j] = row[j] * hr[j];
                        }
                        for j in 0..hidden {
                            // gh += g_rh ⊙ r
                            gh.row_mut(i)[j] += row[j] * rr[j];
                        }
                        gx_acc.row_mut(i).copy_from_slice(&row[hidden..]);
                    }
                    pool_recycle(&mut pool, g_rhx);

                    // Gate pre-activations: σ' from outputs, vectorized.
                    vact::sigmoid_deriv_mul_inplace(gz.as_mut_slice(), s.z.as_slice());
                    let gz_pre = gz;
                    vact::sigmoid_deriv_mul_inplace(gr.as_mut_slice(), s.r.as_slice());
                    let gr_pre = gr;

                    {
                        let slot =
                            grad_slot(&mut grads, vars.w_z, hidden + input, hidden, &mut pool);
                        s.hx.matmul_tn_acc(&gz_pre, slot);
                    }
                    {
                        let slot = grad_slot(&mut grads, vars.b_z, 1, hidden, &mut pool);
                        add_col_sums(slot, &gz_pre);
                    }
                    {
                        let slot =
                            grad_slot(&mut grads, vars.w_r, hidden + input, hidden, &mut pool);
                        s.hx.matmul_tn_acc(&gr_pre, slot);
                    }
                    {
                        let slot = grad_slot(&mut grads, vars.b_r, 1, hidden, &mut pool);
                        add_col_sums(slot, &gr_pre);
                    }

                    // g_hx = gz_pre·W_z^T + gr_pre·W_r^T
                    let mut g_hx = pool_matrix_scratch(&mut pool, n_rows, hidden + input);
                    {
                        let w_z = self.value(vars.w_z);
                        let mut w_t = pool_matrix_scratch(&mut pool, w_z.cols(), w_z.rows());
                        w_z.transpose_into(&mut w_t);
                        gz_pre.matmul_into(&w_t, &mut g_hx);
                        self.value(vars.w_r).transpose_into(&mut w_t);
                        gr_pre.matmul_acc(&w_t, &mut g_hx);
                        pool_recycle(&mut pool, w_t);
                    }
                    pool_recycle(&mut pool, gz_pre);
                    pool_recycle(&mut pool, gr_pre);
                    for i in 0..n_rows {
                        let row = g_hx.row(i);
                        let gh_r = gh.row_mut(i);
                        for j in 0..hidden {
                            gh_r[j] += row[j];
                        }
                        let gx_r = gx_acc.row_mut(i);
                        for (gxv, &v) in gx_r.iter_mut().zip(&row[hidden..]) {
                            *gxv += v;
                        }
                    }
                    pool_recycle(&mut pool, g_hx);
                    pool_recycle(&mut pool, gm);

                    accumulate_pooled(&mut grads, &mut pool, h, gh);
                    accumulate_pooled(&mut grads, &mut pool, x, gx_acc);
                }
                Op::SegmentAccRows {
                    acc,
                    x,
                    rows,
                    segments,
                } => {
                    // out = acc + scatter(x[rows]): g_acc += g,
                    // g_x[rows[k]] += g[segments[k]].
                    let (x_rows, cols) = self.value(*x).shape();
                    let mut gx = pool_matrix(&mut pool, x_rows, cols);
                    for (&row, &seg) in rows.iter().zip(segments.iter()) {
                        for (d, &v) in gx.row_mut(row).iter_mut().zip(g.row(seg)) {
                            *d += v;
                        }
                    }
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                    accumulate_ref(&mut grads, &mut pool, *acc, &g);
                }
                Op::GruStepRows {
                    vars,
                    h,
                    x,
                    rows,
                    saved,
                } => {
                    let (vars, h, x) = (*vars, *h, *x);
                    let s: &GruSaved = saved;
                    let hv = self.value(h);
                    let hidden = hv.cols();
                    let input = self.value(x).cols();
                    let a = rows.len();

                    // Pass-through rows keep the incoming gradient; active
                    // rows are replaced by the GRU adjoint below.
                    let mut gh = pool_matrix_scratch(&mut pool, hv.rows(), hidden);
                    gh.as_mut_slice().copy_from_slice(g.as_slice());

                    // Compact incoming gradient over the active rows.
                    let mut gm = pool_matrix_scratch(&mut pool, a, hidden);
                    for (k, &row) in rows.iter().enumerate() {
                        gm.row_mut(k).copy_from_slice(g.row(row));
                    }

                    // gz = gm ⊙ (c - h); gc = gm ⊙ z; gh[row] = gm ⊙ (1-z)
                    let mut gz = pool_matrix_scratch(&mut pool, a, hidden);
                    let mut gc = pool_matrix_scratch(&mut pool, a, hidden);
                    for (k, &row) in rows.iter().enumerate() {
                        let gm_r = gm.row(k);
                        let zr = s.z.row(k);
                        let cr = s.c.row(k);
                        let hr = hv.row(row);
                        {
                            let gz_r = gz.row_mut(k);
                            for j in 0..hidden {
                                gz_r[j] = gm_r[j] * (cr[j] - hr[j]);
                            }
                        }
                        {
                            let gc_r = gc.row_mut(k);
                            for j in 0..hidden {
                                gc_r[j] = gm_r[j] * zr[j];
                            }
                        }
                        {
                            let gh_r = gh.row_mut(row);
                            for j in 0..hidden {
                                gh_r[j] = gm_r[j] * (1.0 - zr[j]);
                            }
                        }
                    }

                    // Candidate branch: gc_pre = gc ⊙ (1 - c²), vectorized.
                    vact::tanh_deriv_mul_inplace(gc.as_mut_slice(), s.c.as_slice());
                    let gc_pre = gc;
                    {
                        let slot =
                            grad_slot(&mut grads, vars.w_c, hidden + input, hidden, &mut pool);
                        s.rhx.matmul_tn_acc(&gc_pre, slot);
                    }
                    {
                        let slot = grad_slot(&mut grads, vars.b_c, 1, hidden, &mut pool);
                        add_col_sums(slot, &gc_pre);
                    }
                    let mut g_rhx = pool_matrix_scratch(&mut pool, a, hidden + input);
                    {
                        // Pooled transpose: matmul_nt_* would re-transpose the
                        // weight (allocating) on every step's adjoint.
                        let w_c = self.value(vars.w_c);
                        let mut w_t = pool_matrix_scratch(&mut pool, w_c.cols(), w_c.rows());
                        w_c.transpose_into(&mut w_t);
                        gc_pre.matmul_into(&w_t, &mut g_rhx);
                        pool_recycle(&mut pool, w_t);
                    }
                    pool_recycle(&mut pool, gc_pre);

                    // Split g_rhx: left -> r⊙h branch, right -> x
                    let mut gx_acc = pool_matrix_scratch(&mut pool, a, input);
                    let mut gr = pool_matrix_scratch(&mut pool, a, hidden);
                    for (k, &row) in rows.iter().enumerate() {
                        let row_slice = g_rhx.row(k);
                        let (rr, hr) = (s.r.row(k), hv.row(row));
                        {
                            let gr_r = gr.row_mut(k);
                            for j in 0..hidden {
                                gr_r[j] = row_slice[j] * hr[j];
                            }
                        }
                        {
                            let gh_r = gh.row_mut(row);
                            for j in 0..hidden {
                                gh_r[j] += row_slice[j] * rr[j];
                            }
                        }
                        gx_acc.row_mut(k).copy_from_slice(&row_slice[hidden..]);
                    }
                    pool_recycle(&mut pool, g_rhx);

                    // Gate pre-activations: σ' from outputs, vectorized.
                    vact::sigmoid_deriv_mul_inplace(gz.as_mut_slice(), s.z.as_slice());
                    let gz_pre = gz;
                    vact::sigmoid_deriv_mul_inplace(gr.as_mut_slice(), s.r.as_slice());
                    let gr_pre = gr;

                    {
                        let slot =
                            grad_slot(&mut grads, vars.w_z, hidden + input, hidden, &mut pool);
                        s.hx.matmul_tn_acc(&gz_pre, slot);
                    }
                    {
                        let slot = grad_slot(&mut grads, vars.b_z, 1, hidden, &mut pool);
                        add_col_sums(slot, &gz_pre);
                    }
                    {
                        let slot =
                            grad_slot(&mut grads, vars.w_r, hidden + input, hidden, &mut pool);
                        s.hx.matmul_tn_acc(&gr_pre, slot);
                    }
                    {
                        let slot = grad_slot(&mut grads, vars.b_r, 1, hidden, &mut pool);
                        add_col_sums(slot, &gr_pre);
                    }

                    // g_hx = gz_pre·W_z^T + gr_pre·W_r^T
                    let mut g_hx = pool_matrix_scratch(&mut pool, a, hidden + input);
                    {
                        let w_z = self.value(vars.w_z);
                        let mut w_t = pool_matrix_scratch(&mut pool, w_z.cols(), w_z.rows());
                        w_z.transpose_into(&mut w_t);
                        gz_pre.matmul_into(&w_t, &mut g_hx);
                        self.value(vars.w_r).transpose_into(&mut w_t);
                        gr_pre.matmul_acc(&w_t, &mut g_hx);
                        pool_recycle(&mut pool, w_t);
                    }
                    pool_recycle(&mut pool, gz_pre);
                    pool_recycle(&mut pool, gr_pre);
                    for (k, &row) in rows.iter().enumerate() {
                        let row_slice = g_hx.row(k);
                        {
                            let gh_r = gh.row_mut(row);
                            for j in 0..hidden {
                                gh_r[j] += row_slice[j];
                            }
                        }
                        let gx_r = gx_acc.row_mut(k);
                        for (gxv, &v) in gx_r.iter_mut().zip(&row_slice[hidden..]) {
                            *gxv += v;
                        }
                    }
                    pool_recycle(&mut pool, g_hx);
                    pool_recycle(&mut pool, gm);

                    accumulate_pooled(&mut grads, &mut pool, h, gh);
                    accumulate_pooled(&mut grads, &mut pool, x, gx_acc);
                }
            }
            grads[id] = Some(g);
        }

        // Persist gradients onto the tape, skipping constants.
        for (node, g) in self.nodes.iter_mut().zip(grads) {
            if let Op::Leaf {
                requires_grad: false,
            } = node.op
            {
                if let Some(gm) = g {
                    pool_recycle(&mut pool, gm);
                }
                continue;
            }
            if let Some(old) = node.grad.take() {
                pool_recycle(&mut pool, old);
            }
            node.grad = g;
        }
        self.pool = pool;
    }
}

/// Accumulate `delta` into the pending gradient of node `v`.
/// Accumulate a pass-through adjoint that equals the incoming gradient `g`
/// itself. When a gradient is already pending the add folds `g` in without
/// materializing a copy at all; the first contribution is copied into a
/// pooled buffer instead of `g.clone()`'s fresh allocation. Bits are
/// unchanged either way — this only changes where the buffer comes from.
fn accumulate_ref(grads: &mut [Option<Matrix>], pool: &mut Vec<Vec<f32>>, v: Var, g: &Matrix) {
    match &mut grads[v.0] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(pooled_copy(pool, g)),
    }
}

fn accumulate(grads: &mut [Option<Matrix>], v: Var, delta: Matrix) {
    match &mut grads[v.0] {
        Some(existing) => existing.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// Like [`accumulate`], but recycles `delta`'s buffer when it is folded into
/// an existing gradient instead of stored.
fn accumulate_pooled(
    grads: &mut [Option<Matrix>],
    pool: &mut Vec<Vec<f32>>,
    v: Var,
    delta: Matrix,
) {
    match &mut grads[v.0] {
        Some(existing) => {
            existing.add_assign(&delta);
            pool_recycle(pool, delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Get (or zero-initialize) the gradient slot for `v` with the given shape.
fn grad_slot<'a>(
    grads: &'a mut [Option<Matrix>],
    v: Var,
    rows: usize,
    cols: usize,
    pool: &mut Vec<Vec<f32>>,
) -> &'a mut Matrix {
    let slot = &mut grads[v.0];
    if slot.is_none() {
        *slot = Some(pool_matrix(pool, rows, cols));
    }
    let m = slot.as_mut().expect("just initialized");
    debug_assert_eq!(m.shape(), (rows, cols));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_and_grad_of_simple_chain() {
        // loss = mean((x * 3 + 1)^2), x = [1, 2]
        let mut g = Graph::new();
        let x = g.param(Matrix::row_vector(&[1.0, 2.0]));
        let y = g.affine(x, 3.0, 1.0); // [4, 7]
        let sq = g.square(y); // [16, 49]
        let loss = g.mean(sq); // 32.5
        assert!((g.value(loss).get(0, 0) - 32.5).abs() < 1e-5);
        g.backward(loss);
        // d/dx = 2*(3x+1)*3 / 2 = 3*(3x+1) -> [12, 21]
        let gx = g.grad(x).unwrap();
        assert!(gx.approx_eq(&Matrix::row_vector(&[12.0, 21.0]), 1e-4));
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut g = Graph::new();
        let a = g.param(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.param(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        let loss = g.sum(c);
        g.backward(loss);
        let ga = g.grad(a).unwrap();
        let gb = g.grad(b).unwrap();
        assert!(ga.approx_eq(&Matrix::from_vec(2, 2, vec![11.0, 15.0, 11.0, 15.0]), 1e-4));
        assert!(gb.approx_eq(&Matrix::from_vec(2, 2, vec![4.0, 4.0, 6.0, 6.0]), 1e-4));
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(1, 2));
        let t = g.constant(Matrix::ones(1, 2));
        let loss = g.mse(x, t);
        g.backward(loss);
        assert!(g.grad(t).is_none());
        assert!(g.grad(x).is_some());
    }

    #[test]
    fn grad_flows_through_gather_and_segment_sum() {
        // states: 3 rows. Gather [0, 1, 0, 2], sum each gathered row, loss=sum.
        // Row 0 is gathered twice so its grad should be 2, others 1.
        let mut g = Graph::new();
        let states = g.param(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let gathered = g.gather_rows(states, &[0, 1, 0, 2]);
        let loss = g.sum(gathered);
        g.backward(loss);
        let gs = g.grad(states).unwrap();
        assert!(gs.approx_eq(&Matrix::from_rows(&[vec![2.0], vec![1.0], vec![1.0]]), 1e-5));
    }

    #[test]
    fn segment_sum_grad_is_gather() {
        // 4 rows scattered into 2 segments; loss weights segment 0 by 10.
        let mut g = Graph::new();
        let x = g.param(Matrix::from_rows(&[
            vec![1.0],
            vec![1.0],
            vec![1.0],
            vec![1.0],
        ]));
        let s = g.segment_sum(x, &[0, 1, 0, 1], 2);
        let w = g.constant(Matrix::from_rows(&[vec![10.0], vec![1.0]]));
        let weighted = g.mul(s, w);
        let loss = g.sum(weighted);
        g.backward(loss);
        let gx = g.grad(x).unwrap();
        assert!(gx.approx_eq(
            &Matrix::from_rows(&[vec![10.0], vec![1.0], vec![10.0], vec![1.0]]),
            1e-5
        ));
    }

    #[test]
    fn mask_rows_zeroes_gradient_of_padded_rows() {
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(3, 2));
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0]);
        let m = g.mask_rows(x, &mask);
        let loss = g.sum(m);
        g.backward(loss);
        let gx = g.grad(x).unwrap();
        assert_eq!(gx.row(0), &[1.0, 1.0]);
        assert_eq!(gx.row(1), &[0.0, 0.0]);
        assert_eq!(gx.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn concat_slice_gradients_route_correctly() {
        let mut g = Graph::new();
        let a = g.param(Matrix::ones(2, 2));
        let b = g.param(Matrix::ones(2, 3));
        let cat = g.concat_cols(a, b);
        // keep only the b-half scaled by 2 -> grad(a)=0, grad(b)=2
        let right = g.slice_cols(cat, 2, 5);
        let scaled = g.scale(right, 2.0);
        let loss = g.sum(scaled);
        g.backward(loss);
        assert!(g.grad(a).unwrap().approx_eq(&Matrix::zeros(2, 2), 1e-6));
        assert!(g
            .grad(b)
            .unwrap()
            .approx_eq(&Matrix::filled(2, 3, 2.0), 1e-6));
    }

    #[test]
    fn fan_out_accumulates() {
        // y = x + x  =>  dy/dx = 2
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(1, 1));
        let y = g.add(x, x);
        let loss = g.sum(y);
        g.backward(loss);
        assert!((g.grad(x).unwrap().get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn unused_nodes_have_no_grad() {
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(1, 1));
        let orphan = g.param(Matrix::ones(1, 1));
        let loss = g.sum(x);
        g.backward(loss);
        assert!(g.grad(orphan).is_none());
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar_loss() {
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(2, 2));
        g.backward(x);
    }

    #[test]
    fn mse_value() {
        let mut g = Graph::new();
        let p = g.param(Matrix::row_vector(&[1.0, 2.0]));
        let t = g.constant(Matrix::row_vector(&[3.0, 2.0]));
        let loss = g.mse(p, t);
        assert!((g.value(loss).get(0, 0) - 2.0).abs() < 1e-6);
    }

    // ------------------------------------------------------------------
    // Fused ops & buffer pool
    // ------------------------------------------------------------------

    fn det_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let v = (r as u64 * 31 + c as u64 * 17 + salt * 13) % 23;
            v as f32 / 11.0 - 1.0
        })
    }

    /// Weights for a toy GRU cell registered on the tape.
    fn toy_gru(g: &mut Graph, hidden: usize, input: usize, salt: u64) -> GruVars {
        GruVars {
            w_z: g.param(det_matrix(hidden + input, hidden, salt)),
            b_z: g.param(det_matrix(1, hidden, salt + 1)),
            w_r: g.param(det_matrix(hidden + input, hidden, salt + 2)),
            b_r: g.param(det_matrix(1, hidden, salt + 3)),
            w_c: g.param(det_matrix(hidden + input, hidden, salt + 4)),
            b_c: g.param(det_matrix(1, hidden, salt + 5)),
            w_zr: None,
        }
    }

    /// The same toy cell with the merged `[W_z|W_r]` kernel bound.
    fn with_merged_gates(g: &mut Graph, vars: GruVars) -> GruVars {
        let merged = g.value(vars.w_z).concat_cols(g.value(vars.w_r));
        GruVars {
            w_zr: Some(g.constant(merged)),
            ..vars
        }
    }

    /// The unfused op-by-op GRU step (the numerical reference).
    fn gru_step_unfused(
        g: &mut Graph,
        vars: &GruVars,
        h: Var,
        x: Var,
        mask: Option<&Matrix>,
    ) -> Var {
        let hx = g.concat_cols(h, x);
        let z_lin = g.matmul(hx, vars.w_z);
        let z_b = g.add_bias(z_lin, vars.b_z);
        let z = g.sigmoid(z_b);
        let r_lin = g.matmul(hx, vars.w_r);
        let r_b = g.add_bias(r_lin, vars.b_r);
        let r = g.sigmoid(r_b);
        let rh = g.mul(r, h);
        let rhx = g.concat_cols(rh, x);
        let c_lin = g.matmul(rhx, vars.w_c);
        let c_b = g.add_bias(c_lin, vars.b_c);
        let c = g.tanh(c_b);
        let one_minus_z = g.one_minus(z);
        let keep = g.mul(one_minus_z, h);
        let update = g.mul(z, c);
        let advanced = g.add(keep, update);
        match mask {
            None => advanced,
            Some(m) => {
                let keep_mask = m.map(|v| 1.0 - v);
                let kept = g.mask_rows(h, &keep_mask);
                let moved = g.mask_rows(advanced, m);
                g.add(kept, moved)
            }
        }
    }

    #[test]
    fn gather_mask_matches_unfused_pair() {
        let indices = [2usize, 0, 1, 2, 0];
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0, 1.0, 0.0]);

        let mut ga = Graph::new();
        let xa = ga.param(det_matrix(3, 4, 7));
        let fused = ga.gather_mask(xa, &indices, &mask);
        let la = ga.sum(fused);
        ga.backward(la);

        let mut gb = Graph::new();
        let xb = gb.param(det_matrix(3, 4, 7));
        let gathered = gb.gather_rows(xb, &indices);
        let masked = gb.mask_rows(gathered, &mask);
        let lb = gb.sum(masked);
        gb.backward(lb);

        assert!(
            ga.value(fused).approx_eq(gb.value(masked), 0.0),
            "forward must be exact"
        );
        assert!(ga.grad(xa).unwrap().approx_eq(gb.grad(xb).unwrap(), 0.0));
    }

    #[test]
    fn segment_acc_matches_unfused_chain() {
        let segments = [1usize, 0, 1, 1];
        let mask = Matrix::column_vector(&[1.0, 1.0, 0.0, 1.0]);

        let mut ga = Graph::new();
        let acc_a = ga.param(det_matrix(2, 3, 1));
        let xa = ga.param(det_matrix(4, 3, 2));
        let out_a = ga.segment_acc(acc_a, xa, &segments, &mask);
        let wa = ga.constant(det_matrix(2, 3, 3));
        let prod_a = ga.mul(out_a, wa);
        let la = ga.sum(prod_a);
        ga.backward(la);

        let mut gb = Graph::new();
        let acc_b = gb.param(det_matrix(2, 3, 1));
        let xb = gb.param(det_matrix(4, 3, 2));
        let masked = gb.mask_rows(xb, &mask);
        let seg = gb.segment_sum(masked, &segments, 2);
        let out_b = gb.add(acc_b, seg);
        let wb = gb.constant(det_matrix(2, 3, 3));
        let prod_b = gb.mul(out_b, wb);
        let lb = gb.sum(prod_b);
        gb.backward(lb);

        assert!(ga.value(out_a).approx_eq(gb.value(out_b), 0.0));
        assert!(ga.grad(xa).unwrap().approx_eq(gb.grad(xb).unwrap(), 1e-6));
        assert!(ga
            .grad(acc_a)
            .unwrap()
            .approx_eq(gb.grad(acc_b).unwrap(), 1e-6));
    }

    #[test]
    fn gru_step_forward_matches_unfused() {
        for mask in [None, Some(Matrix::column_vector(&[1.0, 0.0, 1.0, 1.0]))] {
            let mut ga = Graph::new();
            let va = toy_gru(&mut ga, 5, 3, 42);
            let ha = ga.constant(det_matrix(4, 5, 10));
            let xa = ga.constant(det_matrix(4, 3, 11));
            let fused = ga.gru_step(&va, ha, xa, mask.as_ref());

            let mut gb = Graph::new();
            let vb = toy_gru(&mut gb, 5, 3, 42);
            let hb = gb.constant(det_matrix(4, 5, 10));
            let xb = gb.constant(det_matrix(4, 3, 11));
            let unfused = gru_step_unfused(&mut gb, &vb, hb, xb, mask.as_ref());

            assert!(
                ga.value(fused).approx_eq(gb.value(unfused), 1e-6),
                "fused forward diverged (mask: {})",
                mask.is_some()
            );
        }
    }

    #[test]
    fn gru_step_gradients_match_unfused() {
        for mask in [None, Some(Matrix::column_vector(&[1.0, 0.0, 1.0, 1.0]))] {
            let mut ga = Graph::new();
            let va = toy_gru(&mut ga, 5, 3, 9);
            let ha = ga.param(det_matrix(4, 5, 20));
            let xa = ga.param(det_matrix(4, 3, 21));
            let fused = ga.gru_step(&va, ha, xa, mask.as_ref());
            let sq_a = ga.square(fused);
            let la = ga.mean(sq_a);
            ga.backward(la);

            let mut gb = Graph::new();
            let vb = toy_gru(&mut gb, 5, 3, 9);
            let hb = gb.param(det_matrix(4, 5, 20));
            let xb = gb.param(det_matrix(4, 3, 21));
            let unfused = gru_step_unfused(&mut gb, &vb, hb, xb, mask.as_ref());
            let sq_b = gb.square(unfused);
            let lb = gb.mean(sq_b);
            gb.backward(lb);

            let pairs = [
                (va.w_z, vb.w_z),
                (va.b_z, vb.b_z),
                (va.w_r, vb.w_r),
                (va.b_r, vb.b_r),
                (va.w_c, vb.w_c),
                (va.b_c, vb.b_c),
                (ha, hb),
                (xa, xb),
            ];
            for (i, (fa, fb)) in pairs.iter().enumerate() {
                let grad_a = ga.grad(*fa).expect("fused grad");
                let grad_b = gb.grad(*fb).expect("unfused grad");
                assert!(
                    grad_a.approx_eq(grad_b, 2e-5),
                    "grad {i} diverged (mask {}): {:?} vs {:?}",
                    mask.is_some(),
                    grad_a,
                    grad_b
                );
            }
        }
    }

    #[test]
    fn gru_step_rows_matches_masked_gru_step() {
        // Active rows {0, 2, 3} of 4; compact ops must agree with the masked
        // form on values and on every gradient.
        let rows = [0usize, 2, 3];
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0, 1.0]);
        let ids = [1usize, 0, 2]; // entity per active row

        let mut ga = Graph::new();
        let va = toy_gru(&mut ga, 5, 4, 9);
        let states_a = ga.param(det_matrix(3, 4, 33));
        let ha = ga.param(det_matrix(4, 5, 20));
        let xa = ga.gather_rows(states_a, &ids);
        let fused = ga.gru_step_rows(&va, ha, xa, &rows);
        let acc_a = ga.constant(Matrix::zeros(3, 5));
        let out_a = ga.segment_acc_rows(acc_a, fused, &rows, &ids);
        let sq_a = ga.square(out_a);
        let la = ga.mean(sq_a);
        ga.backward(la);

        let mut gb = Graph::new();
        let vb = toy_gru(&mut gb, 5, 4, 9);
        let states_b = gb.param(det_matrix(3, 4, 33));
        let hb = gb.param(det_matrix(4, 5, 20));
        // Masked form: gather a full-width id list (0 for inactive) + mask.
        let full_ids = [1usize, 0, 0, 2];
        let xb = gb.gather_mask(states_b, &full_ids, &mask);
        let stepped = gb.gru_step(&vb, hb, xb, Some(&mask));
        let acc_b = gb.constant(Matrix::zeros(3, 5));
        let out_b = gb.segment_acc(acc_b, stepped, &full_ids, &mask);
        let sq_b = gb.square(out_b);
        let lb = gb.mean(sq_b);
        gb.backward(lb);

        assert!(
            ga.value(fused).approx_eq(gb.value(stepped), 1e-6),
            "forward diverged"
        );
        assert!(ga.value(out_a).approx_eq(gb.value(out_b), 1e-6));
        let pairs = [
            (va.w_z, vb.w_z),
            (va.b_z, vb.b_z),
            (va.w_r, vb.w_r),
            (va.b_r, vb.b_r),
            (va.w_c, vb.w_c),
            (va.b_c, vb.b_c),
            (ha, hb),
            (states_a, states_b),
        ];
        for (i, (fa, fb)) in pairs.iter().enumerate() {
            let grad_a = ga.grad(*fa).expect("compact grad");
            let grad_b = gb.grad(*fb).expect("masked grad");
            assert!(grad_a.approx_eq(grad_b, 2e-5), "grad {i} diverged");
        }
    }

    #[test]
    fn merged_gate_kernel_is_bitwise_identical_to_split() {
        // gru_step and gru_step_rows with a bound [W_z|W_r] kernel must
        // produce bit-identical values and gradients to the split matmuls.
        let rows = [0usize, 2, 3];

        let run = |merged: bool| -> (Matrix, Matrix, Vec<Matrix>) {
            let mut g = Graph::new();
            let mut vars = toy_gru(&mut g, 5, 3, 42);
            if merged {
                vars = with_merged_gates(&mut g, vars);
            }
            let h = g.param(det_matrix(4, 5, 10));
            let x_dense = g.param(det_matrix(4, 3, 11));
            let dense = g.gru_step(&vars, h, x_dense, None);
            let x_rows = g.param(det_matrix(rows.len(), 3, 12));
            let compact = g.gru_step_rows(&vars, dense, x_rows, &rows);
            let sq = g.square(compact);
            let loss = g.mean(sq);
            g.backward(loss);
            let grads = [
                vars.w_z, vars.b_z, vars.w_r, vars.b_r, vars.w_c, vars.b_c, h,
            ]
            .iter()
            .map(|&v| g.grad(v).unwrap().clone())
            .collect();
            (g.value(dense).clone(), g.value(compact).clone(), grads)
        };

        let (dense_s, compact_s, grads_s) = run(false);
        let (dense_m, compact_m, grads_m) = run(true);
        assert!(dense_s.approx_eq(&dense_m, 0.0), "dense step diverged");
        assert!(
            compact_s.approx_eq(&compact_m, 0.0),
            "compact step diverged"
        );
        for (i, (a, b)) in grads_s.iter().zip(&grads_m).enumerate() {
            assert!(a.approx_eq(b, 0.0), "grad {i} diverged");
        }
    }

    #[test]
    fn reference_mode_matches_fast_ops_closely() {
        let run = |reference: bool| {
            let mut g = Graph::new();
            g.set_reference_mode(reference);
            let a = g.param(det_matrix(6, 5, 1));
            let b = g.param(det_matrix(5, 4, 2));
            let mm = g.matmul(a, b);
            let sg = g.sigmoid(mm);
            let th = g.tanh(sg);
            let se = g.selu(th);
            let loss = g.mean(se);
            g.backward(loss);
            (
                g.value(loss).get(0, 0),
                g.grad(a).unwrap().clone(),
                g.grad(b).unwrap().clone(),
            )
        };
        let (l_fast, ga_fast, gb_fast) = run(false);
        let (l_ref, ga_ref, gb_ref) = run(true);
        assert!((l_fast - l_ref).abs() < 1e-5, "loss {l_fast} vs {l_ref}");
        assert!(ga_fast.approx_eq(&ga_ref, 1e-4));
        assert!(gb_fast.approx_eq(&gb_ref, 1e-4));
    }

    /// Run one fused forward+backward and return (loss, all grads).
    fn run_fused_case(g: &mut Graph) -> (f32, Vec<Matrix>) {
        let vars = toy_gru(g, 4, 4, 3);
        let h0 = g.constant(det_matrix(5, 4, 30));
        let x0 = g.constant(det_matrix(5, 4, 31));
        let mask = Matrix::column_vector(&[1.0, 1.0, 0.0, 1.0, 1.0]);
        let x = g.gather_mask(x0, &[0, 2, 1, 4, 3], &mask);
        let h1 = g.gru_step(&vars, h0, x, Some(&mask));
        let acc0 = g.constant(Matrix::zeros(3, 4));
        let acc = g.segment_acc(acc0, h1, &[0, 1, 2, 0, 1], &mask);
        let sq = g.square(acc);
        let loss = g.mean(sq);
        g.backward(loss);
        let grads = [vars.w_z, vars.b_z, vars.w_r, vars.b_r, vars.w_c, vars.b_c]
            .iter()
            .map(|&v| g.grad(v).unwrap().clone())
            .collect();
        (g.value(loss).get(0, 0), grads)
    }

    #[test]
    fn reset_reuse_is_bit_identical_and_allocation_free() {
        let mut fresh = Graph::new();
        let (loss_fresh, grads_fresh) = run_fused_case(&mut fresh);

        let mut reused = Graph::new();
        let _ = run_fused_case(&mut reused);
        reused.reset();
        assert!(reused.is_empty());
        assert!(reused.pooled_buffers() > 0, "reset must harvest buffers");
        let (loss_reused, grads_reused) = run_fused_case(&mut reused);

        assert_eq!(loss_fresh, loss_reused, "reused tape must be bit-identical");
        for (a, b) in grads_fresh.iter().zip(&grads_reused) {
            assert!(
                a.approx_eq(b, 0.0),
                "gradients must be bit-identical after reset"
            );
        }
    }

    #[test]
    fn inference_mode_is_bit_identical_and_discards_gru_scratch() {
        let run = |inference: bool| -> (Matrix, usize) {
            let mut g = Graph::new();
            g.set_inference_mode(inference);
            let vars = toy_gru(&mut g, 4, 4, 3);
            let h = g.constant(det_matrix(5, 4, 30));
            let x = g.constant(det_matrix(5, 4, 31));
            let h1 = g.gru_step(&vars, h, x, None);
            let x2 = g.gather_rows(h1, &[0, 1, 2]);
            let h2 = g.gru_step_rows(&vars, h1, x2, &[1, 2, 3]);
            (g.value(h2).clone(), g.pooled_buffers())
        };
        let (train_out, train_pooled) = run(false);
        let (infer_out, infer_pooled) = run(true);
        assert!(
            train_out.approx_eq(&infer_out, 0.0),
            "inference mode must not change forward bits"
        );
        // Training keeps GRU scratch resident on nodes; inference recycles
        // it immediately, so each step reuses the previous step's buffers
        // and one step's worth stays parked when recording ends.
        assert_eq!(train_pooled, 0);
        assert!(
            infer_pooled >= 5,
            "expected recycled scratch, got {infer_pooled}"
        );
    }

    #[test]
    fn inference_steps_consume_their_input_state_in_place() {
        let mut g = Graph::new();
        g.set_inference_mode(true);
        let vars = toy_gru(&mut g, 4, 4, 3);
        let h = g.constant(det_matrix(5, 4, 30));
        let x = g.constant(det_matrix(5, 4, 31));
        let h1 = g.gru_step(&vars, h, x, None);
        // The input state's buffer was stolen: h is now empty, h1 owns it.
        assert_eq!(g.value(h).shape(), (0, 0), "h consumed by in-place step");
        assert_eq!(g.value(h1).shape(), (5, 4));
        let acc = g.constant(Matrix::zeros(3, 4));
        let out = g.segment_acc_rows(acc, h1, &[0, 2], &[1, 2]);
        assert_eq!(g.value(acc).shape(), (0, 0), "acc consumed in place");
        assert_eq!(g.value(out).shape(), (3, 4));
        // Training mode copies: inputs stay readable.
        let mut t = Graph::new();
        let vars = toy_gru(&mut t, 4, 4, 3);
        let h = t.constant(det_matrix(5, 4, 30));
        let x = t.constant(det_matrix(5, 4, 31));
        let h1t = t.gru_step(&vars, h, x, None);
        assert_eq!(t.value(h).shape(), (5, 4), "training mode must not steal");
        // And the in-place values are bitwise identical to the copying ones.
        assert!(g.value(h1).approx_eq(t.value(h1t), 0.0));
    }

    #[test]
    #[should_panic(expected = "inference mode")]
    fn backward_rejects_inference_tapes() {
        let mut g = Graph::new();
        g.set_inference_mode(true);
        let x = g.param(Matrix::ones(1, 1));
        let loss = g.sum(x);
        g.backward(loss);
    }

    #[test]
    fn constant_with_builds_pooled_inputs() {
        let mut g = Graph::new();
        let v = g.constant_with(2, 3, |m| m.set(1, 2, 5.0));
        assert_eq!(g.value(v).get(1, 2), 5.0);
        assert_eq!(g.value(v).get(0, 0), 0.0, "pooled constants start zeroed");
    }

    #[test]
    fn index_copy_counter_tracks_copied_but_not_shared_inputs() {
        use crate::index::SharedIndices;
        use std::sync::Arc;
        let ids = [2usize, 0, 1];
        let shared: Arc<[usize]> = Arc::from(&ids[..]);
        let run = |input_shared: bool| {
            let mut g = Graph::new();
            let x = g.param(det_matrix(3, 4, 77));
            let y = if input_shared {
                g.gather_rows(x, SharedIndices::full(shared.clone()))
            } else {
                g.gather_rows(x, &ids)
            };
            let loss = g.mean(y);
            g.backward(loss);
            (
                g.value(y).clone(),
                g.grad(x).unwrap().clone(),
                g.index_words_copied(),
            )
        };
        let (y_copied, gx_copied, words_copied) = run(false);
        let (y_shared, gx_shared, words_shared) = run(true);
        assert_eq!(
            words_copied,
            ids.len() as u64,
            "copied input must count each index word"
        );
        assert_eq!(
            words_shared, 0,
            "shared input is a refcount bump, not a copy"
        );
        assert!(
            y_copied.approx_eq(&y_shared, 0.0),
            "values must be bitwise equal"
        );
        assert!(
            gx_copied.approx_eq(&gx_shared, 0.0),
            "grads must be bitwise equal"
        );
    }

    #[test]
    fn index_copy_counter_is_cumulative_across_reset() {
        let ids = [1usize, 0];
        let mut g = Graph::new();
        let x = g.param(det_matrix(2, 2, 5));
        g.gather_rows(x, &ids);
        let after_first = g.index_words_copied();
        assert_eq!(after_first, ids.len() as u64);
        g.reset();
        let x = g.param(det_matrix(2, 2, 5));
        g.gather_rows(x, &ids);
        assert_eq!(
            g.index_words_copied(),
            2 * after_first,
            "reset recycles buffers but never clears the traffic counter"
        );
    }
}
