//! The training kernels every model runs on: the dense layer's forward
//! product, its two backward loops, the softmax cross-entropy tile pass and
//! the tanh and exp activations.
//!
//! **Order.** Each dot product is summed **in index order** from [`Sum`]'s
//! identity, exactly like the serial [`dot`] it replaces, so every logit,
//! loss and gradient — and therefore every same-seed replay — is
//! bit-identical to the one-row-at-a-time loop. What changes is how many of
//! those serial chains are in flight: a lone `iter().sum()` waits on one
//! add's latency per element, while [`matmat`] carries `ROWS × LANES`
//! independent sums, the samples of a tile side by side in SIMD lanes.
//!
//! **Tiles.** A tile is up to [`LANES`] = 16 samples, so a batch of 16
//! crosses each weight matrix once: [`matmat`] reads it once per tile
//! forward, and [`outer_acc`] reads and writes its gradient once per tile
//! backward, adding every sample's term to a 32-float block while the
//! block is in registers. Each gradient element still receives the
//! per-sample adds it always did, in sample order, from its stored value.
//!
//! **The lane pass.** A softmax tile is one call, not one call per sample
//! and kernel: [`linear_xent`] (the linear classifier's whole tile: class
//! scores, softmax, loss terms and both gradients) and [`softmax_xent`]
//! (the MLP's and RNN's output layer) keep the tile's scores class-major,
//! one lane row per class with the samples in lanes, so the max, the exps,
//! the in-order sum and the divide run across samples, and the weight
//! gradient takes each class row's coefficients without a gather.
//! [`linear_scores`] is the same forward for evaluation.
//!
//! **Builds.** The kernels are one plain `#[inline(always)]` body each,
//! compiled once per [`simd::Tier`]: for the baseline target, for AVX2 and
//! for AVX-512, the one [`simd::tier`] picks (the wrappers live in
//! `simd.rs`, the crate's one `unsafe` module). Rust does not contract
//! `a * b + c`, so the same per-lane multiply and add give the same bits at
//! any vector width, and `RNA_FORCE_SCALAR` switches these kernels along
//! with the codecs. Nothing here fuses, with one explicit exception: the
//! exp port's four `mul_add`s, which are the fused steps of the libm it
//! ports. The vector tiers build them to FMA instructions, which is why
//! those tiers require FMA; the portable tier's `f64::mul_add` is the
//! correctly rounded libm `fma`, the same bits.
//!
//! **tanh.** [`tanh_in_place`] is a lane port of glibc 2.36's `tanhf` and
//! the `expm1f` it calls (fdlibm's flt-32 `s_tanhf.c` and `s_expm1f.c` as
//! built for x86-64, without FMA), operation for operation, with the
//! branches turned into lane selects. It gives `f32::tanh`'s bits on such a
//! host for every input, and the same bits on any other host.
//!
//! **exp.** [`exp_in_place`] is a lane port of glibc 2.36's `expf`
//! (`e_expf.c` with its 32-entry `2^(i/32)` table), as the x86-64 libm's
//! ifunc resolves it on an FMA host: the FMA build. The plain build differs
//! from it on two inputs by one ulp (`0x4202422f` and `0xc27c65d9`), so
//! until this port a trajectory *did* depend on which build the host's libm
//! picked. Every `f32` exp of the models runs through the port; `ln`, one
//! call per sample's loss, is still the host's.
//!
//! [`Sum`]: std::iter::Sum

use crate::simd;

/// Samples per tile, the most one [`matmat`] or [`outer_acc`] call takes:
/// one lane each of a transposed tile row, two AVX2 registers or one
/// AVX-512 register.
pub const LANES: usize = 16;

/// Rows per [`matmat`] block (`ROWS × LANES` accumulators stay in registers).
const ROWS: usize = 4;

/// Gradient floats per [`outer_acc`] block: four AVX2 or two AVX-512
/// registers that take every sample's term between one load and one store.
const BLOCK: usize = 32;

/// `Σ_d row[d] · x[d]`, the way `iter().sum()` adds it up: the reference
/// [`matmat`] must match to the bit.
pub fn dot(row: &[f32], x: &[f32]) -> f32 {
    row.iter().zip(x).map(|(w, xi)| w * xi).sum()
}

/// Up to [`LANES`] input vectors at once: `out` becomes one row per sample,
/// `out[s·rows + j] = Σ_d w[j·dim + d] · xs[s][d]`.
///
/// The inputs are transposed into `tile` (`dim × LANES`, lane `s` holding
/// sample `s`, unused lanes zero) so the inner loop is one broadcast weight
/// times one contiguous lane vector: plain Rust the compiler vectorises,
/// each lane still its own in-order sum.
///
/// # Panics
///
/// Panics if `xs` holds more than [`LANES`] samples, if `w.len()` is not a
/// multiple of `dim`, or if a sample is not `dim` long.
pub fn matmat<'a>(
    w: &[f32],
    dim: usize,
    xs: impl ExactSizeIterator<Item = &'a [f32]>,
    tile: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    simd::matmat(w, dim, xs, tile, out);
}

/// The body of [`matmat`].
#[inline(always)]
pub(crate) fn matmat_lanes<'a>(
    w: &[f32],
    dim: usize,
    xs: impl ExactSizeIterator<Item = &'a [f32]>,
    tile: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    let n = xs.len();
    assert!(n <= LANES, "matmat takes one tile of samples");
    let rows = w.len() / dim;
    assert_eq!(w.len(), rows * dim, "weight matrix shape");
    let tile = lanes_of(&sample_refs(xs, dim), dim, tile);
    out.resize(n * rows, 0.0);
    let mut w_blocks = w.chunks_exact(ROWS * dim);
    let mut j = 0;
    for wb in w_blocks.by_ref() {
        for (r, a) in row_block(tile, wb).iter().enumerate() {
            scatter(&mut out[j + r..], rows, a);
        }
        j += ROWS;
    }
    for row in w_blocks.remainder().chunks_exact(dim) {
        scatter(&mut out[j..], rows, &row_dot(tile, row));
        j += 1;
    }
}

/// `Σ_d row[d] · tile[d]` in every lane, from `-0.0` in `d` order.
#[inline(always)]
fn row_dot(tile: &[[f32; LANES]], row: &[f32]) -> [f32; LANES] {
    let mut acc = [-0.0f32; LANES];
    for (xt, &wv) in tile.iter().zip(row) {
        lanes_axpy(&mut acc, wv, xt);
    }
    acc
}

/// [`row_dot`] for the [`ROWS`] rows of `wb`, their sums in flight together.
#[inline(always)]
fn row_block(tile: &[[f32; LANES]], wb: &[f32]) -> [[f32; LANES]; ROWS] {
    let dim = wb.len() / ROWS;
    let (r0, rest) = wb.split_at(dim);
    let (r1, rest) = rest.split_at(dim);
    let (r2, r3) = rest.split_at(dim);
    let [mut a0, mut a1, mut a2, mut a3] = [[-0.0f32; LANES]; ROWS];
    for ((((xt, &w0), &w1), &w2), &w3) in tile.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        lanes_axpy(&mut a0, w0, xt);
        lanes_axpy(&mut a1, w1, xt);
        lanes_axpy(&mut a2, w2, xt);
        lanes_axpy(&mut a3, w3, xt);
    }
    [a0, a1, a2, a3]
}

/// `acc[l] += w · x[l]` across the lanes of one tile row or gradient block.
#[inline(always)]
fn lanes_axpy<const N: usize>(acc: &mut [f32; N], w: f32, x: &[f32; N]) {
    for (a, &xl) in acc.iter_mut().zip(x) {
        *a += w * xl;
    }
}

/// Writes lane `s` of `acc` to `out[s · stride]` for as many samples as `out`
/// holds.
#[inline(always)]
fn scatter(out: &mut [f32], stride: usize, acc: &[f32; LANES]) {
    for (o, &a) in out.iter_mut().step_by(stride).zip(acc) {
        *o = a;
    }
}

/// `row += b` for every `b.len()`-long row of `out`.
pub fn add_bias(out: &mut [f32], b: &[f32]) {
    for row in out.chunks_exact_mut(b.len()) {
        for (o, &bj) in row.iter_mut().zip(b) {
            *o += bj;
        }
    }
}

/// `y[i] += a · x[i]`: the backward pass's one inner loop, over slices so it
/// vectorises without bounds checks.
#[inline(always)]
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Weight gradient of a dense layer over one tile of samples:
/// `g[j·dim + d] += coefs[s·rows + j] · xs[s][d]` for every sample `s` in
/// order, with `rows = coefs.len() / xs.len()` and `dim = g.len() / rows`.
/// The coefficients are sample-major, one `rows`-long row per sample.
///
/// Each element gets exactly the adds of one per-sample pass after
/// another, so the result is that loop's to the bit; the gradient is read
/// and written once per call instead of once per sample.
///
/// # Panics
///
/// Panics if `xs` holds more than [`LANES`] samples, if `coefs` is not one
/// row per sample, if `g.len()` is not a multiple of `rows`, or if a sample
/// is not `dim` long.
pub fn outer_acc<'a>(g: &mut [f32], coefs: &[f32], xs: impl ExactSizeIterator<Item = &'a [f32]>) {
    simd::outer_acc(g, coefs, xs);
}

/// The body of [`outer_acc`].
#[inline(always)]
pub(crate) fn outer_acc_lanes<'a>(
    g: &mut [f32],
    coefs: &[f32],
    xs: impl ExactSizeIterator<Item = &'a [f32]>,
) {
    let n = xs.len();
    assert!(n <= LANES, "outer_acc takes one tile of samples");
    if n == 0 {
        return;
    }
    let rows = coefs.len() / n;
    assert_eq!(coefs.len(), n * rows, "one coefficient row per sample");
    let dim = g.len() / rows;
    assert_eq!(g.len(), rows * dim, "gradient shape");
    let samples = sample_refs(xs, dim);
    let samples = &samples[..n];
    for (j, row) in g.chunks_exact_mut(dim).enumerate() {
        // Row `j`'s coefficient of each sample, gathered once per row.
        let mut c = [0.0f32; LANES];
        for (c, &coef) in c.iter_mut().zip(coefs[j..].iter().step_by(rows)) {
            *c = coef;
        }
        outer_row(row, &c, samples);
    }
}

/// The first [`LANES`] samples of `xs`, each asserted `dim` long; empty
/// slices past the last.
#[inline(always)]
fn sample_refs<'a>(xs: impl Iterator<Item = &'a [f32]>, dim: usize) -> [&'a [f32]; LANES] {
    let mut samples: [&[f32]; LANES] = [&[]; LANES];
    for (slot, x) in samples.iter_mut().zip(xs) {
        assert_eq!(x.len(), dim, "sample length");
        *slot = x;
    }
    samples
}

/// `row[d] += c[s] · xs[s][d]` for every sample `s` in order: 32-float
/// blocks, then 8-float blocks, then what is left, sample by sample.
#[inline(always)]
fn outer_row(row: &mut [f32], c: &[f32; LANES], samples: &[&[f32]]) {
    let dim = row.len();
    let (blocks, tail) = row.as_chunks_mut::<BLOCK>();
    for (b, block) in blocks.iter_mut().enumerate() {
        outer_block(block, c, samples, b * BLOCK);
    }
    let at = dim - tail.len();
    let (eights, rest) = tail.as_chunks_mut::<8>();
    for (b, block) in eights.iter_mut().enumerate() {
        outer_block(block, c, samples, at + b * 8);
    }
    if !rest.is_empty() {
        for (&c, x) in c.iter().zip(samples) {
            axpy(rest, c, &x[dim - rest.len()..]);
        }
    }
}

/// `block[i] += c[s] · xs[s][at + i]` for every sample `s` in order, with
/// the block held in registers from one load to one store.
#[inline(always)]
fn outer_block<const N: usize>(block: &mut [f32; N], c: &[f32], xs: &[&[f32]], at: usize) {
    let mut acc = *block;
    for (&c, x) in c.iter().zip(xs) {
        let (x, _) = x[at..].as_chunks::<N>();
        lanes_axpy(&mut acc, c, &x[0]);
    }
    *block = acc;
}

/// Gradient into a dense layer's input: `dx[d] = Σ_j coef[j] · w[j·dim + d]`,
/// with `dim = w.len() / coef.len()`, summed over `j` in order from `0.0`.
pub fn back(dx: &mut Vec<f32>, coef: &[f32], w: &[f32]) {
    simd::back(dx, coef, w);
}

/// The body of [`back`].
#[inline(always)]
pub(crate) fn back_lanes(dx: &mut Vec<f32>, coef: &[f32], w: &[f32]) {
    dx.clear();
    dx.resize(w.len() / coef.len(), 0.0);
    for (row, &c) in w.chunks_exact(dx.len()).zip(coef) {
        axpy(dx, c, row);
    }
}

/// Class scores of one tile, `scores[s·classes + c] = Σ_d w[c·dim + d] ·
/// xs[s][d] + b[c]` with `classes = b.len()` and `dim = w.len() / classes`,
/// one row per sample: the sum in `d` order from `-0.0` and then the bias,
/// exactly as [`matmat`] and [`add_bias`] give it. The forward of
/// [`linear_xent`], for evaluation: computed class-major in `rows`, one
/// [`LANES`]-lane row per class, then written out a row per sample.
///
/// # Panics
///
/// Panics if `xs` holds more than [`LANES`] samples, if `w` is not `b.len()`
/// rows, or if a sample is not `dim` long.
pub fn linear_scores<'a>(
    w: &[f32],
    b: &[f32],
    xs: impl ExactSizeIterator<Item = &'a [f32]>,
    tile: &mut Vec<f32>,
    rows: &mut Vec<f32>,
    scores: &mut Vec<f32>,
) {
    simd::linear_scores(w, b, xs, tile, rows, scores);
}

/// The body of [`linear_scores`].
#[inline(always)]
pub(crate) fn linear_scores_lanes<'a>(
    w: &[f32],
    b: &[f32],
    xs: impl ExactSizeIterator<Item = &'a [f32]>,
    tile: &mut Vec<f32>,
    rows: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    let n = xs.len();
    assert!(n <= LANES, "linear_scores takes one tile of samples");
    let dim = linear_dim(w, b);
    let tile = lanes_of(&sample_refs(xs, dim), dim, tile);
    let rows = lane_rows(rows, b.len());
    scores(w, b, tile, rows);
    out.resize(n * b.len(), 0.0);
    for (c, row) in rows.iter().enumerate() {
        scatter(&mut out[c..], b.len(), row);
    }
}

/// A linear softmax classifier's training pass over one tile, in one call:
/// the class scores [`linear_scores`] gives, the softmax and gradient
/// [`softmax_xent`] gives, then, with `grad` laid out as `w` then `b`,
/// `g_b[c] += dlogits[s][c]` and `g_w[c·dim + d] += dlogits[s][c] ·
/// xs[s][d]` for every sample `s` in order, each element from its stored
/// value. Returns each sample's `p[label]`, whose clamped `−ln` is its
/// loss, zero past the last sample.
///
/// # Panics
///
/// Panics if `xs` holds more than [`LANES`] samples, if `w` is not `b.len()`
/// rows, if `grad` is not `w.len() + b.len()` long, if a sample is not
/// `dim` long, or if a label is not below `b.len()`.
pub fn linear_xent<'a>(
    w: &[f32],
    b: &[f32],
    xs: impl ExactSizeIterator<Item = &'a [f32]>,
    labels: impl Iterator<Item = usize>,
    grad: &mut [f32],
    tile: &mut Vec<f32>,
    rows: &mut Vec<f32>,
) -> [f32; LANES] {
    simd::linear_xent(w, b, xs, labels, grad, tile, rows)
}

/// The body of [`linear_xent`].
#[inline(always)]
pub(crate) fn linear_xent_lanes<'a>(
    w: &[f32],
    b: &[f32],
    xs: impl ExactSizeIterator<Item = &'a [f32]>,
    labels: impl Iterator<Item = usize>,
    grad: &mut [f32],
    tile: &mut Vec<f32>,
    rows: &mut Vec<f32>,
) -> [f32; LANES] {
    let n = xs.len();
    assert!(n <= LANES, "linear_xent takes one tile of samples");
    let dim = linear_dim(w, b);
    assert_eq!(grad.len(), w.len() + b.len(), "gradient shape");
    let (g_w, g_b) = grad.split_at_mut(w.len());
    let samples = sample_refs(xs, dim);
    let labels = label_lanes(labels, b.len());
    let tile = lanes_of(&samples, dim, tile);
    let rows = lane_rows(rows, b.len());
    scores(w, b, tile, rows);
    let p = softmax_xent_lanes(rows, &labels);
    for ((g, c), g_b) in g_w.chunks_exact_mut(dim).zip(&*rows).zip(g_b) {
        outer_row(g, c, &samples[..n]);
        for &d in &c[..n] {
            *g_b += d;
        }
    }
    p
}

/// Softmax cross-entropy over one tile of sample-major logits, one
/// `classes`-long row per sample: `dlogits` becomes each sample's
/// `p − onehot(label)`, one row per sample. The logits go through `rows`
/// transposed, one lane row per class, so the pass runs across samples.
/// Per sample, the max folds from `−∞` with `f32::max` (NaN-ignoring),
/// `exp(l − max)` is summed in class order from `-0.0`, and each
/// probability is a true divide by that sum: the per-sample softmax's
/// bits. Returns each sample's `p[label]`, whose clamped `−ln` is its loss,
/// zero past the last sample.
///
/// # Panics
///
/// Panics if `logits` is not at most [`LANES`] whole rows, or if a label is
/// not below `classes`.
pub fn softmax_xent(
    logits: &[f32],
    classes: usize,
    labels: impl Iterator<Item = usize>,
    rows: &mut Vec<f32>,
    dlogits: &mut Vec<f32>,
) -> [f32; LANES] {
    simd::softmax_xent(logits, classes, labels, rows, dlogits)
}

/// The body of [`softmax_xent`].
#[inline(always)]
pub(crate) fn softmax_xent_rows(
    logits: &[f32],
    classes: usize,
    labels: impl Iterator<Item = usize>,
    rows: &mut Vec<f32>,
    dlogits: &mut Vec<f32>,
) -> [f32; LANES] {
    let n = logits.len() / classes;
    assert!(
        n <= LANES && logits.len() == n * classes,
        "softmax_xent takes one tile of logit rows"
    );
    let labels = label_lanes(labels, classes);
    let samples = sample_refs(logits.chunks_exact(classes), classes);
    let rows = lanes_of(&samples, classes, rows);
    let p = softmax_xent_lanes(rows, &labels);
    dlogits.resize(logits.len(), 0.0);
    for (c, row) in rows.iter().enumerate() {
        scatter(&mut dlogits[c..], classes, row);
    }
    p
}

/// Columns of a `b.len()`-row weight matrix `w`.
#[inline(always)]
fn linear_dim(w: &[f32], b: &[f32]) -> usize {
    let dim = w.len() / b.len();
    assert_eq!(w.len(), b.len() * dim, "weight matrix shape");
    dim
}

/// The samples transposed into `tile`: `dim` lane rows, lane `s` holding
/// sample `s`, lanes past the last zero. Eight rows at a time are built in
/// registers from one 8-float load per sample and stored whole: rows
/// written lane by lane stall the vector loads that read them.
#[inline(always)]
fn lanes_of<'t>(
    samples: &[&[f32]; LANES],
    dim: usize,
    tile: &'t mut Vec<f32>,
) -> &'t mut [[f32; LANES]] {
    tile.resize(dim * LANES, 0.0);
    let (tile, _) = tile.as_chunks_mut::<LANES>();
    let (blocks, rest) = tile.as_chunks_mut::<8>();
    for (k, rows) in blocks.iter_mut().enumerate() {
        let mut block = [[0.0f32; LANES]; 8];
        for (s, x) in samples.iter().enumerate() {
            if let Some((x, _)) = x.get(k * 8..).and_then(<[f32]>::split_first_chunk::<8>) {
                for (row, &xd) in block.iter_mut().zip(x) {
                    row[s] = xd;
                }
            }
        }
        *rows = block;
    }
    let at = dim - rest.len();
    for (d, row) in rest.iter_mut().enumerate() {
        for (t, x) in row.iter_mut().zip(samples) {
            *t = x.get(at + d).copied().unwrap_or(0.0);
        }
    }
    tile
}

/// `rows` sized to `classes` lane rows, each written before it is read.
#[inline(always)]
fn lane_rows(rows: &mut Vec<f32>, classes: usize) -> &mut [[f32; LANES]] {
    rows.resize(classes * LANES, 0.0);
    rows.as_chunks_mut().0
}

/// Up to [`LANES`] labels, one per lane; lanes past the last hold
/// `u32::MAX`, which is no class.
#[inline(always)]
fn label_lanes(labels: impl Iterator<Item = usize>, classes: usize) -> [u32; LANES] {
    let mut lanes = [u32::MAX; LANES];
    for (lane, label) in lanes.iter_mut().zip(labels) {
        assert!(label < classes, "label out of range");
        *lane = label as u32;
    }
    lanes
}

/// `rows[c] = Σ_d w[c·dim + d] · tile[d] + b[c]`, [`ROWS`] classes at a
/// time.
#[inline(always)]
fn scores(w: &[f32], b: &[f32], tile: &[[f32; LANES]], rows: &mut [[f32; LANES]]) {
    let dim = tile.len();
    let mut w_blocks = w.chunks_exact(ROWS * dim);
    let mut out = rows.chunks_exact_mut(ROWS);
    let mut bias = b.chunks_exact(ROWS);
    for ((wb, ob), bb) in w_blocks.by_ref().zip(out.by_ref()).zip(bias.by_ref()) {
        for ((o, a), &bj) in ob.iter_mut().zip(row_block(tile, wb)).zip(bb) {
            *o = plus(a, bj);
        }
    }
    let rest = w_blocks.remainder().chunks_exact(dim);
    for ((row, o), &bj) in rest.zip(out.into_remainder()).zip(bias.remainder()) {
        *o = plus(row_dot(tile, row), bj);
    }
}

/// `acc[l] + b` in every lane.
#[inline(always)]
fn plus(mut acc: [f32; LANES], b: f32) -> [f32; LANES] {
    for a in &mut acc {
        *a += b;
    }
    acc
}

/// The softmax of every lane over the class-major `rows`, in place, then
/// `p − onehot(label)`; returns each lane's `p[label]` (zero where the
/// label is no class).
#[inline(always)]
fn softmax_xent_lanes(rows: &mut [[f32; LANES]], labels: &[u32; LANES]) -> [f32; LANES] {
    let mut max = [f32::NEG_INFINITY; LANES];
    for row in rows.iter() {
        for (m, &l) in max.iter_mut().zip(row) {
            *m = m.max(l);
        }
    }
    let mut sum = [-0.0f32; LANES];
    for row in rows.iter_mut() {
        for ((x, &m), s) in row.iter_mut().zip(&max).zip(&mut sum) {
            *x = expf(*x - m);
            *s += *x;
        }
    }
    let mut p_label = [0.0f32; LANES];
    for (c, row) in rows.iter_mut().enumerate() {
        let lanes = row.iter_mut().zip(&sum).zip(labels).zip(&mut p_label);
        for (((x, &s), &label), p_label) in lanes {
            let p = *x / s;
            let hit = label == c as u32;
            *p_label = if hit { p } else { *p_label };
            *x = if hit { p - 1.0 } else { p };
        }
    }
    p_label
}

/// `x = tanh(x)` for every element, bit for bit what glibc 2.36's `tanhf`
/// returns on x86-64 — NaN payloads, signed zeros and subnormals included.
pub fn tanh_in_place(xs: &mut [f32]) {
    simd::tanh(xs);
}

/// The body of [`tanh_in_place`], one lane per element. A plain loop: a
/// closure handed to `for_each` is one monomorphisation every build shares,
/// which LLVM left out of line, without AVX2, once there were two twins.
#[inline(always)]
pub(crate) fn tanh_lanes(xs: &mut [f32]) {
    for x in xs {
        *x = tanhf(*x);
    }
}

/// glibc's `tanhf`, every branch computed and selected.
#[inline(always)]
fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    let ax = x.abs();
    // |x| ≥ 1: 1 − 2/(t + 2) with t = expm1(2|x|); below, −t/(t + 2) with
    // t = expm1(−2|x|). The argument's sign is set as a bit: selecting
    // between ±2|x| let LLVM specialise expm1 for each sign and run both.
    let below_one = ((ix - 0x3f80_0000) as u32) & 0x8000_0000;
    let big = below_one == 0;
    let t = expm1f(f32::from_bits((2.0 * ax).to_bits() | below_one));
    let num = if big { 2.0 } else { -t };
    let q = num / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22: `one − tiny`, which rounds to 1.
    let z = if ix < 0x41b0_0000 { z } else { 1.0 };
    let z = if jx >= 0 { z } else { -z };
    // |x| < 2⁻⁵⁵, ±0 included: x·(1 + x), which is x.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // ±∞ and NaN: 1/x ± 1, which is ±1 for ±∞ and quiets a NaN, keeping
    // its sign and payload.
    let inv = 1.0 / x;
    if ix < 0x7f80_0000 {
        z
    } else if jx >= 0 {
        inv + 1.0
    } else {
        inv - 1.0
    }
}

// `s_expm1f.c`'s constants.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// 1.5 · 2²³: adding it rounds a float below 2²² in magnitude to an integer
/// and leaves that integer in two's complement in the low mantissa bits.
/// LLVM scalarises every saturating float-to-int cast on x86, so `k` is
/// truncated and converted through it instead of `as i32`.
const MAGIC: f32 = 12_582_912.0;

/// glibc's `expm1f` on the arguments [`tanhf`] passes it: finite,
/// nonzero, −2 < x < 44 for the lanes it keeps. Those never reach the
/// overflow and −27·ln 2 saturation branches, nor `k = 1` (x ≥ 2 gives
/// k ≥ 3), so those are left out.
#[inline(always)]
fn expm1f(x: f32) -> f32 {
    let neg = (x.to_bits() as i32) < 0;
    let hx = (x.to_bits() & 0x7fff_ffff) as i32;
    // Argument reduction, x = k·ln 2 + (hi − lo): k = ±1 for
    // 0.5·ln 2 < |x| < 1.5·ln 2, else C's truncation of x/ln 2 ± 0.5, which
    // for a positive `a = |x|/ln 2 + 0.5` (negation is exact) is ⌊a⌋.
    let a = INV_LN2 * x.abs() + 0.5;
    let nearest = (a + MAGIC) - MAGIC;
    let kf = if nearest > a { nearest - 1.0 } else { nearest };
    let kf = if hx < 0x3f85_1592 { 1.0 } else { kf };
    let kf = if hx > 0x3eb1_7218 { kf } else { 0.0 };
    let kf = if neg { -kf } else { kf };
    let k = ((kf + MAGIC).to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    // k = 0 leaves x as it is: x − 0·ln2_hi − 0·ln2_lo, c = 0.
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    // r is now in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let k_zero = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let k_minus_one = 0.5 * (r - e) - 0.5;
    // |k| ≥ 2: scale 1 + r − e by 2^k through the exponent field, with
    // 2⁻ᵏ built from its exponent alone (1 − 2⁻ᵏ is exact for k < 23).
    let far = k <= -2 || k > 56;
    let two_to_minus_k = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let y = if far {
        1.0 - (e - r)
    } else if k < 23 {
        (1.0 - two_to_minus_k) - (e - r)
    } else {
        (r - (e + two_to_minus_k)) + 1.0
    };
    let y = f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    let y = if far { y - 1.0 } else { y };
    let y = if k == -1 { k_minus_one } else { y };
    let y = if k == 0 { k_zero } else { y };
    // |x| < 2⁻²⁵: x itself.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// `x = exp(x)` for every element, bit for bit what glibc 2.36's `expf`
/// returns on an x86-64 host with FMA — NaN payloads, infinities and
/// subnormal results included.
pub fn exp_in_place(xs: &mut [f32]) {
    simd::exp(xs);
}

/// The body of [`exp_in_place`], one lane per element, a [`LANES`] block at
/// a time: a plain loop over the slice left a 16-element call wholly to
/// its scalar tail.
#[inline(always)]
pub(crate) fn exp_lanes(xs: &mut [f32]) {
    let (blocks, rest) = xs.as_chunks_mut::<LANES>();
    for block in blocks {
        for x in block {
            *x = expf(*x);
        }
    }
    for x in rest {
        *x = expf(*x);
    }
}

/// `__exp2f_data.tab`: `bits(2^(i/32)) − (i << 47)`, so adding `k << 47`
/// for `k ≡ i (mod 32)` gives the bits of `2^(k/32)`.
#[rustfmt::skip]
const EXP2_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000, 0x3fef_d9b0_d315_8574, 0x3fef_b558_6cf9_890f, 0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b, 0x3fef_5487_3168_b9aa, 0x3fef_387a_6e75_6238, 0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715, 0x3fee_f1a7_373a_a9cb, 0x3fee_dea6_4c12_3422, 0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27, 0x3fee_b42b_569d_4f82, 0x3fee_ab07_dd48_5429, 0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd, 0x3fee_9f75_e8ec_5f74, 0x3fee_a114_73eb_0187, 0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db, 0x3fee_b737_b0cd_c5e5, 0x3fee_c491_82a3_f090, 0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad, 0x3fee_ff76_f2fb_5e47, 0x3fef_199b_dd85_529c, 0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487, 0x3fef_7c97_337b_9b5f, 0x3fef_a4af_a2a4_90da, 0x3fef_d076_5b6e_4540,
];

// `e_expf.c`'s constants: 32/ln 2, the rounding shift 1.5·2⁵², and the
// cubic's coefficients pre-scaled by 32⁻³, 32⁻² and 32⁻¹.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
const EXP_C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const EXP_C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const EXP_C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// ln(2¹²⁸) rounded down: above it `expf` overflows to `+∞`.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// ln(2⁻¹⁵⁰) rounded up: below it `expf` underflows to `+0`.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// glibc's `expf` in its FMA build, every branch computed and selected.
#[inline(always)]
fn expf(x: f32) -> f32 {
    let xd = f64::from(x);
    // x·32/ln 2 = k + r with |r| ≤ 1/2: adding SHIFT rounds k to nearest,
    // ties to even, and leaves it in the low mantissa bits.
    let kd = INV_LN2_N * xd + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // exp(x) = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C0.mul_add(r, EXP_C1);
    let y = EXP_C2.mul_add(r, 1.0);
    let y = z.mul_add(r * r, y);
    let y = (y * s) as f32;
    // The `|x| ≥ 88` branch: NaN is `x + x` (quieted, payload kept), −∞
    // is +0, as is everything below the underflow bound, and +∞ and
    // everything above the overflow bound is +∞.
    if x.is_nan() {
        x + x
    } else if x > EXP_OVERFLOW {
        f32::INFINITY
    } else if x < EXP_UNDERFLOW {
        0.0
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0
        }
    }

    fn random(n: usize, next: &mut impl FnMut() -> f32) -> Vec<f32> {
        (0..n).map(|_| next()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `check` under every tier the host has, portable first.
    fn under_every_tier(mut check: impl FnMut(&str)) {
        simd::tests::with_dispatch_lock(|| {
            for tier in simd::tiers() {
                simd::set_tier(tier);
                check(tier.name());
            }
        });
    }

    /// Every row, dim and batch remainder path of the kernel, against the
    /// serial dot product, to the bit. Row 1 of every matrix is all `-0.0`
    /// so an accumulator that starts from `+0.0` instead of `Sum`'s
    /// identity shows up as a sign flip.
    #[test]
    fn matmat_matches_the_serial_dot_bit_for_bit() {
        let mut next = lcg(77);
        for rows in [4usize, 8, 16, 240, 241] {
            for dim in [1usize, 8, 255, 256] {
                let mut w = random(rows * dim, &mut next);
                w[dim..2 * dim].fill(-0.0);
                let xs: Vec<Vec<f32>> = (0..409)
                    .map(|_| random(dim, &mut next).iter().map(|x| x.abs()).collect())
                    .collect();
                let reference: Vec<Vec<f32>> = xs
                    .iter()
                    .map(|x| w.chunks_exact(dim).map(|row| dot(row, x)).collect())
                    .collect();
                assert_eq!(reference[0][1].to_bits(), (-0.0f32).to_bits());

                under_every_tier(|tier| {
                    let mut tile = Vec::new();
                    for batch in [1usize, 7, 16, 17, 31, 409] {
                        let mut out = Vec::new();
                        for (chunk, want) in xs[..batch]
                            .chunks(LANES)
                            .zip(reference[..batch].chunks(LANES))
                        {
                            let inputs = chunk.iter().map(Vec::as_slice);
                            matmat(&w, dim, inputs, &mut tile, &mut out);
                            let want: Vec<f32> = want.iter().flatten().copied().collect();
                            assert_eq!(
                                bits(&out),
                                bits(&want),
                                "matmat {rows}x{dim}, batch {batch}, tier {tier}"
                            );
                        }
                    }
                });
            }
        }
    }

    /// One tile of 1 to 16 samples accumulated into one gradient, against
    /// the per-element loop over the samples in order, to the bit. Row 1 of
    /// `g` starts at `-0.0` with `+0.0` coefficients and non-negative
    /// inputs, so a kernel that skips zero coefficients keeps a `-0.0` the
    /// reference turns into `+0.0`. Row 2 takes a NaN coefficient and row 3
    /// `+∞` then `−∞`, which must propagate as the loop propagates them.
    #[test]
    fn outer_acc_matches_the_per_element_loop_bit_for_bit() {
        let mut next = lcg(78);
        for rows in [4usize, 16, 240, 241] {
            for dim in [1usize, 8, 31, 32, 33, 255, 256] {
                let mut start = random(rows * dim, &mut next);
                start[dim..2 * dim].fill(-0.0);
                let xs: Vec<Vec<f32>> = (0..LANES)
                    .map(|_| random(dim, &mut next).iter().map(|x| x.abs()).collect())
                    .collect();
                let mut coefs = random(LANES * rows, &mut next);
                for (s, c) in coefs.chunks_exact_mut(rows).enumerate() {
                    c[1] = 0.0;
                    match s {
                        3 => c[2] = f32::NAN,
                        5 => c[3] = f32::INFINITY,
                        9 => c[3] = f32::NEG_INFINITY,
                        _ => {}
                    }
                }
                // `wants[n]`: the loop's gradient after the first `n` samples.
                let mut wants = vec![start.clone()];
                for (x, c) in xs.iter().zip(coefs.chunks_exact(rows)) {
                    let mut want = wants[wants.len() - 1].clone();
                    for j in 0..rows {
                        for d in 0..dim {
                            want[j * dim + d] += c[j] * x[d];
                        }
                    }
                    wants.push(want);
                }
                assert_eq!(wants[1][dim].to_bits(), 0.0f32.to_bits());
                assert!(wants[LANES][2 * dim].is_nan() && wants[LANES][3 * dim].is_nan());

                under_every_tier(|tier| {
                    for n in 1..=LANES {
                        let mut g = start.clone();
                        let samples = xs[..n].iter().map(Vec::as_slice);
                        outer_acc(&mut g, &coefs[..n * rows], samples);
                        assert_eq!(
                            bits(&g),
                            bits(&wants[n]),
                            "outer_acc {n} samples, {rows}x{dim}, tier {tier}"
                        );
                    }
                });
            }
        }
    }

    /// Against a per-element sum over `j` from `0.0`. Column 0 of `w` is all
    /// `-0.0` under non-negative coefficients, so its sum is `+0.0` only if
    /// the kernel starts from `+0.0`.
    #[test]
    fn back_matches_the_per_element_sum_bit_for_bit() {
        let mut next = lcg(79);
        for rows in [4usize, 16, 240, 241] {
            for dim in [1usize, 8, 255, 256] {
                let mut w = random(rows * dim, &mut next);
                w.iter_mut().step_by(dim).for_each(|v| *v = -0.0);
                let coef: Vec<f32> = random(rows, &mut next).iter().map(|c| c.abs()).collect();
                let want: Vec<f32> = (0..dim)
                    .map(|d| (0..rows).fold(0.0f32, |acc, j| acc + coef[j] * w[j * dim + d]))
                    .collect();
                assert_eq!(want[0].to_bits(), 0.0f32.to_bits());

                under_every_tier(|tier| {
                    // A stale, longer buffer: `back` must size and clear it.
                    let mut dx = vec![f32::NAN; dim + 3];
                    back(&mut dx, &coef, &w);
                    assert_eq!(bits(&dx), bits(&want), "back {rows}x{dim}, tier {tier}");
                });
            }
        }
    }

    /// `(x, tanhf(x))` bit patterns from glibc 2.36 on x86-64: each branch
    /// threshold of `tanhf` and `expm1f` (the latter at half its argument)
    /// ±1 ulp, with both signs, and the values no threshold reaches.
    #[rustfmt::skip]
    const TANH_ORACLE: [(u32, u32); 82] = [
        // ±0, subnormals, the normal and finite extremes, plain values
        (0x0000_0000, 0x0000_0000), (0x8000_0000, 0x8000_0000),
        (0x0000_0001, 0x0000_0001), (0x8000_0001, 0x8000_0001),
        (0x0040_0000, 0x0040_0000), (0x8040_0000, 0x8040_0000),
        (0x007f_ffff, 0x007f_ffff), (0x807f_ffff, 0x807f_ffff),
        (0x0080_0000, 0x0080_0000), (0x8080_0000, 0x8080_0000),
        (0x7f7f_ffff, 0x3f80_0000), (0xff7f_ffff, 0xbf80_0000),
        (0x3f00_0000, 0x3eec_9a9f), (0xbf00_0000, 0xbeec_9a9f),
        (0x4000_0000, 0x3f76_ca83), (0xc000_0000, 0xbf76_ca83),
        (0x3dcc_cccd, 0x3dcc_1ebc), (0xbdcc_cccd, 0xbdcc_1ebc),
        // 2⁻⁵⁵: x·(1 + x) below
        (0x23ff_ffff, 0x23ff_ffff), (0xa3ff_ffff, 0xa3ff_ffff), (0x2400_0000, 0x2400_0000),
        (0xa400_0000, 0xa400_0000), (0x2400_0001, 0x2400_0001), (0xa400_0001, 0xa400_0001),
        // 1: expm1(2|x|) from here
        (0x3f7f_ffff, 0x3f42_f7d5), (0xbf7f_ffff, 0xbf42_f7d5), (0x3f80_0000, 0x3f42_f7d6),
        (0xbf80_0000, 0xbf42_f7d6), (0x3f80_0001, 0x3f42_f7d6), (0xbf80_0001, 0xbf42_f7d6),
        // 22: ±1 from here
        (0x41af_ffff, 0x3f80_0000), (0xc1af_ffff, 0xbf80_0000), (0x41b0_0000, 0x3f80_0000),
        (0xc1b0_0000, 0xbf80_0000), (0x41b0_0001, 0x3f80_0000), (0xc1b0_0001, 0xbf80_0000),
        // expm1 at 2⁻²⁵: x itself below
        (0x327f_ffff, 0x327f_ffff), (0xb27f_ffff, 0xb27f_ffff), (0x3280_0000, 0x3280_0000),
        (0xb280_0000, 0xb280_0000), (0x3280_0001, 0x3280_0001), (0xb280_0001, 0xb280_0001),
        // expm1 at 0.5·ln 2: k = −1 above
        (0x3e31_7217, 0x3e2f_b0cc), (0xbe31_7217, 0xbe2f_b0cc), (0x3e31_7218, 0x3e2f_b0cd),
        (0xbe31_7218, 0xbe2f_b0cd), (0x3e31_7219, 0x3e2f_b0cd), (0xbe31_7219, 0xbe2f_b0cd),
        // expm1 at 1.5·ln 2: k = −2 from here
        (0x3f05_1591, 0x3ef4_86f8), (0xbf05_1591, 0xbef4_86f8), (0x3f05_1592, 0x3ef4_86f8),
        (0xbf05_1592, 0xbef4_86f8), (0x3f05_1593, 0x3ef4_86fb), (0xbf05_1593, 0xbef4_86fb),
        // k = −3 from here
        (0x3f5d_ce9d, 0x3f33_1638), (0xbf5d_ce9d, 0xbf33_1638), (0x3f5d_ce9e, 0x3f33_1638),
        (0xbf5d_ce9e, 0xbf33_1638), (0x3f5d_ce9f, 0x3f33_1639), (0xbf5d_ce9f, 0xbf33_1639),
        // k = 23 from here
        (0x40f9_8871, 0x3f7f_fffa), (0xc0f9_8871, 0xbf7f_fffa), (0x40f9_8872, 0x3f7f_fffa),
        (0xc0f9_8872, 0xbf7f_fffa), (0x40f9_8873, 0x3f7f_fffa), (0xc0f9_8873, 0xbf7f_fffa),
        // k = 57 from here
        (0x419c_a6b8, 0x3f80_0000), (0xc19c_a6b8, 0xbf80_0000), (0x419c_a6b9, 0x3f80_0000),
        (0xc19c_a6b9, 0xbf80_0000), (0x419c_a6ba, 0x3f80_0000), (0xc19c_a6ba, 0xbf80_0000),
        // ±∞, quiet and signalling NaNs of both signs and several payloads
        (0x7f80_0000, 0x3f80_0000), (0xff80_0000, 0xbf80_0000), (0x7fc0_0000, 0x7fc0_0000),
        (0xffc0_0000, 0xffc0_0000), (0x7f80_0001, 0x7fc0_0001), (0xff80_0001, 0xffc0_0001),
        (0x7fa5_a5a5, 0x7fe5_a5a5), (0xffd2_d2d2, 0xffd2_d2d2), (0x7fff_ffff, 0x7fff_ffff),
        (0xffff_ffff, 0xffff_ffff),
    ];

    /// The oracle table under every tier: all of it in one call, one
    /// entry per call (the loop's scalar tail), and each entry planted
    /// among finite values (a full vector block).
    #[test]
    fn tanh_matches_the_glibc_oracle_bit_for_bit() {
        let (xs, want): (Vec<u32>, Vec<u32>) = TANH_ORACLE.iter().copied().unzip();
        let xs: Vec<f32> = xs.into_iter().map(f32::from_bits).collect();
        let filler = f32::from_bits(TANH_ORACLE[12].0);
        under_every_tier(|tier| {
            let mut all = xs.clone();
            tanh_in_place(&mut all);
            assert_eq!(bits(&all), want, "tier {tier}");
            for (&x, &y) in xs.iter().zip(&want) {
                let mut one = [x];
                tanh_in_place(&mut one);
                assert_eq!(one[0].to_bits(), y, "tanh({:#010x}) alone", x.to_bits());
                let mut block = [filler; 64];
                block[35] = x;
                tanh_in_place(&mut block);
                assert_eq!(block[35].to_bits(), y, "tanh({:#010x})", x.to_bits());
                assert_eq!(block[0].to_bits(), TANH_ORACLE[12].1);
            }
        });
    }

    /// FNV-1a over the output bits of `tanh` on every 4 093rd `f32` bit
    /// pattern (1 049 344 inputs: both signs, every exponent, scattered
    /// mantissas), as glibc 2.36's `tanhf` gives them on x86-64.
    const TANH_SWEEP_DIGEST: u64 = 0x6806_0549_584e_b5fa;

    fn sweep_digest(kernel: impl Fn(&mut [f32])) -> u64 {
        let mut xs: Vec<f32> = (0..=u32::MAX / 4093)
            .map(|i| f32::from_bits(i * 4093))
            .collect();
        kernel(&mut xs);
        xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, y| {
            (h ^ u64::from(y.to_bits())).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// The strided sweep under every tier, against the captured
    /// digest: the table pins the branch edges, this the arithmetic between
    /// them.
    #[test]
    fn tanh_matches_the_glibc_digest_on_a_strided_sweep() {
        under_every_tier(|tier| {
            assert_eq!(
                sweep_digest(tanh_in_place),
                TANH_SWEEP_DIGEST,
                "tier {tier}"
            );
        });
    }

    /// Every `f32` through `kernel` against `host`, under every tier, on
    /// all the host's threads.
    fn matches_the_host_on_every_f32(kernel: fn(&mut [f32]), host: fn(f32) -> f32) {
        const BLOCK: usize = 1 << 12;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        under_every_tier(|tier| {
            let mismatches: u64 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads as u64)
                    .map(|worker| {
                        scope.spawn(move || {
                            let mut buf = vec![0.0f32; BLOCK];
                            let mut mismatches = 0u64;
                            let blocks = (1u64 << 32) / BLOCK as u64;
                            for block in (worker..blocks).step_by(threads) {
                                let first = block * BLOCK as u64;
                                for (i, x) in buf.iter_mut().enumerate() {
                                    *x = f32::from_bits((first + i as u64) as u32);
                                }
                                kernel(&mut buf);
                                for (i, y) in buf.iter().enumerate() {
                                    let x = f32::from_bits((first + i as u64) as u32);
                                    if y.to_bits() != host(x).to_bits() {
                                        if mismatches < 8 {
                                            eprintln!(
                                                "f({:#010x}) = {:#010x}, host {:#010x}",
                                                x.to_bits(),
                                                y.to_bits(),
                                                host(x).to_bits()
                                            );
                                        }
                                        mismatches += 1;
                                    }
                                }
                            }
                            mismatches
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            println!("{mismatches} mismatches over every f32, tier {tier}");
            assert_eq!(mismatches, 0, "tier {tier}");
        });
    }

    /// Every `f32` against the host's `f32::tanh`, under every tier:
    /// meaningful on a glibc 2.36 x86-64 host, minutes long, so ignored
    /// (`cargo test --release -p rna-tensor --lib -- --ignored tanh`).
    #[test]
    #[ignore]
    fn tanh_matches_the_host_libm_on_every_f32() {
        matches_the_host_on_every_f32(tanh_in_place, f32::tanh);
    }

    /// `(x, expf(x))` bit patterns from glibc 2.36 on an x86-64 host with
    /// FMA: both branch edges of `|x| ≥ 88`, the overflow and underflow
    /// bounds ±1 ulp, results at and below the smallest normal, the two
    /// inputs where the plain build rounds the other way, and NaN payloads.
    #[rustfmt::skip]
    const EXP_ORACLE: [(u32, u32); 50] = [
        // ±0, subnormal inputs, plain values
        (0x0000_0000, 0x3f80_0000), (0x8000_0000, 0x3f80_0000), (0x0000_0001, 0x3f80_0000),
        (0x8000_0001, 0x3f80_0000), (0x0040_0000, 0x3f80_0000), (0x807f_ffff, 0x3f80_0000),
        (0x3f80_0000, 0x402d_f854), (0xbf80_0000, 0x3ebc_5ab2), (0x3f00_0000, 0x3fd3_094c),
        (0xbf00_0000, 0x3f1b_4598), (0x2f80_0000, 0x3f80_0000), (0xaf80_0000, 0x3f80_0000),
        (0x4120_0000, 0x46ac_14ee), (0xc120_0000, 0x383e_6bce), (0x3dcc_cccd, 0x3f8d_763e),
        (0xc0a0_0000, 0x3bdc_c9ff), (0x4280_0000, 0x6da1_2cc1),
        // fused-only: glibc's plain build is one ulp off on these two
        (0x4202_422f, 0x56fc_9f1c), (0xc27c_65d9, 0x11fa_2993),
        // |x| = 88: the special-case branch from here
        (0x42af_ffff, 0x7ef8_823b), (0x42b0_0000, 0x7ef8_82b7), (0x42b0_0001, 0x7ef8_8333),
        (0xc2af_ffff, 0x0041_ede5), (0xc2b0_0000, 0x0041_edc4), (0xc2b0_0001, 0x0041_eda3),
        // overflow above ln(2¹²⁸)
        (0x42b1_7216, 0x7f7f_ff04), (0x42b1_7217, 0x7f7f_ff84), (0x42b1_7218, 0x7f80_0000),
        (0x7f7f_ffff, 0x7f80_0000),
        // the smallest normal result, then subnormal ones, then +0 below ln(2⁻¹⁵⁰)
        (0xc2ae_ac4f, 0x0080_0026), (0xc2ae_ac50, 0x007f_ffe6), (0xc2ae_ac51, 0x007f_ffa6),
        (0xc2c8_0000, 0x0000_001b), (0xc2ce_8ece, 0x0000_0001), (0xc2ce_8ecf, 0x0000_0001),
        (0xc2ce_8ed0, 0x0000_0001), (0xc2cf_f1b3, 0x0000_0001), (0xc2cf_f1b4, 0x0000_0001),
        (0xc2cf_f1b5, 0x0000_0000), (0xff7f_ffff, 0x0000_0000),
        // ±∞, quiet and signalling NaNs of both signs and several payloads
        (0x7f80_0000, 0x7f80_0000), (0xff80_0000, 0x0000_0000), (0x7fc0_0000, 0x7fc0_0000),
        (0xffc0_0000, 0xffc0_0000), (0x7f80_0001, 0x7fc0_0001), (0xff80_0001, 0xffc0_0001),
        (0x7fa5_a5a5, 0x7fe5_a5a5), (0xffd2_d2d2, 0xffd2_d2d2), (0x7fff_ffff, 0x7fff_ffff),
        (0xffff_ffff, 0xffff_ffff),
    ];

    /// The oracle table under every tier: all of it in one call, one entry
    /// per call (the loop's scalar tail), and each entry planted among
    /// finite values (a full vector block).
    #[test]
    fn exp_matches_the_glibc_oracle_bit_for_bit() {
        let (xs, want): (Vec<u32>, Vec<u32>) = EXP_ORACLE.iter().copied().unzip();
        let xs: Vec<f32> = xs.into_iter().map(f32::from_bits).collect();
        let filler = f32::from_bits(EXP_ORACLE[6].0);
        under_every_tier(|tier| {
            let mut all = xs.clone();
            exp_in_place(&mut all);
            assert_eq!(bits(&all), want, "tier {tier}");
            for (&x, &y) in xs.iter().zip(&want) {
                let mut one = [x];
                exp_in_place(&mut one);
                assert_eq!(one[0].to_bits(), y, "exp({:#010x}) alone", x.to_bits());
                let mut block = [filler; 64];
                block[35] = x;
                exp_in_place(&mut block);
                assert_eq!(block[35].to_bits(), y, "exp({:#010x})", x.to_bits());
                assert_eq!(block[0].to_bits(), EXP_ORACLE[6].1);
            }
        });
    }

    /// [`TANH_SWEEP_DIGEST`]'s sweep through glibc 2.36's `expf` on an
    /// x86-64 host with FMA.
    const EXP_SWEEP_DIGEST: u64 = 0x78b0_994f_473f_b04f;

    #[test]
    fn exp_matches_the_glibc_digest_on_a_strided_sweep() {
        under_every_tier(|tier| {
            assert_eq!(sweep_digest(exp_in_place), EXP_SWEEP_DIGEST, "tier {tier}");
        });
    }

    /// Every `f32` against the host's `f32::exp`, under every tier:
    /// meaningful on a glibc 2.36 x86-64 host with FMA, minutes long, so
    /// ignored (`cargo test --release -p rna-tensor --lib -- --ignored exp`).
    #[test]
    #[ignore]
    fn exp_matches_the_host_libm_on_every_f32() {
        matches_the_host_on_every_f32(exp_in_place, f32::exp);
    }
}
