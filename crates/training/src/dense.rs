//! The dense kernel every model's forward pass runs on: dot products of the
//! rows of a row-major weight matrix with a tile of input vectors.
//!
//! Each dot product is summed **in index order** from [`Sum`]'s identity,
//! exactly like the serial [`dot`] it replaces, so every logit, loss and
//! gradient — and therefore every same-seed replay — is bit-identical to the
//! one-row-at-a-time loop. What changes is how many of those serial chains
//! are in flight: a lone `iter().sum()` waits on one add's latency per
//! element, while [`matmat`] carries `ROWS × LANES` independent sums, the
//! samples of a tile side by side in SIMD lanes. Nothing here fuses
//! `a * b + c`: Rust does not contract it, and the reference is unfused.
//!
//! [`Sum`]: std::iter::Sum

/// Samples per [`matmat`] call: one transposed tile, one SIMD lane each.
pub(crate) const LANES: usize = 8;

/// Rows per [`matmat`] block (`ROWS × LANES` accumulators stay in registers).
const ROWS: usize = 4;

/// `Σ_d row[d] · x[d]`, the way `iter().sum()` adds it up: the reference
/// [`matmat`] must match to the bit.
pub(crate) fn dot(row: &[f32], x: &[f32]) -> f32 {
    row.iter().zip(x).map(|(w, xi)| w * xi).sum()
}

/// Up to [`LANES`] input vectors at once: `out` becomes one row per sample,
/// `out[s·rows + j] = Σ_d w[j·dim + d] · xs[s][d]`.
///
/// The inputs are transposed into `tile` (`dim × LANES`, lane `s` holding
/// sample `s`, unused lanes zero) so the inner loop is one broadcast weight
/// times one contiguous lane vector: plain Rust the compiler vectorises,
/// each lane still its own in-order sum.
pub(crate) fn matmat<'a>(
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
    tile.clear();
    tile.resize(dim * LANES, 0.0);
    let (tile, _) = tile.as_chunks_mut::<LANES>();
    for (s, x) in xs.enumerate() {
        for (t, &xd) in tile.iter_mut().zip(&x[..dim]) {
            t[s] = xd;
        }
    }
    out.resize(n * rows, 0.0);
    let mut w_blocks = w.chunks_exact(ROWS * dim);
    let mut j = 0;
    for wb in w_blocks.by_ref() {
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
        for (r, a) in [a0, a1, a2, a3].iter().enumerate() {
            scatter(&mut out[j + r..], rows, a);
        }
        j += ROWS;
    }
    for row in w_blocks.remainder().chunks_exact(dim) {
        let mut acc = [-0.0f32; LANES];
        for (xt, &wv) in tile.iter().zip(row) {
            lanes_axpy(&mut acc, wv, xt);
        }
        scatter(&mut out[j..], rows, &acc);
        j += 1;
    }
}

/// `acc[l] += w · x[l]` across the lanes of one tile row.
#[inline(always)]
fn lanes_axpy(acc: &mut [f32; LANES], w: f32, x: &[f32; LANES]) {
    for (a, &xl) in acc.iter_mut().zip(x) {
        *a += w * xl;
    }
}

/// Writes lane `s` of `acc` to `out[s · stride]` for as many samples as `out`
/// holds.
fn scatter(out: &mut [f32], stride: usize, acc: &[f32; LANES]) {
    for (o, &a) in out.iter_mut().step_by(stride).zip(acc) {
        *o = a;
    }
}

/// `row += b` for every `b.len()`-long row of `out`.
pub(crate) fn add_bias(out: &mut [f32], b: &[f32]) {
    for row in out.chunks_exact_mut(b.len()) {
        for (o, &bj) in row.iter_mut().zip(b) {
            *o += bj;
        }
    }
}

/// `y[i] += a · x[i]`: the backward pass's one inner loop, over slices so it
/// vectorises without bounds checks.
pub(crate) fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Weight gradient of a dense layer: `g[j·dim + d] += coef[j] · x[d]`.
pub(crate) fn outer_acc(g: &mut [f32], coef: &[f32], x: &[f32]) {
    for (row, &c) in g.chunks_exact_mut(x.len()).zip(coef) {
        axpy(row, c, x);
    }
}

/// Gradient into a dense layer's input: `dx[d] = Σ_j coef[j] · w[j·dim + d]`,
/// summed over `j` in order from `0.0`.
pub(crate) fn back(dx: &mut Vec<f32>, coef: &[f32], w: &[f32]) {
    dx.clear();
    dx.resize(w.len() / coef.len(), 0.0);
    for (row, &c) in w.chunks_exact(dx.len()).zip(coef) {
        axpy(dx, c, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_simnet::SimRng;

    fn random(n: usize, rng: &mut SimRng) -> Vec<f32> {
        (0..n).map(|_| rng.uniform_init(1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every row, dim and batch remainder path of the kernel, against the
    /// serial dot product, to the bit. Row 1 of every matrix is all `-0.0`
    /// so an accumulator that starts from `+0.0` instead of `Sum`'s
    /// identity shows up as a sign flip.
    #[test]
    fn matmat_matches_the_serial_dot_bit_for_bit() {
        let mut rng = SimRng::seed(77);
        for rows in [4usize, 8, 16, 240, 241] {
            for dim in [1usize, 8, 255, 256] {
                let mut w = random(rows * dim, &mut rng);
                w[dim..2 * dim].fill(-0.0);
                let xs: Vec<Vec<f32>> = (0..409)
                    .map(|_| random(dim, &mut rng).iter().map(|x| x.abs()).collect())
                    .collect();
                let reference: Vec<Vec<f32>> = xs
                    .iter()
                    .map(|x| w.chunks_exact(dim).map(|row| dot(row, x)).collect())
                    .collect();
                assert_eq!(reference[0][1].to_bits(), (-0.0f32).to_bits());

                let mut tile = Vec::new();
                for batch in [1usize, 7, 16, 409] {
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
                            "matmat {rows}x{dim}, batch {batch}"
                        );
                    }
                }
            }
        }
    }
}
