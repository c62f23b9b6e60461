//! Shared dense kernels: the workspace GEMM and element-wise maps. Each
//! has exactly one implementation, and it takes a [`ParPool`]; callers
//! that want one thread pass [`ParPool::serial`].
//!
//! # Kernel structure
//!
//! [`gemm_f32_par`] runs a cache-blocked, panel-packed microkernel in the
//! BLIS mold: the iteration space is tiled into `MC × KC × NC` blocks, the
//! `A` operand is packed as f32 into contiguous [`MR`]-row panels, the `B`
//! operand into contiguous [`NR`]-column panels widened to f64
//! ([`PackedB`]), and an inner `MR × NR` register tile of 32 independent
//! f64 accumulators runs a whole `KC` block: it starts at zero in
//! registers and, when `k ≤ KC`, writes f32 straight into the output. An
//! f64 accumulator strip carries the tile across `KC` crossings only.
//! Edge tiles run the same code on zero-padded lanes and write back only
//! their live lanes. Every product runs this kernel, however small; the
//! naive [`gemm_f32_ref`] is only the tests' frozen oracle.
//!
//! # Two instantiations, one body
//!
//! The kernel body is written once, generic over `const FMA: bool`, and
//! compiled twice ([`GemmKernel`]): a portable version doing
//! `acc + a·b`, and a `#[target_feature(enable = "avx2,fma")]` version
//! doing `a.mul_add(b, acc)` on 256-bit vectors. The AVX2/FMA version is
//! picked at run time with `is_x86_feature_detected!` on x86-64 only;
//! every other target, and x86-64 hosts without both features, run the
//! portable one. No option or environment variable selects it. Entering
//! the `target_feature` code is this crate's one `unsafe` call, in
//! `dispatch`, right after the run-time check.
//!
//! # Determinism contract
//!
//! Work splits into chunks whose boundaries depend only on the problem
//! shape (fixed `const` chunk sizes below), never on the job count, so
//! the bits of every result are the same for any pool. The blocked kernel
//! preserves a stronger invariant: each output element is reduced by
//! **one** f64 accumulator in strictly ascending `l` (inner-dimension)
//! order, exactly as the naive reference [`gemm_f32_ref`]. Both
//! instantiations keep it. The f32 → f64 widening is exact, and the
//! product of two f32 values is exact in f64 (a 48-bit significand, no
//! overflow or underflow), so `fma(a, b, acc)`, which rounds once, gives
//! the same bits as `acc + a·b`, which rounds only at the add. `KC`
//! blocking only pauses the chain — the strip is stored and reloaded as
//! f64, which is exact — and `M`/`N` zero-padding lanes are never
//! written back, so blocked ≡ reference on every shape, job count and
//! host, bit for bit. Nothing numeric in the workspace changes when the
//! schedule or the CPU does.

use std::cell::RefCell;
use std::hint::black_box;

use wmpt_par::ParPool;

/// Output rows per GEMM chunk. A fixed constant so that chunk boundaries
/// depend only on the matrix shape, never on the job count. Matches
/// [`MC`] so each band is one cache block of the blocked kernel.
pub const GEMM_ROW_CHUNK: usize = 64;

/// Register-tile rows of the inner microkernel.
pub const MR: usize = 4;

/// Register-tile columns of the inner microkernel.
pub const NR: usize = 8;

/// Row-block size: rows of `A` packed and kept hot in L2 per block.
/// Must be a multiple of [`MR`].
pub const MC: usize = 64;

/// Inner-dimension block size: the packed `A` block is `MC × KC` f32
/// (64 KiB), sized to stay cache-resident across the `N` sweep.
pub const KC: usize = 256;

/// Column-block size: columns of packed `B` streamed per block. Must be
/// a multiple of [`NR`].
pub const NC: usize = 256;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Naive triple-loop f32 GEMM with f64 accumulation — the frozen oracle
/// the blocked kernel is held bit-identical to in the tests, and the
/// naive baseline of the `kernels` roofline. No production path runs it.
///
/// `a` is `ar × ac`; when `ta` it is used as `ac × ar` (transposed read).
/// `b` has `bc` columns (rows inferred from `k`); when `tb`, `b` is read
/// transposed. `out` must hold `m × bc` values where `m = ac` if `ta`
/// else `ar`.
///
/// # Panics
///
/// Panics if `out.len() != m * bc`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_ref(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
    ta: bool,
    tb: bool,
) {
    let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
    assert_eq!(
        out.len(),
        m * bc,
        "gemm_f32_ref: out length {} does not match {m}x{bc} product",
        out.len()
    );
    let n = bc;
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for l in 0..k {
                let av = if ta { a[l * ac + i] } else { a[i * ac + l] };
                let bv = if tb { b[j * k + l] } else { b[l * n + j] };
                acc += av as f64 * bv as f64;
            }
            out[i * n + j] = acc as f32;
        }
    }
}

/// `B` packed into contiguous [`NR`]-column panels, widened to f64.
///
/// Panel `q` covers columns `q·NR .. (q+1)·NR` and stores the full inner
/// dimension contiguously: element `(l, c)` of the panel lives at
/// `q·k·NR + l·NR + c`. Columns past `n` are zero-padded; the padding
/// lanes feed multiplies whose results are never written back, so they
/// cannot perturb any output bit. Packing once per GEMM turns the
/// strided `b[l*n + j]` (or `b[j*k + l]`) walks of the naive kernel into
/// unit-stride streams, lets all row bands share one packed copy, and
/// pays the (exact) f32 → f64 widening of `B` once instead of per tile.
/// [`pack_b_into`] re-packs into an existing `PackedB`, reusing its
/// storage.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    /// Inner dimension (rows of the logical `B`).
    pub k: usize,
    /// Logical columns of `B` (before padding).
    pub n: usize,
    data: Vec<f64>,
}

impl PackedB {
    /// The full panel for NR-aligned column `j0`, `k·NR` long.
    #[inline]
    fn panel(&self, j0: usize) -> &[f64] {
        let q = j0 / NR;
        &self.data[q * self.k * NR..(q + 1) * self.k * NR]
    }
}

/// Packs `b` (`k × n`, or `n × k` read transposed when `tb`) into
/// [`NR`]-column f64 panels.
pub fn pack_b(b: &[f32], k: usize, n: usize, tb: bool) -> PackedB {
    let mut bp = PackedB::default();
    pack_b_into(&mut bp, b, k, n, tb);
    bp
}

/// [`pack_b`] into `bp`, whose storage only ever grows: every lane of
/// the packed panels is written, the zero padding included, so a
/// re-pack allocates nothing once `bp` has held a `B` this large.
pub fn pack_b_into(bp: &mut PackedB, b: &[f32], k: usize, n: usize, tb: bool) {
    let panels = n.div_ceil(NR);
    if bp.data.len() < panels * k * NR {
        bp.data.resize(panels * k * NR, 0.0);
    }
    bp.k = k;
    bp.n = n;
    for q in 0..panels {
        let dst = &mut bp.data[q * k * NR..(q + 1) * k * NR];
        for l in 0..k {
            for c in 0..NR {
                let j = q * NR + c;
                dst[l * NR + c] = if j >= n {
                    0.0
                } else if tb {
                    f64::from(b[j * k + l])
                } else {
                    f64::from(b[l * n + j])
                };
            }
        }
    }
}

/// Which instantiation of the one kernel body runs the blocked GEMM.
/// Both produce the same bits (see the module docs); only speed differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmKernel {
    /// `acc + a·b`, compiled for the target's baseline; runs everywhere.
    Portable,
    /// `a.mul_add(b, acc)`, compiled for AVX2 and FMA; chosen at run time
    /// on x86-64 hosts that have both.
    Avx2Fma,
}

impl GemmKernel {
    /// The instantiation every GEMM entry point runs on this host.
    pub fn detected() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return GemmKernel::Avx2Fma;
        }
        GemmKernel::Portable
    }

    /// Stable name, as the `kernels` roofline snapshot reports it.
    pub fn name(self) -> &'static str {
        match self {
            GemmKernel::Portable => "portable",
            GemmKernel::Avx2Fma => "avx2+fma",
        }
    }
}

/// Per-thread packing/accumulator scratch, reused across GEMM calls so
/// the row bands do not allocate per chunk.
struct Scratch {
    /// The packed `MC × KC` block of `A`, f32.
    apack: Vec<f32>,
    /// One `KC × MR` panel of `apack`, widened to f64 for the tile.
    awide: Vec<f64>,
    /// The f64 accumulator strip, touched only when `k > KC`.
    acc: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            apack: Vec::new(),
            awide: Vec::new(),
            acc: Vec::new(),
        })
    };
}

/// Reads element `(r, c)` of the logical `A` (honouring `ta`).
#[inline(always)]
fn a_at(a: &[f32], ac: usize, ta: bool, r: usize, c: usize) -> f32 {
    if ta {
        a[c * ac + r]
    } else {
        a[r * ac + c]
    }
}

/// Packs rows `row_base .. row_base+mcb` × cols `pc .. pc+kcb` of `A`
/// into [`MR`]-row panels: element `(i, l)` of panel `p` lives at
/// `p·kcb·MR + l·MR + i`. Rows past `mcb` in the last panel are zeroed
/// (their accumulator lanes are never written back).
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    a: &[f32],
    ac: usize,
    ta: bool,
    row_base: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    apack: &mut [f32],
) {
    for p in 0..mcb.div_ceil(MR) {
        let dst = &mut apack[p * kcb * MR..(p + 1) * kcb * MR];
        for l in 0..kcb {
            for i in 0..MR {
                dst[l * MR + i] = if p * MR + i < mcb {
                    a_at(a, ac, ta, row_base + p * MR + i, pc + l)
                } else {
                    0.0
                };
            }
        }
    }
}

/// The `MR × NR` register tile of f64 accumulators.
type Tile = [[f64; NR]; MR];

/// One pass of the register tile over an `A` panel (`kc × MR`) and a
/// `B` panel (`kc × NR`), both widened to f64: `kc` rank-1 updates, each
/// output one f64 chain in ascending `l`. `FMA` selects
/// `a.mul_add(b, acc)` over `acc + a·b`. Both round once per step: the
/// product of two f32 values is exact in f64 (48 significand bits, no
/// overflow or underflow), so the fused and the separate forms give the
/// same bits.
#[inline(always)]
fn tile<const FMA: bool>(ap: &[f64], bp: &[f64], mut t: Tile) -> Tile {
    let (a_rows, _) = ap.as_chunks::<MR>();
    let (b_rows, _) = bp.as_chunks::<NR>();
    for (av, bv) in a_rows.iter().zip(b_rows) {
        for (row, &a) in t.iter_mut().zip(av) {
            for (acc, &b) in row.iter_mut().zip(bv) {
                *acc = if FMA {
                    a.mul_add(b, *acc)
                } else {
                    *acc + a * b
                };
            }
        }
    }
    t
}

/// The blocked GEMM body behind [`gemm_f32_packed_rows`]. Each register
/// tile starts at zero, runs a whole `KC` block, and writes its live
/// lanes straight to `out` as f32 once the last block is done; only when
/// `k > KC` does the tile park in the f64 scratch strip between blocks
/// (an exact round trip). Edge tiles run the same code on the
/// zero-padded lanes of the packed panels. The `A` block stays packed
/// as f32; each tile first widens its own `KC × MR` panel into an
/// L1-resident f64 copy (one vector convert per `l`), so the tile loop
/// broadcasts `A` straight from memory instead of converting and
/// shuffling every lane.
#[inline(always)]
fn packed_rows<const FMA: bool>(
    a: &[f32],
    ac: usize,
    ta: bool,
    bp: &PackedB,
    out: &mut [f32],
    row0: usize,
    s: &mut Scratch,
) {
    let (k, n) = (bp.k, bp.n);
    if n == 0 || out.is_empty() {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let rows = out.len() / n;
    s.apack.resize(MC * KC.min(k), 0.0);
    s.awide.resize(MR * KC.min(k), 0.0);
    if k > KC {
        s.acc.resize(MC * NC.min(n), 0.0);
    }
    for jc in (0..n).step_by(NC) {
        let ncb = NC.min(n - jc);
        for ic in (0..rows).step_by(MC) {
            let mcb = MC.min(rows - ic);
            for pc in (0..k).step_by(KC) {
                let kcb = KC.min(k - pc);
                let last = pc + kcb == k;
                pack_a_block(a, ac, ta, row0 + ic, mcb, pc, kcb, &mut s.apack);
                for jr in (0..ncb).step_by(NR) {
                    let nrb = NR.min(ncb - jr);
                    let bpan = &bp.panel(jc + jr)[pc * NR..(pc + kcb) * NR];
                    for ir in (0..mcb).step_by(MR) {
                        let mrb = MR.min(mcb - ir);
                        let apan = &s.apack[ir * kcb..(ir + MR) * kcb];
                        let strip = ir * ncb + jr;
                        let mut t = [[0.0; NR]; MR];
                        if pc > 0 {
                            for (i, row) in t.iter_mut().enumerate().take(mrb) {
                                let src = strip + i * ncb;
                                row[..nrb].copy_from_slice(&s.acc[src..src + nrb]);
                            }
                        }
                        let aw = &mut s.awide[..kcb * MR];
                        for (w, &v) in aw.iter_mut().zip(apan) {
                            *w = f64::from(v);
                        }
                        let t = tile::<FMA>(aw, bpan, t);
                        for (i, row) in t.iter().enumerate().take(mrb) {
                            if last {
                                let dst = (ic + ir + i) * n + jc + jr;
                                for (o, &v) in out[dst..dst + nrb].iter_mut().zip(row) {
                                    *o = v as f32;
                                }
                            } else {
                                let dst = strip + i * ncb;
                                s.acc[dst..dst + nrb].copy_from_slice(&row[..nrb]);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `rounds` passes of the register tile over one packed panel pair,
/// summed so the work cannot be elided. Each pass starts from a zero
/// tile, as a GEMM tile does, so it compiles to the same vector loop as
/// in [`packed_rows`]; [`black_box`] keeps the passes from being folded
/// into one.
#[inline(always)]
fn sweep<const FMA: bool>(ap: &[f64], bp: &[f64], rounds: usize) -> f64 {
    let mut total = [[0.0; NR]; MR];
    for _ in 0..rounds {
        let t = tile::<FMA>(black_box(ap), bp, [[0.0; NR]; MR]);
        for (sums, row) in total.iter_mut().zip(&t) {
            for (sum, v) in sums.iter_mut().zip(row) {
                *sum += v;
            }
        }
    }
    total.iter().flatten().sum()
}

/// One call into the kernel body, run by [`dispatch`] under either
/// instantiation.
enum Job<'a> {
    /// The blocked GEMM of [`gemm_f32_packed_rows`].
    Rows {
        a: &'a [f32],
        ac: usize,
        ta: bool,
        bp: &'a PackedB,
        out: &'a mut [f32],
        row0: usize,
        scratch: &'a mut Scratch,
    },
    /// The register-tile sweep of [`tile_sweep`].
    Sweep {
        ap: &'a [f64],
        bp: &'a [f64],
        rounds: usize,
    },
}

/// The kernel body, instantiated per `FMA`. Returns the sweep sum, or
/// zero for a GEMM.
#[inline(always)]
fn run<const FMA: bool>(job: Job<'_>) -> f64 {
    match job {
        Job::Rows {
            a,
            ac,
            ta,
            bp,
            out,
            row0,
            scratch,
        } => {
            packed_rows::<FMA>(a, ac, ta, bp, out, row0, scratch);
            0.0
        }
        Job::Sweep { ap, bp, rounds } => sweep::<FMA>(ap, bp, rounds),
    }
}

/// The AVX2/FMA instantiation: the inlined body compiles with 256-bit
/// vectors and `vfmadd` instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2_fma(job: Job<'_>) -> f64 {
    run::<true>(job)
}

/// Runs `job` under `kernel`'s instantiation: the one way into the
/// AVX2/FMA code.
///
/// # Panics
///
/// Panics if `kernel` is [`GemmKernel::Avx2Fma`] on a host without AVX2
/// and FMA.
fn dispatch(kernel: GemmKernel, job: Job<'_>) -> f64 {
    match kernel {
        GemmKernel::Portable => run::<false>(job),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        GemmKernel::Avx2Fma => {
            assert_eq!(
                GemmKernel::detected(),
                GemmKernel::Avx2Fma,
                "AVX2/FMA GEMM kernel requested on a host without AVX2 and FMA"
            );
            // SAFETY: `run_avx2_fma` is safe Rust whose only precondition
            // is that the CPU supports the `avx2` and `fma` target
            // features; the assert above checked both at run time on
            // this very host.
            unsafe { run_avx2_fma(job) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        GemmKernel::Avx2Fma => unreachable!("AVX2/FMA is only detected on x86-64"),
    }
}

/// Blocked GEMM over output rows `row0 .. row0 + out.len()/n` against a
/// pre-packed `B`: the band kernel [`gemm_f32_par`] and the batched
/// element GEMMs dispatch per row chunk, all sharing one [`PackedB`].
/// Runs the [`GemmKernel::detected`] instantiation.
///
/// Bit-identical to [`gemm_f32_ref`] on the same rows: every output
/// element is reduced by one f64 accumulator in ascending `l` order (see
/// the module docs).
pub fn gemm_f32_packed_rows(
    a: &[f32],
    ar: usize,
    ac: usize,
    ta: bool,
    bp: &PackedB,
    out: &mut [f32],
    row0: usize,
) {
    debug_assert_eq!(bp.k, if ta { ar } else { ac });
    let _ = ar;
    SCRATCH.with(|scratch| {
        let job = Job::Rows {
            a,
            ac,
            ta,
            bp,
            out,
            row0,
            scratch: &mut scratch.borrow_mut(),
        };
        dispatch(GemmKernel::detected(), job);
    });
}

/// Runs the blocked kernel's register tile `rounds` times over one
/// packed `A` panel (`ap`, element `(l, i)` at `l·MR + i`, `bp.k × MR`
/// long) and the first panel of `bp`, under the
/// [`GemmKernel::detected`] instantiation, and returns the tile's sum.
/// No packing, strip traffic or write-back: this is the compute ceiling
/// the full kernel approaches from below.
///
/// # Panics
///
/// Panics if `ap.len() != bp.k * MR` or `bp` has no columns.
pub fn tile_sweep(ap: &[f32], bp: &PackedB, rounds: usize) -> f64 {
    assert_eq!(ap.len(), bp.k * MR, "tile_sweep: A panel is not k x MR");
    assert!(bp.n > 0, "tile_sweep: B has no columns");
    let ap: Vec<f64> = ap.iter().map(|&v| f64::from(v)).collect();
    let job = Job::Sweep {
        ap: &ap,
        bp: bp.panel(0),
        rounds,
    };
    dispatch(GemmKernel::detected(), job)
}

/// f32 GEMM with f64 accumulation — the one matrix multiply every numeric
/// path in the workspace funnels through. Output rows are computed in
/// fixed [`GEMM_ROW_CHUNK`]-row bands distributed across `pool`, every
/// band running the blocked panel-packed kernel against one shared packed
/// copy of `B`, whatever the problem size. The bits equal
/// [`gemm_f32_ref`]'s (see module docs), so the result is the same for
/// any `jobs` value.
///
/// `a` is `ar × ac`; when `ta` it is used as `ac × ar` (transposed read).
/// `b` has `bc` columns (rows inferred from `k`); when `tb`, `b` is read
/// transposed. `out` must hold `m × bc` values where `m = ac` if `ta`
/// else `ar`.
///
/// # Panics
///
/// Panics if `out.len() != m * bc` (a real `assert!` — release builds
/// must not scribble past a mis-shaped output).
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_par(
    pool: &ParPool,
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
    ta: bool,
    tb: bool,
) {
    gemm_f32_into(pool, a, ar, ac, b, bc, out, ta, tb, &mut PackedB::default());
}

/// [`gemm_f32_par`] packing `B` into the caller's `bp` (see
/// [`pack_b_into`]), so a caller that keeps `bp` across calls allocates
/// nothing.
///
/// # Panics
///
/// Panics if `out.len() != m * bc`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_into(
    pool: &ParPool,
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
    ta: bool,
    tb: bool,
    bp: &mut PackedB,
) {
    let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
    assert_eq!(
        out.len(),
        m * bc,
        "gemm_f32_par: out length {} does not match {m}x{bc} product",
        out.len()
    );
    pack_b_into(bp, b, k, bc, tb);
    let bp = &*bp;
    pool.for_each_chunk_mut(out, GEMM_ROW_CHUNK * bc, |ci, band| {
        gemm_f32_packed_rows(a, ar, ac, ta, bp, band, ci * GEMM_ROW_CHUNK);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataGen;

    fn random(n: usize, seed: u64) -> Vec<f32> {
        let mut g = DataGen::new(seed);
        (0..n).map(|_| g.normal(0.0, 1.0) as f32).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gemm_par_is_bit_identical_for_any_jobs() {
        // Odd sizes so the last row band is partial, all four transpose
        // combinations so every indexing path is covered. One shape spans
        // several bands (m > GEMM_ROW_CHUNK), one is a tiny single-band
        // product.
        for (m, k, n) in [(131, 13, 11), (70, 3, 5)] {
            let a = random(m * k, 1);
            let bv = random(k * n, 3);
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let (ar, ac) = if ta { (k, m) } else { (m, k) };
                let mut reference = vec![0.0f32; m * n];
                gemm_f32_ref(&a, ar, ac, &bv, n, &mut reference, ta, tb);
                for jobs in [1, 2, 7] {
                    let pool = ParPool::new(jobs);
                    let mut par = vec![0.0f32; m * n];
                    gemm_f32_par(&pool, &a, ar, ac, &bv, n, &mut par, ta, tb);
                    assert_eq!(
                        bits(&reference),
                        bits(&par),
                        "{m}x{k}x{n} ta={ta} tb={tb} jobs={jobs} diverged"
                    );
                }
            }
        }
    }

    /// Shapes straddling every blocking boundary: microkernel edges
    /// (m % MR, n % NR), block edges (MC, KC, NC crossings), and tiny
    /// products next to large ones.
    const EDGE_SHAPES: [(usize, usize, usize); 6] = [
        (1, 1, 1),
        (3, 5, 7),
        (MR, KC, NR),
        (MC - 1, KC + 3, NR + 1),
        (MC + 5, 2 * KC + 1, NC + 9),
        (130, 300, 70),
    ];

    #[test]
    fn blocked_is_bit_identical_to_reference() {
        for &(m, k, n) in &EDGE_SHAPES {
            let a = random(m * k, 11);
            let bv = random(k * n, 13);
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let (ar, ac) = if ta { (k, m) } else { (m, k) };
                let mut reference = vec![0.0f32; m * n];
                gemm_f32_ref(&a, ar, ac, &bv, n, &mut reference, ta, tb);
                // The packed-rows entry point, bypassing the band split.
                let bp = pack_b(&bv, k, n, tb);
                let mut blocked = vec![0.0f32; m * n];
                gemm_f32_packed_rows(&a, ar, ac, ta, &bp, &mut blocked, 0);
                assert_eq!(
                    bits(&reference),
                    bits(&blocked),
                    "{m}x{k}x{n} ta={ta} tb={tb} diverged"
                );
            }
        }
    }

    /// Every instantiation this host can run: the portable body always,
    /// the AVX2/FMA body when the CPU has both features.
    fn host_kernels() -> Vec<GemmKernel> {
        let mut kernels = vec![GemmKernel::Portable];
        if GemmKernel::detected() == GemmKernel::Avx2Fma {
            kernels.push(GemmKernel::Avx2Fma);
        }
        kernels
    }

    #[test]
    fn every_kernel_instantiation_is_bit_identical_to_reference() {
        // The dispatching entry points run only the detected body, so the
        // portable fallback is exercised here even on AVX2/FMA hosts. The
        // last shape crosses KC three times with fewer than NR columns.
        let kernels = host_kernels();
        for &(m, k, n) in EDGE_SHAPES.iter().chain(&[(2 * MR + 1, 3 * KC + 7, 3)]) {
            let a = random(m * k, 17);
            let bv = random(k * n, 19);
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let (ar, ac) = if ta { (k, m) } else { (m, k) };
                let mut reference = vec![0.0f32; m * n];
                gemm_f32_ref(&a, ar, ac, &bv, n, &mut reference, ta, tb);
                let bp = pack_b(&bv, k, n, tb);
                for &kernel in &kernels {
                    let mut out = vec![f32::NAN; m * n];
                    SCRATCH.with(|scratch| {
                        let job = Job::Rows {
                            a: &a,
                            ac,
                            ta,
                            bp: &bp,
                            out: &mut out,
                            row0: 0,
                            scratch: &mut scratch.borrow_mut(),
                        };
                        dispatch(kernel, job);
                    });
                    assert_eq!(
                        bits(&reference),
                        bits(&out),
                        "{} {m}x{k}x{n} ta={ta} tb={tb} diverged",
                        kernel.name()
                    );
                }
            }
        }
        // The roofline probe's sweep is the same tile: same sum, bit for
        // bit, under either body.
        let ap: Vec<f64> = random(KC * MR, 23).into_iter().map(f64::from).collect();
        let bp = pack_b(&random(KC * NR, 29), KC, NR, false);
        let sums: Vec<u64> = kernels
            .iter()
            .map(|&kernel| {
                let job = Job::Sweep {
                    ap: &ap,
                    bp: bp.panel(0),
                    rounds: 3,
                };
                dispatch(kernel, job).to_bits()
            })
            .collect();
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "sweep sums {sums:x?}"
        );
    }

    #[test]
    fn gemm_matches_hand_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let pool = ParPool::serial();
        let mut out = [0.0f32; 4];
        gemm_f32_par(&pool, &a, 2, 2, &b, 2, &mut out, false, false);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
        // Aᵀ * B with A stored as 2×2: same matrix transposed.
        let mut out_t = [0.0f32; 4];
        gemm_f32_par(&pool, &a, 2, 2, &b, 2, &mut out_t, true, false);
        assert_eq!(out_t, [26.0, 30.0, 38.0, 44.0]);
    }

    #[test]
    #[should_panic(expected = "gemm_f32_par: out length")]
    fn gemm_rejects_mis_shaped_output() {
        let a = [1.0f32; 6];
        let b = [1.0f32; 6];
        let mut out = [0.0f32; 5]; // should be 2x3 = 6
        gemm_f32_par(&ParPool::serial(), &a, 2, 3, &b, 3, &mut out, false, false);
    }

    #[test]
    #[should_panic(expected = "gemm_f32_par: out length")]
    fn gemm_par_rejects_mis_shaped_output() {
        let a = [1.0f32; 6];
        let b = [1.0f32; 6];
        let mut out = [0.0f32; 7]; // should be 2x3 = 6
        let pool = ParPool::new(2);
        gemm_f32_par(&pool, &a, 2, 3, &b, 3, &mut out, false, false);
    }

    #[test]
    #[should_panic(expected = "gemm_f32_ref: out length")]
    fn gemm_ref_rejects_mis_shaped_output() {
        let a = [1.0f32; 4];
        let b = [1.0f32; 4];
        let mut out = [0.0f32; 3]; // should be 2x2 = 4
        gemm_f32_ref(&a, 2, 2, &b, 2, &mut out, false, false);
    }
}
