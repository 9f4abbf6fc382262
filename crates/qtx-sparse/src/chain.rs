//! Block-by-block access to a block tri-diagonal matrix, for solvers that
//! stream through the chain instead of holding an assembled copy.
//!
//! An elimination sweep touches each diagonal block once and each coupling
//! block only on its structurally non-zero rows and columns (tight-binding
//! couplings reach a fraction of a slab's orbitals). The [`BlockChain`]
//! trait is that access pattern: [`Btd`] implements it for an assembled
//! matrix, [`EsMinusH`] for the pencil `z·S − H` evaluated on the fly, so a
//! point never materializes `A`, and [`Mirrored`] / [`Reversed`] show the
//! leading blocks of either as their block-reversed adjoint / in reverse
//! block order, so a sweep written to run towards the first block also runs
//! away from it — on `Aᴴ` or on `A` itself.
//!
//! A tight-binding device's `S` and `H` are mostly exact zeros held in
//! dense blocks (7 % of a 1.5 nm wire's diagonal block is non-zero). The
//! [`PencilStore`] copies the non-zeros once per device, so a point reads
//! the pencil from a few megabytes instead of the dense blocks: an
//! [`EsMinusH`] built on one evaluates the same entries, in the same
//! operation order, from the compact copy.

use crate::btd::Btd;
use qtx_linalg::{Complex64, ZMat};

/// Structurally non-zero rows and columns of one block: an entry outside
/// `rows × cols` is exactly `0.0`. Sorted ascending. A dense block simply
/// has full support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSupport {
    /// Rows holding at least one non-zero entry.
    pub rows: Vec<usize>,
    /// Columns holding at least one non-zero entry.
    pub cols: Vec<usize>,
}

impl BlockSupport {
    /// Union of the supports of equally shaped `blocks` — the support of
    /// any linear combination of them.
    pub fn of(blocks: &[&ZMat]) -> BlockSupport {
        let (n_rows, n_cols) = blocks.first().map_or((0, 0), |b| (b.rows(), b.cols()));
        let mut row_hit = vec![false; n_rows];
        let mut col_hit = vec![false; n_cols];
        for b in blocks {
            assert_eq!((b.rows(), b.cols()), (n_rows, n_cols), "support of unequal blocks");
            let nonzero = |z: &Complex64| z.re != 0.0 || z.im != 0.0;
            for (j, hit) in col_hit.iter_mut().enumerate() {
                // Most columns of a sparse coupling are empty: one cheap
                // scan settles them.
                let col = b.col(j);
                if !col.iter().any(nonzero) {
                    continue;
                }
                *hit = true;
                for (row, z) in row_hit.iter_mut().zip(col) {
                    *row |= nonzero(z);
                }
            }
        }
        let indices = |hits: Vec<bool>| -> Vec<usize> {
            hits.iter().enumerate().filter_map(|(i, &h)| h.then_some(i)).collect()
        };
        BlockSupport { rows: indices(row_hit), cols: indices(col_hit) }
    }
}

/// Supports of the two coupling blocks between slabs `i` and `i + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingSupport {
    /// Support of the super-diagonal block `A_{i,i+1}`.
    pub upper: BlockSupport,
    /// Support of the sub-diagonal block `A_{i+1,i}`.
    pub lower: BlockSupport,
}

impl CouplingSupport {
    /// `(|R_u|, |C_u|, |R_l|, |C_l|)`: the row and column counts of the
    /// upper and the lower support — what the operation-count formulas of
    /// the streaming solvers take.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        let (up, lo) = (&self.upper, &self.lower);
        (up.rows.len(), up.cols.len(), lo.rows.len(), lo.cols.len())
    }
}

/// Everything structural a streaming solver of the open system reads: the
/// coupling supports of the chain and, per contact, the rows of the first
/// (last) diagonal block its self-energy and injection can occupy — the
/// row support of the lead coupling, since `Σ = T·X` and
/// `Inj = −T·λu − Σ·u` cannot leave it. Independent of the energy: compute
/// once per device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSupport {
    /// Supports of the `n_b − 1` coupling pairs
    /// ([`BlockChain::coupling_support`]).
    pub coupling: Vec<CouplingSupport>,
    /// Rows of the first block the left contact touches, sorted ascending.
    pub contact_l: Vec<usize>,
    /// Rows of the last block the right contact touches, sorted ascending.
    pub contact_r: Vec<usize>,
}

impl ChainSupport {
    /// Number of blocks of the chain this describes.
    pub fn num_blocks(&self) -> usize {
        self.coupling.len() + 1
    }

    /// [`CouplingSupport::dims`] of every pair, in chain order.
    pub fn dims(&self) -> Vec<(usize, usize, usize, usize)> {
        self.coupling.iter().map(CouplingSupport::dims).collect()
    }
}

/// A square block tri-diagonal matrix read one block at a time.
pub trait BlockChain {
    /// Number of diagonal blocks.
    fn num_blocks(&self) -> usize;

    /// Size of each (square) block.
    fn block_size(&self) -> usize;

    /// Overwrites every entry of `out` (`s × s`) with the diagonal block
    /// `A_{i,i}`.
    fn diag_into(&self, i: usize, out: &mut ZMat);

    /// Entry `(r, c)` of the diagonal block `A_{i,i}`.
    fn diag_at(&self, i: usize, r: usize, c: usize) -> Complex64;

    /// Entry `(r, c)` of the super-diagonal block `A_{i,i+1}`.
    fn upper_at(&self, i: usize, r: usize, c: usize) -> Complex64;

    /// Entry `(r, c)` of the sub-diagonal block `A_{i+1,i}`.
    fn lower_at(&self, i: usize, r: usize, c: usize) -> Complex64;

    /// `out ← A_{i,i+1}[on.rows, on.cols]`: the super-diagonal block
    /// gathered on a support, `out` being `|rows| × |cols|`.
    fn upper_on(&self, i: usize, on: &BlockSupport, out: &mut ZMat) {
        gather(on, out, |r, c| self.upper_at(i, r, c));
    }

    /// `out ← A_{i+1,i}[on.rows, on.cols]`, as [`BlockChain::upper_on`].
    fn lower_on(&self, i: usize, on: &BlockSupport, out: &mut ZMat) {
        gather(on, out, |r, c| self.lower_at(i, r, c));
    }

    /// `out ← A_{i,i+1}[on.cols, on.rows]ᴴ`: the adjoint of the
    /// super-diagonal block gathered on a support of the adjoint, `out`
    /// being `|on.rows| × |on.cols|` — what [`Mirrored`] reads.
    fn upper_adjoint_on(&self, i: usize, on: &BlockSupport, out: &mut ZMat) {
        gather(on, out, |r, c| self.upper_at(i, c, r).conj());
    }

    /// `out ← A_{i+1,i}[on.cols, on.rows]ᴴ`, as
    /// [`BlockChain::upper_adjoint_on`].
    fn lower_adjoint_on(&self, i: usize, on: &BlockSupport, out: &mut ZMat) {
        gather(on, out, |r, c| self.lower_at(i, c, r).conj());
    }

    /// Supports of the `num_blocks() − 1` coupling pairs. For a pencil
    /// these are unions over `S` and `H`, hence independent of the
    /// energy: compute once per device and reuse for every point.
    fn coupling_support(&self) -> Vec<CouplingSupport>;
}

/// `out[(p, q)] ← at(on.rows[p], on.cols[q])`: the entry-by-entry gather
/// every chain can fall back to.
fn gather(on: &BlockSupport, out: &mut ZMat, at: impl Fn(usize, usize) -> Complex64) {
    assert_eq!((out.rows(), out.cols()), (on.rows.len(), on.cols.len()), "gather shape");
    for (q, &c) in on.cols.iter().enumerate() {
        for (dst, &r) in out.col_mut(q).iter_mut().zip(&on.rows) {
            *dst = at(r, c);
        }
    }
}

impl BlockChain for Btd {
    fn num_blocks(&self) -> usize {
        Btd::num_blocks(self)
    }

    fn block_size(&self) -> usize {
        Btd::block_size(self)
    }

    fn diag_into(&self, i: usize, out: &mut ZMat) {
        out.as_mut_slice().copy_from_slice(self.diag[i].as_slice());
    }

    fn diag_at(&self, i: usize, r: usize, c: usize) -> Complex64 {
        self.diag[i][(r, c)]
    }

    fn upper_at(&self, i: usize, r: usize, c: usize) -> Complex64 {
        self.upper[i][(r, c)]
    }

    fn lower_at(&self, i: usize, r: usize, c: usize) -> Complex64 {
        self.lower[i][(r, c)]
    }

    fn coupling_support(&self) -> Vec<CouplingSupport> {
        (self.upper.iter().zip(&self.lower))
            .map(|(u, l)| CouplingSupport {
                upper: BlockSupport::of(&[u]),
                lower: BlockSupport::of(&[l]),
            })
            .collect()
    }
}

/// One entry of `z·S − H`: a complex multiply, then a subtract — the
/// operation order every assembled and streamed form shares, so they agree
/// bit for bit.
#[inline(always)]
pub(crate) fn es_minus_h_entry(z: Complex64, s: Complex64, h: Complex64) -> Complex64 {
    s * z - h
}

/// Whether the [`PencilStore`] copies a block of `entries` entries of
/// which its copy would hold `held`: only when that is at most half of
/// them. A denser block (a DFT slab's diagonal block is 68 % non-zero)
/// saves little over streaming from `S` and `H` and would add its copy to
/// the device's footprint. A fixed rule read off the block, not a
/// setting.
fn worth_storing(held: usize, entries: usize) -> bool {
    2 * held <= entries
}

/// `S` and `H` on the non-zeros of one diagonal block, column by column.
#[derive(Debug, Clone)]
struct DiagNonZeros {
    /// Entries of column `c` are `start[c]..start[c + 1]`.
    start: Vec<usize>,
    /// Row of each entry, ascending within a column.
    rows: Vec<u32>,
    /// `[S, H]` at each entry.
    sh: Vec<[Complex64; 2]>,
}

impl DiagNonZeros {
    /// The entries of an `s × s` block where `S` or `H` is not `0.0`, or
    /// `None` when they are more than [`worth_storing`] allows.
    fn of(s: &ZMat, h: &ZMat) -> Option<DiagNonZeros> {
        let nonzero = |z: &Complex64| z.re != 0.0 || z.im != 0.0;
        let (n, pairs) = (s.rows(), s.as_slice().iter().zip(h.as_slice()));
        let held = pairs.filter(|&(s, h)| nonzero(s) || nonzero(h)).count();
        if !worth_storing(held, n * n) {
            return None;
        }
        let mut nz = DiagNonZeros {
            start: Vec::with_capacity(n + 1),
            rows: Vec::with_capacity(held),
            sh: Vec::with_capacity(held),
        };
        nz.start.push(0);
        for c in 0..n {
            for (r, (s, h)) in s.col(c).iter().zip(h.col(c)).enumerate() {
                if nonzero(s) || nonzero(h) {
                    nz.rows.push(r as u32);
                    nz.sh.push([*s, *h]);
                }
            }
            nz.start.push(nz.rows.len());
        }
        Some(nz)
    }

    fn bytes(&self) -> usize {
        size_of_val(&self.start[..]) + size_of_val(&self.rows[..]) + size_of_val(&self.sh[..])
    }
}

/// `S` and `H` on the support rectangle of one coupling block, column-major
/// in support order.
#[derive(Debug, Clone)]
struct Rect {
    on: BlockSupport,
    sh: Vec<[Complex64; 2]>,
}

impl Rect {
    /// The rectangle `on` of a coupling block, or `None` when it holds
    /// more than [`worth_storing`] allows of the block.
    fn of(s: &ZMat, h: &ZMat, on: &BlockSupport) -> Option<Rect> {
        if !worth_storing(on.rows.len() * on.cols.len(), s.rows() * s.cols()) {
            return None;
        }
        let sh = (on.cols.iter())
            .flat_map(|&c| on.rows.iter().map(move |&r| [s[(r, c)], h[(r, c)]]))
            .collect();
        Some(Rect { on: on.clone(), sh })
    }

    fn bytes(&self) -> usize {
        size_of_val(&self.on.rows[..]) + size_of_val(&self.on.cols[..]) + size_of_val(&self.sh[..])
    }
}

/// The non-zeros of a device's overlap `S` and Hamiltonian `H`, copied
/// once so that every point streams its pencil `z·S − H` from them
/// instead of from the dense blocks:
///
/// * per diagonal block, the column pattern of the entries where `S` or
///   `H` is not `0.0`, with both values on it;
/// * per coupling block, both values on its support rectangle, in support
///   order.
///
/// A block is held only when the copy holds at most half its entries —
/// and a coupling block only between two held diagonal blocks; any other
/// block is streamed from `S` and `H` as if there were no store. The store
/// does not depend on the energy: build it once per device, from the same
/// `S`, `H` and coupling supports the [`EsMinusH`] reading it is built on.
#[derive(Debug, Clone)]
pub struct PencilStore {
    diag: Vec<Option<DiagNonZeros>>,
    upper: Vec<Option<Rect>>,
    lower: Vec<Option<Rect>>,
}

impl PencilStore {
    /// Copies the non-zeros of `s` and `h` on the diagonal blocks and on
    /// `coupling`, the supports of the pencil's coupling pairs
    /// ([`BlockChain::coupling_support`] of `EsMinusH` over `s` and `h`).
    pub fn build(s: &Btd, h: &Btd, coupling: &[CouplingSupport]) -> PencilStore {
        assert_eq!(coupling.len(), h.upper.len(), "one support per coupling pair");
        let diag: Vec<_> =
            s.diag.iter().zip(&h.diag).map(|(s, h)| DiagNonZeros::of(s, h)).collect();
        // A gather reads only its rectangle from the dense block too, so a
        // coupling's copy saves no bytes, only their spread: it is kept
        // only between two diagonal blocks the store holds.
        let beside_held = |i: usize| diag[i].is_some() && diag[i + 1].is_some();
        let rects = |s: &[ZMat], h: &[ZMat], on: fn(&CouplingSupport) -> &BlockSupport| {
            (s.iter().zip(h).zip(coupling).enumerate())
                .map(|(i, ((s, h), p))| beside_held(i).then(|| Rect::of(s, h, on(p))).flatten())
                .collect()
        };
        let (upper, lower) =
            (rects(&s.upper, &h.upper, |p| &p.upper), rects(&s.lower, &h.lower, |p| &p.lower));
        PencilStore { diag, upper, lower }
    }

    /// Bytes the store holds: values, rows, column starts and supports.
    pub fn bytes(&self) -> usize {
        let rects = self.upper.iter().chain(&self.lower).flatten().map(Rect::bytes);
        self.diag.iter().flatten().map(DiagNonZeros::bytes).sum::<usize>() + rects.sum::<usize>()
    }

    /// Number of diagonal blocks held (the rest stream from `S` and `H`).
    pub fn diag_blocks_held(&self) -> usize {
        self.diag.iter().flatten().count()
    }

    /// Number of coupling blocks held, upper and lower counted apart.
    pub fn coupling_blocks_held(&self) -> usize {
        self.upper.iter().chain(&self.lower).flatten().count()
    }
}

/// The pencil `A = z·S − H` of Eq. 5 as a [`BlockChain`]: blocks are
/// evaluated on demand from the device's overlap and Hamiltonian, so a
/// streaming solver's working set never includes `A`.
/// [`Btd::es_minus_h`] is the assembled counterpart.
///
/// With a [`PencilStore`] the diagonal blocks it holds are streamed from
/// their non-zeros (`diag_into` writes the zero entry `z·0 − 0` everywhere,
/// then the stored entries) and the coupling gathers on the store's
/// supports read its rectangles; everything else, the `*_at` readers
/// included, reads `S` and `H`. Every entry is the same
/// `s·z − h` of the same values either way, so a store changes no
/// non-zero bit; a zero may differ in its sign.
#[derive(Debug, Clone, Copy)]
pub struct EsMinusH<'a> {
    /// Complex energy `z = E + iη`.
    pub z: Complex64,
    /// Overlap matrix `S`.
    pub s: &'a Btd,
    /// Hamiltonian `H`.
    pub h: &'a Btd,
    /// Non-zeros of `s` and `h` ([`PencilStore::build`] on these very
    /// matrices), or `None` to stream every block from `s` and `h`.
    pub store: Option<&'a PencilStore>,
}

/// The stored non-zeros of one diagonal block of an [`EsMinusH`].
#[derive(Debug, Clone, Copy)]
pub struct DiagPattern<'a> {
    z: Complex64,
    nz: &'a DiagNonZeros,
}

impl<'a> DiagPattern<'a> {
    /// `(row, A[row, c])` for the stored entries of column `c`, rows
    /// ascending; every other entry of the column is `z·0 − 0`.
    pub fn column(&self, c: usize) -> impl Iterator<Item = (usize, Complex64)> + 'a {
        let (z, nz) = (self.z, self.nz);
        let span = nz.start[c]..nz.start[c + 1];
        (nz.rows[span.clone()].iter().zip(&nz.sh[span]))
            .map(move |(&r, &[s, h])| (r as usize, es_minus_h_entry(z, s, h)))
    }
}

impl<'a> EsMinusH<'a> {
    /// The pencil at `z` streamed from the dense `s` and `h`.
    pub fn dense(z: Complex64, s: &'a Btd, h: &'a Btd) -> Self {
        EsMinusH { z, s, h, store: None }
    }

    /// The stored non-zeros of the diagonal block `A_{i,i}`, `None` when
    /// the pencil streams it from `S` and `H`.
    pub fn diag_pattern(&self, i: usize) -> Option<DiagPattern<'a>> {
        let nz = self.store?.diag[i].as_ref()?;
        Some(DiagPattern { z: self.z, nz })
    }

    /// `[S, H]` on the rectangle `rows × cols` of a coupling block the
    /// store holds on exactly that support.
    fn rect(
        &self,
        rects: impl Fn(&'a PencilStore) -> &'a [Option<Rect>],
        i: usize,
        rows: &[usize],
        cols: &[usize],
    ) -> Option<&'a [[Complex64; 2]]> {
        let rect = rects(self.store?)[i].as_ref()?;
        (rect.on.rows == rows && rect.on.cols == cols).then_some(&rect.sh[..])
    }

    /// `out ← block[on.rows, on.cols]` from a stored rectangle.
    fn rect_on(&self, sh: &[[Complex64; 2]], out: &mut ZMat) {
        assert_eq!(out.as_slice().len(), sh.len(), "gather shape");
        for (o, &[s, h]) in out.as_mut_slice().iter_mut().zip(sh) {
            *o = es_minus_h_entry(self.z, s, h);
        }
    }

    /// `out ← block[on.cols, on.rows]ᴴ` from a stored rectangle on
    /// `on.cols × on.rows`.
    fn rect_adjoint_on(&self, sh: &[[Complex64; 2]], out: &mut ZMat) {
        assert_eq!(out.as_slice().len(), sh.len(), "gather shape");
        let n = out.cols();
        for b in 0..n {
            for (a, o) in out.col_mut(b).iter_mut().enumerate() {
                let [s, h] = sh[a * n + b];
                *o = es_minus_h_entry(self.z, s, h).conj();
            }
        }
    }
}

impl BlockChain for EsMinusH<'_> {
    fn num_blocks(&self) -> usize {
        self.h.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.h.block_size()
    }

    fn diag_into(&self, i: usize, out: &mut ZMat) {
        let (s, h) = (self.s.diag[i].as_slice(), self.h.diag[i].as_slice());
        assert_eq!(out.as_slice().len(), h.len(), "diag_into output shape");
        let Some(pattern) = self.diag_pattern(i) else {
            for ((o, &s), &h) in out.as_mut_slice().iter_mut().zip(s).zip(h) {
                *o = es_minus_h_entry(self.z, s, h);
            }
            return;
        };
        out.as_mut_slice().fill(es_minus_h_entry(self.z, Complex64::ZERO, Complex64::ZERO));
        for c in 0..out.cols() {
            let col = out.col_mut(c);
            for (r, a) in pattern.column(c) {
                col[r] = a;
            }
        }
    }

    fn diag_at(&self, i: usize, r: usize, c: usize) -> Complex64 {
        es_minus_h_entry(self.z, self.s.diag[i][(r, c)], self.h.diag[i][(r, c)])
    }

    fn upper_at(&self, i: usize, r: usize, c: usize) -> Complex64 {
        es_minus_h_entry(self.z, self.s.upper[i][(r, c)], self.h.upper[i][(r, c)])
    }

    fn lower_at(&self, i: usize, r: usize, c: usize) -> Complex64 {
        es_minus_h_entry(self.z, self.s.lower[i][(r, c)], self.h.lower[i][(r, c)])
    }

    fn upper_on(&self, i: usize, on: &BlockSupport, out: &mut ZMat) {
        match self.rect(|st| &st.upper, i, &on.rows, &on.cols) {
            Some(sh) => self.rect_on(sh, out),
            None => gather(on, out, |r, c| self.upper_at(i, r, c)),
        }
    }

    fn lower_on(&self, i: usize, on: &BlockSupport, out: &mut ZMat) {
        match self.rect(|st| &st.lower, i, &on.rows, &on.cols) {
            Some(sh) => self.rect_on(sh, out),
            None => gather(on, out, |r, c| self.lower_at(i, r, c)),
        }
    }

    fn upper_adjoint_on(&self, i: usize, on: &BlockSupport, out: &mut ZMat) {
        match self.rect(|st| &st.upper, i, &on.cols, &on.rows) {
            Some(sh) => self.rect_adjoint_on(sh, out),
            None => gather(on, out, |r, c| self.upper_at(i, c, r).conj()),
        }
    }

    fn lower_adjoint_on(&self, i: usize, on: &BlockSupport, out: &mut ZMat) {
        match self.rect(|st| &st.lower, i, &on.cols, &on.rows) {
            Some(sh) => self.rect_adjoint_on(sh, out),
            None => gather(on, out, |r, c| self.lower_at(i, c, r).conj()),
        }
    }

    fn coupling_support(&self) -> Vec<CouplingSupport> {
        (0..self.num_blocks().saturating_sub(1))
            .map(|i| CouplingSupport {
                upper: BlockSupport::of(&[&self.s.upper[i], &self.h.upper[i]]),
                lower: BlockSupport::of(&[&self.s.lower[i], &self.h.lower[i]]),
            })
            .collect()
    }
}

/// The block-reversed adjoint of the leading `len` blocks of a chain:
/// block `j` of the view is `A_{len−1−j, len−1−j}ᴴ` and its couplings are
/// the adjoints of the original ones, so the view of `A[0..len]` is
/// `rev(A[0..len]ᴴ)`. An elimination written to run from the last block of
/// a chain to its first runs from the *first* block of `A` towards block
/// `len − 1` on this view — the second front of a two-ended sweep is the
/// first front's code. Entries are conjugated as they are read; nothing is
/// stored.
#[derive(Debug, Clone, Copy)]
pub struct Mirrored<'a, C> {
    chain: &'a C,
    len: usize,
}

impl<'a, C: BlockChain> Mirrored<'a, C> {
    /// The mirrored view of blocks `0..len` of `chain`.
    pub fn new(chain: &'a C, len: usize) -> Self {
        assert!((1..=chain.num_blocks()).contains(&len), "mirror of {len} blocks");
        Mirrored { chain, len }
    }

    /// The view's coupling supports from those of the pairs it spans
    /// (`support[..len − 1]` of the original chain): pairs in reverse
    /// order, rows and columns of each block exchanged.
    pub fn support_of(support: &[CouplingSupport]) -> Vec<CouplingSupport> {
        let flip = |b: &BlockSupport| BlockSupport { rows: b.cols.clone(), cols: b.rows.clone() };
        let flip_pair =
            |p: &CouplingSupport| CouplingSupport { upper: flip(&p.upper), lower: flip(&p.lower) };
        support.iter().rev().map(flip_pair).collect()
    }

    /// The original coupling pair behind pair `j` of the view.
    fn pair(&self, j: usize) -> usize {
        self.len - 2 - j
    }
}

impl<C: BlockChain> BlockChain for Mirrored<'_, C> {
    fn num_blocks(&self) -> usize {
        self.len
    }

    fn block_size(&self) -> usize {
        self.chain.block_size()
    }

    fn diag_into(&self, j: usize, out: &mut ZMat) {
        self.chain.diag_into(self.len - 1 - j, out);
        for c in 0..out.cols() {
            out[(c, c)] = out[(c, c)].conj();
            for r in c + 1..out.rows() {
                let (below, above) = (out[(r, c)], out[(c, r)]);
                out[(r, c)] = above.conj();
                out[(c, r)] = below.conj();
            }
        }
    }

    fn diag_at(&self, j: usize, r: usize, c: usize) -> Complex64 {
        self.chain.diag_at(self.len - 1 - j, c, r).conj()
    }

    fn upper_at(&self, j: usize, r: usize, c: usize) -> Complex64 {
        self.chain.upper_at(self.pair(j), c, r).conj()
    }

    fn lower_at(&self, j: usize, r: usize, c: usize) -> Complex64 {
        self.chain.lower_at(self.pair(j), c, r).conj()
    }

    fn upper_on(&self, j: usize, on: &BlockSupport, out: &mut ZMat) {
        self.chain.upper_adjoint_on(self.pair(j), on, out);
    }

    fn lower_on(&self, j: usize, on: &BlockSupport, out: &mut ZMat) {
        self.chain.lower_adjoint_on(self.pair(j), on, out);
    }

    fn upper_adjoint_on(&self, j: usize, on: &BlockSupport, out: &mut ZMat) {
        self.chain.upper_on(self.pair(j), on, out);
    }

    fn lower_adjoint_on(&self, j: usize, on: &BlockSupport, out: &mut ZMat) {
        self.chain.lower_on(self.pair(j), on, out);
    }

    fn coupling_support(&self) -> Vec<CouplingSupport> {
        Self::support_of(&self.chain.coupling_support()[..self.len - 1])
    }
}

/// The leading `len` blocks of a chain in reverse block order: block `j`
/// of the view is `A_{len−1−j, len−1−j}`, and a coupling pair's upper and
/// lower blocks trade places, so the view of `A[0..len]` is the same matrix
/// with its block rows and columns renumbered. Unlike [`Mirrored`] nothing
/// is conjugated or transposed: an elimination written to run from the
/// last block of a chain to its first solves `A` itself from the first
/// block of `A` towards block `len − 1` on this view.
#[derive(Debug, Clone, Copy)]
pub struct Reversed<'a, C> {
    chain: &'a C,
    len: usize,
}

impl<'a, C: BlockChain> Reversed<'a, C> {
    /// The reversed view of blocks `0..len` of `chain`.
    pub fn new(chain: &'a C, len: usize) -> Self {
        assert!((1..=chain.num_blocks()).contains(&len), "reversal of {len} blocks");
        Reversed { chain, len }
    }

    /// The view's coupling supports from those of the pairs it spans
    /// (`support[..len − 1]` of the original chain): pairs in reverse
    /// order, the upper and the lower support of each exchanged.
    pub fn support_of(support: &[CouplingSupport]) -> Vec<CouplingSupport> {
        let swap = |p: &CouplingSupport| CouplingSupport {
            upper: p.lower.clone(),
            lower: p.upper.clone(),
        };
        support.iter().rev().map(swap).collect()
    }

    /// The original coupling pair behind pair `j` of the view.
    fn pair(&self, j: usize) -> usize {
        self.len - 2 - j
    }
}

impl<C: BlockChain> BlockChain for Reversed<'_, C> {
    fn num_blocks(&self) -> usize {
        self.len
    }

    fn block_size(&self) -> usize {
        self.chain.block_size()
    }

    fn diag_into(&self, j: usize, out: &mut ZMat) {
        self.chain.diag_into(self.len - 1 - j, out);
    }

    fn diag_at(&self, j: usize, r: usize, c: usize) -> Complex64 {
        self.chain.diag_at(self.len - 1 - j, r, c)
    }

    fn upper_at(&self, j: usize, r: usize, c: usize) -> Complex64 {
        self.chain.lower_at(self.pair(j), r, c)
    }

    fn lower_at(&self, j: usize, r: usize, c: usize) -> Complex64 {
        self.chain.upper_at(self.pair(j), r, c)
    }

    fn upper_on(&self, j: usize, on: &BlockSupport, out: &mut ZMat) {
        self.chain.lower_on(self.pair(j), on, out);
    }

    fn lower_on(&self, j: usize, on: &BlockSupport, out: &mut ZMat) {
        self.chain.upper_on(self.pair(j), on, out);
    }

    fn upper_adjoint_on(&self, j: usize, on: &BlockSupport, out: &mut ZMat) {
        self.chain.lower_adjoint_on(self.pair(j), on, out);
    }

    fn lower_adjoint_on(&self, j: usize, on: &BlockSupport, out: &mut ZMat) {
        self.chain.upper_adjoint_on(self.pair(j), on, out);
    }

    fn coupling_support(&self) -> Vec<CouplingSupport> {
        Self::support_of(&self.chain.coupling_support()[..self.len - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::c64;

    fn sparse_block(s: usize, rows: &[usize], cols: &[usize], seed: u64) -> ZMat {
        let dense = ZMat::random(s, s, seed);
        let mut out = ZMat::zeros(s, s);
        for &r in rows {
            for &c in cols {
                out[(r, c)] = dense[(r, c)];
            }
        }
        out
    }

    #[test]
    fn support_is_the_union_of_nonzero_rows_and_cols() {
        let a = sparse_block(6, &[1, 4], &[0, 2], 3);
        let b = sparse_block(6, &[4, 5], &[2], 5);
        assert_eq!(BlockSupport::of(&[&a]), BlockSupport { rows: vec![1, 4], cols: vec![0, 2] });
        assert_eq!(
            BlockSupport::of(&[&a, &b]),
            BlockSupport { rows: vec![1, 4, 5], cols: vec![0, 2] }
        );
        let zero = ZMat::zeros(6, 6);
        assert_eq!(BlockSupport::of(&[&zero]), BlockSupport { rows: vec![], cols: vec![] });
        let full = BlockSupport::of(&[&ZMat::random(3, 3, 9)]);
        assert_eq!(full.rows, vec![0, 1, 2]);
        assert_eq!(full.cols, vec![0, 1, 2]);
    }

    #[test]
    fn pencil_streams_the_assembled_blocks_bit_for_bit() {
        let (nb, s) = (4, 5);
        let mut h = Btd::zeros(nb, s);
        let mut ov = Btd::zeros(nb, s);
        for i in 0..nb {
            h.diag[i] = ZMat::random(s, s, 10 + i as u64);
            ov.diag[i] = ZMat::random(s, s, 20 + i as u64);
        }
        for i in 0..nb - 1 {
            h.upper[i] = sparse_block(s, &[0, 3], &[1, 2, 4], 30 + i as u64);
            ov.upper[i] = sparse_block(s, &[3], &[0], 40 + i as u64);
            h.lower[i] = h.upper[i].adjoint();
            ov.lower[i] = ov.upper[i].adjoint();
        }
        let z = c64(0.37, 1e-6);
        let a = Btd::es_minus_h(z, &ov, &h);
        let pencil = EsMinusH::dense(z, &ov, &h);
        assert_eq!(BlockChain::num_blocks(&pencil), nb);
        assert_eq!(BlockChain::block_size(&pencil), s);
        let mut d = ZMat::random(s, s, 99);
        for i in 0..nb {
            pencil.diag_into(i, &mut d);
            assert_eq!(d, a.diag[i], "diag {i}");
            assert_eq!(pencil.diag_at(i, 1, 2), a.diag[i][(1, 2)]);
        }
        let support = pencil.coupling_support();
        assert_eq!(support.len(), nb - 1);
        for (i, sup) in support.iter().enumerate() {
            assert_eq!(sup.upper.rows, vec![0, 3]);
            assert_eq!(sup.upper.cols, vec![0, 1, 2, 4]);
            assert_eq!(sup.lower.rows, sup.upper.cols);
            assert_eq!(sup.lower.cols, sup.upper.rows);
            for r in 0..s {
                for c in 0..s {
                    assert_eq!(pencil.upper_at(i, r, c), a.upper[i][(r, c)]);
                    assert_eq!(pencil.lower_at(i, r, c), a.lower[i][(r, c)]);
                    // The assembled support is contained in the pencil's.
                    if a.upper[i][(r, c)] != Complex64::ZERO {
                        assert!(sup.upper.rows.contains(&r) && sup.upper.cols.contains(&c));
                    }
                }
            }
        }
        assert_eq!(a.coupling_support()[0].upper, support[0].upper);
    }

    #[test]
    fn mirrored_view_is_the_block_reversed_adjoint() {
        let (nb, s) = (5, 4);
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            a.diag[i] = ZMat::random(s, s, 50 + i as u64);
        }
        for i in 0..nb - 1 {
            a.upper[i] = sparse_block(s, &[0, 2], &[1, 3], 60 + i as u64);
            a.lower[i] = sparse_block(s, &[1], &[0, 2, 3], 70 + i as u64);
        }
        let support = a.coupling_support();
        for len in 1..=nb {
            // The reference: reverse the leading blocks and take adjoints.
            let mut rev = Btd::zeros(len, s);
            for j in 0..len {
                rev.diag[j] = a.diag[len - 1 - j].adjoint();
            }
            for j in 0..len - 1 {
                rev.upper[j] = a.upper[len - 2 - j].adjoint();
                rev.lower[j] = a.lower[len - 2 - j].adjoint();
            }
            let view = Mirrored::new(&a, len);
            assert_eq!((BlockChain::num_blocks(&view), BlockChain::block_size(&view)), (len, s));
            let mut d = ZMat::random(s, s, 99);
            for j in 0..len {
                view.diag_into(j, &mut d);
                assert_eq!(d, rev.diag[j], "diag {j} of {len}");
                assert_eq!(view.diag_at(j, 1, 2), rev.diag[j][(1, 2)]);
            }
            assert_eq!(view.coupling_support(), rev.coupling_support());
            assert_eq!(Mirrored::<Btd>::support_of(&support[..len - 1]), rev.coupling_support());
            for (j, on) in rev.coupling_support().iter().enumerate() {
                let mut got = ZMat::zeros(on.upper.rows.len(), on.upper.cols.len());
                let mut want = got.clone();
                view.upper_on(j, &on.upper, &mut got);
                rev.upper_on(j, &on.upper, &mut want);
                assert_eq!(got, want);
                for r in 0..s {
                    for c in 0..s {
                        assert_eq!(view.upper_at(j, r, c), rev.upper[j][(r, c)]);
                        assert_eq!(view.lower_at(j, r, c), rev.lower[j][(r, c)]);
                    }
                }
            }
        }
    }

    #[test]
    fn reversed_view_renumbers_the_blocks_and_conjugates_nothing() {
        let (nb, s) = (5, 4);
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            a.diag[i] = ZMat::random(s, s, 150 + i as u64);
        }
        for i in 0..nb - 1 {
            a.upper[i] = sparse_block(s, &[0, 2], &[1, 3], 160 + i as u64);
            a.lower[i] = sparse_block(s, &[1], &[0, 2, 3], 170 + i as u64);
        }
        let support = a.coupling_support();
        for len in 1..=nb {
            // The reference: blocks in reverse order, each pair's upper and
            // lower block exchanged, no entry touched.
            let mut rev = Btd::zeros(len, s);
            for j in 0..len {
                rev.diag[j] = a.diag[len - 1 - j].clone();
            }
            for j in 0..len - 1 {
                rev.upper[j] = a.lower[len - 2 - j].clone();
                rev.lower[j] = a.upper[len - 2 - j].clone();
            }
            let view = Reversed::new(&a, len);
            assert_eq!((BlockChain::num_blocks(&view), BlockChain::block_size(&view)), (len, s));
            let mut d = ZMat::random(s, s, 99);
            for j in 0..len {
                view.diag_into(j, &mut d);
                assert_eq!(d, rev.diag[j], "diag {j} of {len}");
                assert_eq!(view.diag_at(j, 1, 2), rev.diag[j][(1, 2)]);
            }
            assert_eq!(view.coupling_support(), rev.coupling_support());
            assert_eq!(Reversed::<Btd>::support_of(&support[..len - 1]), rev.coupling_support());
            for (j, on) in rev.coupling_support().iter().enumerate() {
                for (upper, block) in [(true, &on.upper), (false, &on.lower)] {
                    let mut got = ZMat::zeros(block.rows.len(), block.cols.len());
                    let mut want = got.clone();
                    if upper {
                        view.upper_on(j, block, &mut got);
                        rev.upper_on(j, block, &mut want);
                    } else {
                        view.lower_on(j, block, &mut got);
                        rev.lower_on(j, block, &mut want);
                    }
                    assert_eq!(got, want, "pair {j} of {len}, upper = {upper}");
                }
                for r in 0..s {
                    for c in 0..s {
                        assert_eq!(view.upper_at(j, r, c), rev.upper[j][(r, c)]);
                        assert_eq!(view.lower_at(j, r, c), rev.lower[j][(r, c)]);
                    }
                }
            }
        }
    }
}
