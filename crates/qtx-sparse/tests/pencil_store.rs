//! The store-backed pencil against the dense one and the assembled
//! `Btd::es_minus_h`: every reader, directly and through the `Reversed` and
//! `Mirrored` views, at energies below and above zero and with a
//! broadening, on blocks on both sides of the fill rule, with `-0.0`
//! entries in `S` and `H`, and with empty and full coupling supports.
//!
//! Entries must be equal under `==`, and every non-zero entry equal in
//! bits; a zero may differ only in its sign.

use qtx_linalg::{c64, Complex64, ZMat};
use qtx_sparse::{BlockChain, BlockSupport, Btd, EsMinusH, Mirrored, PencilStore, Reversed};

const NB: usize = 7;
const S: usize = 7;

/// `a` and `b` are the same entry: equal, and equal in bits unless zero.
fn same(a: Complex64, b: Complex64) -> bool {
    a == b
        && (a == Complex64::ZERO
            || (a.re.to_bits(), a.im.to_bits()) == (b.re.to_bits(), b.im.to_bits()))
}

fn assert_same(a: &ZMat, b: &ZMat, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (k, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(same(x, y), "{what}: entry {k}: {x:?} vs {y:?}");
    }
}

/// A block that keeps the entries of `keep` from a random one and holds
/// `-0.0` (in one or both parts) in some of the others.
fn block(seed: u64, keep: impl Fn(usize, usize) -> bool) -> ZMat {
    let dense = ZMat::random(S, S, seed);
    let mut out = ZMat::zeros(S, S);
    for c in 0..S {
        for r in 0..S {
            out[(r, c)] = match (keep(r, c), (r + 2 * c + seed as usize) % 5) {
                (true, _) => dense[(r, c)],
                (false, 0) => c64(-0.0, 0.0),
                (false, 1) => c64(0.0, -0.0),
                (false, 2) => c64(-0.0, -0.0),
                _ => Complex64::ZERO,
            };
        }
    }
    out
}

/// Which entries of a block are kept.
type Mask = fn(usize, usize) -> bool;

/// Diagonal blocks `0..SPARSE` are sparse, the rest dense.
const SPARSE: usize = 5;

/// `S` and `H` of a chain whose leading diagonal blocks are sparse (a band,
/// some entries non-zero in only one of the two) and trailing ones dense,
/// and whose coupling pairs cycle through a sparse, an empty and a full
/// support.
fn device() -> (Btd, Btd) {
    let (mut s, mut h) = (Btd::zeros(NB, S), Btd::zeros(NB, S));
    for i in 0..NB {
        let seed = 10 * i as u64;
        if i < SPARSE {
            s.diag[i] = block(seed, |r, c| r == c);
            h.diag[i] = block(seed + 1, |r, c| r.abs_diff(c) == 1 || (r == c && r % 3 == 0));
        } else {
            s.diag[i] = block(seed, |r, c| (r + c) % 4 != 0);
            h.diag[i] = block(seed + 1, |_, _| true);
        }
    }
    for i in 0..NB - 1 {
        let seed = 100 + 10 * i as u64;
        let (up, lo): (Mask, Mask) = match i % 3 {
            0 => (|r, c| r < 2 && c % 3 == 1, |r, c| r % 3 == 1 && c < 2),
            1 => (|_, _| false, |_, _| false),
            _ => (|_, _| true, |r, c| r < 3 && c < 2),
        };
        s.upper[i] = block(seed, |r, c| up(r, c) && r == 0);
        h.upper[i] = block(seed + 1, up);
        s.lower[i] = block(seed + 2, |r, c| lo(r, c) && c == 0);
        h.lower[i] = block(seed + 3, lo);
    }
    (s, h)
}

/// Every reader of `got` against `want`, on `want`'s coupling supports.
fn assert_chains_same<A: BlockChain, B: BlockChain>(got: &A, want: &B, what: &str) {
    let (nb, s) = (want.num_blocks(), want.block_size());
    assert_eq!((got.num_blocks(), got.block_size()), (nb, s), "{what}: shape");
    let (mut d_got, mut d_want) = (ZMat::random(s, s, 1), ZMat::random(s, s, 2));
    for i in 0..nb {
        got.diag_into(i, &mut d_got);
        want.diag_into(i, &mut d_want);
        assert_same(&d_got, &d_want, &format!("{what}: diag {i}"));
        for (r, c) in [(0, 0), (1, 2), (S - 1, 0), (3, 3)] {
            assert!(same(got.diag_at(i, r, c), want.diag_at(i, r, c)), "{what}: diag_at {i}");
        }
    }
    let support = want.coupling_support();
    assert_eq!(got.coupling_support(), support, "{what}: supports");
    let flip = |b: &BlockSupport| BlockSupport { rows: b.cols.clone(), cols: b.rows.clone() };
    for (i, pair) in support.iter().enumerate() {
        for r in 0..s {
            for c in 0..s {
                assert!(same(got.upper_at(i, r, c), want.upper_at(i, r, c)), "{what}: upper_at");
                assert!(same(got.lower_at(i, r, c), want.lower_at(i, r, c)), "{what}: lower_at");
            }
        }
        let full = BlockSupport { rows: (0..s).collect(), cols: (0..s).collect() };
        for on in [&pair.upper, &pair.lower, &full] {
            let shape = |b: &BlockSupport| ZMat::zeros(b.rows.len(), b.cols.len());
            let (mut a, mut b) = (shape(on), shape(on));
            got.upper_on(i, on, &mut a);
            want.upper_on(i, on, &mut b);
            assert_same(&a, &b, &format!("{what}: upper_on {i}"));
            got.lower_on(i, on, &mut a);
            want.lower_on(i, on, &mut b);
            assert_same(&a, &b, &format!("{what}: lower_on {i}"));
            let adjoint = flip(on);
            let (mut a, mut b) = (shape(&adjoint), shape(&adjoint));
            got.upper_adjoint_on(i, &adjoint, &mut a);
            want.upper_adjoint_on(i, &adjoint, &mut b);
            assert_same(&a, &b, &format!("{what}: upper_adjoint_on {i}"));
            got.lower_adjoint_on(i, &adjoint, &mut a);
            want.lower_adjoint_on(i, &adjoint, &mut b);
            assert_same(&a, &b, &format!("{what}: lower_adjoint_on {i}"));
            // The adjoint gather is the conjugate transpose of the plain one.
            let mut plain = shape(on);
            want.upper_on(i, on, &mut plain);
            want.upper_adjoint_on(i, &adjoint, &mut b);
            assert_same(&b, &plain.adjoint(), &format!("{what}: adjoint of upper_on {i}"));
        }
    }
}

const ENERGIES: [(f64, f64); 3] = [(-0.73, 0.0), (1.21, 0.0), (0.37, 1e-6)];

#[test]
fn the_store_holds_the_sparse_blocks_only() {
    let (s, h) = device();
    let support = EsMinusH::dense(Complex64::ZERO, &s, &h).coupling_support();
    let store = PencilStore::build(&s, &h, &support);
    assert_eq!(store.diag_blocks_held(), SPARSE);
    // Between held diagonal blocks (pairs 0–3): pairs 0 and 3 have sparse
    // supports, 1 an empty one (held, as nothing), 2 a full upper block
    // (not held) and a sparse lower one. Pairs 4 and 5 touch a dense
    // diagonal block and are not held.
    assert_eq!(support[1].dims(), (0, 0, 0, 0));
    assert_eq!(support[2].upper.rows.len() * support[2].upper.cols.len(), S * S);
    assert_eq!(store.coupling_blocks_held(), 2 + 2 + 1 + 2);
    assert!(store.bytes() > 0);
}

#[test]
fn the_store_backed_pencil_is_the_dense_one() {
    let (s, h) = device();
    let support = EsMinusH::dense(Complex64::ZERO, &s, &h).coupling_support();
    let store = PencilStore::build(&s, &h, &support);
    for (e, eta) in ENERGIES {
        let z = c64(e, eta);
        let stored = EsMinusH { store: Some(&store), ..EsMinusH::dense(z, &s, &h) };
        let dense = EsMinusH::dense(z, &s, &h);
        let assembled = Btd::es_minus_h(z, &s, &h);
        assert_chains_same(&stored, &dense, &format!("z = {z:?}, dense"));
        assert_chains_same(&stored, &assembled, &format!("z = {z:?}, assembled"));
        for len in 1..=NB {
            let what = format!("z = {z:?}, {len} blocks");
            assert_chains_same(
                &Reversed::new(&stored, len),
                &Reversed::new(&assembled, len),
                &format!("reversed, {what}"),
            );
            assert_chains_same(
                &Mirrored::new(&stored, len),
                &Mirrored::new(&assembled, len),
                &format!("mirrored, {what}"),
            );
        }
    }
}

#[test]
fn a_pattern_column_lists_the_stored_entries_of_the_streamed_block() {
    let (s, h) = device();
    let support = EsMinusH::dense(Complex64::ZERO, &s, &h).coupling_support();
    let store = PencilStore::build(&s, &h, &support);
    let z = c64(0.37, 1e-6);
    let stored = EsMinusH { store: Some(&store), ..EsMinusH::dense(z, &s, &h) };
    let mut d = ZMat::zeros(S, S);
    for i in 0..NB {
        let Some(pattern) = stored.diag_pattern(i) else {
            assert!(i >= SPARSE, "block {i} is sparse");
            continue;
        };
        stored.diag_into(i, &mut d);
        for c in 0..S {
            let listed: Vec<(usize, Complex64)> = pattern.column(c).collect();
            for r in 0..S {
                let nonzero = |z: Complex64| z.re != 0.0 || z.im != 0.0;
                let held = nonzero(s.diag[i][(r, c)]) || nonzero(h.diag[i][(r, c)]);
                match listed.iter().find(|&&(row, _)| row == r) {
                    Some(&(_, a)) => assert!(held && same(a, d[(r, c)])),
                    None => assert!(!held && d[(r, c)] == Complex64::ZERO),
                }
            }
        }
    }
    assert!(EsMinusH::dense(z, &s, &h).diag_pattern(0).is_none());
}

#[test]
fn a_gather_off_the_stored_supports_reads_s_and_h() {
    let (s, h) = device();
    let support = EsMinusH::dense(Complex64::ZERO, &s, &h).coupling_support();
    let store = PencilStore::build(&s, &h, &support);
    let z = c64(1.21, 0.0);
    let stored = EsMinusH { store: Some(&store), ..EsMinusH::dense(z, &s, &h) };
    let dense = EsMinusH::dense(z, &s, &h);
    // A sub-rectangle of pair 0's support is not what the store holds.
    let on = BlockSupport {
        rows: support[0].upper.rows[..1].to_vec(),
        cols: support[0].upper.cols.clone(),
    };
    let (mut a, mut b) = (ZMat::zeros(1, on.cols.len()), ZMat::zeros(1, on.cols.len()));
    stored.upper_on(0, &on, &mut a);
    dense.upper_on(0, &on, &mut b);
    assert_same(&a, &b, "sub-rectangle");
}
