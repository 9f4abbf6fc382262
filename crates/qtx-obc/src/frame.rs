//! Byte frames for [`ObcResult`] — the storage format of the
//! content-addressed self-energy cache in `qtx-core`.
//!
//! The format is little-endian and exact: every f64 travels as its raw
//! bit pattern, so `decode(encode(r))` reproduces `sigma`, `injection`
//! and both mode sets *bit-identically*. That property is what lets a
//! cache hit stand in for a fresh Beyn/FEAST/Sancho–Rubio solve without
//! perturbing a single downstream bit.
//!
//! [`FeastStats`](crate::feast::FeastStats) is deliberately **not**
//! serialized: it is observability (refinement counts, residual history),
//! not physics — a decoded result carries `stats: None` and is documented
//! to do so. Nothing in the transport pipeline consumes stats on the
//! solve path.

use crate::modes::ModeSet;
use crate::selfenergy::ObcResult;
use qtx_linalg::{Complex64, ZMat};
use qtx_sparse::CompressedSigma;

/// Magic prefix of every dense-Σ [`ObcResult`] frame.
pub const OBC_FRAME_MAGIC: &[u8; 8] = b"QTXOBC01";

/// Magic prefix of compressed-Σ frames: Σ travels as truncated factors
/// `U·Vᴴ` plus the recorded error bound, so cached entries shrink with
/// the numerical rank of the lead. Only emitted when a caller opts into a
/// tolerance > 0 — `QTXOBC01` frames stay bit-identical.
pub const OBC_FRAME_MAGIC_V2: &[u8; 8] = b"QTXOBC02";

/// Typed decode failure: a torn, truncated, or foreign byte frame must
/// surface loudly instead of producing a silently-garbled self-energy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecodeError {
    /// The frame does not start with [`OBC_FRAME_MAGIC`].
    BadMagic,
    /// The frame ended before `needed` bytes at offset `at`.
    Truncated { at: usize, needed: usize, have: usize },
    /// Bytes remained after a complete decode.
    TrailingBytes { extra: usize },
    /// A `QTXOBC02` frame's factors cannot form a square `Σ = U·Vᴴ`: their
    /// shapes (rows, cols) differ.
    NonConformingFactors { u: (usize, usize), v: (usize, usize) },
}

impl std::fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDecodeError::BadMagic => write!(f, "ObcResult frame: bad magic"),
            FrameDecodeError::Truncated { at, needed, have } => {
                write!(f, "ObcResult frame truncated at byte {at}: needed {needed}, have {have}")
            }
            FrameDecodeError::TrailingBytes { extra } => {
                write!(f, "ObcResult frame: {extra} trailing bytes")
            }
            FrameDecodeError::NonConformingFactors { u, v } => {
                write!(f, "ObcResult frame: Σ factors U {u:?} and V {v:?} do not conform")
            }
        }
    }
}

impl std::error::Error for FrameDecodeError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_mat(out: &mut Vec<u8>, m: &ZMat) {
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    for z in m.as_slice() {
        put_f64(out, z.re);
        put_f64(out, z.im);
    }
}

fn put_modes(out: &mut Vec<u8>, modes: &[ModeSet]) {
    put_u32(out, modes.len() as u32);
    for m in modes {
        put_f64(out, m.lambda.re);
        put_f64(out, m.lambda.im);
        put_f64(out, m.velocity);
        out.push(m.propagating as u8);
        put_u32(out, m.u.len() as u32);
        for z in &m.u {
            put_f64(out, z.re);
            put_f64(out, z.im);
        }
    }
}

/// Encodes an [`ObcResult`] into a self-describing byte frame
/// (`stats` excluded — see the module docs).
pub fn encode_obc_result(r: &ObcResult) -> Vec<u8> {
    let mode_bytes =
        |ms: &[ModeSet]| 4 + ms.iter().map(|m| 8 + 8 + 8 + 1 + 4 + 16 * m.u.len()).sum::<usize>();
    let cap = 8
        + (8 + 16 * r.sigma.as_slice().len())
        + (8 + 16 * r.injection.as_slice().len())
        + mode_bytes(&r.inc_modes)
        + mode_bytes(&r.out_modes);
    let mut out = Vec::with_capacity(cap);
    out.extend_from_slice(OBC_FRAME_MAGIC);
    put_mat(&mut out, &r.sigma);
    put_mat(&mut out, &r.injection);
    put_modes(&mut out, &r.inc_modes);
    put_modes(&mut out, &r.out_modes);
    out
}

/// Encodes an [`ObcResult`] with Σ-compression at relative tolerance
/// `tol`. `tol ≤ 0`, or a Σ whose numerical rank is too high to pay off,
/// falls back to the exact [`encode_obc_result`] frame — so enabling
/// compression can only ever shrink frames, never degrade an entry that
/// has no low-rank structure to exploit.
pub fn encode_obc_result_compressed(r: &ObcResult, tol: f64) -> Vec<u8> {
    if tol <= 0.0 {
        return encode_obc_result(r);
    }
    match CompressedSigma::compress(&r.sigma, tol) {
        CompressedSigma::Dense(_) => encode_obc_result(r),
        CompressedSigma::Factored { u, v, bound } => {
            let mode_bytes = |ms: &[ModeSet]| {
                4 + ms.iter().map(|m| 8 + 8 + 8 + 1 + 4 + 16 * m.u.len()).sum::<usize>()
            };
            let cap = 8
                + (8 + 16 * u.as_slice().len())
                + (8 + 16 * v.as_slice().len())
                + 8
                + (8 + 16 * r.injection.as_slice().len())
                + mode_bytes(&r.inc_modes)
                + mode_bytes(&r.out_modes);
            let mut out = Vec::with_capacity(cap);
            out.extend_from_slice(OBC_FRAME_MAGIC_V2);
            put_mat(&mut out, &u);
            put_mat(&mut out, &v);
            put_f64(&mut out, bound);
            put_mat(&mut out, &r.injection);
            put_modes(&mut out, &r.inc_modes);
            put_modes(&mut out, &r.out_modes);
            out
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameDecodeError> {
        let have = self.buf.len().saturating_sub(self.at);
        if have < n {
            return Err(FrameDecodeError::Truncated { at: self.at, needed: n, have });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FrameDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, FrameDecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn c64(&mut self) -> Result<Complex64, FrameDecodeError> {
        let re = self.f64()?;
        let im = self.f64()?;
        Ok(Complex64::new(re, im))
    }

    fn mat(&mut self) -> Result<ZMat, FrameDecodeError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        // Bound the allocation by the bytes actually present: a crafted
        // header cannot force a huge up-front reservation.
        let have = self.buf.len().saturating_sub(self.at);
        let need = rows.saturating_mul(cols).saturating_mul(16);
        if have < need {
            return Err(FrameDecodeError::Truncated { at: self.at, needed: need, have });
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(self.c64()?);
        }
        Ok(ZMat::from_recycled_buffer(rows, cols, data))
    }

    fn modes(&mut self) -> Result<Vec<ModeSet>, FrameDecodeError> {
        let n = self.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            let lambda = self.c64()?;
            let velocity = self.f64()?;
            let propagating = self.take(1)?[0] != 0;
            let len = self.u32()? as usize;
            let have = self.buf.len().saturating_sub(self.at);
            if have < len.saturating_mul(16) {
                return Err(FrameDecodeError::Truncated { at: self.at, needed: len * 16, have });
            }
            let mut u = Vec::with_capacity(len);
            for _ in 0..len {
                u.push(self.c64()?);
            }
            out.push(ModeSet { lambda, u, velocity, propagating });
        }
        Ok(out)
    }
}

/// A decoded frame with Σ still in whatever representation it traveled
/// in. This is the *lazy* decode: a `QTXOBC02` frame's factors are not
/// multiplied out here — a boundary-block solver can consume them
/// directly, and only [`ObcFrameParts::into_result`] pays for expansion.
#[derive(Debug, Clone)]
pub struct ObcFrameParts {
    /// Self-energy, dense (v1 frames) or factored (v2 frames).
    pub sigma: CompressedSigma,
    /// Injection block, always dense.
    pub injection: ZMat,
    /// Incoming mode set.
    pub inc_modes: Vec<ModeSet>,
    /// Outgoing mode set.
    pub out_modes: Vec<ModeSet>,
}

impl ObcFrameParts {
    /// Expands into a dense [`ObcResult`] (`stats: None`). For v1 frames
    /// the stored Σ moves through untouched — bit-identical; for v2 frames
    /// this is the point where `U·Vᴴ` is materialized.
    pub fn into_result(self) -> ObcResult {
        ObcResult {
            sigma: self.sigma.into_dense(),
            injection: self.injection,
            inc_modes: self.inc_modes,
            out_modes: self.out_modes,
            stats: None,
        }
    }
}

/// Decodes either frame version without expanding a compressed Σ.
pub fn decode_obc_result_parts(buf: &[u8]) -> Result<ObcFrameParts, FrameDecodeError> {
    let mut c = Cursor { buf, at: 0 };
    let magic = c.take(8)?;
    let compressed = if magic == OBC_FRAME_MAGIC {
        false
    } else if magic == OBC_FRAME_MAGIC_V2 {
        true
    } else {
        return Err(FrameDecodeError::BadMagic);
    };
    let sigma = if compressed {
        let u = c.mat()?;
        let v = c.mat()?;
        let (u_dims, v_dims) = ((u.rows(), u.cols()), (v.rows(), v.cols()));
        if u_dims != v_dims {
            return Err(FrameDecodeError::NonConformingFactors { u: u_dims, v: v_dims });
        }
        let bound = c.f64()?;
        CompressedSigma::Factored { u, v, bound }
    } else {
        CompressedSigma::Dense(c.mat()?)
    };
    let injection = c.mat()?;
    let inc_modes = c.modes()?;
    let out_modes = c.modes()?;
    if c.at != buf.len() {
        return Err(FrameDecodeError::TrailingBytes { extra: buf.len() - c.at });
    }
    Ok(ObcFrameParts { sigma, injection, inc_modes, out_modes })
}

/// Decodes a frame produced by [`encode_obc_result`] (or its compressed
/// variant). The returned result carries `stats: None` (stats are not
/// serialized).
pub fn decode_obc_result(buf: &[u8]) -> Result<ObcResult, FrameDecodeError> {
    decode_obc_result_parts(buf).map(ObcFrameParts::into_result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selfenergy::{self_energy, Eta, Side};
    use crate::{LeadBlocks, ObcMethod};

    fn sample() -> ObcResult {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        self_energy(&lead, 0.5, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap()
    }

    /// An 8-orbital lead whose inter-cell coupling has rank 2, so
    /// `Σ = τ·g·τᴴ` has numerical rank ≤ 2 and the v2 frame path is
    /// exercised deterministically (a 1×1 chain Σ can never compress).
    fn block_sample() -> ObcResult {
        use qtx_linalg::{c64, gemm, Op};
        let nf = 8;
        let mut h00 = ZMat::zeros(nf, nf);
        let r = ZMat::random(nf, nf, 11);
        for i in 0..nf {
            for j in 0..nf {
                h00[(i, j)] = 0.1 * (r[(i, j)] + r[(j, i)].conj());
            }
            h00[(i, i)] += c64(2.0 + i as f64 * 0.1, 0.0);
        }
        let a = ZMat::random(nf, 2, 13);
        let b = ZMat::random(nf, 2, 17);
        let mut h01 = ZMat::zeros(nf, nf);
        gemm(c64(0.2, 0.0), &a, Op::None, &b, Op::Adjoint, Complex64::ZERO, &mut h01);
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(nf), ZMat::zeros(nf, nf));
        self_energy(&lead, 0.3, Eta(1e-6), Side::Left, ObcMethod::Decimation).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let r = sample();
        let buf = encode_obc_result(&r);
        let back = decode_obc_result(&buf).unwrap();
        assert_eq!(back.sigma.max_diff(&r.sigma), 0.0);
        assert_eq!(back.injection.max_diff(&r.injection), 0.0);
        assert_eq!(back.inc_modes.len(), r.inc_modes.len());
        assert_eq!(back.out_modes.len(), r.out_modes.len());
        for (a, b) in back.inc_modes.iter().zip(&r.inc_modes) {
            assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
            assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
            assert_eq!(a.velocity.to_bits(), b.velocity.to_bits());
            assert_eq!(a.propagating, b.propagating);
            assert!(a.u.iter().zip(&b.u).all(|(x, y)| x == y));
        }
        assert!(back.stats.is_none(), "stats are observability, not physics — dropped");
    }

    #[test]
    fn tiny_sigma_falls_back_to_exact_frame() {
        // A 1×1 Σ has no rank to shed: the compressed encoder must emit
        // the exact v1 frame regardless of tolerance.
        let r = sample();
        let exact = encode_obc_result(&r);
        assert_eq!(encode_obc_result_compressed(&r, 1e-8), exact);
    }

    #[test]
    fn compressed_frames_shrink_and_stay_within_bound() {
        let r = block_sample();
        let exact = encode_obc_result(&r);
        // tol = 0 must emit the exact frame byte-for-byte.
        assert_eq!(encode_obc_result_compressed(&r, 0.0), exact);
        let tol = 1e-8;
        let buf = encode_obc_result_compressed(&r, tol);
        assert_eq!(buf[..8], *OBC_FRAME_MAGIC_V2, "rank-2 Σ must take the compressed path");
        let parts = decode_obc_result_parts(&buf).unwrap();
        assert!(buf.len() < exact.len(), "compressed frame must shrink");
        assert!(parts.sigma.is_compressed());
        let back = parts.clone().into_result();
        let err = (&back.sigma - &r.sigma).norm_fro();
        assert!(err <= parts.sigma.bound() + 1e-14, "err {err} > bound");
        assert!(parts.sigma.bound() <= tol * r.sigma.norm_fro() * (1.0 + 1e-12));
        // Injection and modes travel bit-identically either way.
        let back = decode_obc_result(&buf).unwrap();
        assert_eq!(back.injection.max_diff(&r.injection), 0.0);
        assert_eq!(back.inc_modes.len(), r.inc_modes.len());
    }

    #[test]
    fn torn_v2_frames_are_typed_errors() {
        let r = block_sample();
        let buf = encode_obc_result_compressed(&r, 1e-8);
        assert_eq!(buf[..8], *OBC_FRAME_MAGIC_V2);
        for cut in [buf.len() - 1, buf.len() / 2, 9] {
            assert!(matches!(
                decode_obc_result(&buf[..cut]),
                Err(FrameDecodeError::Truncated { .. })
            ));
        }
        let mut extra = buf.clone();
        extra.push(0);
        assert_eq!(
            decode_obc_result(&extra).unwrap_err(),
            FrameDecodeError::TrailingBytes { extra: 1 }
        );
    }

    #[test]
    fn non_conforming_v2_factors_are_typed_errors() {
        // Well-formed bytes whose factors cannot multiply out to a square
        // Σ = U·Vᴴ: inner dimensions differ, then outer ones.
        for (u, v) in [((3, 2), (3, 1)), ((3, 2), (4, 2))] {
            let mut buf = OBC_FRAME_MAGIC_V2.to_vec();
            put_mat(&mut buf, &ZMat::random(u.0, u.1, 1));
            put_mat(&mut buf, &ZMat::random(v.0, v.1, 2));
            put_f64(&mut buf, 1e-9);
            put_mat(&mut buf, &ZMat::random(3, 1, 5));
            put_modes(&mut buf, &[]);
            put_modes(&mut buf, &[]);
            let want = FrameDecodeError::NonConformingFactors { u, v };
            assert_eq!(decode_obc_result_parts(&buf).unwrap_err(), want);
            assert_eq!(decode_obc_result(&buf).unwrap_err(), want);
        }
    }

    /// Every prefix and every single-bit flip of a v1 and a v2 frame
    /// decodes to an error or to a result expanded without a panic.
    #[test]
    fn truncations_and_bit_flips_never_panic() {
        let v1 = encode_obc_result(&sample());
        let v2 = encode_obc_result_compressed(&block_sample(), 1e-8);
        assert_eq!(v2[..8], *OBC_FRAME_MAGIC_V2);
        for frame in [v1, v2] {
            let survives =
                |bytes: &[u8]| std::panic::catch_unwind(|| drop(decode_obc_result(bytes))).is_ok();
            for cut in 0..frame.len() {
                assert!(survives(&frame[..cut]), "prefix of {cut} bytes panicked");
            }
            let mut flipped = frame.clone();
            for bit in 0..8 * frame.len() {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(survives(&flipped), "flipping bit {bit} panicked");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn torn_frames_are_typed_errors() {
        let r = sample();
        let buf = encode_obc_result(&r);
        assert_eq!(
            decode_obc_result(&buf[..4]).unwrap_err(),
            FrameDecodeError::Truncated { at: 0, needed: 8, have: 4 }
        );
        for cut in [buf.len() - 1, buf.len() / 2, 9] {
            assert!(matches!(
                decode_obc_result(&buf[..cut]),
                Err(FrameDecodeError::Truncated { .. })
            ));
        }
        let mut extra = buf.clone();
        extra.push(0);
        assert_eq!(
            decode_obc_result(&extra).unwrap_err(),
            FrameDecodeError::TrailingBytes { extra: 1 }
        );
        let mut bad = buf;
        bad[0] = b'x';
        assert_eq!(decode_obc_result(&bad).unwrap_err(), FrameDecodeError::BadMagic);
    }
}
