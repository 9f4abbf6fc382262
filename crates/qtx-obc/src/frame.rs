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

/// Magic prefix of every [`ObcResult`] frame.
pub const OBC_FRAME_MAGIC: &[u8; 8] = b"QTXOBC01";

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

/// Decodes a frame produced by [`encode_obc_result`]. The returned result
/// carries `stats: None` (stats are not serialized).
pub fn decode_obc_result(buf: &[u8]) -> Result<ObcResult, FrameDecodeError> {
    let mut c = Cursor { buf, at: 0 };
    if c.take(8)? != OBC_FRAME_MAGIC {
        return Err(FrameDecodeError::BadMagic);
    }
    let sigma = c.mat()?;
    let injection = c.mat()?;
    let inc_modes = c.modes()?;
    let out_modes = c.modes()?;
    if c.at != buf.len() {
        return Err(FrameDecodeError::TrailingBytes { extra: buf.len() - c.at });
    }
    Ok(ObcResult { sigma, injection, inc_modes, out_modes, stats: None })
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

    /// Every prefix and every single-bit flip of a frame, and seeded
    /// arbitrary bytes behind a valid magic (alone, or after a valid
    /// prefix), decode to an error or to a result without a panic.
    #[test]
    fn truncations_and_bit_flips_never_panic() {
        let frame = encode_obc_result(&sample());
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
        // SplitMix64: a fixed stream, so a failing case replays.
        let mut state = 0x5157_584f_4243_3031u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..2000 {
            let keep = if case % 2 == 0 { 8 } else { 8 + next() as usize % (frame.len() - 8) };
            let tail = next() as usize % 96;
            let mut bytes = frame[..keep].to_vec();
            bytes.extend((0..tail).map(|_| next() as u8));
            assert!(survives(&bytes), "case {case} ({keep} kept, {tail} arbitrary) panicked");
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
        let mut bad = buf.clone();
        bad[0] = b'x';
        assert_eq!(decode_obc_result(&bad).unwrap_err(), FrameDecodeError::BadMagic);
        // Version 2 (Σ as truncated factors) is retired: its magic is
        // foreign now.
        let mut retired = buf;
        retired[7] = b'2';
        assert_eq!(decode_obc_result(&retired).unwrap_err(), FrameDecodeError::BadMagic);
    }
}
