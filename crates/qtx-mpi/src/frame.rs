//! Fixed-size record framing for gathered payloads.
//!
//! Every collective in this fabric moves raw `Vec<u8>` payloads; sweep
//! results travel as streams of fixed-size little-endian records. A
//! truncated or misaligned payload previously decoded through
//! `chunks_exact`, which silently drops the trailing partial frame — a
//! corrupted gather then looks like a shorter, *valid* result. These
//! helpers make framing explicit and loud.

/// A payload whose length is not a whole number of frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// Expected frame size in bytes.
    pub frame_size: usize,
    /// Offending payload length.
    pub payload_len: usize,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "payload of {} bytes is not a whole number of {}-byte frames ({} trailing)",
            self.payload_len,
            self.frame_size,
            self.payload_len % self.frame_size.max(1)
        )
    }
}

impl std::error::Error for FrameError {}

/// Splits `payload` into exact `frame_size`-byte frames, rejecting any
/// trailing partial frame instead of dropping it.
pub fn exact_frames(
    payload: &[u8],
    frame_size: usize,
) -> Result<std::slice::ChunksExact<'_, u8>, FrameError> {
    if frame_size == 0 || !payload.len().is_multiple_of(frame_size) {
        return Err(FrameError { frame_size, payload_len: payload.len() });
    }
    Ok(payload.chunks_exact(frame_size))
}

/// The `N` bytes at `off..off + N` of `frame`, or `None` when they run
/// past its end (or the offset overflows).
fn bytes_at<const N: usize>(frame: &[u8], off: usize) -> Option<[u8; N]> {
    frame.get(off..off.checked_add(N)?)?.try_into().ok()
}

/// Little-endian `f64` at byte offset `off` of a frame, `None` past its end.
pub fn read_f64(frame: &[u8], off: usize) -> Option<f64> {
    bytes_at(frame, off).map(f64::from_le_bytes)
}

/// Little-endian `u32` at byte offset `off` of a frame, `None` past its end.
pub fn read_u32(frame: &[u8], off: usize) -> Option<u32> {
    bytes_at(frame, off).map(u32::from_le_bytes)
}

/// Little-endian `u16` at byte offset `off` of a frame, `None` past its end.
pub fn read_u16(frame: &[u8], off: usize) -> Option<u16> {
    bytes_at(frame, off).map(u16::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_frames_decode() {
        let payload = [0u8; 96];
        let frames: Vec<&[u8]> = exact_frames(&payload, 32).unwrap().collect();
        assert_eq!(frames.len(), 3);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let payload = [0u8; 33];
        let err = exact_frames(&payload, 32).unwrap_err();
        assert_eq!(err, FrameError { frame_size: 32, payload_len: 33 });
        assert!(err.to_string().contains("1 trailing"));
    }

    #[test]
    fn zero_frame_size_is_rejected() {
        assert!(exact_frames(&[], 0).is_err());
    }

    #[test]
    fn field_readers_roundtrip() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&7u32.to_le_bytes());
        frame.extend_from_slice(&3u16.to_le_bytes());
        frame.extend_from_slice(&(-1.25f64).to_le_bytes());
        assert_eq!(read_u32(&frame, 0), Some(7));
        assert_eq!(read_u16(&frame, 4), Some(3));
        assert_eq!(read_f64(&frame, 6), Some(-1.25));
    }

    #[test]
    fn readers_past_the_end_answer_none() {
        let frame = [0xa5u8; 11];
        for off in 0..=frame.len() + 2 {
            assert_eq!(read_f64(&frame, off).is_some(), off + 8 <= frame.len(), "f64 at {off}");
            assert_eq!(read_u32(&frame, off).is_some(), off + 4 <= frame.len(), "u32 at {off}");
            assert_eq!(read_u16(&frame, off).is_some(), off + 2 <= frame.len(), "u16 at {off}");
        }
        for short in 0..8 {
            let frame = &frame[..short];
            for off in 0..=short {
                assert_eq!(read_f64(frame, off), None);
            }
        }
        assert_eq!(read_u16(&frame, usize::MAX), None, "an overflowing offset is a miss");
    }
}
