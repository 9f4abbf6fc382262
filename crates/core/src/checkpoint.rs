//! Versioned sweep checkpoints.
//!
//! A production sweep can run for hours on thousands of ranks; a node
//! failure must not restart it from scratch. Completed [`PointRecord`]s
//! are persisted *pre-interpolation* so a killed-and-resumed sweep
//! re-derives every downstream quantity (interpolations, health, spectra)
//! from exactly the same raw records as an uninterrupted run — the resume
//! is bit-identical modulo wall time.
//!
//! File layout (all little-endian):
//!
//! ```text
//! bytes 0..8    magic   b"QTXSWP01"   (version in the tag)
//! bytes 8..16   u64     plan fingerprint (FNV-1a over the k/E grids)
//! bytes 16..24  u64     record count
//! bytes 24..    count × 80-byte PointRecord frames
//! ```
//!
//! The fingerprint pins a checkpoint to one exact [`SweepPlan`]: resuming
//! against a different grid is rejected loudly instead of silently mixing
//! incompatible points. Saves go through a temp file + atomic rename so a
//! crash mid-write never leaves a torn checkpoint behind.

use crate::error::{TransportError, TransportResult};
use crate::sweep::{
    PointRecord, SweepPlan, POINT_RECORD_BYTES, STATUS_FAILED, STATUS_INTERPOLATED, STATUS_OK,
};
use std::collections::HashSet;
use std::path::Path;

/// File magic; the version lives in the last two bytes.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"QTXSWP01";

const HEADER_BYTES: usize = 24;

/// Why a checkpoint could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file is shorter or longer than its header claims.
    Truncated {
        /// Bytes the header implies.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The checkpoint was produced for a different sweep plan.
    PlanMismatch {
        /// Fingerprint of the plan being resumed.
        expected: u64,
        /// Fingerprint stored in the file.
        got: u64,
    },
    /// A record's status byte is none of the sweep's statuses.
    BadStatus {
        /// Position of the record in the file.
        record: usize,
        /// The status byte found.
        status: u8,
    },
    /// A record names a momentum the plan does not have.
    MomentumOutOfRange {
        /// Position of the record in the file.
        record: usize,
        /// The momentum index found.
        k_idx: u32,
        /// Momenta in the plan.
        momenta: usize,
    },
    /// Two records claim the same point.
    DuplicatePoint {
        /// Momentum index of the point.
        k_idx: u32,
        /// Energy index of the point.
        e_idx: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::BadMagic => write!(f, "not a QTXSWP01 checkpoint"),
            CheckpointError::Truncated { expected, got } => {
                write!(f, "checkpoint truncated: header implies {expected} bytes, file has {got}")
            }
            CheckpointError::PlanMismatch { expected, got } => write!(
                f,
                "checkpoint belongs to a different sweep plan \
                 (fingerprint {got:#018x}, plan is {expected:#018x})"
            ),
            CheckpointError::BadStatus { record, status } => {
                write!(f, "checkpoint record {record} has unknown status {status}")
            }
            CheckpointError::MomentumOutOfRange { record, k_idx, momenta } => write!(
                f,
                "checkpoint record {record} names momentum {k_idx}, the plan has {momenta}"
            ),
            CheckpointError::DuplicatePoint { k_idx, e_idx } => {
                write!(f, "checkpoint holds point (k {k_idx}, E {e_idx}) twice")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for TransportError {
    fn from(e: CheckpointError) -> Self {
        TransportError::Checkpoint(e)
    }
}

/// FNV-1a over the plan's momentum/weight/energy bit patterns — any grid
/// change (count, order, or a single ULP of one energy) changes it.
pub fn plan_fingerprint(plan: &SweepPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (i, &(kz, w)) in plan.k_points.iter().enumerate() {
        mix(i as u64);
        mix(kz.to_bits());
        mix(w.to_bits());
        for &e in &plan.energies[i] {
            mix(e.to_bits());
        }
    }
    h
}

/// Serializes `records` for `plan` into the checkpoint byte format.
pub fn encode(plan: &SweepPlan, records: &[PointRecord]) -> Vec<u8> {
    encode_with_fingerprint(plan_fingerprint(plan), records)
}

/// [`encode`] against an explicit fingerprint — adaptive refinement pins
/// its checkpoints to `(plan, refinement config)` instead of the bare
/// plan, so a plain-sweep checkpoint and a refined-sweep checkpoint of
/// the same base grid can never be confused for each other.
pub fn encode_with_fingerprint(fingerprint: u64, records: &[PointRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + records.len() * POINT_RECORD_BYTES);
    buf.extend_from_slice(&CHECKPOINT_MAGIC);
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        r.encode_into(&mut buf);
    }
    buf
}

/// Parses checkpoint bytes, validating magic, plan fingerprint, and exact
/// length before touching a single record.
pub fn parse(buf: &[u8], plan: &SweepPlan) -> TransportResult<Vec<PointRecord>> {
    parse_with_fingerprint(buf, plan_fingerprint(plan))
}

/// [`parse`] against an explicit fingerprint (see
/// [`encode_with_fingerprint`]).
pub fn parse_with_fingerprint(buf: &[u8], fingerprint: u64) -> TransportResult<Vec<PointRecord>> {
    if buf.len() < HEADER_BYTES {
        return Err(CheckpointError::Truncated { expected: HEADER_BYTES, got: buf.len() }.into());
    }
    if buf[..8] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic.into());
    }
    let got_fp = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    if got_fp != fingerprint {
        return Err(CheckpointError::PlanMismatch { expected: fingerprint, got: got_fp }.into());
    }
    // A crafted count must not overflow (or, in release, wrap to the file's
    // true length): a length no buffer can have is a truncated file.
    let count = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    let expected_len = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(POINT_RECORD_BYTES))
        .and_then(|body| body.checked_add(HEADER_BYTES));
    if expected_len != Some(buf.len()) {
        let expected = expected_len.unwrap_or(usize::MAX);
        return Err(CheckpointError::Truncated { expected, got: buf.len() }.into());
    }
    let frames = qtx_mpi::exact_frames(&buf[HEADER_BYTES..], POINT_RECORD_BYTES)
        .map_err(TransportError::Payload)?;
    frames.map(|f| PointRecord::decode(f).map_err(TransportError::Payload)).collect()
}

/// What the sweep takes as done from a parsed checkpoint must be records it
/// could have written: a status it knows, a momentum of the plan's
/// `momenta`, and each point once — a bad status would count as solved, a
/// stray momentum index the plan out of range, a repeated point twice into
/// the spectrum. An energy index past the base grid stays legal: a refined
/// sweep's later rounds append points there.
pub fn validate_records(records: &[PointRecord], momenta: usize) -> Result<(), CheckpointError> {
    let mut seen = HashSet::with_capacity(records.len());
    for (record, r) in records.iter().enumerate() {
        if ![STATUS_OK, STATUS_FAILED, STATUS_INTERPOLATED].contains(&r.status) {
            return Err(CheckpointError::BadStatus { record, status: r.status });
        }
        if r.k_idx as usize >= momenta {
            return Err(CheckpointError::MomentumOutOfRange { record, k_idx: r.k_idx, momenta });
        }
        if !seen.insert((r.k_idx, r.e_idx)) {
            return Err(CheckpointError::DuplicatePoint { k_idx: r.k_idx, e_idx: r.e_idx });
        }
    }
    Ok(())
}

/// Loads a checkpoint and validates it against `fingerprint` — the sweep
/// loop's identity for the run ([`plan_fingerprint`] for a flat sweep,
/// [`crate::refined_fingerprint`] for a refined one).
pub fn load_with_fingerprint(path: &Path, fingerprint: u64) -> TransportResult<Vec<PointRecord>> {
    let buf = std::fs::read(path).map_err(CheckpointError::Io)?;
    parse_with_fingerprint(&buf, fingerprint)
}

/// Atomically writes a checkpoint under `fingerprint`: temp file in the
/// same directory, then rename over the target.
pub fn save_with_fingerprint(
    path: &Path,
    fingerprint: u64,
    records: &[PointRecord],
) -> TransportResult<()> {
    let buf = encode_with_fingerprint(fingerprint, records);
    let tmp = path.with_extension("qtxswp.tmp");
    std::fs::write(&tmp, &buf).map_err(CheckpointError::Io)?;
    std::fs::rename(&tmp, path).map_err(CheckpointError::Io)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> SweepPlan {
        SweepPlan {
            k_points: vec![(0.0, 1.0), (0.5, 2.0)],
            energies: vec![vec![0.1, 0.2], vec![0.3]],
        }
    }

    fn record(k_idx: u32, e_idx: u32) -> PointRecord {
        PointRecord {
            k_idx,
            e_idx,
            kz: 0.0,
            w: 1.0,
            e: 0.1,
            t: 1.5,
            method: 0,
            status: STATUS_OK,
            attempts: 1,
            escalations: 0,
            residual: 1e-12,
            eta: 0.0,
            wall_ms: 3.0,
            interp_bound: 0.0,
        }
    }

    #[test]
    fn roundtrip_preserves_records() {
        let p = plan();
        let records = vec![record(0, 0), record(0, 1), record(1, 0)];
        let buf = encode(&p, &records);
        let back = parse(&buf, &p).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn fingerprint_pins_the_grid() {
        let p = plan();
        let mut other = plan();
        other.energies[1][0] += 1e-15; // one ULP-ish nudge
        assert_ne!(plan_fingerprint(&p), plan_fingerprint(&other));
        let buf = encode(&p, &[record(0, 0)]);
        let err = parse(&buf, &other).unwrap_err();
        assert!(matches!(err, TransportError::Checkpoint(CheckpointError::PlanMismatch { .. })));
    }

    #[test]
    fn corruption_is_rejected() {
        let p = plan();
        let buf = encode(&p, &[record(0, 0)]);
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            parse(&bad, &p).unwrap_err(),
            TransportError::Checkpoint(CheckpointError::BadMagic)
        ));
        // Truncated body.
        let torn = &buf[..buf.len() - 7];
        assert!(matches!(
            parse(torn, &p).unwrap_err(),
            TransportError::Checkpoint(CheckpointError::Truncated { .. })
        ));
        // Header-only stub.
        assert!(matches!(
            parse(&buf[..10], &p).unwrap_err(),
            TransportError::Checkpoint(CheckpointError::Truncated { .. })
        ));
        // Record counts whose byte length overflows: u64::MAX, and 2^60 + 1,
        // whose 80-byte frames wrap to exactly this one-record file's length.
        for count in [u64::MAX, (1u64 << 60) + 1] {
            let mut huge = buf.clone();
            huge[16..24].copy_from_slice(&count.to_le_bytes());
            assert!(
                matches!(
                    parse(&huge, &p).unwrap_err(),
                    TransportError::Checkpoint(CheckpointError::Truncated { .. })
                ),
                "record count {count:#x}"
            );
        }
    }

    #[test]
    fn torn_record_stream_is_rejected_loudly() {
        // A record stream with trailing garbage must surface as a typed
        // error, not silently decode to fewer records.
        let mut payload = Vec::new();
        record(0, 0).encode_into(&mut payload);
        payload.extend_from_slice(&[0xde, 0xad, 0xbe]); // torn frame
        let err = qtx_mpi::exact_frames(&payload, POINT_RECORD_BYTES).unwrap_err();
        assert_eq!(err.payload_len, POINT_RECORD_BYTES + 3);
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let p = plan();
        let records = vec![record(0, 0), record(1, 0)];
        let dir = std::env::temp_dir().join("qtx-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.qtxswp");
        let fp = plan_fingerprint(&p);
        save_with_fingerprint(&path, fp, &records).unwrap();
        let back = load_with_fingerprint(&path, fp).unwrap();
        assert_eq!(back, records);
        assert!(!path.with_extension("qtxswp.tmp").exists(), "temp file cleaned up");
        std::fs::remove_file(&path).ok();
    }
}
