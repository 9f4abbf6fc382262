//! Hostile checkpoints: a file that passes the header checks (magic, plan
//! fingerprint, length) may still hold records no sweep of the plan could
//! have written. Each such kind is refused with a typed error when the
//! sweep loads it; and no prefix or single-bit flip of a real checkpoint
//! makes the decoders panic.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::checkpoint::{self, validate_records};
use qtx_core::sweep::POINT_RECORD_BYTES;
use qtx_core::{
    CheckpointError, Device, PointRecord, SweepOptions, SweepPlan, TransportEngine, TransportError,
};
use std::path::PathBuf;
use std::sync::OnceLock;

fn small_device() -> Device {
    let spec = DeviceBuilder::nanowire(0.8).cells(6).basis(BasisKind::TightBinding).build();
    let mut d = Device::build(spec).unwrap();
    let dk = d.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("conduction edge");
    d.config.mu_l = edge + 0.15;
    d.config.mu_r = edge + 0.10;
    d
}

/// A small device, its plan and the bytes of the checkpoint a complete
/// sweep of it leaves behind — computed once for every test here.
fn real_checkpoint() -> &'static (Device, SweepPlan, Vec<u8>) {
    static CHECKPOINT: OnceLock<(Device, SweepPlan, Vec<u8>)> = OnceLock::new();
    CHECKPOINT.get_or_init(|| {
        let dev = small_device();
        let plan = SweepPlan::from_device(&dev, 0.05, 0.15);
        let path = scratch_path("complete");
        let opts = SweepOptions::builder().checkpoint(&path).build().unwrap();
        TransportEngine::new(dev.clone()).sweep_resumable(&plan, 1, &opts).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (dev, plan, bytes)
    })
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qtx-checkpoint-hostile-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.qtxswp"));
    std::fs::remove_file(&path).ok();
    path
}

/// Resumes the plan from the real checkpoint with its records passed
/// through `tamper`, and returns the sweep's error.
fn resume_tampered(name: &str, tamper: impl FnOnce(&mut Vec<PointRecord>)) -> TransportError {
    let (dev, plan, bytes) = real_checkpoint();
    let mut records = checkpoint::parse(bytes, plan).unwrap();
    assert!(records.len() >= 2, "the sweep should leave a few records");
    tamper(&mut records);
    let path = scratch_path(name);
    std::fs::write(&path, checkpoint::encode(plan, &records)).unwrap();
    let opts = SweepOptions::builder().checkpoint(&path).build().unwrap();
    let got = TransportEngine::new(dev.clone()).sweep_resumable(plan, 1, &opts);
    std::fs::remove_file(&path).ok();
    got.expect_err("a checkpoint no sweep could have written must be refused")
}

#[test]
fn an_unknown_status_byte_is_refused() {
    // Status 7 used to count as solved in the health report.
    let err = resume_tampered("bad-status", |records| records[1].status = 7);
    assert!(
        matches!(
            err,
            TransportError::Checkpoint(CheckpointError::BadStatus { record: 1, status: 7 })
        ),
        "{err:?}"
    );
}

#[test]
fn a_momentum_beyond_the_plan_is_refused() {
    let momenta = real_checkpoint().1.k_points.len();
    let err = resume_tampered("stray-momentum", |records| records[0].k_idx = momenta as u32);
    assert!(
        matches!(
            err,
            TransportError::Checkpoint(CheckpointError::MomentumOutOfRange { record: 0, .. })
        ),
        "{err:?}"
    );
}

#[test]
fn a_repeated_point_is_refused() {
    // A second copy of a point used to add its weight to the spectrum twice.
    let err = resume_tampered("duplicate", |records| {
        let copy = records[0];
        records.push(copy);
    });
    let (k_idx, e_idx) = {
        let (_, plan, bytes) = real_checkpoint();
        let first = checkpoint::parse(bytes, plan).unwrap()[0];
        (first.k_idx, first.e_idx)
    };
    assert!(
        matches!(
            err,
            TransportError::Checkpoint(CheckpointError::DuplicatePoint { k_idx: k, e_idx: e })
                if (k, e) == (k_idx, e_idx)
        ),
        "{err:?}"
    );
}

#[test]
fn energy_indices_past_the_base_grid_stay_legal() {
    // A refined sweep appends its later rounds' points past the base grid.
    let (_, plan, bytes) = real_checkpoint();
    let mut records = checkpoint::parse(bytes, plan).unwrap();
    let k = records[0].k_idx;
    let mut later = records[0];
    later.e_idx = plan.energies[k as usize].len() as u32 + 3;
    records.push(later);
    validate_records(&records, plan.k_points.len()).unwrap();
}

#[test]
fn no_prefix_or_bit_flip_of_a_real_checkpoint_panics() {
    let (_, plan, bytes) = real_checkpoint();
    let momenta = plan.k_points.len();
    // Every decoder either refuses the bytes or hands back records; a
    // record set it hands back goes through the sweep's own check too.
    let survive = |buf: &[u8]| {
        if let Ok(records) = checkpoint::parse(buf, plan) {
            let _ = validate_records(&records, momenta);
        }
    };
    let (mut accepted, mut refused) = (0usize, 0usize);
    for len in 0..=bytes.len() {
        match checkpoint::parse(&bytes[..len], plan) {
            Ok(_) => accepted += 1,
            Err(_) => refused += 1,
        }
        survive(&bytes[..len]);
    }
    // Only the whole file parses.
    assert_eq!((accepted, refused), (1, bytes.len()));
    let mut flipped = bytes.clone();
    for bit in 0..8 * bytes.len() {
        flipped[bit / 8] ^= 1 << (bit % 8);
        survive(&flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    // The record decoder alone, on every prefix and every flip of a frame.
    let frame = &bytes[bytes.len() - POINT_RECORD_BYTES..];
    for len in 0..POINT_RECORD_BYTES {
        assert!(PointRecord::decode(&frame[..len]).is_err(), "a {len}-byte frame");
    }
    let mut flipped = frame.to_vec();
    for bit in 0..8 * POINT_RECORD_BYTES {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = PointRecord::decode(&flipped).map(|r| validate_records(&[r], momenta));
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}
