//! Hostile-input battery for the CP2K → OMEN transfer file reader.
//!
//! `HsFile::from_bytes` reads files from outside the process, so no input
//! may make it panic: every strict prefix of a valid file must be an
//! `InvalidData` error, and every single-bit flip of one, like every seeded
//! run of arbitrary bytes behind its magic, must decode or be refused the
//! same way. The file is built by hand with 3 × 3 blocks so the quadratic
//! prefix sweep stays small.

use qtx_atomistic::assemble::UnitCellMatrices;
use qtx_atomistic::devices::DeviceGeometry;
use qtx_atomistic::BasisKind;
use qtx_cp2k::{Functional, HsFile, ScfReport};
use qtx_linalg::ZMat;
use std::io::ErrorKind;

fn small_file() -> HsFile {
    let n_orb = 3;
    let nbw = 1;
    let block = |seed| ZMat::random(n_orb, n_orb, seed);
    HsFile {
        label: "wire-λ".to_string(),
        functional: Functional::Pbe,
        geometry: DeviceGeometry {
            kind: "nanowire".to_string(),
            cross_section: 0.8,
            n_cells: 4,
            cell_len: 0.543,
            z_periodic: false,
        },
        basis: BasisKind::Dft3sp,
        unit_cell: UnitCellMatrices {
            nbw,
            n_orb,
            h: (0..=nbw as u64).map(|l| block(10 + l)).collect(),
            s: (0..=nbw as u64).map(|l| block(20 + l)).collect(),
            atoms_per_cell: 2,
            cell_len: 0.543,
        },
        scf: ScfReport {
            iterations: 7,
            charge_residual: 1e-6,
            converged: true,
            mulliken: vec![0.1, -0.2, 0.05],
        },
    }
}

fn assert_invalid_data(result: std::io::Result<HsFile>, what: &str) {
    match result {
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}"),
        Ok(_) => panic!("{what}: decoded"),
    }
}

#[test]
fn every_strict_prefix_is_invalid_data() {
    let bytes = small_file().to_bytes();
    HsFile::from_bytes(&bytes).expect("the whole file decodes");
    for len in 0..bytes.len() {
        assert_invalid_data(HsFile::from_bytes(&bytes[..len]), &format!("prefix {len}"));
    }
}

#[test]
fn every_single_bit_flip_decodes_or_is_invalid_data() {
    let bytes = small_file().to_bytes();
    let mut flipped = bytes.clone();
    for bit in 0..8 * bytes.len() {
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Err(e) = HsFile::from_bytes(&flipped) {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "bit {bit}: {e}");
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    // Seeded arbitrary bytes behind the magic, alone or after a valid
    // prefix. SplitMix64: a fixed stream, so a failing case replays.
    let mut state = 0x4853_4649_4c45_3031u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for case in 0..2000 {
        let keep = if case % 2 == 0 { 8 } else { 8 + next() as usize % (bytes.len() - 8) };
        let tail = next() as usize % 128;
        let mut hostile = bytes[..keep].to_vec();
        hostile.extend((0..tail).map(|_| next() as u8));
        if let Err(e) = HsFile::from_bytes(&hostile) {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "case {case} ({keep} kept, {tail}): {e}");
        }
    }
}

#[test]
fn unknown_tags_trailing_bytes_and_huge_lengths_are_refused() {
    let hs = small_file();
    let bytes = hs.to_bytes();
    // Magic, label length, label, then the two tag bytes.
    let functional = 8 + 8 + hs.label.len();
    let basis = functional + 1;
    assert_eq!(bytes[functional], 1, "PBE tag");
    assert_eq!(bytes[basis], 1, "Dft3sp tag");
    for (at, tag) in [(functional, 3u8), (functional, 0xFF), (basis, 2), (basis, 0xFF)] {
        let mut bad = bytes.clone();
        bad[at] = tag;
        assert_invalid_data(HsFile::from_bytes(&bad), &format!("tag {tag} at {at}"));
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert_invalid_data(HsFile::from_bytes(&trailing), "trailing byte");
    // A label length of u64::MAX must be refused before any allocation.
    let mut huge = bytes.clone();
    huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_invalid_data(HsFile::from_bytes(&huge), "huge label length");
}
