//! The CP2K → OMEN binary transfer file (Fig. 2).
//!
//! "The coupling between the two packages currently occurs through a
//! transfer of binary files" (§4). The format here is a simple
//! length-prefixed little-endian layout built with the `bytes` crate: a
//! magic tag, metadata, then the unit-cell `H_l`/`S_l` blocks. `qtx-core`
//! plays OMEN's role and reads these files back ("not all the nodes
//! running OMEN load the Hamiltonian ... the resulting data are then
//! distributed to all the available MPI ranks with MPI_Bcast").
//!
//! The reader trusts nothing it is given: every length is checked against
//! the bytes left before anything is allocated, tags outside the known set
//! and trailing bytes are refused, and a malformed file comes back as
//! [`std::io::ErrorKind::InvalidData`], never as a panic.

use crate::functional::Functional;
use crate::scf::ScfReport;
use bytes::{BufMut, BytesMut};
use qtx_atomistic::assemble::UnitCellMatrices;
use qtx_atomistic::devices::DeviceGeometry;
use qtx_atomistic::BasisKind;
use qtx_linalg::{c64, ZMat};
use std::io;

/// Magic prefix of the transfer format.
const MAGIC: &[u8; 8] = b"QTXHS\x01\0\0";

/// The transferred content: everything OMEN needs to build leads and
/// device matrices.
#[derive(Debug, Clone)]
pub struct HsFile {
    /// Human-readable structure label.
    pub label: String,
    /// Functional the matrices were generated with.
    pub functional: Functional,
    /// Device geometry metadata.
    pub geometry: DeviceGeometry,
    /// Basis kind.
    pub basis: BasisKind,
    /// Unit-cell Hamiltonian/overlap blocks.
    pub unit_cell: UnitCellMatrices,
    /// Self-consistency record.
    pub scf: ScfReport,
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u64_le(s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn put_zmat(buf: &mut BytesMut, m: &ZMat) {
    buf.put_u64_le(m.rows() as u64);
    buf.put_u64_le(m.cols() as u64);
    for z in m.as_slice() {
        buf.put_f64_le(z.re);
        buf.put_f64_le(z.im);
    }
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Bounds-checked little-endian cursor over the file's bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(invalid(format!("truncated {what}")));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        let mut le = [0u8; 8];
        le.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(le))
    }

    fn f64(&mut self, what: &str) -> io::Result<f64> {
        self.u64(what).map(f64::from_bits)
    }

    fn usize(&mut self, what: &str) -> io::Result<usize> {
        usize::try_from(self.u64(what)?).map_err(|_| invalid(format!("{what} out of range")))
    }

    fn bool(&mut self, what: &str) -> io::Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(invalid(format!("{what}: bad flag {tag}"))),
        }
    }

    /// A count of `items` of `item_bytes` each, refused unless that many
    /// bytes are left.
    fn fits(&self, items: usize, item_bytes: usize, what: &str) -> io::Result<usize> {
        match items.checked_mul(item_bytes) {
            Some(bytes) if bytes <= self.0.len() => Ok(items),
            _ => Err(invalid(format!("{what}: {items} items overrun the file"))),
        }
    }

    fn string(&mut self, what: &str) -> io::Result<String> {
        let len = self.usize(what)?;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| invalid(format!("{what} is not UTF-8")))
    }

    fn zmat(&mut self, what: &str) -> io::Result<ZMat> {
        let (rows, cols) = (self.usize(what)?, self.usize(what)?);
        let entries = rows.checked_mul(cols).ok_or_else(|| invalid(format!("{what} too large")))?;
        self.fits(entries, 16, what)?;
        let mut m = ZMat::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = c64(self.f64(what)?, self.f64(what)?);
            }
        }
        Ok(m)
    }
}

impl HsFile {
    /// Serializes to the binary transfer format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        put_string(&mut buf, &self.label);
        buf.put_u8(match self.functional {
            Functional::Lda => 0,
            Functional::Pbe => 1,
            Functional::Hse06 => 2,
        });
        buf.put_u8(match self.basis {
            BasisKind::TightBinding => 0,
            BasisKind::Dft3sp => 1,
        });
        put_string(&mut buf, &self.geometry.kind);
        buf.put_f64_le(self.geometry.cross_section);
        buf.put_u64_le(self.geometry.n_cells as u64);
        buf.put_f64_le(self.geometry.cell_len);
        buf.put_u8(self.geometry.z_periodic as u8);
        // Unit cell matrices.
        let uc = &self.unit_cell;
        buf.put_u64_le(uc.nbw as u64);
        buf.put_u64_le(uc.n_orb as u64);
        buf.put_u64_le(uc.atoms_per_cell as u64);
        buf.put_f64_le(uc.cell_len);
        for l in 0..=uc.nbw {
            put_zmat(&mut buf, &uc.h[l]);
            put_zmat(&mut buf, &uc.s[l]);
        }
        // SCF report.
        buf.put_u64_le(self.scf.iterations as u64);
        buf.put_f64_le(self.scf.charge_residual);
        buf.put_u8(self.scf.converged as u8);
        buf.put_u64_le(self.scf.mulliken.len() as u64);
        for &q in &self.scf.mulliken {
            buf.put_f64_le(q);
        }
        buf.to_vec()
    }

    /// Deserializes from the binary transfer format. A truncated or
    /// corrupted file, an unknown tag, a block that is not
    /// `n_orb × n_orb` or bytes past the end are
    /// [`io::ErrorKind::InvalidData`].
    pub fn from_bytes(data: &[u8]) -> io::Result<HsFile> {
        let mut r = Reader(data);
        if r.take(8, "magic").ok() != Some(&MAGIC[..]) {
            return Err(invalid("bad magic"));
        }
        let label = r.string("label")?;
        let functional = match r.u8("functional")? {
            0 => Functional::Lda,
            1 => Functional::Pbe,
            2 => Functional::Hse06,
            tag => return Err(invalid(format!("unknown functional tag {tag}"))),
        };
        let basis = match r.u8("basis")? {
            0 => BasisKind::TightBinding,
            1 => BasisKind::Dft3sp,
            tag => return Err(invalid(format!("unknown basis tag {tag}"))),
        };
        let kind = r.string("geometry kind")?;
        let cross_section = r.f64("cross section")?;
        let n_cells = r.usize("cell count")?;
        let cell_len = r.f64("cell length")?;
        let z_periodic = r.bool("z periodicity")?;
        // Each of the `nbw + 1` levels holds two blocks of two u64 dims at
        // least.
        let nbw = r.usize("nbw")?;
        let levels = nbw.checked_add(1).ok_or_else(|| invalid("nbw out of range"))?;
        r.fits(levels, 2 * 16, "unit-cell blocks")?;
        let n_orb = r.usize("orbital count")?;
        let atoms_per_cell = r.usize("atoms per cell")?;
        let uc_cell_len = r.f64("unit-cell length")?;
        let mut h = Vec::with_capacity(levels);
        let mut s = Vec::with_capacity(levels);
        for _ in 0..levels {
            for (blocks, what) in [(&mut h, "H block"), (&mut s, "S block")] {
                let m = r.zmat(what)?;
                if (m.rows(), m.cols()) != (n_orb, n_orb) {
                    return Err(invalid(format!("{what} is not {n_orb} × {n_orb}")));
                }
                blocks.push(m);
            }
        }
        let iterations = r.usize("SCF iterations")?;
        let charge_residual = r.f64("charge residual")?;
        let converged = r.bool("SCF convergence")?;
        let nq = r.usize("Mulliken count")?;
        let nq = r.fits(nq, 8, "Mulliken charges")?;
        let mulliken = (0..nq).map(|_| r.f64("Mulliken charge")).collect::<io::Result<_>>()?;
        if !r.0.is_empty() {
            return Err(invalid(format!("{} trailing bytes", r.0.len())));
        }
        Ok(HsFile {
            label,
            functional,
            geometry: DeviceGeometry { kind, cross_section, n_cells, cell_len, z_periodic },
            basis,
            unit_cell: UnitCellMatrices { nbw, n_orb, h, s, atoms_per_cell, cell_len: uc_cell_len },
            scf: ScfReport { iterations, charge_residual, converged, mulliken },
        })
    }

    /// Writes the transfer file to disk.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a transfer file from disk.
    pub fn load(path: &std::path::Path) -> std::io::Result<HsFile> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::Cp2kRun;
    use qtx_atomistic::{BasisKind, DeviceBuilder};

    fn sample() -> HsFile {
        let spec = DeviceBuilder::nanowire(0.8).cells(4).basis(BasisKind::TightBinding).build();
        Cp2kRun::new(spec).without_scf().generate().unwrap()
    }

    #[test]
    fn roundtrip_preserves_matrices() {
        let hs = sample();
        let bytes = hs.to_bytes();
        let back = HsFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.unit_cell.nbw, hs.unit_cell.nbw);
        assert_eq!(back.unit_cell.n_orb, hs.unit_cell.n_orb);
        for l in 0..=hs.unit_cell.nbw {
            assert!(back.unit_cell.h[l].max_diff(&hs.unit_cell.h[l]) < 1e-15);
            assert!(back.unit_cell.s[l].max_diff(&hs.unit_cell.s[l]) < 1e-15);
        }
        assert_eq!(back.label, hs.label);
        assert_eq!(back.geometry.n_cells, 4);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(HsFile::from_bytes(b"NOTQTXHS-whatever").is_err());
    }

    #[test]
    fn file_roundtrip_on_disk() {
        let hs = sample();
        let dir = std::env::temp_dir().join("qtx_hsfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.qtxhs");
        hs.save(&path).unwrap();
        let back = HsFile::load(&path).unwrap();
        assert!(back.unit_cell.h[0].max_diff(&hs.unit_cell.h[0]) < 1e-15);
        std::fs::remove_file(&path).ok();
    }
}
