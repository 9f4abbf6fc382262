//! Prints the bits of every record a fixed energy ladder produces on the
//! benchmark's four device shapes, and one digest line over all of them.
//!
//! Devices: the UTB film (0.8 nm, 8 cells, at two momenta), the 0.8 nm
//! wire (8 cells), the 1.5 nm wire of 128 cells and the DFT 1.0 nm wire of
//! 12 cells, each under a small potential profile. Every energy is solved
//! twice, under the robust and the transmission-only policy, on an engine
//! of its own with no pool and no cache. For each point the bits of T,
//! T_RL, R and the residual, the rung (`method`) and the attempts are
//! printed with an FNV-1a hash of ψ.
//!
//! A change meant to keep every record is checked by running this at the
//! parent commit and at the change and diffing the two outputs:
//!
//! ```text
//! cargo run --release -p qtx-bench --bin record_digest > digest.txt
//! ```
//!
//! The exit code is 0 unless a point fails outright.

use qtx_atomistic::devices::DeviceSpec;
use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::{Device, PointPolicy, TransportEngine};
use std::fmt::Write as _;
use std::process::ExitCode;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One device of the ladder: its name, the device with its potential
/// applied, the momenta and the energies solved at each.
struct Case {
    name: &'static str,
    device: Device,
    kz: Vec<f64>,
    energies: Vec<f64>,
}

/// A potential ripple of `amp` eV over the slabs, the same for every run.
fn ripple(dev: &mut Device, amp: f64) {
    let v: Vec<f64> = (0..dev.n_slabs).map(|q| amp * (0.7 * q as f64).sin()).collect();
    dev.set_potential(&v);
}

/// `n` energies from `e0` up in steps of `de`.
fn ladder(e0: f64, de: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| e0 + de * i as f64).collect()
}

fn tight_binding(name: &'static str, spec: DeviceSpec, kz: Vec<f64>, n_e: usize) -> Case {
    let mut device = Device::build(spec).expect("device build");
    ripple(&mut device, 0.02);
    let edge = device.at_kz(0.0).lead_l.dispersive_band_min(0.1, 0.3).expect("conduction band");
    Case { name, device, kz, energies: ladder(edge + 0.05, 0.02, n_e) }
}

fn cases() -> Vec<Case> {
    let tb = BasisKind::TightBinding;
    let mut dft =
        Device::build(DeviceBuilder::nanowire(1.0).cells(12).basis(BasisKind::Dft3sp).build())
            .expect("device build");
    ripple(&mut dft, 0.02);
    let e0 = dft.at_kz(0.0).lead_l.dispersive_energy(1.1, 0.3, 0.3).expect("a dispersive band");
    vec![
        tight_binding("utb", DeviceBuilder::utb(0.8).cells(8).basis(tb).build(), vec![0.0, 0.7], 6),
        tight_binding(
            "nw08",
            DeviceBuilder::nanowire(0.8).cells(8).basis(tb).build(),
            vec![0.0],
            6,
        ),
        tight_binding(
            "nw15x128",
            DeviceBuilder::nanowire(1.5).cells(128).basis(tb).build(),
            vec![0.0],
            3,
        ),
        Case { name: "dft10", device: dft, kz: vec![0.0], energies: ladder(e0, 0.02, 2) },
    ]
}

fn main() -> ExitCode {
    let mut digest = Fnv::new();
    let mut failed = 0;
    for case in cases() {
        for (policy_name, policy) in
            [("robust", PointPolicy::robust()), ("tonly", PointPolicy::transmission_only())]
        {
            let engine = TransportEngine::new(case.device.clone());
            for &kz in &case.kz {
                for &e in &case.energies {
                    let rs = engine.solve_point(e, kz, &policy);
                    let o = rs.outcome;
                    let mut line = format!(
                        "{} {policy_name} kz={:016x} e={:016x}",
                        case.name,
                        kz.to_bits(),
                        e.to_bits()
                    );
                    match &rs.result {
                        Some(r) => {
                            let mut psi = Fnv::new();
                            for z in r.psi.as_slice() {
                                psi.word(z.re.to_bits());
                                psi.word(z.im.to_bits());
                            }
                            let _ = write!(
                                line,
                                " t={:016x} t_rl={:016x} r={:016x} psi={:016x}",
                                r.transmission.to_bits(),
                                r.transmission_rl.to_bits(),
                                r.reflection.to_bits(),
                                psi.0
                            );
                        }
                        None => failed += 1,
                    }
                    let _ = write!(
                        line,
                        " residual={:016x} method={} attempts={}",
                        o.residual.to_bits(),
                        o.method_used,
                        o.attempts
                    );
                    println!("{line}");
                    for byte in line.bytes() {
                        digest.word(u64::from(byte));
                    }
                }
            }
        }
    }
    println!("digest {:016x}", digest.0);
    if failed > 0 {
        eprintln!("{failed} point(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
