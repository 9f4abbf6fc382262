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
//! A change meant to move records by a bounded amount is checked against
//! the parent's saved output instead:
//!
//! ```text
//! cargo run --release -p qtx-bench --bin record_digest -- --against PARENT.txt
//! ```
//!
//! prints, per device × policy × momentum, the number of lines identical to
//! the parent's, the largest |ΔE|, |ΔT|, |ΔT_RL| and |ΔR|, and then every
//! line whose `method` or `attempts` differ (or that exists on one side
//! only). Lines are paired by their place on their device's ladder, not by
//! the energy's bits: every ladder starts from a band edge or a dispersive
//! energy, so a change to the band scan moves whole ladders by an ulp or
//! two, and |ΔE| shows by how much.
//!
//! Every run also holds the two routes to each other: wherever both
//! policies solved a point, |T_tonly − T_robust| must be at most
//! [`CROSS_ROUTE_BOUND`]. The worst value per device goes to stderr, so the
//! record lines and the `--against` report are unchanged by it.
//!
//! The exit code is 0 unless a point fails outright or the two routes
//! disagree beyond the bound.

use qtx_atomistic::devices::DeviceSpec;
use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::{Device, PointPolicy, TransportEngine};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The largest |T_tonly − T_robust| accepted at a point both policies
/// solved: the benchmark's tolerance on a point's T against its Caroli
/// reference (`benchmark/src/workloads.rs`, `T_TOL`). The routes share Σ
/// but not the formula: FEAST keeps only the lead modes inside its
/// annulus, so the robust route's mode projection and the Caroli trace
/// part by 10⁻⁵–10⁻⁴ on these ladders (with every mode, shift-invert, by
/// under 10⁻¹⁰ on the tight-binding devices).
const CROSS_ROUTE_BOUND: f64 = 5e-3;

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

/// What one run produced: the record lines, the number of points that
/// failed, and per device the largest |T_tonly − T_robust| over the points
/// both policies solved.
struct Run {
    lines: Vec<String>,
    failed: usize,
    cross_route: Vec<(&'static str, f64)>,
}

fn record_lines() -> Run {
    let mut lines = Vec::new();
    let mut failed = 0;
    let mut cross_route = Vec::new();
    for case in cases() {
        // The robust T of each (kz, E), for the tonly pass to be held to.
        let mut robust = HashMap::new();
        let mut worst = 0.0f64;
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
                            let at = (kz.to_bits(), e.to_bits());
                            if policy_name == "robust" {
                                robust.insert(at, r.transmission);
                            } else if let Some(&t) = robust.get(&at) {
                                worst = worst.max((r.transmission - t).abs());
                            }
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
                    lines.push(line);
                }
            }
        }
        cross_route.push((case.name, worst));
    }
    Run { lines, failed, cross_route }
}

/// The digest line over the record lines.
fn digest_line(lines: &[String]) -> String {
    let mut digest = Fnv::new();
    for line in lines {
        for byte in line.bytes() {
            digest.word(u64::from(byte));
        }
    }
    format!("digest {:016x}", digest.0)
}

/// A record line read back: device, policy and its `key=value` fields.
struct Record<'a> {
    device: &'a str,
    policy: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    fn parse(line: &'a str) -> Option<Record<'a>> {
        let mut tokens = line.split_whitespace();
        let (device, policy) = (tokens.next()?, tokens.next()?);
        let fields = tokens.map(|t| t.split_once('=')).collect::<Option<Vec<_>>>()?;
        Some(Record { device, policy, fields })
    }

    fn field(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// An `f64` printed as its bits.
    fn value(&self, key: &str) -> Option<f64> {
        u64::from_str_radix(self.field(key)?, 16).ok().map(f64::from_bits)
    }

    /// The ladder the line belongs to: device, policy, momentum.
    fn ladder(&self) -> (&'a str, &'a str, Option<&'a str>) {
        (self.device, self.policy, self.field("kz"))
    }

    /// The rung, the attempts and whether the point produced a result.
    fn outcome(&self) -> (Option<&'a str>, Option<&'a str>, bool) {
        (self.field("method"), self.field("attempts"), self.field("t").is_some())
    }

    fn show_outcome(&self) -> String {
        let (method, attempts, solved) = self.outcome();
        format!(
            "method={} attempts={}{}",
            method.unwrap_or("?"),
            attempts.unwrap_or("?"),
            if solved { "" } else { " (failed)" }
        )
    }

    /// `device policy kz=…` with the momentum in decimal.
    fn group(&self) -> String {
        format!("{} {} kz={}", self.device, self.policy, self.value("kz").unwrap_or(f64::NAN))
    }
}

/// Per device × policy × momentum: lines, identical lines, and the largest
/// |ΔE|, |ΔT|, |ΔT_RL| and |ΔR| against the parent.
#[derive(Default)]
struct Group {
    lines: usize,
    identical: usize,
    max_delta: [f64; 4],
}

/// A line's place: device, policy, momentum and its ordinal on that ladder.
type Place<'a> = (&'a str, &'a str, Option<&'a str>, usize);

/// Each parsed line with its place on its ladder.
fn on_ladders<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<(Place<'a>, &'a str, Record<'a>)> {
    let mut seen: HashMap<_, usize> = HashMap::new();
    lines
        .filter(|l| !l.starts_with("digest "))
        .filter_map(|l| Record::parse(l).map(|r| (l, r)))
        .map(|(l, r)| {
            let place = seen.entry(r.ladder()).or_default();
            *place += 1;
            let (device, policy, kz) = r.ladder();
            ((device, policy, kz, *place), l, r)
        })
        .collect()
}

/// The report of `--against`: the change's lines held to the parent's.
fn compare(parent: &str, change: &[String]) -> String {
    let parent: HashMap<_, _> =
        on_ladders(parent.lines()).into_iter().map(|(key, l, r)| (key, (l, r))).collect();
    let mut groups: Vec<(String, Group)> = Vec::new();
    let mut moved = Vec::new();
    let mut matched = 0;
    for (key, line, rec) in on_ladders(change.iter().map(String::as_str)) {
        let name = rec.group();
        if groups.last().is_none_or(|(g, _)| *g != name) {
            groups.push((name.clone(), Group::default()));
        }
        let group = &mut groups.last_mut().expect("pushed above").1;
        group.lines += 1;
        let Some((parent_line, old)) = parent.get(&key) else {
            moved.push(format!(
                "  {name} e={}: not in the parent",
                rec.value("e").unwrap_or(f64::NAN)
            ));
            continue;
        };
        matched += 1;
        if *parent_line == line {
            group.identical += 1;
            continue;
        }
        for (max, key) in group.max_delta.iter_mut().zip(["e", "t", "t_rl", "r"]) {
            if let (Some(a), Some(b)) = (old.value(key), rec.value(key)) {
                *max = max.max((a - b).abs());
            }
        }
        if old.outcome() != rec.outcome() {
            moved.push(format!(
                "  {name} e={}: {} -> {}",
                rec.value("e").unwrap_or(f64::NAN),
                old.show_outcome(),
                rec.show_outcome()
            ));
        }
    }
    let mut out = format!(
        "{:<28} {:>5} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
        "device policy kz", "lines", "identical", "max|dE|", "max|dT|", "max|dT_RL|", "max|dR|"
    );
    for (name, g) in &groups {
        let [e, t, t_rl, r] = g.max_delta;
        let _ = writeln!(
            out,
            "{name:<28} {:>5} {:>9} {e:>10.2e} {t:>10.2e} {t_rl:>10.2e} {r:>10.2e}",
            g.lines, g.identical
        );
    }
    let _ = writeln!(out, "lines whose method or attempts differ, or unmatched: {}", moved.len());
    for m in &moved {
        let _ = writeln!(out, "{m}");
    }
    if matched < parent.len() {
        let _ = writeln!(out, "parent lines not in this run: {}", parent.len() - matched);
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let against = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--against" => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("record_digest: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: record_digest [--against PARENT_DIGEST.txt]");
            return ExitCode::from(2);
        }
    };
    let Run { lines, failed, cross_route } = record_lines();
    let digest = digest_line(&lines);
    match against {
        Some(parent) => {
            print!("{}", compare(&parent, &lines));
            let old = parent.lines().find(|l| l.starts_with("digest ")).unwrap_or("digest ?");
            let verdict = if old == digest { "equal" } else { "differs" };
            println!("{digest} (parent: {}, {verdict})", old.trim_start_matches("digest "));
        }
        None => {
            for line in &lines {
                println!("{line}");
            }
            println!("{digest}");
        }
    }
    let mut disagree = false;
    for (name, worst) in &cross_route {
        let within = *worst <= CROSS_ROUTE_BOUND;
        let verdict = if within { "ok" } else { "ABOVE the bound" };
        eprintln!("cross-route {name}: max|T_tonly - T_robust| = {worst:.2e} ({verdict})");
        disagree |= !within;
    }
    if failed > 0 {
        eprintln!("{failed} point(s) failed");
    }
    if disagree {
        eprintln!("the routes disagree beyond {CROSS_ROUTE_BOUND:.0e}");
    }
    if failed > 0 || disagree {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
