//! `compare`: result files of one commit against result files of another
//! (or of the same one, run again), metric by metric, workload by
//! workload, under the bounds `BENCHMARK.json` fixes.
//!
//! Files before `--against` are the base (the parent commit), files after
//! it the change; pass them in the order the alternating pairs ran. With
//! no `--against` the files are taken as repeats of one commit and only
//! their spread is held against a third of each bound.

use crate::json::Json;
use crate::spec;
use crate::stats::{median, quartiles, spread, verdict, worsening, Better, Verdict};
use std::collections::BTreeMap;
use std::process::ExitCode;

type Key = (String, String); // (workload, metric)

/// `setup_s` may worsen by its bound or by this many seconds, whichever is
/// more (the issue's "10 % or 0.1 s").
const SETUP_FLOOR_S: f64 = 0.1;

/// Every `(workload, metric) → value` of one file: either a results file
/// of a full pass (`runs`) or the detail file of a single run.
fn read(path: &str) -> Result<BTreeMap<Key, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = file.get("runs").and_then(Json::as_arr).unwrap_or(std::slice::from_ref(&file));
    let mut out = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: a run without a workload"))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or(format!("{path}: {workload} has no metrics"))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.insert((workload.to_string(), name.clone()), v);
            }
        }
        let failed = run.get("result").and_then(|r| r.get("failed")).and_then(Json::as_f64);
        let attempted = run.get("result").and_then(|r| r.get("attempted")).and_then(Json::as_f64);
        if let (Some(f), Some(a)) = (failed, attempted) {
            let slot = out.entry((workload.to_string(), "failed_frac".into())).or_insert(0.0);
            *slot = f64::max(*slot, f / a.max(1.0));
        }
    }
    Ok(out)
}

/// `name → (bound, better)` of the end-to-end metrics.
fn bounds(path: &str) -> Result<BTreeMap<String, (f64, Better)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let b = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = b.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            let better = Better::parse(m.get("better")?.as_str()?)?;
            Some((m.get("name")?.as_str()?.to_string(), (m.get("bound")?.as_f64()?, better)))
        })
        .collect())
}

fn gather(files: &[String]) -> Result<BTreeMap<Key, Vec<f64>>, String> {
    let mut out: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
    for f in files {
        for (k, v) in read(f)? {
            out.entry(k).or_default().push(v);
        }
    }
    Ok(out)
}

fn describe(xs: &[f64]) -> String {
    if xs.len() >= 2 {
        let [q1, q2, q3] = quartiles(xs);
        format!("{q2:.4} [{q1:.4}, {q3:.4}] n={}", xs.len())
    } else {
        format!("{:.4} n=1", xs[0])
    }
}

pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut base_files = Vec::new();
    let mut new_files = Vec::new();
    let mut exact_counts = false;
    let mut against = false;
    for a in args {
        match a.as_str() {
            "--against" => against = true,
            "--exact-counts" => exact_counts = true,
            f if against => new_files.push(f.to_string()),
            f => base_files.push(f.to_string()),
        }
    }
    if base_files.is_empty() {
        return Err("no result files".into());
    }
    let bounds = bounds("BENCHMARK.json")?;
    let base = gather(&base_files)?;
    let mut ok = true;

    if new_files.is_empty() {
        println!(
            "{:<20} {:<28} {:<40} {:>8} {:>8}",
            "workload", "metric", "median [q1, q3]", "spread", "bound/3"
        );
        for ((workload, metric), xs) in &base {
            let Some(&(bound, _)) = bounds.get(metric) else { continue };
            if xs.len() < 2 {
                return Err("a spread needs at least two files".into());
            }
            let s = spread(xs);
            // setup_s is repeated inside a run; the driver bounds its
            // median, not its spread.
            let steady = s <= bound / 3.0 || metric == "setup_s";
            ok &= steady;
            println!(
                "{workload:<20} {metric:<28} {:<40} {:>7.2}% {:>7.2}%{}",
                describe(xs),
                100.0 * s,
                100.0 * bound / 3.0,
                if steady { "" } else { "  UNSTEADY" }
            );
        }
        return Ok(ok);
    }

    let new = gather(&new_files)?;
    println!(
        "{:<20} {:<28} {:<38} {:<38} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "new/base", "bound"
    );
    for ((workload, metric), b) in &base {
        let Some(n) = new.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<20} {metric:<28} missing from the new files");
            ok = false;
            continue;
        };
        let (mb, mn) = (median(b), median(n));
        let line = |tail: String| {
            println!(
                "{workload:<20} {metric:<28} {:<38} {:<38} {:>8.4} {tail}",
                describe(b),
                describe(n),
                mn / mb
            );
        };
        if metric == "failed_frac" {
            // Any increase counts.
            let worse = mn > mb;
            ok &= !worse;
            line(format!("{:>6}  {}", "0", if worse { "REGRESSED" } else { "within" }));
        } else if let Some(&(bound, better)) = bounds.get(metric) {
            let mut v = verdict(b, n, bound, better);
            if metric == "setup_s" && (mn - mb).abs() <= SETUP_FLOOR_S {
                // A set-up of a few milliseconds moves by tens of percent
                // from run to run; below the floor it is not a regression.
                v = Verdict::Within;
            }
            ok &= !matches!(v, Verdict::Regressed);
            let name = match v {
                Verdict::Improved => "improved",
                Verdict::Within => "within",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved (base spread > bound)",
            };
            line(format!(
                "{:>5.0}%  {name} ({:+.2}%)",
                100.0 * bound,
                100.0 * worsening(mb, mn, better)
            ));
        } else if spec::EXACT_COUNTS.contains(&metric.as_str()) {
            let same = b.iter().chain(n).all(|x| x.to_bits() == b[0].to_bits());
            ok &= same || !exact_counts;
            line(format!("{:>6}  {}", "exact", if same { "equal" } else { "DIFFERS" }));
        } else {
            line(format!("{:>6}  (no bound)", "-"));
        }
    }
    Ok(ok)
}
