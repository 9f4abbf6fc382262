//! The repo's end-to-end, layer-attributed transport benchmark.
//!
//! `run.sh --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Without `--workload` it runs every workload, each in a child
//! process of its own and one at a time, and collects the results under
//! `benchmark/out/`. `run.sh compare` holds result files against each
//! other under the bounds of `BENCHMARK.json`. See `benchmark/README.md`.

mod compare;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{Inputs, Kind, Sizes, Tally, Workload};

/// `run_seconds` of `BENCHMARK.json`; what a run measures for when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups per end-to-end run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A set-up cheaper than this in total is repeated further, up to
/// `SETUP_REPS_MAX` times.
const SETUP_MIN_S: f64 = 0.5;
const SETUP_REPS_MAX: usize = 15;
/// Time a slice of the single-client point loop takes, as a share of the
/// repetition it precedes (a whole pass over the sample at the least).
const POINT_SHARE: f64 = 0.25;
/// Where result files, traces and tables go (git-ignored).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  run.sh compare BASE.json... [--against NEW.json...] [--exact-counts]
without --workload every workload runs, one child process at a time;
--trace then adds a traced pass after the end-to-end pass";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt_reference: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        corrupt_reference: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" => {}
            "--workload" => {
                let name = value("a workload name")?;
                out.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                out.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => out.smoke = true,
            // Test hook: shifts every reference, so every check must fail.
            "--corrupt-reference" => out.corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.smoke && !seconds_given {
        out.seconds = 1.0;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let run = match parse_run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = hygiene() {
        eprintln!("refusing to start: {e}");
        return ExitCode::from(2);
    }
    let correct = match run.workload {
        Some(w) => run_one(w, &run),
        None => run_all(&run),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an output check did not hold");
        ExitCode::from(1)
    }
}

/// Conditions without which the numbers mean nothing: two cores for the
/// two pool workers, and no `QTX_*` switch inherited from the caller (they
/// reroute kernels, arm caches and inject faults). The one variable the
/// library needs, the size of the global pool `id_vgs` runs on, is set
/// here, before any thread exists.
fn hygiene() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < workloads::POOL_WORKERS {
        return Err(format!("{cores} core(s); the pools run {} workers", workloads::POOL_WORKERS));
    }
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("QTX_"))
    {
        return Err(format!("{} is set; unset every QTX_* variable", k.to_string_lossy()));
    }
    std::env::set_var("QTX_SCHED_WORKERS", workloads::POOL_WORKERS.to_string());
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// What the numbers were measured on, recorded with every result.
fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("cpu", Json::Str(cpu)),
        ("active_variant", Json::Str(qtx::linalg::active_variant().name().to_string())),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("git_sha", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("pool_workers", Json::Num(workloads::POOL_WORKERS as f64)),
        ("n_ranks", Json::Num(workloads::N_RANKS as f64)),
    ])
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn write_out(name: &str, text: &str) -> PathBuf {
    let path = Path::new(OUT_DIR).join(name);
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    std::fs::write(&path, text).expect("write under benchmark/out");
    path
}

fn detail_name(w: Workload, seed: u64, trace: bool) -> String {
    format!("{}.seed{seed}.{}.json", w.name(), if trace { "traced" } else { "e2e" })
}

fn summary(xs: &[f64]) -> Json {
    let mut fields =
        vec![("n", Json::Num(xs.len() as f64)), ("median", Json::Num(stats::median(xs)))];
    if xs.len() >= 2 {
        let [q1, _, q3] = stats::quartiles(xs);
        fields.push(("q1", Json::Num(q1)));
        fields.push(("q3", Json::Num(q3)));
    }
    Json::obj(fields)
}

struct Measured {
    metrics: BTreeMap<&'static str, f64>,
    tally: Tally,
    raw: Json,
}

/// The end-to-end run: set-up (several times), reference, repetitions,
/// point loop — all with tracing off.
fn end_to_end(w: Workload, run: &RunArgs, inp: &Inputs, sizes: Sizes) -> Measured {
    let mut off = Tracer::new(false, w.name());
    // Set up at least SETUP_REPS times, and a cheap set-up more often, so
    // that the median rests on half a second of work or more.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut kept = None;
    let enough = |times: &[f64]| {
        run.smoke
            || times.len() >= SETUP_REPS_MAX
            || (times.len() >= SETUP_REPS && times.iter().sum::<f64>() >= SETUP_MIN_S)
    };
    while setup_s.is_empty() || !enough(&setup_s) {
        drop(kept.take()); // one set-up's pools and caches at a time
        let t0 = Instant::now();
        let s = workloads::setup(w, inp, sizes, &mut off);
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    let r = workloads::reference(&s, sizes, run.corrupt_reference);

    let mut tally = Tally::default();
    let mut point_ms = Vec::new();
    let mut wall_s = Vec::new();
    let mut rss_mb = None;

    // One discarded warm-up repetition. Then cycles of a slice of the
    // single-client point loop (whole passes over the checked sample, for
    // about POINT_SHARE of a repetition's time) and one repetition, while
    // the next cycle still fits --seconds (two cycles at least). Loop and
    // repetitions alternate so that a slow spell of the machine falls on
    // both alike. The transmission-only workload's repetition is itself a
    // pass of the point loop.
    let warmup = workloads::run_rep(&s, &r);
    tally.add(warmup.tally);
    let mut points = warmup.points;
    let mut rep_s = warmup.secs;
    let measuring = Instant::now();
    let mut cycle_s = 0.0;
    while wall_s.len() < 2 || measuring.elapsed().as_secs_f64() + cycle_s <= run.seconds {
        let cycle = Instant::now();
        if !matches!(s.kind, Kind::PointLoop) {
            let first = point_ms.len();
            while point_ms.len() == first || cycle.elapsed().as_secs_f64() < POINT_SHARE * rep_s {
                workloads::point_pass(&s, &r, &mut point_ms, &mut tally);
            }
        }
        let rep = workloads::run_rep(&s, &r);
        tally.add(rep.tally);
        wall_s.push(rep.secs);
        point_ms.extend(rep.point_ms);
        points = rep.points;
        rep_s = rep.secs;
        cycle_s = cycle.elapsed().as_secs_f64();
        // The high-water mark after a fixed amount of work — set-ups,
        // reference, warm-up and one cycle — not at exit: how many cycles
        // fit --seconds depends on the machine, and a pool that grows with
        // every point solved would make the reading follow that number.
        rss_mb.get_or_insert_with(peak_rss_mb);
    }

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", stats::median(&setup_s));
    metrics.insert("wall_s", stats::median(&wall_s));
    metrics.insert("point_ms_p50", stats::median(&point_ms));
    metrics.insert("peak_rss_mb", rss_mb.expect("at least one cycle ran"));
    let raw = Json::obj([
        ("setup_s", Json::nums(&setup_s)),
        ("reference_s", Json::Num(r.secs)),
        ("warmup_s", Json::Num(warmup.secs)),
        ("wall_s", Json::nums(&wall_s)),
        ("wall_s_summary", summary(&wall_s)),
        ("points_per_rep", Json::Num(points as f64)),
        ("rss_at_exit_mb", Json::Num(peak_rss_mb())),
        ("point_ms_summary", summary(&point_ms)),
        ("point_ms_p90", stats::p90_if_supported(&point_ms).map_or(Json::Null, Json::Num)),
    ]);
    Measured { metrics, tally, raw }
}

/// The traced run: per-layer metrics, plus the trace files.
fn traced(w: Workload, run: &RunArgs, inp: &Inputs, sizes: Sizes) -> Measured {
    let mut tr = Tracer::new(true, w.name());
    let out = layers::run(w, inp, sizes, run.corrupt_reference, &mut tr);
    let stem = format!("{}.seed{}", w.name(), run.seed);
    let chrome = write_out(&format!("{stem}.trace.json"), &tr.chrome_trace().render());
    let table = trace::self_time_table(tr.spans());
    let table_path = write_out(&format!("{stem}.self_time.txt"), &table);
    eprintln!("{table}trace: {} and {}", chrome.display(), table_path.display());
    Measured { metrics: out.metrics, tally: out.tally, raw: Json::Null }
}

/// Runs one workload in this process. Everything a person reads goes to
/// standard error; the last line of standard output is the result object.
fn run_one(w: Workload, run: &RunArgs) -> bool {
    let inp = Inputs::from_seed(run.seed);
    let sizes = Sizes { smoke: run.smoke };
    let t0 = Instant::now();
    let m = if run.trace { traced(w, run, &inp, sizes) } else { end_to_end(w, run, &inp, sizes) };
    let finite = m.metrics.values().all(|v| v.is_finite());
    let correct = m.tally.failed == 0 && finite;

    eprintln!(
        "== {} seed {} ({} run{}) ==",
        w.name(),
        run.seed,
        if run.trace { "traced" } else { "end-to-end" },
        if run.smoke { ", SMOKE SIZES: compares with nothing" } else { "" }
    );
    let table = if run.trace { spec::PER_LAYER } else { spec::END_TO_END };
    let mut metrics = Vec::new();
    for metric in table {
        let value = m.metrics[metric.name];
        eprintln!("{:<32} {:>16.6} {}", metric.name, value, metric.unit);
        metrics.push((
            metric.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::Str(metric.unit.into()))]),
        ));
    }
    eprintln!(
        "checked {} operations, {} failed (failed_frac {:.6}); {:.1} s in all",
        m.tally.attempted,
        m.tally.failed,
        m.tally.failed as f64 / m.tally.attempted.max(1) as f64,
        t0.elapsed().as_secs_f64()
    );
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(m.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(m.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    let detail = Json::obj([
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        ("trace", Json::Bool(run.trace)),
        ("smoke", Json::Bool(run.smoke)),
        ("host", host()),
        ("result", result.clone()),
        ("raw", m.raw),
    ]);
    write_out(&detail_name(w, run.seed, run.trace), &detail.render());
    println!("{}", result.render());
    correct
}

/// Runs every workload, each in a child process of its own, one at a
/// time, and gathers their detail files into one results file.
fn run_all(run: &RunArgs) -> bool {
    let exe = std::env::current_exe().expect("path of this executable");
    let passes: &[bool] = if run.trace { &[false, true] } else { &[false] };
    let t0 = Instant::now();
    let mut all_correct = true;
    let mut runs = Vec::new();
    for &trace in passes {
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &run.seed.to_string()])
                .args(["--seconds", &run.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                // Its result is read from its detail file.
                .stdout(Stdio::null())
                // hygiene() armed this for our own process; the child arms its own.
                .env_remove("QTX_SCHED_WORKERS");
            if run.smoke {
                cmd.arg("--smoke");
            }
            if run.corrupt_reference {
                cmd.arg("--corrupt-reference");
            }
            let detail = Path::new(OUT_DIR).join(detail_name(w, run.seed, trace));
            // A run that dies must not be read as the previous one's file.
            let _ = std::fs::remove_file(&detail);
            let status = cmd.status().expect("start the workload process");
            all_correct &= status.success();
            match std::fs::read_to_string(&detail)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t))
            {
                Ok(j) => runs.push(j),
                Err(e) => {
                    eprintln!("{}: no result ({status}): {e}", w.name());
                    all_correct = false;
                }
            }
        }
    }
    let results = Json::obj([
        ("seed", Json::Num(run.seed as f64)),
        ("smoke", Json::Bool(run.smoke)),
        ("host", host()),
        ("runs", Json::Arr(runs)),
    ]);
    let path = write_out(&format!("results.seed{}.json", run.seed), &results.render());
    eprintln!("all workloads: {:.0} s; results in {}", t0.elapsed().as_secs_f64(), path.display());
    println!("{}", path.display());
    all_correct
}
