//! `gdobench`: the end-to-end GDO benchmark.
//!
//! ```text
//! gdobench --workload <proof_bound|rewrite_dense|partitioned_scale|served_mix|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload prepares its netlists from the seed, optimizes them
//! through the system's public entry points for about `--seconds`
//! seconds, checks every output, and prints a report line followed by
//! one JSON result line. With `--trace 0` the result carries the
//! end-to-end metrics (in-program telemetry off); with `--trace 1` it
//! carries the per-layer metrics of a traced run. The exit code is 0
//! only when every check passed. See `METRICS.md` for what each metric
//! means and which layer should move it.

mod measure;
mod offline;
mod report;
mod served;

use measure::{Checks, Metrics};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The default seed: it reproduces the suite's stand-in circuits and the
/// optimizer's default BPFS seed.
pub const DEFAULT_SEED: u64 = 1995;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "proof_bound",
    "rewrite_dense",
    "partitioned_scale",
    "served_mix",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: "all".to_string(),
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => {
                    args.seed = value()?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?;
                }
                "--seconds" => {
                    args.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace needs 0 or 1".to_string()),
                    };
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "unknown workload {:?} (valid: {}, all)",
                args.workload,
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// What one workload run produced.
pub struct RunResult {
    pub checks: Checks,
    pub metrics: Metrics,
    /// Provenance and the numbers that are not result metrics.
    pub info: BTreeMap<String, String>,
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// FNV-1a digest of the system's sources and this benchmark's, standing
/// in for the commit (checkouts measured need not be git repositories).
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() && name != "target" {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(&here.join("../crates"), &mut files);
    walk(&here.join("src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", measure::fnv1a(&bytes))
}

fn run_workload(args: &Args) -> Result<RunResult, String> {
    let lib = library::standard_library();
    match args.workload.as_str() {
        "proof_bound" => offline::run(&offline::proof_bound()?, args, &lib),
        "rewrite_dense" => offline::run(&offline::rewrite_dense(args.seed)?, args, &lib),
        "partitioned_scale" => offline::run(&offline::partitioned_scale(args.seed)?, args, &lib),
        "served_mix" => served::run(args, &lib),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn json_str(s: &str) -> String {
    telemetry::json_escaped(s)
}

/// Runs every workload in a child process of its own (peak memory is
/// per process), passes their output through, and ends with one result
/// line whose metrics are named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut fields = Vec::new();
    for name in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        let v = proto::json::parse(last).map_err(|e| format!("{name}: no result line: {e}"))?;
        correct &= out.status.success() && v.get("correct").and_then(|c| c.as_bool()) == Some(true);
        attempted += v.get("attempted").and_then(|x| x.as_u64()).unwrap_or(0);
        failed += v.get("failed").and_then(|x| x.as_u64()).unwrap_or(0);
        if let Some(metrics) = v.get("metrics").and_then(|m| m.as_obj()) {
            for (k, m) in metrics {
                let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
                let unit = m.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                fields.push(format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_str(&format!("{name}.{k}")),
                    json_str(unit)
                ));
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gdobench: {e}");
            eprintln!(
                "usage: gdobench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("gdobench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let result = match run_workload(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gdobench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let RunResult {
        checks,
        metrics,
        mut info,
    } = result;
    let attempted = checks.attempted.max(1);
    let failed = checks.failed();
    info.insert("workload".into(), args.workload.clone());
    info.insert("seed".into(), args.seed.to_string());
    info.insert("seconds".into(), args.seconds.to_string());
    info.insert("trace".into(), u8::from(args.trace).to_string());
    info.insert("nproc".into(), nproc().to_string());
    info.insert("source_digest".into(), source_digest());
    #[allow(clippy::cast_precision_loss)]
    info.insert(
        "fail_rate".into(),
        (failed as f64 / attempted as f64).to_string(),
    );
    let info_json: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let errors: Vec<String> = checks.errors.iter().map(|e| json_str(e)).collect();
    for m in &metrics.0 {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &checks.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!(
        "{{\"gdobench\":{{{}}},\"errors\":[{}]}}",
        info_json.join(","),
        errors.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        checks.correct(),
        metrics.to_json()
    );
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
