//! The PSP benchmark: one command, four workloads, correctness checked on
//! every run. See `perfbench/README.md` for what each workload measures
//! and why.
//!
//! ```text
//! puppies-perfbench --workload publish|view-hot|receive|sis --seed N
//!     --seconds S --trace 0|1 --serve-bin PATH [--commit ID] [--out DIR]
//! ```
//!
//! With `--trace 0` the last stdout line is the end-to-end result; with
//! `--trace 1` it is the per-layer result of a separate traced run. The
//! lines before it are the human report: run environment, every metric
//! by name and unit with its sample count, and the per-layer table.

mod gen;
mod publish;
mod receive;
mod server;
mod sis;
mod stats;
mod sweep;
mod trace;
mod view_hot;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Workloads the command runs (`BENCHMARK.json` gates all but `publish`).
const WORKLOADS: [&str; 4] = ["publish", "view-hot", "receive", "sis"];

/// Complete set-ups per untraced run, and chunks its timed window is cut
/// into; `setup_s` is the set-ups' median. A traced run sets up once.
pub const SETUP_REPS: usize = 7;

/// Closed-loop clients, open-loop load threads and their connections:
/// `nproc` of the two-core host the workloads were sized on.
pub const LOAD_THREADS: usize = 2;

/// What a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    /// Scratch directory for store directories and trace output.
    pub out: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics the last line carries: end-to-end ones untraced, the
    /// per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Further metrics of this workload, printed in the report only.
    pub extra: Vec<Metric>,
    /// Report lines: sample counts, checks, the per-layer table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs the timed window as [`SETUP_REPS`] chunks with the other
/// set-ups between them. `setup(0)` builds the state every chunk runs on;
/// after each chunk but the last, `setup(rep)` times one more complete
/// set-up, which is torn down at once (server stopped, store directory
/// removed). The host's speed drifts over tens of seconds, so timed work
/// spread over the whole run reads steadier than the same work in one
/// stretch. Returns the state, the chunks' results in order and the
/// median set-up time in seconds.
pub fn interleaved_setups<T, R>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut chunk: impl FnMut(&T, usize) -> Result<R, String>,
) -> Result<(T, Vec<R>, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut timed_setup = |rep| -> Result<T, String> {
        let t = Instant::now();
        let state = setup(rep)?;
        times.push(t.elapsed().as_secs_f64());
        Ok(state)
    };
    let state = timed_setup(0)?;
    let mut out = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        out.push(chunk(&state, i)?);
        if i + 1 < SETUP_REPS {
            drop(timed_setup(i + 1)?);
        }
    }
    Ok((state, out, stats::median(&times)))
}

/// Runs `f(t)` for `t` in `0..LOAD_THREADS` on scoped threads; results in
/// thread order.
pub fn on_threads<R: Send>(f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|t| {
                let f = &f;
                s.spawn(move || f(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// `(0..n).map(f)` spread over [`on_threads`] (index `i` on thread
/// `i % LOAD_THREADS`), returned in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut parts: Vec<_> =
        on_threads(|t| (t..n).step_by(LOAD_THREADS).map(&f).collect::<Vec<_>>())
            .into_iter()
            .map(Vec::into_iter)
            .collect();
    (0..n)
        .map(|i| {
            parts[i % LOAD_THREADS]
                .next()
                .expect("one result per index")
        })
        .collect()
}

/// CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    server::proc_cpu_s("/proc/self/stat")
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_ctx(args: &[String]) -> Result<(String, Ctx, String), String> {
    let workload = arg(args, "--workload")
        .ok_or("missing --workload")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed: u64 = arg(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = arg(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match arg(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}; expected 0 or 1")),
    };
    let serve_bin = PathBuf::from(arg(args, "--serve-bin").ok_or("missing --serve-bin")?);
    if !serve_bin.is_file() {
        return Err(format!("serve binary {} not found", serve_bin.display()));
    }
    let out = PathBuf::from(arg(args, "--out").unwrap_or(".bench_run"));
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let commit = arg(args, "--commit").unwrap_or("unknown").to_string();
    Ok((
        workload,
        Ctx {
            seed,
            seconds,
            trace,
            serve_bin,
            out,
        },
        commit,
    ))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx, commit) = match parse_ctx(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match workload.as_str() {
        "publish" => publish::run(&ctx),
        "view-hot" => view_hot::run(&ctx),
        "receive" => receive::run(&ctx),
        _ => sis::run(&ctx),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            std::process::exit(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {workload} | seed {} | commit {commit} | nproc {nproc} | simd {} | fsync on | transport loopback tcp | load threads {LOAD_THREADS} | {} s measured | traced {}",
        ctx.seed,
        puppies_image::simd::backend_name(),
        ctx.seconds,
        ctx.trace,
    );
    for n in &out.notes {
        let _ = writeln!(report, "{n}");
    }
    for m in out.metrics.iter().chain(&out.extra) {
        let _ = writeln!(report, "{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        report,
        "fail_ratio {:.6} ({} failed of {} attempted) | wall {:.1} s",
        out.fail_ratio(),
        out.failed,
        out.attempted,
        started.elapsed().as_secs_f64()
    );
    print!("{report}");
    let unmeasured: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("perfbench {workload}: no value for {unmeasured:?}");
    }
    let correct = out.failed == 0 && out.attempted > 0 && unmeasured.is_empty();
    let record = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"commit\": \"{commit}\", \"nproc\": {nproc}, \"simd\": \"{}\", \"fsync\": \"on\", \"transport\": \"loopback tcp\", \"trace\": {}, \"seconds\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"extra\": {}}}",
        ctx.seed,
        puppies_image::simd::backend_name(),
        u8::from(ctx.trace),
        ctx.seconds,
        out.attempted,
        out.failed,
        json_metrics(&out.metrics),
        json_metrics(&out.extra),
    );
    println!("record: {record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
