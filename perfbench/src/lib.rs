//! `perfbench` — one outside-in benchmark over the workspace's three
//! evaluation paths.
//!
//! * [`exec`] — the execution-driven accuracy loop and cycle model over
//!   the Baseline lineup (`sim::run_accuracy` then `sim::run_cycles`).
//! * [`replay`] — `.bt` trace replay through conventional kernels, then
//!   the trace-fed cycle model (`replay::replay_entry`,
//!   `sim::run_cycles_trace`).
//! * [`serve`] — the release `serve` daemon under a closed loop of
//!   predict and metrics requests.
//!
//! Every workload sets up, then runs fixed-size passes of its timed
//! phase until the time budget is spent, then checks its outputs. Exec
//! and replay repeat their set-up after every plain pass too, outside the
//! pass times, so `setup_s` (the median) sees the same host conditions
//! as the passes, and they time the [`speed`] kernel between operations
//! and report their times scaled to a reference host speed. A traced run spends the first half of
//! its budget on plain passes and the second half on passes whose calls
//! into each layer go through the [`probe`] wrappers; it reports per-layer
//! metrics and the tracing overhead. Every timing is host time; simulated
//! statistics are outputs to check, not speeds.

#![forbid(unsafe_code)]

pub mod exec;
pub mod http;
pub mod probe;
pub mod replay;
pub mod serve;
pub mod speed;
pub mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use speed::HostSpeed;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["exec", "replay", "serve"];

/// End-to-end metrics every workload reports from an untraced run:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports: `(name, unit)`. A metric
/// whose layer a workload does not reach reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sim.accuracy.muops_s", "Muops/s"),
    ("sim.cycle.muops_s", "Muops/s"),
    ("workloads.walk_ns_per_branch", "ns"),
    ("workloads.checkpoint_restore_ns", "ns"),
    ("predictors.prophet_ns_per_call", "ns"),
    ("predictors.prophet_calls", "count"),
    ("core.critic_ns_per_call", "ns"),
    ("core.critic_calls", "count"),
    ("sim.accuracy.self_s", "s"),
    ("sim.cycle.model_s", "s"),
    ("sim.cycle.engine_s", "s"),
    ("uarch.data_ns_per_chunk", "ns"),
    ("uarch.l1d_hits", "count"),
    ("uarch.l2_hits", "count"),
    ("uarch.mem_accesses", "count"),
    ("frontend.bubble.icache", "cycles"),
    ("frontend.bubble.ftq_full", "cycles"),
    ("frontend.bubble.ftq_empty", "cycles"),
    ("frontend.bubble.window_full", "cycles"),
    ("frontend.bubble.redirect", "cycles"),
    ("frontend.bubble.flush_restart", "cycles"),
    ("sim.cycle.useful_fetch_ratio", "ratio"),
    ("sim.cycle.forced_critique_rate", "ratio"),
    ("core.overrides_per_kuops", "1/Kuops"),
    ("replay.muops_s", "Muops/s"),
    ("sim.trace_cycle.muops_s", "Muops/s"),
    ("trace.decode_mrec_s", "Mrec/s"),
    ("trace.bytes_per_branch", "B"),
    ("predictors.gshare.mpred_s", "Mpred/s"),
    ("predictors.2bc-gskew.mpred_s", "Mpred/s"),
    ("predictors.perceptron.mpred_s", "Mpred/s"),
    ("predictors.tage.mpred_s", "Mpred/s"),
    ("replay.engine_self_s", "s"),
    ("sim.trace_cycle.model_s", "s"),
    ("sim.trace_cycle.engine_s", "s"),
    ("serve.req_per_s", "req/s"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.metrics_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.server_errors", "count"),
    ("sim.store.get_us", "us"),
    ("sim.store.put_us", "us"),
    ("serve.json_parse_us", "us"),
    ("bench.trace_overhead_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.fail_frac", "ratio"),
];

/// The command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// The workload seed: derives every input.
    pub seed: u64,
    /// The time budget of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for stores, corpora and the spans file.
    pub work_dir: PathBuf,
}

/// The default workload seed; the exec digest is pinned for it.
pub const DEFAULT_SEED: u64 = 0;

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1
    /// [--work-dir DIR]`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            work_dir: PathBuf::from(".perfbench"),
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?;
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                }
                "--work-dir" => out.work_dir = PathBuf::from(&value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got '{}'",
                WORKLOADS.join(", "),
                out.workload
            ));
        }
        Ok(out)
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells or requests).
    pub attempted: u64,
    /// Operations that failed an output check, replied non-200 or
    /// panicked.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Metrics by name (end-to-end, per-layer and workload-specific).
    pub metrics: Vec<Metric>,
    /// Provenance and check facts, printed as `key value` lines.
    pub facts: Vec<(String, String)>,
    /// Digest of the workload's simulated outputs (cell order).
    pub digest: String,
}

impl Outcome {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records one fact.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Counts one attempted operation, failing it with `error` if set.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.fail(e);
        }
    }

    /// Records one failed operation that was already counted as
    /// attempted.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// The value of metric `name`, if recorded.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The failed share of attempted operations.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One timed pass: its output, when it started and its wall time.
#[derive(Clone, Debug)]
pub struct Timed<T> {
    /// The pass's output.
    pub value: T,
    /// When the pass started.
    pub start: Instant,
    /// The pass's wall time.
    pub wall: Duration,
}

impl<T> Timed<T> {
    /// The pass's scale factor to the reference host speed.
    #[must_use]
    pub fn factor(&self, speed: &HostSpeed) -> f64 {
        speed.factor(self.start, self.start + self.wall)
    }
}

/// Runs `pass` repeatedly until the passes have taken `budget`, at least
/// `min_passes` times; returns each pass's output and timing.
/// `between` runs after each pass, outside its wall time and the budget.
pub fn passes<T>(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> T,
    mut between: impl FnMut(),
) -> Vec<Timed<T>> {
    let mut spent = Duration::ZERO;
    let mut out = Vec::new();
    while out.len() < min_passes || spent < budget {
        let start = Instant::now();
        let value = pass(out.len());
        let wall = start.elapsed();
        spent += wall;
        out.push(Timed { value, start, wall });
        between();
    }
    out
}

/// Set-up times taken through a run; `setup_s` is their median.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes(Vec<(Instant, Duration)>);

impl SetupTimes {
    /// Runs `setup`, timing it if it succeeds.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let value = setup()?;
        self.0.push((t, t.elapsed()));
        Ok(value)
    }

    /// The median set-up time in seconds, each scaled by `speed` to the
    /// reference host speed; 0 before any set-up.
    #[must_use]
    pub fn median(&self, speed: &HostSpeed) -> f64 {
        let times: Vec<f64> = self.0.iter().map(|&(t, d)| speed.scaled(t, d)).collect();
        stats::median(&times).unwrap_or(0.0)
    }

    /// Records `setup_s` (scaled by `speed`) and, as facts, the unscaled
    /// median and how many set-ups it is the median of.
    pub fn record(&self, out: &mut Outcome, speed: &HostSpeed) {
        out.metric("setup_s", self.median(speed), "s");
        out.fact("setup_samples", self.0.len());
        out.fact("setup_measured_s", self.median(&HostSpeed::unscaled()));
    }
}

/// Runs `setup` `repeats` times; returns the last result and the times.
///
/// # Errors
///
/// The first set-up error.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last = None;
    for i in 0..repeats.max(1) {
        // Drop the previous result first so set-ups never overlap.
        drop(last.take());
        last = Some(times.time(|| setup(i))?);
    }
    Ok((last.expect("set-up ran"), times))
}

/// Per-pass wall times in seconds, less the kernel samples inside them,
/// scaled by `speed`.
#[must_use]
pub fn scaled_walls<T>(runs: &[Timed<T>], speed: &HostSpeed) -> Vec<f64> {
    runs.iter().map(|r| speed.scaled(r.start, r.wall)).collect()
}

/// Median of per-pass wall times scaled by `speed`, in seconds.
#[must_use]
pub fn median_wall<T>(runs: &[Timed<T>], speed: &HostSpeed) -> f64 {
    stats::median(&scaled_walls(runs, speed)).unwrap_or(0.0)
}

/// Records `wall_s` (the median pass wall time, scaled by `speed`) and,
/// as facts, the quartiles of the scaled pass times, so a run shows its
/// own spread, the unscaled median and the median scale factor.
pub fn record_walls<T>(out: &mut Outcome, runs: &[Timed<T>], speed: &HostSpeed) {
    let walls = scaled_walls(runs, speed);
    out.metric("wall_s", stats::median(&walls).unwrap_or(0.0), "s");
    out.fact("passes", walls.len());
    if let Some(q) = stats::quartiles(&walls) {
        out.fact(
            "pass_wall_quartiles_s",
            format!("{:.4},{:.4},{:.4}", q[0], q[1], q[2]),
        );
    }
    out.fact("wall_measured_s", median_wall(runs, &HostSpeed::unscaled()));
    let factors: Vec<f64> = runs.iter().map(|r| r.factor(speed)).collect();
    out.fact("host_speed_factor", stats::median(&factors).unwrap_or(1.0));
    out.fact("host_speed_samples", speed.samples());
}

/// Records the traced run's median pass time and its overhead over the
/// plain passes of the same run, both scaled by `speed`.
pub fn record_overhead<T, U>(
    out: &mut Outcome,
    plain: &[Timed<T>],
    traced: &[Timed<U>],
    speed: &HostSpeed,
) {
    let traced_wall = median_wall(traced, speed);
    out.metric("bench.traced_wall_s", traced_wall, "s");
    out.metric(
        "bench.trace_overhead_s",
        traced_wall - median_wall(plain, speed),
        "s",
    );
    out.fact("traced_passes", traced.len());
}

/// Records `op_p50_ms` and `op_tail_ms` (the `tail`-th percentile) over
/// operation latencies in ms, with the sample count and the highest
/// percentile the samples support as facts.
///
/// # Errors
///
/// Too few samples for the tail percentile.
pub fn record_ops(out: &mut Outcome, latencies_ms: &[f64], tail: f64) -> Result<(), String> {
    out.metric(
        "op_p50_ms",
        stats::median(latencies_ms).unwrap_or(0.0),
        "ms",
    );
    let value = stats::supported_percentile(latencies_ms, tail)?;
    out.metric("op_tail_ms", value, "ms");
    out.fact("op_samples", latencies_ms.len());
    out.fact("op_tail_percentile", tail);
    if let Some((p, v)) = stats::highest_supported(latencies_ms) {
        out.fact("op_highest_supported_ms", format!("p{p}={v:.4}"));
    }
    Ok(())
}

/// Peak resident set (`VmHWM`) of process `pid` (or this process for
/// `None`), in MB; 0 where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Derives a benchmark's program seed from the workload seed: seed 0
/// keeps the repository's own seeds.
#[must_use]
pub fn derive_seed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures and statistics the run cannot support (too few
/// samples for a tail percentile).
pub fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("work dir {}: {e}", args.work_dir.display()))?;
    let mut out = match args.workload.as_str() {
        "exec" => exec::run(args)?,
        "replay" => replay::run(args)?,
        "serve" => serve::run(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    out.fact("workload", &args.workload);
    out.fact("seed", args.seed);
    out.fact("traced", args.trace);
    out.fact("engine_version", sim::ENGINE_VERSION);
    out.fact("nproc", nproc());
    out.fact("rustc", rustc_version());
    out.fact("commit", commit().unwrap_or_else(|| "unknown".to_string()));
    out.fact("fail_frac", out.fail_frac());
    Ok(out)
}

/// Available hardware threads.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

/// Folds every field of `value` (its `Debug` rendering, which prints
/// floats exactly) plus a separator into the FNV-1a `hash`; start from
/// `replay::checksum::FNV_OFFSET`.
#[must_use]
pub fn fnv_debug(hash: u64, value: &impl std::fmt::Debug) -> u64 {
    ::replay::checksum::fnv1a_update(hash, format!("{value:?}\n").as_bytes())
}

/// Runs `f`, turning a panic into an error message.
///
/// # Errors
///
/// The panic payload, when `f` panics.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}
