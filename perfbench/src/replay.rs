//! The `replay` workload: a recorded `.bt` v2 corpus replayed from disk
//! through four conventional kernels (`replay::replay_entry`), then fed
//! to the cycle model (`sim::run_cycles_trace`, `tracecmp`'s uPC
//! column).

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bptrace::{BtBlockReader, DecodedBlock};
use prophet_critic::{AnyProphet, Budget, ProphetKind};
use replay::checksum::FNV_OFFSET;
use replay::{
    decode_records, open_trace, record_benchmark, replay_entry, replay_records_scalar,
    ReplayConfig, ReplayResult, TraceEntry,
};
use sim::experiments::common::{expand_benchmarks, select_benchmarks, BenchSet};
use sim::{run_cycles_trace, CycleResult, TraceModel};
use workloads::Benchmark;

use crate::exec::{cycle_config, cycle_result_metrics, traced_pipeline, PipelineTimes};
use crate::probe::{elapsed_ns, Spans, TimedPredictor};
use crate::speed::HostSpeed;
use crate::{
    fnv_debug, guarded, passes, peak_rss_mb, record_ops, record_overhead, record_walls,
    repeated_setup, stats, Args, Outcome,
};

/// Recorded uops per trace (20 % of them replay warm-up).
pub const TRACE_BUDGET: u64 = 60_000;

/// Seed-varied variants recorded per fast-set benchmark.
pub const VARIANTS: usize = 6;

/// Passes a run makes at least, so the tail percentile has support.
pub const MIN_PASSES: usize = 2;

/// Recordings at the start and again after every plain pass (`setup_s`
/// is their median). One takes about 0.2 s and its time drifts by tens
/// of percent over a minute on a shared host, so the samples are spread
/// through the run. Each goes to a fresh directory, and all stay until
/// the run ends: deleting a corpus between set-ups put the file system's
/// work of freeing it into the next set-up's time, and made a 40-file
/// write probe half again as slow.
pub const SETUP_REPEATS: usize = 2;

/// The percentile `op_tail_ms` reports for replays.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// The replayed kernels, cheapest to slowest, each at 16 KB.
pub const KERNELS: [ProphetKind; 4] = [
    ProphetKind::Gshare,
    ProphetKind::BcGskew,
    ProphetKind::Perceptron,
    ProphetKind::Tage,
];

/// The fast set expanded to [`VARIANTS`] variants per benchmark
/// (`expand_benchmarks`), with program seeds derived from the workload
/// seed.
#[must_use]
pub fn benchmarks(seed: u64) -> Vec<Benchmark> {
    let fast = select_benchmarks(BenchSet::Fast);
    let n = fast.len() * VARIANTS;
    expand_benchmarks(fast, n)
        .into_iter()
        .map(|mut b| {
            b.seed = crate::derive_seed(b.seed, seed);
            b
        })
        .collect()
}

/// A recorded corpus: its directory and one entry per benchmark.
#[derive(Debug)]
pub struct Corpus {
    /// The corpus directory.
    pub dir: PathBuf,
    /// `(benchmark, entry)` in fast-set order.
    pub traces: Vec<(Benchmark, TraceEntry)>,
}

/// Records `benches` at `budget` into a fresh `dir`.
///
/// # Errors
///
/// I/O and trace-format errors, as text.
pub fn record(dir: &Path, benches: &[Benchmark], budget: u64) -> Result<Corpus, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("corpus dir {}: {e}", dir.display()))?;
    let traces = benches
        .iter()
        .map(|b| {
            record_benchmark(dir, b, budget)
                .map(|e| (b.clone(), e))
                .map_err(|e| format!("record {}: {e}", b.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(Corpus {
        dir: dir.to_path_buf(),
        traces,
    })
}

fn kernel(kind: ProphetKind) -> AnyProphet {
    kind.build(Budget::K16)
}

/// One pass's outputs: replays in (trace, kernel) order, then one
/// cycle result per trace, each with its host ns.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// `replay_entry` results and times.
    pub replays: Vec<Result<(ReplayResult, u64), String>>,
    /// `run_cycles_trace` results and times.
    pub cycles: Vec<Result<(CycleResult, u64), String>>,
}

fn replay_config(entry: &TraceEntry) -> ReplayConfig {
    ReplayConfig::with_budget(entry.uop_budget)
}

/// One plain pass, with a `speed` sample before each trace's replays
/// and before each trace-cycle call.
#[must_use]
pub fn run_plain(corpus: &Corpus, speed: &HostSpeed) -> Pass {
    let mut pass = Pass::default();
    for (_, entry) in &corpus.traces {
        speed.sample();
        for kind in KERNELS {
            pass.replays.push(
                guarded(|| {
                    let mut p = kernel(kind);
                    let t = Instant::now();
                    let r = replay_entry(&corpus.dir, entry, &mut p, &replay_config(entry))
                        .map_err(|e| e.to_string());
                    r.map(|r| (r, elapsed_ns(t)))
                })
                .and_then(|r| r),
            );
        }
    }
    for (bench, entry) in &corpus.traces {
        speed.sample();
        pass.cycles.push(
            guarded(|| {
                let mut reader = open_trace(&corpus.dir, entry).map_err(|e| e.to_string())?;
                let mut p = kernel(ProphetKind::BcGskew);
                let cfg = cycle_config(bench, entry.uop_budget);
                let t = Instant::now();
                let r = run_cycles_trace(&mut reader, &mut p, &cfg);
                Ok((r, elapsed_ns(t)))
            })
            .and_then(|r| r),
        );
    }
    pass
}

/// Per-layer accumulators, summed over the traced passes.
#[derive(Clone, Debug, Default)]
pub struct ReplayLayers {
    decode_ns: u64,
    decode_records: u64,
    decode_bytes: u64,
    entry_ns: u64,
    kernel_ns: [u64; 4],
    kernel_preds: [u64; 4],
    pipeline: PipelineTimes,
}

/// Decodes one trace file block by block with no predictor; returns
/// records and host ns.
///
/// # Errors
///
/// I/O and trace-format errors, as text.
pub fn decode_only(path: &Path) -> Result<(u64, u64), String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let t = Instant::now();
    let mut reader = BtBlockReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut block = DecodedBlock::new();
    let mut records = 0u64;
    while reader.next_block(&mut block).map_err(|e| e.to_string())? {
        records += block.len() as u64;
    }
    Ok((records, elapsed_ns(t)))
}

/// One traced pass: decode-only probes, wrapped kernels inside
/// `replay_entry`, and the wrapped trace model, with `speed` sampled as
/// in [`run_plain`].
pub fn run_traced(
    corpus: &Corpus,
    layers: &mut ReplayLayers,
    spans: &mut Spans,
    pass_id: u64,
    speed: &HostSpeed,
) -> Pass {
    let mut out = Pass::default();
    let root = spans.open("pass", pass_id, None);
    for (i, (_, entry)) in corpus.traces.iter().enumerate() {
        speed.sample();
        let span = spans.open("decode", i as u64, Some(root));
        let path = corpus.dir.join(&entry.bt_file);
        if let Ok((records, ns)) = decode_only(&path) {
            layers.decode_ns += ns;
            layers.decode_records += records;
            layers.decode_bytes += entry.bt_bytes;
            spans.get_mut(span).counts = vec![("next_block", 0, records, ns)];
        }
        spans.close(span);
        spans.get_mut(span).label = entry.name.clone();
        for (k, kind) in KERNELS.into_iter().enumerate() {
            let span = spans.open("replay", i as u64, Some(root));
            let r = guarded(|| {
                let mut p = TimedPredictor::new(kernel(kind));
                let t = Instant::now();
                let r = replay_entry(&corpus.dir, entry, &mut p, &replay_config(entry));
                let ns = elapsed_ns(t);
                (r.map(|r| (r, ns)).map_err(|e| e.to_string()), p.tally)
            });
            spans.close(span);
            let s = spans.get_mut(span);
            s.label = format!("{} × {}", entry.name, kind.label());
            if let Ok((Ok((_, ns)), tally)) = &r {
                layers.entry_ns += ns;
                layers.kernel_ns[k] += tally.ns();
                layers.kernel_preds[k] += tally.items();
                s.counts = vec![("kernel", tally.calls(), tally.items(), tally.ns())];
            }
            out.replays.push(r.and_then(|(r, _)| r));
        }
    }
    for (i, (bench, entry)) in corpus.traces.iter().enumerate() {
        speed.sample();
        let span = spans.open("trace_cycle", i as u64, Some(root));
        let r = guarded(|| {
            let mut reader = open_trace(&corpus.dir, entry).map_err(|e| e.to_string())?;
            let mut p = kernel(ProphetKind::BcGskew);
            let cfg = cycle_config(bench, entry.uop_budget);
            let name = reader.name().to_string();
            let model = TraceModel::new(&mut reader, &mut p, &cfg);
            Ok(traced_pipeline(model, &name, &cfg))
        })
        .and_then(|r| r);
        spans.close(span);
        let s = spans.get_mut(span);
        s.label = entry.name.clone();
        out.cycles.push(r.map(|(result, times)| {
            s.counts = vec![
                ("model", 0, times.chunks, times.model_ns),
                ("data_replay", 0, times.chunks, times.data_ns),
            ];
            layers.pipeline += times;
            (result, times.total_ns)
        }));
    }
    spans.close(root);
    out
}

/// The digest of a pass: FNV-1a over every field of each `ReplayResult`
/// and `CycleResult`, in order.
#[must_use]
pub fn stats_digest(pass: &Pass) -> String {
    let h = pass
        .replays
        .iter()
        .flatten()
        .fold(FNV_OFFSET, |h, (r, _)| fnv_debug(h, r));
    let h = pass
        .cycles
        .iter()
        .flatten()
        .fold(h, |h, (r, _)| fnv_debug(h, r));
    format!("{h:016x}")
}

/// Runs the `replay` workload.
///
/// # Errors
///
/// Recording failures and a tail percentile the run's samples cannot
/// support.
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_with(args, TRACE_BUDGET, MIN_PASSES)
}

/// [`run`] at an explicit trace budget and minimum pass count (tests
/// use tiny ones).
///
/// # Errors
///
/// Recording failures and a tail percentile the run's samples cannot
/// support.
pub fn run_with(args: &Args, budget: u64, min_passes: usize) -> Result<Outcome, String> {
    let benches = benchmarks(args.seed);
    let base = args
        .work_dir
        .join(format!("replay-{}-{}", args.seed, u8::from(args.trace)));
    let (corpus, mut setup) = repeated_setup(SETUP_REPEATS, |i| {
        record(&base.join(format!("corpus-{i}")), &benches, budget)
    })?;
    let total = Duration::from_secs_f64(args.seconds);
    let plain_budget = if args.trace { total / 2 } else { total };
    let speed = HostSpeed::new();

    // Only the first pass's results are kept: later passes are checked
    // against it as they finish and reduced to their timings, so memory
    // does not grow with the number of passes.
    let mut out = Outcome::default();
    let mut first: Option<Pass> = None;
    let mut keep = |pass: Pass, out: &mut Outcome| {
        let timings = Timings::of(&pass);
        match &first {
            None => {
                check_first(out, &corpus, &pass);
                first = Some(pass);
            }
            Some(f) => compare(out, f, &pass),
        }
        timings
    };
    let mut repeats = SETUP_REPEATS;
    let mut setup_error = None;
    let plain = passes(
        plain_budget,
        min_passes,
        |_| keep(run_plain(&corpus, &speed), &mut out),
        || {
            for _ in 0..SETUP_REPEATS {
                let dir = base.join(format!("corpus-{repeats}"));
                repeats += 1;
                if let Err(e) = setup.time(|| record(&dir, &benches, budget)) {
                    setup_error.get_or_insert(e);
                }
            }
        },
    );
    if let Some(e) = setup_error {
        let _ = std::fs::remove_dir_all(&base);
        return Err(e);
    }
    let mut spans = Spans::new();
    let mut layers = ReplayLayers::default();
    let traced = if args.trace {
        passes(
            total - plain_budget,
            1,
            |i| {
                keep(
                    run_traced(&corpus, &mut layers, &mut spans, i as u64, &speed),
                    &mut out,
                )
            },
            || (),
        )
    } else {
        Vec::new()
    };
    let rss = peak_rss_mb(None);
    let first = first.expect("at least one pass ran");
    out.digest = stats_digest(&first);
    out.fact("stats_digest", out.digest.clone());

    let replay_ops = corpus.traces.len() * KERNELS.len();
    let mut latencies = Vec::new();
    let mut replay_rates = Vec::new();
    let mut cycle_rates = Vec::new();
    // Every time is scaled by its pass's host-speed factor.
    for p in &plain {
        let (t, f) = (&p.value, p.factor(&speed));
        latencies.extend(
            t.replay_ns
                .iter()
                .chain(&t.cycle_ns)
                .map(|&ns| ns as f64 / 1e6 * f),
        );
        let rate = |ns: &[u64]| {
            (ns.len() as u64 * budget) as f64 / (ns.iter().sum::<u64>().max(1) as f64 * f) * 1e3
        };
        replay_rates.push(rate(&t.replay_ns));
        cycle_rates.push(rate(&t.cycle_ns));
    }
    setup.record(&mut out, &speed);
    record_walls(&mut out, &plain, &speed);
    record_ops(&mut out, &latencies, TAIL_PERCENTILE).map_err(|e| format!("op_tail_ms: {e}"))?;
    out.metric("peak_rss_mb", rss, "MB");
    let replay_rate = stats::median(&replay_rates).unwrap_or(0.0);
    let cycle_rate = stats::median(&cycle_rates).unwrap_or(0.0);
    out.metric("replay_muops_s", replay_rate, "Muops/s");
    out.metric("trace_cycle_muops_s", cycle_rate, "Muops/s");
    out.fact("budget_uops", budget);
    out.fact("traces", corpus.traces.len());
    out.fact("replays_per_pass", replay_ops);

    if args.trace {
        record_overhead(&mut out, &plain, &traced, &speed);
        out.metric("replay.muops_s", replay_rate, "Muops/s");
        out.metric("sim.trace_cycle.muops_s", cycle_rate, "Muops/s");
        let l = &layers;
        out.metric(
            "trace.decode_mrec_s",
            l.decode_records as f64 / l.decode_ns.max(1) as f64 * 1e3,
            "Mrec/s",
        );
        out.metric(
            "trace.bytes_per_branch",
            l.decode_bytes as f64 / l.decode_records.max(1) as f64,
            "B",
        );
        for (k, name) in ["gshare", "2bc-gskew", "perceptron", "tage"]
            .iter()
            .enumerate()
        {
            out.metric(
                &format!("predictors.{name}.mpred_s"),
                l.kernel_preds[k] as f64 / l.kernel_ns[k].max(1) as f64 * 1e3,
                "Mpred/s",
            );
        }
        // Phase times are per traced pass, so they do not grow with the
        // number of passes that fit the budget.
        let per_pass = |ns: u64| ns as f64 / 1e9 / traced.len().max(1) as f64;
        let kernel_ns: u64 = l.kernel_ns.iter().sum();
        let decode_ns = l.decode_ns * KERNELS.len() as u64;
        out.metric(
            "replay.engine_self_s",
            per_pass(l.entry_ns.saturating_sub(decode_ns + kernel_ns)),
            "s",
        );
        let pipe = &l.pipeline;
        out.metric("sim.trace_cycle.model_s", per_pass(pipe.model_ns), "s");
        out.metric(
            "sim.trace_cycle.engine_s",
            per_pass(pipe.total_ns.saturating_sub(pipe.model_ns)),
            "s",
        );
        out.metric(
            "uarch.data_ns_per_chunk",
            pipe.data_ns as f64 / pipe.chunks.max(1) as f64,
            "ns",
        );
        if pipe.data_mismatches > 0 {
            out.fail("replayed data side disagrees with the cycle model's data counts".to_string());
        }
        cycle_result_metrics(&mut out, first.cycles.iter().flatten().map(|(r, _)| r));
        let path = args
            .work_dir
            .join(format!("spans-replay-{}.jsonl", args.seed));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("spans file {}: {e}", path.display()))?;
        out.fact("spans", path.display());
    }
    let _ = std::fs::remove_dir_all(&base);
    Ok(out)
}

/// Host ns of one pass's successful operations.
#[derive(Clone, Debug)]
pub struct Timings {
    /// `replay_entry` calls.
    pub replay_ns: Vec<u64>,
    /// `run_cycles_trace` calls.
    pub cycle_ns: Vec<u64>,
}

impl Timings {
    fn of(pass: &Pass) -> Self {
        Self {
            replay_ns: pass.replays.iter().flatten().map(|(_, ns)| *ns).collect(),
            cycle_ns: pass.cycles.iter().flatten().map(|(_, ns)| *ns).collect(),
        }
    }
}

/// Checks the first pass: every replay equals the scalar reference
/// (`replay_records_scalar`) on the same decoded trace, and every
/// trace-cycle result is plausible.
fn check_first(out: &mut Outcome, corpus: &Corpus, first: &Pass) {
    let mut i = 0;
    for (_, entry) in &corpus.traces {
        let decoded = std::fs::read(corpus.dir.join(&entry.bt_file))
            .map_err(|e| e.to_string())
            .and_then(|bytes| decode_records(&bytes).map_err(|e| e.to_string()));
        for kind in KERNELS {
            out.check(match (&first.replays[i], &decoded) {
                (Err(e), _) => Some(format!("replay {i}: {e}")),
                (Ok(_), Err(e)) => Some(format!("replay {i}: trace does not decode: {e}")),
                (Ok((r, _)), Ok((name, records))) => {
                    let scalar = replay_records_scalar(
                        name,
                        records,
                        &mut kernel(kind),
                        &replay_config(entry),
                    );
                    (*r != scalar).then(|| {
                        format!(
                            "replay {i} ({} × {}): differs from the scalar reference",
                            r.trace, r.predictor
                        )
                    })
                }
            });
            i += 1;
        }
    }
    for (i, r) in first.cycles.iter().enumerate() {
        out.check(match r {
            Err(e) => Some(format!("trace cycle {i}: {e}")),
            Ok((r, _)) if !(r.upc() > 0.0 && r.upc() < 8.0) => {
                Some(format!("trace cycle {i}: implausible uPC {}", r.upc()))
            }
            Ok(_) => None,
        });
    }
}

/// Checks a later pass: every operation must succeed and equal the first
/// pass's result.
fn compare(out: &mut Outcome, first: &Pass, pass: &Pass) {
    fn same<T: PartialEq>(
        i: usize,
        what: &str,
        a: &Result<(T, u64), String>,
        b: &Result<(T, u64), String>,
    ) -> Option<String> {
        match (a, b) {
            (Err(e), _) => Some(format!("{what} {i}: {e}")),
            (Ok(_), Err(_)) => Some(format!("{what} {i}: no first-pass result")),
            (Ok((x, _)), Ok((y, _))) => {
                (x != y).then(|| format!("{what} {i}: differs between passes"))
            }
        }
    }
    for (i, (r, f)) in pass.replays.iter().zip(&first.replays).enumerate() {
        out.check(same(i, "replay", r, f));
    }
    for (i, (r, f)) in pass.cycles.iter().zip(&first.cycles).enumerate() {
        out.check(same(i, "trace cycle", r, f));
    }
}
