//! The `exec` workload: the paper's own evaluation path. Every cell of
//! the Baseline lineup × the cycle-model representatives runs
//! `sim::run_accuracy` and then `sim::run_cycles`, one cell after
//! another on this thread.

use std::hint::black_box;
use std::time::{Duration, Instant};

use prophet_critic::{
    AnyCritic, AnyProphet, Budget, CriticKind, HybridSpec, ProphetCritic, ProphetKind,
};
use replay::checksum::FNV_OFFSET;
use sim::experiments::common::{cycle_cfg, representatives, ExpEnv};
use sim::{
    run_accuracy, run_cycles, run_pipeline, AccuracyResult, CycleConfig, CycleResult, ExecModel,
    PipelineModel, SimConfig,
};
use uarch::{DataStream, Hierarchy};
use workloads::{Benchmark, Program, Walker};

use crate::probe::{elapsed_ns, Spans, TimedCritic, TimedModel, TimedPredictor};
use crate::speed::HostSpeed;
use crate::{
    fnv_debug, guarded, passes, peak_rss_mb, record_ops, record_overhead, record_walls,
    repeated_setup, stats, Args, Outcome, DEFAULT_SEED,
};

/// Committed uops per cell (20 % of them warm-up).
pub const BUDGET: u64 = 120_000;

/// Passes a run makes at least, so the tail percentile has support.
pub const MIN_PASSES: usize = 4;

/// Set-ups at the start and again after every plain pass: synthesis
/// takes about 3 ms, so many are needed for a steady median.
pub const SETUP_REPEATS: usize = 20;

/// The percentile `op_tail_ms` reports for cells.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// `stats_digest` of the default seed at [`BUDGET`]: any change to a
/// simulated statistic changes it.
pub const PINNED_DIGEST: &str = "65ca88030b532973";

/// The ROADMAP Baseline lineup: 16 KB 2Bc-gskew, 16 KB TAGE, the tuned
/// headline hybrid, and 8 KB 2Bc-gskew + 8 KB t.gshare at 8 future bits.
#[must_use]
pub fn lineup() -> Vec<HybridSpec> {
    vec![
        HybridSpec::alone(ProphetKind::BcGskew, Budget::K16),
        HybridSpec::alone(ProphetKind::Tage, Budget::K16),
        HybridSpec::tuned_headline(),
        HybridSpec::paired(
            ProphetKind::BcGskew,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K8,
            8,
        ),
    ]
}

/// The cycle-model representatives, each with its run seed (the
/// walker's per-branch outcome streams and the data stream) derived from
/// the workload seed. Their programs are generated from the
/// representatives' own seeds ([`programs`]), so every workload seed
/// simulates the same static code.
#[must_use]
pub fn benchmarks(seed: u64) -> Vec<Benchmark> {
    representatives()
        .into_iter()
        .map(|mut b| {
            b.seed = crate::derive_seed(b.seed, seed);
            b
        })
        .collect()
}

/// The representatives' programs, generated from their own seeds.
#[must_use]
pub fn programs() -> Vec<Program> {
    representatives().iter().map(Benchmark::program).collect()
}

/// One cell's results and phase times.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The accuracy-loop result.
    pub acc: AccuracyResult,
    /// The cycle-model result.
    pub cyc: CycleResult,
    /// Host ns in `run_accuracy`.
    pub acc_ns: u64,
    /// Host ns in the cycle model.
    pub cyc_ns: u64,
}

/// The accuracy-loop configuration of a cell.
#[must_use]
pub fn sim_config(bench: &Benchmark, budget: u64) -> SimConfig {
    SimConfig::with_budget(budget, bench.seed)
}

/// The cycle-model configuration of a cell: `cycle_cfg`'s per-suite
/// data profile at `budget`.
#[must_use]
pub fn cycle_config(bench: &Benchmark, budget: u64) -> CycleConfig {
    cycle_cfg(&ExpEnv::tiny(), bench).budget(budget)
}

/// Runs one cell exactly as the experiment grids do.
#[must_use]
pub fn run_plain(spec: &HybridSpec, bench: &Benchmark, program: &Program, budget: u64) -> Cell {
    let mut hybrid = spec.build();
    let t = Instant::now();
    let acc = run_accuracy(program, &mut hybrid, &sim_config(bench, budget));
    let acc_ns = elapsed_ns(t);
    let mut hybrid = spec.build();
    let t = Instant::now();
    let cyc = run_cycles(program, &mut hybrid, &cycle_config(bench, budget));
    let cyc_ns = elapsed_ns(t);
    Cell {
        acc,
        cyc,
        acc_ns,
        cyc_ns,
    }
}

/// A hybrid whose prophet and critic go through the timing wrappers.
pub type TimedHybrid = ProphetCritic<TimedPredictor<AnyProphet>, TimedCritic<AnyCritic>>;

/// Builds `spec` with its prophet and critic wrapped.
#[must_use]
pub fn timed_hybrid(spec: &HybridSpec) -> TimedHybrid {
    let mut critic = spec.critic.build(spec.critic_budget);
    critic.set_confident_override(spec.confident_override);
    ProphetCritic::new(
        TimedPredictor::new(spec.prophet.build(spec.prophet_budget)),
        TimedCritic::new(critic),
        spec.future_bits,
    )
}

/// Host time of one traced `run_pipeline`.
#[derive(Copy, Clone, Debug, Default)]
pub struct PipelineTimes {
    /// The whole `run_pipeline` call.
    pub total_ns: u64,
    /// Inside the model's four methods.
    pub model_ns: u64,
    /// The captured chunk stream replayed through the data side alone.
    pub data_ns: u64,
    /// Fetched chunks.
    pub chunks: u64,
    /// Runs whose replayed data side did not reproduce their data counts.
    pub data_mismatches: u64,
}

impl std::ops::AddAssign for PipelineTimes {
    fn add_assign(&mut self, o: Self) {
        self.total_ns += o.total_ns;
        self.model_ns += o.model_ns;
        self.data_ns += o.data_ns;
        self.chunks += o.chunks;
        self.data_mismatches += o.data_mismatches;
    }
}

/// Drives `model` through `run_pipeline` behind the model wrapper, then
/// replays its fetch-chunk stream through `DataStream::accesses` +
/// `Hierarchy::access` on their own.
pub fn traced_pipeline<M: PipelineModel>(
    model: M,
    name: &str,
    cfg: &CycleConfig,
) -> (CycleResult, PipelineTimes) {
    let mut timed = TimedModel::new(model);
    let t = Instant::now();
    let result = run_pipeline(&mut timed, name, cfg);
    let total_ns = elapsed_ns(t);
    let model_ns = timed.tally.ns();
    let chunks = std::mem::take(&mut timed.chunks);
    drop(timed);

    let mut stream = DataStream::new(cfg.data, cfg.seed);
    let mut hierarchy = Hierarchy::new(&cfg.machine);
    let t = Instant::now();
    for &(pc, uops) in &chunks {
        for addr in stream.accesses(pc, uops) {
            black_box(hierarchy.access(addr));
        }
    }
    let data_ns = elapsed_ns(t);
    let times = PipelineTimes {
        total_ns,
        model_ns,
        data_ns,
        chunks: chunks.len() as u64,
        data_mismatches: u64::from(hierarchy.counts() != result.data_counts),
    };
    (result, times)
}

/// Per-layer accumulators, summed over the traced passes.
#[derive(Clone, Debug, Default)]
pub struct ExecLayers {
    prophet_calls: u64,
    prophet_ns: u64,
    critic_calls: u64,
    critic_ns: u64,
    acc_self_ns: u64,
    pipeline: PipelineTimes,
}

/// Runs one cell with every layer boundary wrapped, recording a `cell`
/// span with `accuracy` and `cycle` children.
pub fn run_traced(
    spec: &HybridSpec,
    bench: &Benchmark,
    program: &Program,
    budget: u64,
    layers: &mut ExecLayers,
    spans: &mut Spans,
    id: u64,
) -> Cell {
    let cell = spans.open("cell", id, None);
    spans.get_mut(cell).label = format!("{spec} × {}", bench.name);

    let span = spans.open("accuracy", id, Some(cell));
    let mut hybrid = timed_hybrid(spec);
    let t = Instant::now();
    let acc = run_accuracy(program, &mut hybrid, &sim_config(bench, budget));
    let acc_ns = elapsed_ns(t);
    spans.close(span);
    let (p, c) = (&hybrid.prophet().tally, &hybrid.critic().tally);
    layers.prophet_calls += p.calls();
    layers.prophet_ns += p.ns();
    layers.critic_calls += c.calls();
    layers.critic_ns += c.ns();
    layers.acc_self_ns += acc_ns.saturating_sub(p.ns() + c.ns());
    spans.get_mut(span).counts = vec![
        ("prophet", p.calls(), p.items(), p.ns()),
        ("critic", c.calls(), c.items(), c.ns()),
    ];

    let span = spans.open("cycle", id, Some(cell));
    let mut hybrid = timed_hybrid(spec);
    let cfg = cycle_config(bench, budget);
    let model = ExecModel::new(program, &mut hybrid, &cfg);
    let (cyc, times) = traced_pipeline(model, program.name(), &cfg);
    spans.close(span);
    let (p, c) = (&hybrid.prophet().tally, &hybrid.critic().tally);
    layers.prophet_calls += p.calls();
    layers.prophet_ns += p.ns();
    layers.critic_calls += c.calls();
    layers.critic_ns += c.ns();
    layers.pipeline += times;
    spans.get_mut(span).counts = vec![
        ("prophet", p.calls(), p.items(), p.ns()),
        ("critic", c.calls(), c.items(), c.ns()),
        ("model", 0, times.chunks, times.model_ns),
        ("data_replay", 0, times.chunks, times.data_ns),
    ];
    spans.close(cell);
    Cell {
        acc,
        cyc,
        acc_ns,
        cyc_ns: times.total_ns,
    }
}

/// Checks one cell's results for plausibility against its budget.
fn sanity(cell: &Cell, budget: u64) -> Option<String> {
    // The measured region starts at the first commit past the warm-up
    // boundary, so it can fall a branch short of 80 % of the budget.
    let measured = budget * 3 / 4;
    let upc = cell.cyc.upc();
    if cell.acc.committed_uops < measured || cell.cyc.committed_uops < measured {
        Some(format!(
            "{}: committed {} / {} uops, expected at least {measured}",
            cell.acc.benchmark, cell.acc.committed_uops, cell.cyc.committed_uops
        ))
    } else if !(upc > 0.0 && upc < 8.0) {
        Some(format!("{}: implausible uPC {upc}", cell.cyc.benchmark))
    } else {
        None
    }
}

/// The `stats_digest` of a pass: FNV-1a over every field of each
/// `AccuracyResult` and `CycleResult`, in cell order.
#[must_use]
pub fn stats_digest(cells: &[Cell]) -> String {
    let h = cells
        .iter()
        .fold(FNV_OFFSET, |h, c| fnv_debug(fnv_debug(h, &c.acc), &c.cyc));
    format!("{h:016x}")
}

/// Records cycle-derived per-layer metrics (data counts, bubbles, fetch
/// usefulness, forced critiques) summed over `results`.
pub fn cycle_result_metrics<'a>(out: &mut Outcome, results: impl Iterator<Item = &'a CycleResult>) {
    let mut data = [0u64; 3];
    let mut bubbles = [0.0f64; 6];
    let (mut committed, mut fetched, mut forced, mut critiques) = (0u64, 0u64, 0u64, 0u64);
    for r in results {
        data[0] += r.data_counts.0;
        data[1] += r.data_counts.1;
        data[2] += r.data_counts.2;
        let b = &r.bubbles;
        for (slot, v) in bubbles.iter_mut().zip([
            b.icache,
            b.ftq_full,
            b.ftq_empty,
            b.window_full,
            b.redirect,
            b.flush_restart,
        ]) {
            *slot += v;
        }
        committed += r.committed_uops;
        fetched += r.fetched_uops;
        forced += r.forced_critiques;
        critiques += r.critiques;
    }
    out.metric("uarch.l1d_hits", data[0] as f64, "count");
    out.metric("uarch.l2_hits", data[1] as f64, "count");
    out.metric("uarch.mem_accesses", data[2] as f64, "count");
    for (name, v) in [
        "icache",
        "ftq_full",
        "ftq_empty",
        "window_full",
        "redirect",
        "flush_restart",
    ]
    .into_iter()
    .zip(bubbles)
    {
        out.metric(&format!("frontend.bubble.{name}"), v, "cycles");
    }
    out.metric(
        "sim.cycle.useful_fetch_ratio",
        ratio(committed, fetched),
        "ratio",
    );
    out.metric(
        "sim.cycle.forced_critique_rate",
        ratio(forced, critiques),
        "ratio",
    );
}

/// `num / den`, 0 for an empty base.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host ns per branch of a correct-path walk of `budget` uops, and the
/// extra ns per branch of a `checkpoint`/`restore`/`release` triple at
/// each branch.
#[must_use]
pub fn walk_probe(program: &Program, seed: u64, budget: u64) -> (f64, f64) {
    let plain = |with_checkpoints: bool| {
        let mut w = Walker::with_seed(program, seed);
        let mut branches = 0u64;
        let t = Instant::now();
        while w.uops_walked() < budget {
            let ev = w.next_branch();
            if with_checkpoints {
                let cp = w.checkpoint();
                w.restore(&cp);
                w.release(&cp);
            }
            w.follow(black_box(ev.outcome));
            branches += 1;
        }
        (elapsed_ns(t), branches)
    };
    let (walk_ns, branches) = plain(false);
    let (cp_ns, _) = plain(true);
    let per = |ns: u64| ns as f64 / branches.max(1) as f64;
    (per(walk_ns), (per(cp_ns) - per(walk_ns)).max(0.0))
}

/// Runs the `exec` workload.
///
/// # Errors
///
/// A tail percentile the run's samples cannot support.
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_with(args, BUDGET, MIN_PASSES)
}

/// [`run`] at an explicit cell budget and minimum pass count (tests use
/// tiny ones).
///
/// # Errors
///
/// A tail percentile the run's samples cannot support.
pub fn run_with(args: &Args, budget: u64, min_passes: usize) -> Result<Outcome, String> {
    let specs = lineup();
    let benches = benchmarks(args.seed);
    let (programs, mut setup) = repeated_setup(SETUP_REPEATS, |_| Ok(programs()))?;
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..benches.len()).map(move |b| (s, b)))
        .collect();
    let total = Duration::from_secs_f64(args.seconds);
    let plain_budget = if args.trace { total / 2 } else { total };
    let speed = HostSpeed::new();

    let plain = passes(
        plain_budget,
        min_passes,
        |_| {
            cells
                .iter()
                .map(|&(s, b)| {
                    speed.sample();
                    guarded(|| run_plain(&specs[s], &benches[b], &programs[b], budget))
                })
                .collect::<Vec<_>>()
        },
        || {
            for _ in 0..SETUP_REPEATS {
                let _ = setup.time(|| Ok(black_box(self::programs())));
            }
        },
    );

    let mut spans = Spans::new();
    let mut layers = ExecLayers::default();
    let traced = if args.trace {
        passes(
            total - plain_budget,
            1,
            |pass| {
                cells
                    .iter()
                    .enumerate()
                    .map(|(i, &(s, b))| {
                        let id = (pass * cells.len() + i) as u64;
                        speed.sample();
                        guarded(|| {
                            run_traced(
                                &specs[s],
                                &benches[b],
                                &programs[b],
                                budget,
                                &mut layers,
                                &mut spans,
                                id,
                            )
                        })
                    })
                    .collect::<Vec<_>>()
            },
            || (),
        )
    } else {
        Vec::new()
    };

    let rss = peak_rss_mb(None);
    let mut out = Outcome::default();

    // Output checks: every cell of every pass must be plausible and equal
    // the first pass's result for that cell; the digest is pinned for the
    // default seed.
    let reference: Vec<Option<&Cell>> = plain[0].value.iter().map(|c| c.as_ref().ok()).collect();
    let all_passes = plain.iter().map(|p| &p.value);
    for pass in all_passes.chain(traced.iter().map(|p| &p.value)) {
        for (i, cell) in pass.iter().enumerate() {
            let error = match (cell, reference[i]) {
                (Err(panic), _) => Some(format!("cell {i} panicked: {panic}")),
                (Ok(_), None) => Some(format!("cell {i}: no reference result")),
                (Ok(c), Some(r)) if c.acc != r.acc || c.cyc != r.cyc => {
                    Some(format!("cell {i}: results differ between passes"))
                }
                (Ok(c), Some(_)) => sanity(c, budget),
            };
            out.check(error);
        }
    }
    let first: Vec<Cell> = reference.iter().flatten().map(|c| (*c).clone()).collect();
    out.digest = stats_digest(&first);
    out.fact("stats_digest", out.digest.clone());
    if args.seed == DEFAULT_SEED && budget == BUDGET && out.digest != PINNED_DIGEST {
        out.fail(format!(
            "stats_digest {} differs from the pinned {PINNED_DIGEST} for the default seed",
            out.digest
        ));
    }

    // End-to-end metrics from the plain passes, each time scaled by its
    // pass's host-speed factor.
    let plain_cells: Vec<(Vec<&Cell>, f64)> = plain
        .iter()
        .map(|p| (p.value.iter().flatten().collect(), p.factor(&speed)))
        .collect();
    let latencies: Vec<f64> = plain_cells
        .iter()
        .flat_map(|(p, f)| {
            p.iter()
                .map(move |c| (c.acc_ns + c.cyc_ns) as f64 / 1e6 * f)
        })
        .collect();
    let rate = |phase_ns: fn(&&Cell) -> u64| {
        let per_pass: Vec<f64> = plain_cells
            .iter()
            .map(|(p, f)| {
                let ns: u64 = p.iter().map(phase_ns).sum();
                (p.len() as u64 * budget) as f64 / (ns.max(1) as f64 * f) * 1e3
            })
            .collect();
        stats::median(&per_pass).unwrap_or(0.0)
    };
    setup.record(&mut out, &speed);
    record_walls(&mut out, &plain, &speed);
    record_ops(&mut out, &latencies, TAIL_PERCENTILE).map_err(|e| format!("op_tail_ms: {e}"))?;
    out.metric("peak_rss_mb", rss, "MB");
    let acc_rate = rate(|c| c.acc_ns);
    let cyc_rate = rate(|c| c.cyc_ns);
    out.metric("accuracy_muops_s", acc_rate, "Muops/s");
    out.metric("cycle_muops_s", cyc_rate, "Muops/s");
    out.fact("budget_uops", budget);
    out.fact("cells", cells.len());

    if args.trace {
        record_overhead(&mut out, &plain, &traced, &speed);
        out.metric("sim.accuracy.muops_s", acc_rate, "Muops/s");
        out.metric("sim.cycle.muops_s", cyc_rate, "Muops/s");
        layer_metrics(
            &mut out,
            &layers,
            traced.len(),
            &first,
            &benches,
            &programs,
            budget,
        );
        let path = args
            .work_dir
            .join(format!("spans-exec-{}.jsonl", args.seed));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("spans file {}: {e}", path.display()))?;
        out.fact("spans", path.display());
    }
    Ok(out)
}

/// Records the per-layer metrics. Call counts and phase times are per
/// traced pass (the sums over `traced_passes` passes divided by it), so
/// they do not grow with the number of passes that fit the budget.
fn layer_metrics(
    out: &mut Outcome,
    layers: &ExecLayers,
    traced_passes: usize,
    cells: &[Cell],
    benches: &[Benchmark],
    programs: &[Program],
    budget: u64,
) {
    let mut walk = Vec::new();
    let mut checkpoint = Vec::new();
    for (b, p) in benches.iter().zip(programs) {
        let (w, c) = walk_probe(p, b.seed, budget);
        walk.push(w);
        checkpoint.push(c);
    }
    let per_call = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
    let per_pass = |n: u64| n as f64 / traced_passes.max(1) as f64;
    let pipe = &layers.pipeline;
    out.metric(
        "workloads.walk_ns_per_branch",
        stats::median(&walk).unwrap_or(0.0),
        "ns",
    );
    out.metric(
        "workloads.checkpoint_restore_ns",
        stats::median(&checkpoint).unwrap_or(0.0),
        "ns",
    );
    out.metric(
        "predictors.prophet_ns_per_call",
        per_call(layers.prophet_ns, layers.prophet_calls),
        "ns",
    );
    out.metric(
        "predictors.prophet_calls",
        per_pass(layers.prophet_calls),
        "count",
    );
    out.metric(
        "core.critic_ns_per_call",
        per_call(layers.critic_ns, layers.critic_calls),
        "ns",
    );
    out.metric("core.critic_calls", per_pass(layers.critic_calls), "count");
    out.metric(
        "sim.accuracy.self_s",
        per_pass(layers.acc_self_ns) / 1e9,
        "s",
    );
    out.metric("sim.cycle.model_s", per_pass(pipe.model_ns) / 1e9, "s");
    out.metric(
        "sim.cycle.engine_s",
        per_pass(pipe.total_ns.saturating_sub(pipe.model_ns)) / 1e9,
        "s",
    );
    out.metric(
        "uarch.data_ns_per_chunk",
        per_call(pipe.data_ns, pipe.chunks),
        "ns",
    );
    if pipe.data_mismatches > 0 {
        out.fail("replayed data side disagrees with the cycle model's data counts".to_string());
    }
    cycle_result_metrics(out, cells.iter().map(|c| &c.cyc));
    let overrides: u64 = cells.iter().map(|c| c.acc.critic_overrides).sum();
    let committed: u64 = cells.iter().map(|c| c.acc.committed_uops).sum();
    out.metric(
        "core.overrides_per_kuops",
        ratio(overrides * 1000, committed),
        "1/Kuops",
    );
}
