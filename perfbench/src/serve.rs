//! The `serve` workload: the release `serve` daemon under a closed loop
//! of two client connections. About 80 % of requests are `POST
//! /v1/predict` on warmed (spec, benchmark) pairs (store reads), about
//! 15 % name pairs never requested before (compute, then store writes),
//! and about 5 % are `GET /metrics`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prophet_critic::{Budget, CriticKind, HybridSpec, ProphetKind};
use replay::checksum::{fnv1a_update, FNV_OFFSET};
use serve::json::{self, Json};
use sim::experiments::common::{accuracy_cell_key, select_benchmarks, BenchSet, ExpEnv};
use sim::store::{CellKey, CellStore};
use sim::{run_accuracy, AccuracyResult, SimConfig};
use workloads::rng::SmallRng;
use workloads::{Benchmark, Program};

use crate::http::{request, Reply};
use crate::probe::{elapsed_ns, Span, Spans};
use crate::speed::HostSpeed;
use crate::{
    passes, peak_rss_mb, record_ops, record_overhead, record_walls, repeated_setup, stats, Args,
    Outcome,
};

/// The server's `SCALE`: its per-benchmark uop budget is this share of
/// 1.2 M uops.
pub const SCALE: f64 = 0.02;

/// Requests per pass; `wall_s` is the median pass time.
pub const PASS_REQUESTS: usize = 250;

/// The percentile `op_tail_ms` (`req_p99_ms`) reports.
pub const TAIL_PERCENTILE: f64 = 99.0;

/// Set-up repetitions (`setup_s` is their median); each starts a server
/// and warms its store.
pub const SETUP_REPEATS: usize = 3;

/// Warmed (spec, benchmark) pairs per benchmark.
pub const HITS_PER_BENCH: usize = 3;

/// Benchmarks the requests name: the first of each suite's fast pair.
#[must_use]
pub fn benchmarks() -> Vec<Benchmark> {
    select_benchmarks(BenchSet::Fast)
        .into_iter()
        .step_by(2)
        .collect()
}

/// The uop budget the server simulates at [`SCALE`].
#[must_use]
pub fn uop_budget() -> u64 {
    ExpEnv {
        scale: SCALE,
        ..ExpEnv::tiny()
    }
    .uop_budget()
}

/// The spec space requests draw from: large enough that new pairs last
/// for well over 10⁴ requests per benchmark.
#[must_use]
pub fn spec_space() -> Vec<HybridSpec> {
    let mut specs = Vec::new();
    for prophet in [
        ProphetKind::Gshare,
        ProphetKind::BcGskew,
        ProphetKind::Perceptron,
        ProphetKind::Tage,
    ] {
        for pb in Budget::ALL {
            specs.push(HybridSpec::alone(prophet, pb));
            for critic in [CriticKind::TaggedGshare, CriticKind::FilteredPerceptron] {
                for cb in [Budget::K2, Budget::K4, Budget::K8] {
                    for fb in [1, 2, 4, 8, 12, 16] {
                        for conf in [false, true] {
                            specs.push(
                                HybridSpec::paired(prophet, pb, critic, cb, fb)
                                    .with_confident_override(conf),
                            );
                        }
                    }
                }
            }
        }
    }
    specs
}

/// The `/v1/predict` body for one pair.
#[must_use]
pub fn predict_body(spec: &HybridSpec, bench: &Benchmark) -> String {
    let mut s = format!(
        "{{\"spec\": {{\"prophet\": \"{}\", \"prophet_budget\": \"{}\"",
        spec.prophet.label(),
        spec.prophet_budget
    );
    if spec.critic != CriticKind::None {
        s.push_str(&format!(
            ", \"critic\": \"{}\", \"critic_budget\": \"{}\", \"future_bits\": {}, \
             \"confident_override\": {}",
            spec.critic.label(),
            spec.critic_budget,
            spec.future_bits,
            spec.confident_override
        ));
    }
    s.push_str(&format!("}}, \"benchmarks\": [\"{}\"]}}", bench.name));
    s
}

/// One planned request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Planned {
    /// A warmed pair, by index into the hit set.
    Hit(usize),
    /// A never-requested pair, by index into the miss stream.
    Miss(usize),
    /// `GET /metrics`.
    Metrics,
}

/// The seeded request mix.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The warmed pairs.
    pub hits: Vec<(HybridSpec, Benchmark)>,
    /// Pairs in the order misses request them.
    pub misses: Vec<(HybridSpec, Benchmark)>,
    /// The request sequence.
    pub requests: Vec<Planned>,
}

impl Plan {
    /// Derives the hit set, the miss stream and `len` requests from
    /// `seed`.
    #[must_use]
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E12_7E00);
        let specs = spec_space();
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for bench in benchmarks() {
            let mut order: Vec<usize> = (0..specs.len()).collect();
            shuffle(&mut order, &mut rng);
            for (k, &s) in order.iter().enumerate() {
                let pair = (specs[s], bench.clone());
                if k < HITS_PER_BENCH {
                    hits.push(pair);
                } else {
                    misses.push(pair);
                }
            }
        }
        shuffle(&mut misses, &mut rng);
        let mut next_miss = 0;
        let requests = (0..len)
            .map(|_| {
                let roll = rng.gen_range(0..100u32);
                if roll < 80 {
                    Planned::Hit(rng.gen_range(0..hits.len()))
                } else if roll < 95 && next_miss < misses.len() {
                    next_miss += 1;
                    Planned::Miss(next_miss - 1)
                } else {
                    Planned::Metrics
                }
            })
            .collect();
        Self {
            hits,
            misses,
            requests,
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A running `serve` daemon.
pub struct Server {
    child: Child,
    /// The bound address.
    pub addr: SocketAddr,
    /// The store directory.
    pub store: PathBuf,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `exe` on an ephemeral port over a fresh store `store`.
    ///
    /// # Errors
    ///
    /// Spawn failures and a server that exits before announcing its
    /// address.
    pub fn start(exe: &Path, store: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(store);
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--threads", "1", "--store"])
            .arg(store)
            .env("SCALE", SCALE.to_string())
            .env_remove("CELL_STORE")
            .env_remove("EXP_BENCH")
            .env_remove("CORPUS_TRACES")
            .env_remove("FAULT_PLAN")
            .env_remove("THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|l| {
            let rest = l.split("serving on http://").nth(1)?;
            rest.split_whitespace().next()?.parse::<SocketAddr>().ok()
        });
        // Keep draining the server's stderr so it never blocks on it.
        let drain = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        let mut server = Self {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            store: store.to_path_buf(),
            drain: Some(drain),
        };
        if addr.is_none() {
            server.stop();
            return Err("serve exited without announcing its address".to_string());
        }
        Ok(server)
    }

    /// The server's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain (`SIGTERM`), waits for it, and kills it
    /// if it has not exited within 10 s. Returns whether it exited
    /// cleanly.
    pub fn stop(&mut self) -> bool {
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut clean = false;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    clean = status.success();
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        clean
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.stop();
        }
    }
}

/// The outcome of one request.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Index in the plan.
    pub n: usize,
    /// What was planned.
    pub planned: Planned,
    /// The reply, or the transport error.
    pub reply: Result<Reply, String>,
    /// Start, in ns since the run's span origin.
    pub start_ns: u64,
}

fn send(addr: SocketAddr, plan: &Plan, planned: Planned) -> Result<Reply, String> {
    match planned {
        Planned::Hit(h) => {
            let (spec, bench) = &plan.hits[h];
            request(
                addr,
                "POST",
                "/v1/predict",
                predict_body(spec, bench).as_bytes(),
            )
        }
        Planned::Miss(m) => {
            let (spec, bench) = &plan.misses[m];
            request(
                addr,
                "POST",
                "/v1/predict",
                predict_body(spec, bench).as_bytes(),
            )
        }
        Planned::Metrics => request(addr, "GET", "/metrics", b""),
    }
}

/// Sends requests `range` of the plan over `clients` closed-loop
/// connections.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    range: std::ops::Range<usize>,
    clients: usize,
    origin: Instant,
) -> Vec<Sent> {
    let next = AtomicUsize::new(range.start);
    let mut sent: Vec<Sent> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        if n >= range.end {
                            break local;
                        }
                        let planned = plan.requests[n];
                        let start_ns = elapsed_ns(origin);
                        let reply = send(addr, plan, planned);
                        local.push(Sent {
                            n,
                            planned,
                            reply,
                            start_ns,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread does not panic"))
            .collect()
    });
    sent.sort_by_key(|s| s.n);
    sent
}

/// Warms the hit set: each pair is requested once (a miss) and its body
/// kept as the reference every later hit must reproduce byte for byte.
///
/// # Errors
///
/// A warm-up request that fails or misses its 200.
pub fn warm(addr: SocketAddr, plan: &Plan) -> Result<Vec<Vec<u8>>, String> {
    plan.hits
        .iter()
        .map(|(spec, bench)| {
            let reply = request(
                addr,
                "POST",
                "/v1/predict",
                predict_body(spec, bench).as_bytes(),
            )?;
            if reply.status == 200 {
                Ok(reply.body)
            } else {
                Err(format!(
                    "warm-up {spec} × {}: status {}",
                    bench.name, reply.status
                ))
            }
        })
        .collect()
}

/// Workload parameters (tests shrink them).
#[derive(Clone, Debug)]
pub struct Params {
    /// The `serve` executable.
    pub exe: PathBuf,
    /// Requests per pass.
    pub pass_requests: usize,
    /// Passes a run makes at least.
    pub min_passes: usize,
    /// Concurrent client connections.
    pub clients: usize,
}

impl Params {
    /// The benchmark's parameters, with `serve` next to this executable.
    #[must_use]
    pub fn standard() -> Self {
        let exe = std::env::current_exe()
            .map(|p| p.with_file_name("serve"))
            .unwrap_or_else(|_| PathBuf::from("serve"));
        Self {
            exe,
            pass_requests: PASS_REQUESTS,
            min_passes: 1000_usize.div_ceil(PASS_REQUESTS),
            clients: crate::nproc().clamp(1, 2),
        }
    }
}

/// Runs the `serve` workload.
///
/// # Errors
///
/// Server start-up and warm-up failures, and a run with too few requests
/// for `req_p99_ms`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_with(args, &Params::standard())
}

/// [`run`] with explicit parameters.
///
/// # Errors
///
/// Server start-up and warm-up failures, and a run with too few requests
/// for `req_p99_ms`.
pub fn run_with(args: &Args, params: &Params) -> Result<Outcome, String> {
    // Far more than a run can send at today's rate; a pass that finds
    // the plan exhausted sends nothing and is dropped.
    let max_requests = 200_000;
    let plan = Plan::new(args.seed, max_requests);
    let base = args
        .work_dir
        .join(format!("serve-{}-{}", args.seed, u8::from(args.trace)));
    let ((mut server, warm_bodies), setup) = repeated_setup(SETUP_REPEATS, |i| {
        let server = Server::start(&params.exe, &base.join(format!("store-{i}")))?;
        let bodies = warm(server.addr, &plan)?;
        Ok((server, bodies))
    })?;

    let origin = Instant::now();
    let total = Duration::from_secs_f64(args.seconds);
    let plain_budget = if args.trace { total / 2 } else { total };
    let addr = server.addr;
    let mut cursor = 0;
    let mut batch = |_| {
        let start = cursor;
        cursor = (cursor + params.pass_requests).min(max_requests);
        closed_loop(addr, &plan, start..cursor, params.clients, origin)
    };
    let mut plain = passes(plain_budget, params.min_passes, &mut batch, || ());
    let mut traced = if args.trace {
        passes(total - plain_budget, 1, &mut batch, || ())
    } else {
        Vec::new()
    };
    plain.retain(|p| !p.value.is_empty());
    traced.retain(|p| !p.value.is_empty());
    let timed_s: f64 = plain.iter().map(|p| p.wall.as_secs_f64()).sum();
    let final_metrics = request(server.addr, "GET", "/metrics", b"");
    let server_rss = peak_rss_mb(Some(server.pid()));
    let store_dir = server.store.clone();
    let drained = server.stop();

    let mut out = Outcome::default();
    let budget = uop_budget();
    let all: Vec<&Sent> = plain.iter().chain(&traced).flat_map(|p| &p.value).collect();
    check(&mut out, &plan, &warm_bodies, &all, budget);
    if !drained {
        out.fail("serve did not exit cleanly on SIGTERM".to_string());
    }
    out.digest = format!(
        "{:016x}",
        warm_bodies
            .iter()
            .fold(FNV_OFFSET, |h, body| fnv1a_update(h, body))
    );
    out.fact("stats_digest", out.digest.clone());

    let plain_sent: Vec<&Sent> = plain.iter().flat_map(|p| &p.value).collect();
    let latencies: Vec<f64> = plain_sent
        .iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    let req_per_s = plain_sent.len() as f64 / timed_s.max(1e-9);
    // Serve's times are mostly the server's accept-loop tick, not CPU
    // work, so they are reported as measured.
    let unscaled = HostSpeed::unscaled();
    setup.record(&mut out, &unscaled);
    record_walls(&mut out, &plain, &unscaled);
    record_ops(&mut out, &latencies, TAIL_PERCENTILE).map_err(|e| format!("req_p99_ms: {e}"))?;
    out.metric("peak_rss_mb", server_rss, "MB");
    out.metric("req_per_s", req_per_s, "req/s");
    for (name, from) in [("req_p50_ms", "op_p50_ms"), ("req_p99_ms", "op_tail_ms")] {
        let v = out.value(from).unwrap_or(0.0);
        out.metric(name, v, "ms");
    }
    out.fact("budget_uops", budget);
    out.fact("clients", params.clients);
    out.fact("pass_requests", params.pass_requests);
    out.fact("hit_pairs", plan.hits.len());

    if args.trace {
        record_overhead(&mut out, &plain, &traced, &unscaled);
        out.metric("serve.req_per_s", req_per_s, "req/s");
        let traced_sent: Vec<&Sent> = traced.iter().flat_map(|p| &p.value).collect();
        let mut spans = Spans::new();
        for s in &traced_sent {
            if let Ok(r) = &s.reply {
                let kind = match s.planned {
                    Planned::Metrics => "metrics".to_string(),
                    _ => r.x_cache.clone().unwrap_or_default(),
                };
                spans.push(Span {
                    name: "request",
                    id: s.n as u64,
                    parent: None,
                    start_ns: s.start_ns,
                    end_ns: s.start_ns + u64::try_from(r.latency.as_nanos()).unwrap_or(u64::MAX),
                    counts: vec![("body", 0, r.body.len() as u64, 0)],
                    label: kind,
                });
            }
        }
        let p50_of = |label: &str| {
            let v: Vec<f64> = spans
                .spans()
                .iter()
                .filter(|s| s.label == label)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect();
            stats::median(&v).unwrap_or(0.0)
        };
        out.metric("serve.hit_ms_p50", p50_of("hit"), "ms");
        out.metric("serve.miss_ms_p50", p50_of("miss"), "ms");
        out.metric("serve.metrics_ms_p50", p50_of("metrics"), "ms");
        server_metrics(&mut out, final_metrics.as_ref().ok());
        store_probe(
            &mut out,
            &plan,
            &all,
            &store_dir,
            &base.join("store-probe"),
            budget,
        );
        json_probe(&mut out, &plan, &all);
        let path = args
            .work_dir
            .join(format!("spans-serve-{}.jsonl", args.seed));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("spans file {}: {e}", path.display()))?;
        out.fact("spans", path.display());
    }
    let _ = std::fs::remove_dir_all(&base);
    Ok(out)
}

/// Output checks: every reply is a 200; every hit body is byte-identical
/// to the warm-up body of its pair; every miss's pooled misp/Kuops equals
/// a direct `run_accuracy` of the same spec, benchmark and budget.
fn check(out: &mut Outcome, plan: &Plan, warm_bodies: &[Vec<u8>], sent: &[&Sent], budget: u64) {
    let mut programs: Vec<(String, Program)> = Vec::new();
    for s in sent {
        let reply = match &s.reply {
            Err(e) => {
                out.check(Some(format!("request {}: {e}", s.n)));
                continue;
            }
            Ok(r) if r.status != 200 => {
                out.check(Some(format!("request {}: status {}", s.n, r.status)));
                continue;
            }
            Ok(r) => r,
        };
        let error = match s.planned {
            Planned::Hit(_) if reply.x_cache.as_deref() != Some("hit") => Some(format!(
                "request {}: warmed pair answered X-Cache {:?}",
                s.n, reply.x_cache
            )),
            Planned::Hit(h) if reply.body != warm_bodies[h] => Some(format!(
                "request {}: hit body differs from its warm-up body",
                s.n
            )),
            Planned::Hit(_) => None,
            Planned::Metrics => json::parse(&reply.body)
                .ok()
                .filter(|j| j.get("schema").and_then(Json::as_str) == Some("serve_metrics_v1"))
                .map_or(
                    Some(format!(
                        "request {}: /metrics body is not serve_metrics_v1",
                        s.n
                    )),
                    |_| None,
                ),
            Planned::Miss(m) => {
                let (spec, bench) = &plan.misses[m];
                let served = json::parse(&reply.body).ok().and_then(|j| {
                    match j.get("pooled")?.get("misp_per_kuops")? {
                        Json::Num(n) => Some(format!("{n:.4}")),
                        _ => None,
                    }
                });
                let idx = programs
                    .iter()
                    .position(|(n, _)| *n == bench.name)
                    .unwrap_or_else(|| {
                        programs.push((bench.name.clone(), bench.program()));
                        programs.len() - 1
                    });
                let direct = run_accuracy(
                    &programs[idx].1,
                    &mut spec.build(),
                    &SimConfig::with_budget(budget, bench.seed),
                );
                let direct = format!("{:.4}", direct.misp_per_kuops());
                if reply.x_cache.as_deref() != Some("miss") {
                    Some(format!(
                        "request {}: new pair answered X-Cache {:?}",
                        s.n, reply.x_cache
                    ))
                } else if served.as_deref() != Some(direct.as_str()) {
                    Some(format!(
                        "request {} ({spec} × {}): served misp/Kuops {served:?}, direct run {direct}",
                        s.n, bench.name
                    ))
                } else {
                    None
                }
            }
        };
        out.check(error);
    }
}

/// `/metrics` at the end of the run: cache hit ratio, sheds and server
/// errors.
fn server_metrics(out: &mut Outcome, reply: Option<&Reply>) {
    let doc = reply.and_then(|r| json::parse(&r.body).ok());
    let num = |a: &str, b: &str| {
        doc.as_ref()
            .and_then(|d| d.get(a)?.get(b)?.as_u64())
            .unwrap_or(0)
    };
    let (hits, misses) = (num("cells", "cache_hits"), num("cells", "cache_misses"));
    out.metric(
        "serve.cache_hit_ratio",
        crate::exec::ratio(hits, hits + misses),
        "ratio",
    );
    out.metric("serve.shed", num("requests", "shed") as f64, "count");
    out.metric(
        "serve.server_errors",
        num("requests", "server_errors") as f64,
        "count",
    );
}

/// Direct `CellStore::get`/`put` over the run's cell keys, on a copy of
/// the server's store.
fn store_probe(
    out: &mut Outcome,
    plan: &Plan,
    sent: &[&Sent],
    store: &Path,
    work: &Path,
    budget: u64,
) {
    let copy = work.join("copy");
    let fresh = work.join("fresh");
    let _ = std::fs::remove_dir_all(work);
    let copied = std::fs::create_dir_all(&copy).and_then(|()| {
        for entry in std::fs::read_dir(store)? {
            let entry = entry?;
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
        Ok(())
    });
    let (Ok(()), Ok(source), Ok(target)) =
        (copied, CellStore::open(&copy), CellStore::open(&fresh))
    else {
        out.fail("store probe: cannot copy the server's store".to_string());
        return;
    };
    let mut keys: Vec<CellKey> = plan
        .hits
        .iter()
        .map(|(spec, bench)| accuracy_cell_key(spec, bench, budget))
        .collect();
    keys.extend(sent.iter().filter_map(|s| match s.planned {
        Planned::Miss(m) => Some(accuracy_cell_key(
            &plan.misses[m].0,
            &plan.misses[m].1,
            budget,
        )),
        _ => None,
    }));
    let (mut get_ns, mut put_ns) = (0u64, 0u64);
    for key in &keys {
        let t = Instant::now();
        let cell: Option<AccuracyResult> = source.get(key);
        get_ns += elapsed_ns(t);
        let Some(cell) = cell else {
            out.fail(format!(
                "store probe: {} missing from the server's store",
                key.canonical()
            ));
            continue;
        };
        let t = Instant::now();
        let put = target.put(key, &cell);
        put_ns += elapsed_ns(t);
        if let Err(e) = put {
            out.fail(format!("store probe: put failed: {e}"));
        }
    }
    let n = keys.len().max(1) as f64;
    out.metric("sim.store.get_us", get_ns as f64 / n / 1e3, "us");
    out.metric("sim.store.put_us", put_ns as f64 / n / 1e3, "us");
    out.fact("store_probe_keys", keys.len());
    let _ = std::fs::remove_dir_all(work);
}

/// `serve::json::parse` over the run's request and response bodies.
fn json_probe(out: &mut Outcome, plan: &Plan, sent: &[&Sent]) {
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for s in sent {
        match s.planned {
            Planned::Hit(h) => {
                bodies.push(predict_body(&plan.hits[h].0, &plan.hits[h].1).into_bytes())
            }
            Planned::Miss(m) => {
                bodies.push(predict_body(&plan.misses[m].0, &plan.misses[m].1).into_bytes())
            }
            Planned::Metrics => {}
        }
        if let Ok(r) = &s.reply {
            bodies.push(r.body.clone());
        }
    }
    let t = Instant::now();
    let parsed = bodies.iter().filter(|b| json::parse(b).is_ok()).count();
    let ns = elapsed_ns(t);
    if parsed != bodies.len() {
        out.fail(format!(
            "json probe: {} of {} bodies do not parse",
            bodies.len() - parsed,
            bodies.len()
        ));
    }
    out.metric(
        "serve.json_parse_us",
        ns as f64 / bodies.len().max(1) as f64 / 1e3,
        "us",
    );
    out.fact("json_probe_bodies", bodies.len());
}
