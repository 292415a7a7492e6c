//! Outside-in timing: wrappers that forward every method of the
//! workspace's extension traits unchanged while tallying calls and host
//! time, and the in-memory span log of a traced run.
//!
//! Per-call boundaries collapse into a [`Tally`] (calls, items, total
//! ns), so memory stays bounded however long a cell runs. Reading the
//! clock costs about as much as a cheap predictor lookup, so wrapped
//! times are shares of a traced run, not absolute costs.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

use predictors::{DirectionPredictor, HistoryBits, Pc, PredictBlock, PredictInput, Prediction};
use prophet_critic::{Critic, CriticDecision, CriticTrainInput};
use sim::cycle::{Critique, FetchChunk, Resolution};
use sim::PipelineModel;

/// Calls, items and host nanoseconds spent at one boundary.
#[derive(Debug, Default)]
pub struct Tally {
    calls: Cell<u64>,
    items: Cell<u64>,
    ns: Cell<u64>,
}

impl Tally {
    /// Times `f` as one call covering `items` items.
    pub fn time<R>(&self, items: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + elapsed_ns(start));
        self.calls.set(self.calls.get() + 1);
        self.items.set(self.items.get() + items as u64);
        out
    }

    /// Calls made.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Items covered (predictions for a predictor, branches for a
    /// critic, chunks for a model).
    #[must_use]
    pub fn items(&self) -> u64 {
        self.items.get()
    }

    /// Host nanoseconds inside the calls.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }
}

/// Nanoseconds since `start`.
#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`DirectionPredictor`] that forwards to `inner` and tallies every
/// prediction and training call.
#[derive(Debug)]
pub struct TimedPredictor<P> {
    inner: P,
    /// Every timed call, in predictions.
    pub tally: Tally,
}

impl<P> TimedPredictor<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<P: DirectionPredictor> DirectionPredictor for TimedPredictor<P> {
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        self.tally.time(1, || self.inner.predict(pc, hist))
    }

    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        let inner = &mut self.inner;
        self.tally.time(0, || inner.update(pc, hist, taken));
    }

    fn history_len(&self) -> usize {
        self.inner.history_len()
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn predict_block(&mut self, inputs: &[PredictInput]) -> PredictBlock {
        let inner = &mut self.inner;
        self.tally
            .time(inputs.len(), || inner.predict_block(inputs))
    }

    fn train_block(&mut self, inputs: &[PredictInput]) {
        let inner = &mut self.inner;
        self.tally.time(0, || inner.train_block(inputs));
    }

    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        let inner = &mut self.inner;
        self.tally
            .time(pcs.len(), || inner.replay_block(pcs, outcomes, start))
    }
}

/// A [`Critic`] that forwards to `inner` and tallies every critique and
/// training call.
#[derive(Debug)]
pub struct TimedCritic<C> {
    inner: C,
    /// Every timed call, in critiqued or trained branches.
    pub tally: Tally,
}

impl<C> TimedCritic<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<C: Critic> Critic for TimedCritic<C> {
    fn critique(&self, pc: Pc, bor: HistoryBits, prophet_pred: bool) -> CriticDecision {
        self.tally
            .time(1, || self.inner.critique(pc, bor, prophet_pred))
    }

    fn train(&mut self, pc: Pc, bor: HistoryBits, outcome: bool, prophet_pred: bool) {
        let inner = &mut self.inner;
        self.tally
            .time(1, || inner.train(pc, bor, outcome, prophet_pred));
    }

    fn bor_len(&self) -> usize {
        self.inner.bor_len()
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn train_block(&mut self, inputs: &[CriticTrainInput]) {
        let inner = &mut self.inner;
        self.tally.time(inputs.len(), || inner.train_block(inputs));
    }
}

/// A [`PipelineModel`] that forwards to `inner`, tallies the time spent
/// inside its four methods, and keeps the fetched `(pc, uops)` chunk
/// stream so the data side can be replayed on its own afterwards.
pub struct TimedModel<M> {
    inner: M,
    /// Every model call, in fetched chunks.
    pub tally: Tally,
    /// The fetched chunks, in fetch order.
    pub chunks: Vec<(u64, u64)>,
}

impl<M> TimedModel<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            tally: Tally::default(),
            chunks: Vec::new(),
        }
    }
}

impl<M: PipelineModel> PipelineModel for TimedModel<M> {
    fn fetch_next(&mut self) -> Option<FetchChunk> {
        let inner = &mut self.inner;
        let chunk = self.tally.time(1, || inner.fetch_next());
        if let Some(c) = chunk {
            self.chunks.push((c.pc, c.uops));
        }
        chunk
    }

    fn critique_next(&mut self) -> Option<Critique> {
        let inner = &mut self.inner;
        self.tally.time(0, || inner.critique_next())
    }

    fn force_critique(&mut self) -> Option<Critique> {
        let inner = &mut self.inner;
        self.tally.time(0, || inner.force_critique())
    }

    fn resolve_head(&mut self) -> Resolution {
        let inner = &mut self.inner;
        self.tally.time(0, || inner.resolve_head())
    }
}

/// One recorded span: a cell, phase or request.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran (`cell`, `accuracy`, `cycle`, `request`, ...).
    pub name: &'static str,
    /// The cell or request id shared by a span and its children.
    pub id: u64,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Start, in ns since the log's origin.
    pub start_ns: u64,
    /// End, in ns since the log's origin.
    pub end_ns: u64,
    /// Per-call boundaries collapsed to `(boundary, calls, items, ns)`.
    pub counts: Vec<(&'static str, u64, u64, u64)>,
    /// A free-form label (benchmark, spec, endpoint, cache status).
    pub label: String,
}

/// The span log of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; returns its index for [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = elapsed_ns(self.origin);
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
            label: String::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = elapsed_ns(self.origin);
    }

    /// Records a span whose interval was timed elsewhere.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Mutable access to a recorded span.
    pub fn get_mut(&mut self, idx: usize) -> &mut Span {
        &mut self.spans[idx]
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as JSON lines, one span per line, creating the
    /// file's directory if needed.
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"index\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"label\": \"{}\", \"counts\": {{",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                serve::json::escape(&s.label)
            );
            for (j, (k, calls, items, ns)) in s.counts.iter().enumerate() {
                let sep = if j > 0 { ", " } else { "" };
                let _ = write!(
                    out,
                    "{sep}\"{k}\": {{\"calls\": {calls}, \"items\": {items}, \"ns\": {ns}}}"
                );
            }
            out.push_str("}}\n");
        }
        std::fs::write(path, out)
    }
}
