//! `engine-bulk` and `engine-churn`: the in-process `DurableEngine` fed
//! the same 2.08 M ratings in few large or many small epochs.

use crate::common::{dir_bytes, expect_pairs, split, Metrics, Rep, Scratch, Workload, SPAN_CHUNK};
use crate::stats::median;
use crate::sut::{self, Engine, Res, Trace};
use crate::trace::Tracer;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// How a run cuts the ratings into epochs and what it does between them.
#[derive(Clone, Copy)]
pub struct Shape {
    pub epochs: usize,
    /// Explicit `checkpoint()` after these (1-based) epochs.
    pub checkpoint_after: &'static [usize],
    /// Drop and `recover` after every rep, or only on a run's first rep
    /// and its traced rep (a WAL-only recovery replays every close, so it
    /// costs as much as the ingest it follows).
    pub recover_every_rep: bool,
}

/// Five epochs of 416 k ratings, checkpoints after the 2nd and 4th, so
/// recovery loads a checkpoint and replays a one-epoch WAL tail.
pub const BULK: Shape = Shape { epochs: 5, checkpoint_after: &[2, 4], recover_every_rep: true };

/// Two hundred epochs of 10.4 k ratings, no checkpoints.
pub const CHURN: Shape = Shape { epochs: 200, checkpoint_after: &[], recover_every_rep: false };

pub struct EngineWorkload<'a> {
    trace: Arc<Trace>,
    epochs: Vec<Range<usize>>,
    shape: Shape,
    scratch: &'a Scratch,
}

impl<'a> EngineWorkload<'a> {
    /// Set-up: generate the trace, cut it into epochs, and create (then
    /// discard) an engine the way every rep will.
    pub fn prepare(n: u64, seed: u64, shape: Shape, scratch: &'a Scratch) -> Res<Self> {
        Self::over(Arc::new(sut::generate(n, seed)), shape, scratch)
    }

    /// The same over an input that already exists.
    pub fn over(trace: Arc<Trace>, shape: Shape, scratch: &'a Scratch) -> Res<Self> {
        let epochs = split(trace.ratings.len(), shape.epochs);
        let dir = scratch.fresh("engine-setup")?;
        drop(Engine::create(&dir, &trace.nodes)?);
        scratch.remove(&dir);
        Ok(EngineWorkload { trace, epochs, shape, scratch })
    }
}

impl Workload for EngineWorkload<'_> {
    fn rep(&mut self, tracer: &mut Tracer, id: u64, first: bool) -> Res<Rep> {
        let dir = self.scratch.fresh("engine")?;
        let mut engine = Engine::create(&dir, &self.trace.nodes)?;
        let mut rep = Rep { ratings: self.trace.ratings.len() as u64, ..Rep::default() };
        let mut last = Vec::new();

        let root = tracer.enter("rep", id);
        let start = Instant::now();
        for (e, range) in self.epochs.iter().enumerate() {
            let e = e as u64;
            for block in self.trace.ratings[range.clone()].chunks(SPAN_CHUNK) {
                let span = tracer.enter("durability.record", e);
                for &r in block {
                    engine.record(r)?;
                }
                tracer.exit(span);
            }
            let span = tracer.enter("durability.close_epoch", e);
            let t = Instant::now();
            last = engine.close_epoch()?;
            let close_ns = t.elapsed().as_nanos() as u64;
            let st = engine.close_stages();
            tracer.stages(
                span,
                e,
                &[
                    ("epoch.advance", st.advance_ns),
                    ("epoch.enumerate", st.enumerate_ns),
                    ("epoch.recheck", st.recheck_ns),
                ],
            );
            tracer.exit(span);
            let staged = st.advance_ns + st.enumerate_ns + st.recheck_ns;
            rep.sample("close_ms", close_ns as f64 / 1e6);
            rep.sample("advance_ms", st.advance_ns as f64 / 1e6);
            rep.sample("enumerate_ms", st.enumerate_ns as f64 / 1e6);
            rep.sample("recheck_ms", st.recheck_ns as f64 / 1e6);
            rep.sample("close_other_ms", close_ns.saturating_sub(staged) as f64 / 1e6);
            if self.shape.checkpoint_after.contains(&(e as usize + 1)) {
                let span = tracer.enter("durability.checkpoint", e);
                engine.checkpoint()?;
                tracer.exit(span);
                rep.attempted += 1;
            }
        }
        let span = tracer.enter("durability.sync", id);
        engine.sync()?;
        tracer.exit(span);
        rep.ingest_s = start.elapsed().as_secs_f64();
        rep.attempted += rep.ratings + self.epochs.len() as u64 + 1;

        let span = tracer.enter("gate", id);
        expect_pairs("final suspect set", &last, &self.trace.planted)?;
        let (suspects, next_seq, funnel) =
            (engine.suspects(), engine.wal_next_seq(), engine.funnel());
        expect_pairs("standing suspect set", &suspects, &self.trace.planted)?;
        let disk = dir_bytes(&dir);
        drop(engine); // the process dies; only the directory survives
        tracer.exit(span);

        if self.shape.recover_every_rep || first || tracer.enabled() {
            let span = tracer.enter("durability.recover", id);
            let t = Instant::now();
            let (recovered, replay) = Engine::recover(&dir, &self.trace.nodes)?;
            rep.recover_s = Some(t.elapsed().as_secs_f64());
            tracer.exit(span);
            rep.attempted += 1;
            let span = tracer.enter("gate", id);
            expect_pairs("recovered suspect set", &recovered.suspects(), &suspects)?;
            if recovered.wal_next_seq() != next_seq {
                return Err(format!(
                    "recovered log resumes at {}, the engine stopped at {next_seq}",
                    recovered.wal_next_seq()
                ));
            }
            drop(recovered);
            tracer.exit(span);
            rep.values.insert("durability.replayed_records", replay.replayed_records as f64);
            rep.values.insert("durability.skipped_records", replay.skipped_records as f64);
        }
        tracer.exit(root);
        self.scratch.remove(&dir);

        rep.values.insert("disk_bytes_per_rating", disk as f64 / rep.ratings as f64);
        rep.values.insert("epoch.candidates", funnel.candidates as f64);
        rep.values.insert("epoch.checked", funnel.checked as f64);
        rep.values.insert("epoch.pruned", funnel.pruned as f64);
        rep.values.insert("epoch.checked_per_rating", funnel.checked as f64 / rep.ratings as f64);
        Ok(rep)
    }

    fn layer_metrics(&self, traced: &Rep, tracer: &Tracer) -> Metrics {
        let mut m = Metrics::new();
        m.insert(
            "durability.record_ns_per_rating",
            tracer.total_ns("durability.record") / traced.ratings as f64,
        );
        m.insert("durability.close_ms", median(&tracer.durations("durability.close_epoch")) / 1e6);
        for (metric, samples) in [
            ("epoch.advance_ms", "advance_ms"),
            ("epoch.enumerate_ms", "enumerate_ms"),
            ("epoch.recheck_ms", "recheck_ms"),
            ("epoch.close_other_ms", "close_other_ms"),
        ] {
            m.insert(metric, median(traced.samples_of(samples)));
        }
        m
    }

    fn input(&self) -> &Arc<Trace> {
        &self.trace
    }

    fn warms_up(&self) -> bool {
        true
    }
}
