//! One run: one workload, set up, measured for `--seconds`, gated, reported.

use crate::audit::AuditWorkload;
use crate::common::{Metrics, Rep, Scratch, Sizes, Workload, OUT_DIR};
use crate::engine::{self, EngineWorkload};
use crate::json::Value;
use crate::probes;
use crate::spec::{self, Metric, END_TO_END, EXACT, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::sut::Res;
use crate::trace::Tracer;
use crate::wire::{self, WireWorkload};
use std::path::Path;
use std::time::Instant;

pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Sample counts behind the figures, for the printed report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, of: &[Metric]) -> Value {
        let metrics = of
            .iter()
            .map(|m| {
                let value = self.metrics.get(m.name).copied().unwrap_or(f64::NAN);
                (
                    m.name.to_string(),
                    Value::obj([("value", Value::Num(value)), ("unit", Value::Str(m.unit.into()))]),
                )
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// `VmHWM` of this process, the peak resident set, in MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Counts that depend only on the input must not differ between reps.
fn check_exact(reps: &[&Rep]) -> Res<()> {
    for name in EXACT {
        let seen: Vec<f64> = reps.iter().filter_map(|r| r.values.get(name).copied()).collect();
        if seen.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("{name} differs between reps of one input: {seen:?}"));
        }
    }
    Ok(())
}

/// Every metric of `of` must be present and finite before it is printed.
fn check_complete(metrics: &Metrics, of: &[Metric]) -> Res<()> {
    match of.iter().find(|m| !metrics.get(m.name).is_some_and(|v| v.is_finite())) {
        Some(m) => Err(format!("{} was not measured", m.name)),
        None => Ok(()),
    }
}

/// `values` with `digits` decimals, for the printed notes.
fn list(values: &[f64], digits: usize) -> String {
    values.iter().map(|v| format!("{v:.digits$}")).collect::<Vec<_>>().join(" ")
}

/// Set up `setup_samples` times (the last one is kept), then measure.
fn drive<W: Workload>(
    cfg: &RunCfg,
    scratch: &Scratch,
    prepare: impl Fn() -> Res<W>,
) -> Res<Outcome> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..cfg.sizes.setup_samples.max(1) {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(prepare()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");
    let off = &mut Tracer::new(false);
    if cfg.sizes.warm_up && workload.warms_up() {
        workload.rep(off, 0, false)?;
    }
    if cfg.trace {
        return traced(cfg, scratch, &mut workload);
    }

    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < cfg.sizes.min_reps || start.elapsed().as_secs_f64() < cfg.seconds {
        let first = reps.is_empty();
        reps.push(workload.rep(off, reps.len() as u64 + 1, first)?);
    }
    check_exact(&reps.iter().collect::<Vec<_>>())?;

    let closes: Vec<f64> = reps.iter().flat_map(|r| r.samples_of("close_ms")).copied().collect();
    let recovers: Vec<f64> = reps.iter().filter_map(|r| r.recover_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.ratings as f64 / r.ingest_s).collect();
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", median(&setup_s));
    metrics.insert("ingest_rps", median(&rates));
    metrics.insert("close_p50_ms", median(&closes));
    metrics.insert("peak_rss_mb", peak_rss_mb()?);
    check_complete(&metrics, &END_TO_END)?;
    let tail = match highest_supported_percentile(closes.len()) {
        Some(p) => format!(
            "p{p} = {:.3} ms is the highest percentile with ten samples beyond it",
            percentile(&closes, p)
        ),
        None => "too few for any percentile to have ten samples beyond it".to_string(),
    };
    let mut notes = vec![
        format!("{} measured reps in {:.1} s", reps.len(), start.elapsed().as_secs_f64()),
        format!("setup_s: median of {} set-ups", setup_s.len()),
        format!("ingest_rps: median of {} reps: {}", rates.len(), list(&rates, 0)),
        format!("close_p50_ms: {} closes pooled; {tail}", closes.len()),
    ];
    if !recovers.is_empty() {
        notes.push(format!("{} recoveries gated, s: {}", recovers.len(), list(&recovers, 3)));
    }
    Ok(Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
        notes,
    })
}

/// The traced run: one untraced rep, one traced rep, the standalone
/// replays, and the trace file.
fn traced<W: Workload>(cfg: &RunCfg, scratch: &Scratch, workload: &mut W) -> Res<Outcome> {
    /// End-to-end figures of single workloads: report-only, and taken from
    /// the untraced rep like every end-to-end figure.
    const UNTRACED: [&str; 5] =
        ["disk_bytes_per_rating", "ack_p50_us", "query_p50_us", "round_s", "audit_s"];
    let plain = workload.rep(&mut Tracer::new(false), 1, false)?;
    let mut tracer = Tracer::new(true);
    let traced = workload.rep(&mut tracer, 2, true)?;
    check_exact(&[&plain, &traced])?;

    let mut metrics = workload.layer_metrics(&traced, &tracer);
    metrics.extend(traced.values.iter().map(|(&k, &v)| (k, v)));
    for name in UNTRACED {
        if let Some(&v) = plain.values.get(name) {
            metrics.insert(name, v);
        }
    }
    let closes = [plain.samples_of("close_ms"), traced.samples_of("close_ms")].concat();
    metrics.insert("close_p99_ms", percentile(&closes, 99.0));
    metrics.extend(traced.recover_s.map(|s| ("recover_s", s)));
    metrics.insert("failed_share", (plain.failed + plain.late) as f64 / plain.attempted as f64);
    metrics.insert("trace.unaccounted_share", tracer.unaccounted_share("rep"));
    // the same work, timed with and without spans around it
    metrics.insert("trace.overhead_share", 1.0 - plain.ingest_s / traced.ingest_s);
    probes::fill_missing(&mut metrics, workload.input(), cfg.seed, scratch)?;
    check_complete(&metrics, &PER_LAYER)?;

    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", cfg.workload));
    std::fs::write(&path, tracer.to_json(&cfg.workload).render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        notes: vec![
            format!("{} spans written to {}", tracer.spans().len(), path.display()),
            "per-layer figures: one traced rep; layers the workload does not call itself are \
             replayed standalone on its input"
                .to_string(),
        ],
    })
}

/// Run one workload to completion. `Err` is a failed gate or a failed
/// operation; the caller exits non-zero on it.
pub fn run(cfg: &RunCfg) -> Res<Outcome> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let scratch = &Scratch::new(Path::new(OUT_DIR))?;
    let (sizes, seed) = (&cfg.sizes, cfg.seed);
    match cfg.workload.as_str() {
        spec::ENGINE_BULK => drive(cfg, scratch, || {
            EngineWorkload::prepare(sizes.nodes, seed, engine::BULK, scratch)
        }),
        spec::ENGINE_CHURN => drive(cfg, scratch, || {
            EngineWorkload::prepare(sizes.nodes, seed, engine::CHURN, scratch)
        }),
        spec::WIRE_MIXED => drive(cfg, scratch, || {
            WireWorkload::prepare(sizes.wire_nodes, wire::EPOCHS, sizes.ack_frames, seed, scratch)
        }),
        spec::AUDIT_BATCH => drive(cfg, scratch, || AuditWorkload::prepare(sizes.nodes, seed)),
        other => Err(format!("unknown workload {other:?}")),
    }
}
