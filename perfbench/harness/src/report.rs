//! Metrics, percentiles, memory and the in-memory span recorder shared by
//! every workload.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every metric the harness emits: `(name, unit)`. End-to-end metrics are
/// printed by untraced runs, per-layer metrics by traced runs. A traced
/// run prints every per-layer metric; those of layers its workload never
/// calls read 0.
///
/// The end-to-end metrics are CPU times of the whole process, not wall
/// times: on a shared virtual machine the hypervisor steals the vCPUs for
/// seconds at a time, which stretches wall times by up to 2× from one run
/// to the next but leaves the CPU time a process is charged unchanged.
/// Wall-clock throughput and latency are per-layer metrics (`wall.*`).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("cpu_ms_per_op", "ms")];

pub const PER_LAYER: &[(&str, &str)] = &[
    // every workload, untraced half of the traced run
    ("wall.throughput_per_s", "1/s"),
    ("wall.latency_p50_ms", "ms"),
    ("wall.latency_p90_ms", "ms"),
    // derive
    ("core.model.learn_ms", "ms"),
    ("core.model.meta_rules", "count"),
    ("core.infer.single_ms", "ms"),
    ("core.infer.dag_build_ms", "ms"),
    ("core.infer.multi_ms", "ms"),
    ("core.infer.draws", "count"),
    ("core.infer.shared_draws", "count"),
    ("core.infer.ns_per_draw", "ns"),
    ("core.infer.thread_speedup", "x"),
    ("core.infer.top1_accuracy", "share"),
    ("probdb.database.assemble_ms", "ms"),
    ("trace.stage_sum_ratio", "x"),
    // serve_churn, hot probe
    ("probdb.plan.direct_p50_us", "us"),
    ("probdb.plan.shard_auto_ratio", "x"),
    ("probdb.serve.overhead_ratio", "x"),
    ("probdb.plan.cache_hit_rate", "share"),
    ("probdb.plan.hot_hit_share", "share"),
    ("probdb.serve.coalesced_share", "share"),
    ("probdb.plan.rows_per_query", "count"),
    // serve_churn
    ("probdb.plan.cold_p50_ms", "ms"),
    ("probdb.plan.bounds_p50_ms", "ms"),
    ("probdb.plan.evictions", "count"),
    ("probdb.plan.invalidations", "count"),
    ("probdb.plan.reg_patches", "count"),
    ("probdb.plan.reg_rebinds", "count"),
    ("probdb.plan.hot_promotions", "count"),
    ("probdb.plan.cache_len", "count"),
    ("probdb.mc.query_ms", "ms"),
    ("probdb.serve.abandoned", "count"),
    ("probdb.serve.begin_update_ms", "ms"),
    ("probdb.serve.publish_ms", "ms"),
    ("probdb.serve.publish_p50_ms", "ms"),
    ("probdb.serve.lagged_reads", "count"),
    // learn
    ("learn.weights.fit_ms", "ms"),
    ("learn.weights.top1_accuracy", "share"),
    ("learn.mass.epoch_ms", "ms"),
    ("learn.mass.final_mse", "mse"),
    ("probdb.plan.grad_overhead", "x"),
    // every workload
    ("trace.overhead_ratio", "x"),
    ("process.peak_rss_mb", "MB"),
];

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (derive calls, served queries, learning
    /// rounds, dropped Monte Carlo submits).
    pub attempted: u64,
    /// Operations that errored or failed a correctness gate.
    pub failed: u64,
    /// Measured metrics by name; names must appear in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: HashMap<&'static str, f64>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<Span>,
    /// First correctness failures, for the log.
    pub errors: Vec<String>,
    /// Threads issuing ops, and server workers (0 without a server).
    pub clients: usize,
    pub workers: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one gate verdict: `Err` marks the operation failed.
    pub fn gate(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// The result line: every metric of the run's kind, by name and unit.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        let mut missing = Vec::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => {
                    missing.push(*name);
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        assert!(
            missing.is_empty(),
            "end-to-end metrics not measured: {missing:?}"
        );
        let correct = self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite JSON number with every digit `f64` carries.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Nearest-rank percentile of an unsorted sample set (sorted in place).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[idx]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Fewest ops a timed phase runs, whatever its length: p90 then has at
/// least ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Wall-clock throughput and latency metrics of a timed phase from its
/// ops, given as (completion time in s since the phase began, latency in
/// ms) and sorted by completion. Each metric is a median over consecutive windows of
/// equal op count, so a stall of the host during part of a run moves it
/// little:
/// - throughput: ops × `work_per_op` completed per second in each of up
///   to 30 windows of at least 10 ops;
/// - p50 and p90: percentiles within each of up to 15 windows of at least
///   [`MIN_OPS`] ops, so every window's p90 has ten samples beyond it.
pub fn windowed_metrics(out: &mut Outcome, ops: &[(f64, f64)], work_per_op: f64) {
    assert!(
        ops.len() >= MIN_OPS,
        "{} ops leave fewer than 10 latency samples beyond p90",
        ops.len()
    );
    let mut tput = windows(ops, 10, 30)
        .map(|(begin, chunk)| chunk.len() as f64 * work_per_op / (chunk[chunk.len() - 1].0 - begin))
        .collect::<Vec<_>>();
    let (mut p50, mut p90): (Vec<f64>, Vec<f64>) = windows(ops, MIN_OPS, 15)
        .map(|(_, chunk)| {
            let mut lats: Vec<f64> = chunk.iter().map(|&(_, l)| l).collect();
            (percentile(&mut lats, 0.5), percentile(&mut lats, 0.9))
        })
        .unzip();
    out.set("wall.throughput_per_s", median(&mut tput));
    out.set("wall.latency_p50_ms", median(&mut p50));
    out.set("wall.latency_p90_ms", median(&mut p90));
}

/// Consecutive windows of equal op count, at least `min_ops` each and at
/// most `max_windows` of them, with the completion time that opens each.
fn windows(
    ops: &[(f64, f64)],
    min_ops: usize,
    max_windows: usize,
) -> impl Iterator<Item = (f64, &[(f64, f64)])> {
    let count = (ops.len() / min_ops).clamp(1, max_windows);
    let per = ops.len() / count;
    (0..count).map(move |w| {
        let begin = if w == 0 { 0.0 } else { ops[w * per - 1].0 };
        (begin, &ops[w * per..(w + 1) * per])
    })
}

/// Median latency (ms) of a phase's (completion, latency) ops.
pub fn median_latency(ops: &[(f64, f64)]) -> f64 {
    median(&mut ops.iter().map(|&(_, l)| l).collect::<Vec<_>>())
}

/// Ops of a one-at-a-time phase as [`windowed_metrics`] takes them: each
/// completes when the op time summed so far (gate checks excluded) has
/// passed.
pub fn back_to_back(latencies_ms: &[f64]) -> Vec<(f64, f64)> {
    let mut busy_s = 0.0;
    latencies_ms
        .iter()
        .map(|&l| {
            busy_s += l / 1e3;
            (busy_s, l)
        })
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time in seconds charged to this process so far: every thread's,
/// the ones that have exited included.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Sets `cpu_ms_per_op`: the process CPU time since `cpu_start` (a
/// [`cpu_s`] reading taken as the measured phase began) over the `ops`
/// the phase completed.
pub fn cpu_per_op(out: &mut Outcome, cpu_start: f64, ops: usize) {
    assert!(ops > 0, "the measured phase completed no op");
    out.set("cpu_ms_per_op", (cpu_s() - cpu_start) * 1e3 / ops as f64);
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times, dropping each result before
/// building the next, and returns the last one with the median CPU time
/// of a set-up in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = cpu_s();
        last = Some(setup());
        times.push(cpu_s() - start);
    }
    (last.expect("at least one set-up"), median(&mut times))
}

/// One traced interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer. Spans stay in memory; the run writes them
/// out when it ends.
pub struct SpanLog {
    origin: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// `origin` is shared by every log of a run so spans of different
    /// threads line up; `thread` keeps span ids unique across logs.
    pub fn new(origin: Instant, thread: u64) -> Self {
        Self {
            origin,
            thread,
            next: 0,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// nested calls can name it as their parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(&mut Self, u64) -> T,
    ) -> T {
        let id = (self.thread << 40) | self.next;
        self.next += 1;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let value = f(self, id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        value
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one span never overlap here: each log is one
/// thread's nested calls).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Median self time in ms of the spans named `name`.
pub fn median_self_ms(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

/// Median duration in ms of the spans named `name`.
pub fn median_dur_ms(spans: &[Span], name: &str) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

/// Writes spans as JSON lines, one span with its self time per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    w.flush()
}
