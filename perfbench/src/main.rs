//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dashboard_warm|explore_cold|live_ingest> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against an 8-node `SimCluster` with every modeled
//! charge pinned to zero, checks a sample of its answers bit for bit
//! against a raw-row reference, and prints one JSON object as the last
//! line of standard output: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). See `perfbench/README.md`.

mod drive;
mod host;
mod layers;
mod oracle;
mod setup;
mod stats;
mod workloads;

use serde_json::{json, Value};
use stats::Latency;
use workloads::{Outcome, Run, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run only this round and print its record (the parent process runs
    /// each round in a child of its own).
    round: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut round = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--round" => round = Some(value.parse().map_err(|e| format!("--round: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        round,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// How a run's value of an end-to-end metric is taken from its rounds.
#[derive(Clone, Copy)]
enum Take {
    /// The best round. Host steal and neighbours only ever slow a round
    /// down, so on a shared host the least disturbed of the rounds is the
    /// steadiest estimate of what the code costs.
    Lowest,
    Highest,
    /// The median round (set-up time, peak memory).
    Median,
}

/// Name, unit and rule of each end-to-end metric, in output order.
const END_TO_END: [(&str, &str, Take); 10] = [
    ("query_p50_ms", "ms", Take::Lowest),
    ("query_p90_ms", "ms", Take::Lowest),
    ("queries_per_s", "1/s", Take::Highest),
    ("cpu_us_per_op", "us", Take::Lowest),
    ("ingest_rows_per_s", "rows/s", Take::Highest),
    ("append_p50_ms", "ms", Take::Lowest),
    ("append_p90_ms", "ms", Take::Lowest),
    ("cpu_us_per_row", "us", Take::Lowest),
    ("setup_s", "s", Take::Median),
    ("peak_rss_mb", "MiB", Take::Median),
];

/// What a round reports to the parent: its end-to-end metrics, its
/// operation counts and shape failures, and its diagnostics.
struct RoundRecord {
    metrics: Vec<f64>,
    attempted: u64,
    failed: u64,
    shape_failures: Vec<String>,
    /// How late the paced reader sent each query (ms).
    late_ms: Vec<f64>,
    diagnostics: Value,
}

impl RoundRecord {
    fn of(o: &Outcome) -> RoundRecord {
        let metrics = round_metrics(o);
        let q = Latency::of(o.queries.untraced_ms.clone());
        let a = Latency::of(o.appends.iter().map(|a| a.ms).collect());
        let mut diagnostics: Vec<(String, Value)> = END_TO_END
            .iter()
            .zip(&metrics)
            .map(|(&(n, _, _), v)| (n.to_string(), json!(v)))
            .collect();
        diagnostics.extend([
            ("query_samples".to_string(), json!(q.samples)),
            ("query_p99_ms".to_string(), json!(q.p99_ms)),
            ("append_samples".to_string(), json!(a.samples)),
            ("append_p99_ms".to_string(), json!(a.p99_ms)),
            ("checked_answers".to_string(), json!(o.checked)),
            ("query_phase_noise".to_string(), o.query_noise.to_json()),
            ("ingest_phase_noise".to_string(), o.ingest_noise.to_json()),
        ]);
        diagnostics.extend(o.notes.iter().cloned());
        RoundRecord {
            metrics,
            attempted: o.queries.attempted() + o.append_attempts,
            failed: o.queries.errors + o.append_errors + o.wrong,
            shape_failures: o.shape_failures.clone(),
            late_ms: o.queries.late_ms.clone(),
            diagnostics: Value::Object(diagnostics),
        }
    }

    fn to_json(&self) -> Value {
        json!({
            "metrics": self.metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "shape_failures": self.shape_failures,
            "late_ms": self.late_ms,
            "diagnostics": self.diagnostics,
        })
    }

    fn from_json(v: &Value) -> Option<RoundRecord> {
        let floats = |k: &str| -> Option<Vec<f64>> {
            v.get(k)?.as_array()?.iter().map(Value::as_f64).collect()
        };
        Some(RoundRecord {
            metrics: floats("metrics")?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            shape_failures: v
                .get("shape_failures")?
                .as_array()?
                .iter()
                .map(|f| f.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            late_ms: floats("late_ms")?,
            diagnostics: v.get("diagnostics")?.clone(),
        })
    }
}

/// The end-to-end metrics of one round, in [`END_TO_END`] order.
fn round_metrics(o: &Outcome) -> Vec<f64> {
    let q = Latency::of(o.queries.untraced_ms.clone());
    let a = Latency::of(o.appends.iter().map(|a| a.ms).collect());
    let queries = o.queries.queries().max(1) as f64;
    let rows = o.appends.iter().map(|a| a.rows).sum::<usize>().max(1) as f64;
    // Operations of the query phase: its queries, plus the append batches
    // acknowledged beside them on `live_ingest`.
    let ops = queries + o.concurrent_batches as f64;
    vec![
        q.p50_ms,
        q.p90_ms,
        queries / o.query_noise.wall_s,
        o.query_noise.process_cpu_s * 1e6 / ops,
        rows / o.ingest_noise.wall_s.max(1e-9),
        a.p50_ms,
        a.p90_ms,
        o.ingest_noise.process_cpu_s * 1e6 / rows,
        o.setup_s,
        host::peak_rss_mb(),
    ]
}

fn end_to_end(rounds: &[Vec<f64>]) -> Metrics {
    END_TO_END
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, take))| {
            let v: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
            let value = match take {
                Take::Lowest => v.iter().copied().fold(f64::INFINITY, f64::min),
                Take::Highest => v.iter().copied().fold(0.0, f64::max),
                Take::Median => stats::median(&v),
            };
            (name, value, unit)
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(o: &Outcome, failed_ratio: f64) -> Metrics {
    let t = &o.queries.traces;
    let c = &o.counters;
    let tq = t.queries.max(1) as f64;
    let per_q = |v: u64| v as f64 / tq;
    let queries = o.queries.queries().max(1) as f64;
    let batches = o.batches.max(1) as f64;
    let ops = (o.queries.queries() as u64 + o.batches).max(1) as f64;
    let p = &o.queries.provenance;
    let untraced = Latency::of(o.queries.untraced_ms.clone()).p50_ms;
    let traced = Latency::of(o.queries.traced_ms.clone()).p50_ms;
    let r = &o.replay;
    let self_ns = |layer, name| layers::self_time(&o.queries.spans, layer, name);
    vec![
        // Self times from the spans: the request's is the gateway legs (client
        // wall minus coordinator wall), the coordinator's is its time outside
        // every traced stage.
        (
            "cluster.gateway_ns",
            per_q(self_ns("bench", "request")),
            "ns/query",
        ),
        (
            "cluster.coordinator_self_ns",
            per_q(self_ns("cluster", "coordinator")),
            "ns/query",
        ),
        ("cluster.route_ns", per_q(t.route_ns), "ns/query"),
        ("cluster.wait_ns", per_q(t.wait_ns), "ns/query"),
        ("cluster.subqueries", per_q(t.subqueries), "count/query"),
        ("cluster.retries", per_q(t.retries), "count/query"),
        ("cluster.failovers", per_q(t.failovers), "count/query"),
        ("core.plm_ns", per_q(t.plm_ns), "ns/query"),
        ("core.merge_ns", per_q(t.merge_ns), "ns/query"),
        (
            "core.hit_ratio",
            ratio(p.hits + p.derived + p.rollup, p.targets()),
            "ratio",
        ),
        (
            "core.evictions",
            c.get("graph.evictions") as f64 / queries,
            "count/query",
        ),
        ("core.graph_cells", o.graph_cells as f64, "count"),
        ("dfs.dfs_ns", per_q(t.dfs_ns), "ns/query"),
        (
            "dfs.disk_reads",
            c.get("dfs.disk_reads") as f64 / queries,
            "count/query",
        ),
        (
            "dfs.rows_decoded",
            c.get("dfs.rows_decoded") as f64 / queries,
            "rows/query",
        ),
        (
            "dfs.decode_ns_per_row",
            ratio(c.get("dfs.decode_ns"), c.get("dfs.rows_decoded")),
            "ns/row",
        ),
        (
            "dfs.frame_cache.hit_ratio",
            ratio(
                c.get("dfs.frame_cache.hit"),
                c.get("dfs.frame_cache.hit") + c.get("dfs.frame_cache.miss"),
            ),
            "ratio",
        ),
        (
            "dfs.frame_cache.evicted_bytes",
            c.get("dfs.frame_cache.evicted_bytes") as f64 / queries,
            "B/query",
        ),
        ("dfs.aggregate_ns_per_row", r.aggregate_ns_per_row, "ns/row"),
        ("sketch.fold_ns_per_row", r.fold_ns_per_row, "ns/row"),
        (
            "sketch.merges",
            c.get("sketch.merges") as f64 / queries,
            "count/query",
        ),
        (
            "sketch.bytes",
            c.get("sketch.bytes") as f64 / queries,
            "B/query",
        ),
        (
            "model.flat_encode_ns_per_cell",
            r.encode_ns_per_cell,
            "ns/cell",
        ),
        (
            "model.flat_decode_ns_per_cell",
            r.decode_ns_per_cell,
            "ns/cell",
        ),
        (
            "net.messages",
            c.get("net.messages") as f64 / ops,
            "count/op",
        ),
        ("net.bytes", c.get("net.bytes") as f64 / ops, "B/op"),
        ("net.wire_ns", per_q(t.wire_ns), "ns/query"),
        ("net.dropped", c.get("net.dropped") as f64, "count"),
        ("net.refused", c.get("net.refused") as f64, "count"),
        (
            "ingest.cells_patched",
            c.get("ingest.cells_patched") as f64 / batches,
            "count/batch",
        ),
        (
            "ingest.cells_invalidated",
            c.get("ingest.cells_invalidated") as f64 / batches,
            "count/batch",
        ),
        (
            "ingest.invalidate_msgs",
            c.get("ingest.invalidate.recv") as f64 / batches,
            "count/batch",
        ),
        (
            "rollup.folds",
            c.get("rollup.folds") as f64 / batches,
            "count/batch",
        ),
        (
            "rollup.seals",
            c.get("rollup.seals") as f64 / batches,
            "count/batch",
        ),
        ("rollup.hit_ratio", ratio(p.rollup, p.targets()), "ratio"),
        ("rollup.serve_ns_per_cell", r.serve_ns_per_cell, "ns/cell"),
        ("data.gen_ns_per_row", r.gen_ns_per_row, "ns/row"),
        (
            "reader.late_ms_p99",
            Latency::of(o.queries.late_ms.clone()).p99_ms,
            "ms",
        ),
        (
            "trace.overhead_ratio",
            if untraced > 0.0 {
                traced / untraced
            } else {
                0.0
            },
            "ratio",
        ),
        ("bench.failed_op_ratio", failed_ratio, "ratio"),
    ]
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value serializes")
}

/// Rounds of an untraced run, each in a child process of its own: a
/// fresh allocator and a fresh peak-memory mark per round, and one
/// disturbed round cannot decide the run.
const ROUNDS: usize = 5;

const ROUND_PREFIX: &str = "perfbench round ";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        traced(&args);
    } else if let Some(round) = args.round {
        let run = Run {
            seed: args.seed,
            window: std::time::Duration::from_secs_f64(args.seconds / ROUNDS as f64),
            trace: false,
        };
        let o = workloads::run_round(args.workload, &run, round);
        // A p90 needs ten samples beyond it.
        if o.queries.untraced_ms.len().min(o.appends.len()) < 100 {
            eprintln!("perfbench: warning: round {round} has fewer than 100 samples behind a p90");
        }
        println!("{ROUND_PREFIX}{}", to_json(&RoundRecord::of(&o).to_json()));
    } else {
        untraced(&args);
    }
}

/// Run one round in a child process and read its record.
fn run_child(args: &Args, round: usize) -> Result<RoundRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--round", &round.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting round {round}: {e}"))?;
    if !out.status.success() {
        return Err(format!("round {round} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(ROUND_PREFIX))
        .and_then(|l| serde_json::parse(l).ok())
        .as_ref()
        .and_then(RoundRecord::from_json)
        .ok_or(format!("round {round} printed no record"))
}

/// The reader keeps its schedule: transient stalls may delay a few queries
/// past a period, a backlog would delay most of them.
fn lateness_failure(w: Workload, late_ms: Vec<f64>) -> Option<String> {
    let period_ms = 1e3 / f64::from(workloads::READER_HZ);
    let late_p90 = Latency::of(late_ms).p90_ms;
    (w == Workload::LiveIngest && late_p90 >= period_ms).then(|| {
        format!("live_ingest: reader lateness p90 {late_p90:.3} ms not below its period {period_ms:.3} ms")
    })
}

fn untraced(args: &Args) {
    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        match run_child(args, round) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut shape_failures: Vec<String> = rounds
        .iter()
        .flat_map(|r| r.shape_failures.clone())
        .collect();
    let late_ms = rounds.iter().flat_map(|r| r.late_ms.clone()).collect();
    shape_failures.extend(lateness_failure(args.workload, late_ms));
    let metrics = end_to_end(&rounds.iter().map(|r| r.metrics.clone()).collect::<Vec<_>>());
    let diagnostics = vec![(
        "rounds".to_string(),
        Value::Array(rounds.iter().map(|r| r.diagnostics.clone()).collect()),
    )];
    report(
        args,
        attempted,
        failed,
        &shape_failures,
        diagnostics,
        metrics,
    );
}

/// One traced round over the whole window: per-layer metrics, spans
/// written to `perfbench/out/`.
fn traced(args: &Args) {
    let run = Run {
        seed: args.seed,
        window: std::time::Duration::from_secs_f64(args.seconds),
        trace: true,
    };
    let o = workloads::run_round(args.workload, &run, 0);
    let mut spans = o.queries.spans.clone();
    spans.extend(o.spans.iter().cloned());
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match layers::write_spans(&path, &spans) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
    }
    let record = RoundRecord::of(&o);
    let mut shape_failures = record.shape_failures.clone();
    shape_failures.extend(lateness_failure(args.workload, record.late_ms.clone()));
    let failed_ratio = record.failed as f64 / record.attempted.max(1) as f64;
    let diagnostics = vec![("round".to_string(), record.diagnostics.clone())];
    let metrics = per_layer(&o, failed_ratio);
    report(
        args,
        record.attempted,
        record.failed,
        &shape_failures,
        diagnostics,
        metrics,
    );
}

/// Print the diagnostics line and the result line; exit 1 unless correct.
fn report(
    args: &Args,
    attempted: u64,
    failed: u64,
    shape_failures: &[String],
    extra: Vec<(String, Value)>,
    metrics: Metrics,
) {
    for f in shape_failures {
        eprintln!("perfbench: shape assertion failed: {f}");
    }
    let correct = failed == 0 && shape_failures.is_empty();
    // Diagnostics beside the metrics: host noise of each measured phase,
    // sample counts and workload sizes.
    let mut diag = vec![
        ("workload".to_string(), json!(args.workload.name())),
        ("seed".to_string(), json!(args.seed)),
        ("nproc".to_string(), json!(host::nproc())),
        (
            "failed_op_ratio".to_string(),
            json!(failed as f64 / attempted.max(1) as f64),
        ),
    ];
    diag.extend(extra);
    println!("perfbench diagnostics {}", to_json(&Value::Object(diag)));

    let metrics: Vec<(String, Value)> = metrics
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), json!({ "value": value, "unit": unit })))
        .collect();
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", to_json(&result));
    if !correct {
        std::process::exit(1);
    }
}
