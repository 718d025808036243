//! `serve-mix`: an open loop against an `autobraidd` child process with
//! two compile threads. Requests go out on a fixed schedule over two
//! connections: about 70% resubmit a 32-circuit hot set primed at
//! set-up (cache hits), about 30% are fresh seeded circuits (misses), and
//! about 20% name a non-default registry strategy.
//!
//! The hot set is the same for every seed, so the cost of a hit does not
//! depend on it; the seed draws the arrival order, the fresh circuits
//! and their strategies.
//!
//! The run first holds the reference rate, which gives the latency
//! percentiles, then climbs a ladder of offered rates for the highest
//! rate whose p99 meets [`LIMIT_MS`] without a growing backlog.

use crate::daemon::Daemon;
use crate::stages::{self, StageCounts};
use crate::stats::{geomean, median, quantile, ratio};
use crate::telemetry::{recorded, set_layer_counts, zero_unmeasured};
use crate::trace::Tracer;
use crate::{gen, Args, Outcome};
use autobraid::config::ScheduleConfig;
use autobraid::critical_path::critical_path_cycles;
use autobraid::pipeline::{CompileOptions, Pipeline, Strategy};
use autobraid::report::canonical_compile_report_json;
use autobraid_circuit::{qasm, Circuit};
use autobraid_service::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use autobraid_service::{CacheKey, CompileRequest, ReportCache, Request, ServiceConfig};
use autobraid_telemetry::{JsonValue, Rng64};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Hot-set size.
const HOT: usize = 32;
/// Share of requests that resubmit a hot-set circuit.
const HOT_SHARE: f64 = 0.7;
/// Share of requests naming a non-default strategy.
const ALT_SHARE: f64 = 0.2;
/// The non-default strategies requests name.
const ALT_STRATEGIES: [Strategy; 4] = [
    Strategy::PathFinder,
    Strategy::Portfolio,
    Strategy::Baseline,
    Strategy::Stack,
];
/// Connections the load generator sends on.
const CONNECTIONS: usize = 2;
/// Compile threads of the daemon.
const THREADS: usize = 2;
/// The reference rate latency percentiles are reported at (req/s).
const REFERENCE_RPS: f64 = 400.0;
/// Requests sent at the reference rate, at least (≥ 10 beyond the p99).
const REFERENCE_MIN_REQUESTS: usize = 1600;
/// Share of `--seconds` spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.4;
/// Consecutive reference requests per p99 window (12 beyond the p99).
const P99_WINDOW: usize = 1200;
/// Seed of the hot set (the same for every run).
const HOT_SEED: u64 = 0x4407;
/// The ladder's fixed grid: `LADDER_BASE × LADDER_STEP^k` req/s.
const LADDER_BASE: f64 = 100.0;
const LADDER_STEP: f64 = 1.05;
/// Grid steps per coarse ladder step.
const COARSE: i32 = 5;
/// First grid level tried.
const LADDER_START: i32 = 50;
/// Requests per ladder rung, at least (≥ 10 beyond the p99).
const RUNG_MIN_REQUESTS: usize = 1100;
/// Rungs a typical climb takes; the ladder's share of the run is divided
/// among them.
const RUNGS: f64 = 14.0;
/// The workload's p99 latency limit.
const LIMIT_MS: f64 = 100.0;
/// Share of the run the traced run spends on the wire.
const TRACED_WIRE_SHARE: f64 = 0.35;

/// One request of the mix.
struct Req {
    /// The rendered request frame.
    frame: String,
    source: String,
    label: String,
    strategy: Strategy,
}

fn make_req(circuit: &Circuit, label: String, strategy: Option<Strategy>) -> Req {
    let source = qasm::emit(circuit);
    let mut request = CompileRequest::qasm(source.clone()).with_label(label.clone());
    if let Some(s) = strategy {
        request = request.with_strategy(s);
    }
    Req {
        frame: request.to_json().render_compact(),
        source,
        label,
        strategy: strategy.unwrap_or(Strategy::Full),
    }
}

fn pick_strategy(rng: &mut Rng64) -> Option<Strategy> {
    rng.gen_bool(ALT_SHARE)
        .then(|| ALT_STRATEGIES[rng.gen_range(0..ALT_STRATEGIES.len())])
}

/// The seeded request stream: the hot set, then position `p` of the
/// schedule is either a hot-set index or the next fresh circuit.
struct Mix {
    seed: u64,
    hot: Vec<Req>,
    fresh: Vec<Req>,
    rng: Rng64,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut hot_rng = Rng64::seed_from_u64(HOT_SEED);
        let hot = (0..HOT)
            .map(|j| {
                let circuit = gen::service_circuit(&mut hot_rng);
                let strategy = pick_strategy(&mut hot_rng);
                make_req(&circuit, format!("hot-{j}"), strategy)
            })
            .collect();
        Mix {
            seed,
            hot,
            fresh: Vec::new(),
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// The next `n` requests of the schedule, as indices into
    /// [`Mix::get`] (hot set first, then fresh circuits).
    fn next(&mut self, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| {
                if self.rng.gen_bool(HOT_SHARE) {
                    self.rng.gen_range(0..HOT)
                } else {
                    let k = self.fresh.len();
                    let circuit = gen::service_circuit(&mut self.rng);
                    let strategy = pick_strategy(&mut self.rng);
                    self.fresh.push(make_req(
                        &circuit,
                        format!("fresh-{}-{k}", self.seed),
                        strategy,
                    ));
                    HOT + k
                }
            })
            .collect()
    }

    fn get(&self, id: usize) -> &Req {
        if id < HOT {
            &self.hot[id]
        } else {
            &self.fresh[id - HOT]
        }
    }
}

/// Requests of the reference phase for a run of `seconds`.
fn reference_requests(seconds: Duration) -> usize {
    REFERENCE_MIN_REQUESTS.max((seconds.as_secs_f64() * REFERENCE_SHARE * REFERENCE_RPS) as usize)
}

/// Starts the daemon, connects, primes the hot set (one miss each,
/// which also warms the workers' search arenas), and generates the
/// reference phase's requests.
fn setup(seed: u64, reference: usize) -> (Daemon, Vec<TcpStream>, Mix, Vec<usize>, f64) {
    let started = Instant::now();
    let daemon = Daemon::start(THREADS);
    let mut conns: Vec<TcpStream> = (0..CONNECTIONS).map(|_| daemon.connect()).collect();
    let mut mix = Mix::new(seed);
    for (i, req) in mix.hot.iter().enumerate() {
        let conn = &mut conns[i % CONNECTIONS];
        write_frame(conn, &req.frame).expect("prime the hot set");
        let reply = read_frame(conn, DEFAULT_MAX_FRAME)
            .expect("priming reply")
            .expect("daemon answers");
        assert!(
            reply.contains("\"status\":\"ok\""),
            "priming failed: {reply}"
        );
    }
    let reference = mix.next(reference);
    (
        daemon,
        conns,
        mix,
        reference,
        started.elapsed().as_secs_f64(),
    )
}

/// What one open-loop phase observed, per request in schedule order.
struct Phase {
    /// Latency from when the request was due.
    latency_ms: Vec<f64>,
    /// Round trip from when it was actually sent.
    rtt_ms: Vec<f64>,
    /// How late the generator sent it.
    lag_ms: Vec<f64>,
    /// The reply payload (`None` on a transport failure).
    replies: Vec<Option<String>>,
    /// Requests outstanding at the phase's midpoint and when the last
    /// one was due.
    backlog_mid: usize,
    backlog_end: usize,
    /// Requests answered per second, from the start to the last reply.
    served_per_s: f64,
}

impl Phase {
    /// p99 latency; a request without a reply counts as missing it.
    fn p99(&self) -> f64 {
        if self.replies.iter().any(Option::is_none) {
            return f64::INFINITY;
        }
        quantile(&self.latency_ms, 0.99)
    }

    /// The backlog grew: more requests outstanding when the last one was
    /// due than at the midpoint, by more than 2% of the phase.
    fn backlog_grew(&self) -> bool {
        let slack = (self.latency_ms.len() / 50).max(2 * CONNECTIONS);
        self.backlog_end > self.backlog_mid + slack
    }

    /// The reference p99: the median, over consecutive windows of
    /// [`P99_WINDOW`] requests, of each window's p99, so that one stall
    /// of the machine moves one window and not the result.
    fn windowed_p99(&self) -> f64 {
        let n = self.latency_ms.len();
        let k = (n / P99_WINDOW).max(1);
        let p99s: Vec<f64> = (0..k)
            .map(|j| quantile(&self.latency_ms[j * n / k..(j + 1) * n / k], 0.99))
            .collect();
        median(&p99s)
    }

    fn meets_limit(&self) -> bool {
        self.p99() <= LIMIT_MS && !self.backlog_grew()
    }
}

/// Sends `frames` at `rate` req/s whatever the replies are doing:
/// request `i` is due `i / rate` after the start and goes out on
/// connection `i % CONNECTIONS`. Each connection has a sending and a
/// receiving thread; replies come back in order per connection.
fn open_loop(conns: &mut [TcpStream], frames: &[&str], rate: f64) -> Phase {
    let n = frames.len();
    let sent = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut phase = Phase {
        latency_ms: vec![f64::INFINITY; n],
        rtt_ms: vec![f64::INFINITY; n],
        lag_ms: vec![0.0; n],
        replies: vec![None; n],
        backlog_mid: 0,
        backlog_end: 0,
        served_per_s: 0.0,
    };
    std::thread::scope(|scope| {
        let mut receivers = Vec::new();
        for (c, conn) in conns.iter_mut().enumerate() {
            let mut writer = conn.try_clone().expect("clone the connection");
            let (sent, received) = (&sent, &received);
            let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant)>();
            scope.spawn(move || {
                for i in (c..n).step_by(CONNECTIONS) {
                    let at = due(i);
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    let now = Instant::now();
                    if write_frame(&mut writer, frames[i]).is_err() {
                        break;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                    if tx.send((i, now)).is_err() {
                        break;
                    }
                }
            });
            receivers.push(scope.spawn(move || {
                let mut got = Vec::new();
                for (i, sent_at) in rx {
                    let Ok(Some(payload)) = read_frame(conn, DEFAULT_MAX_FRAME) else {
                        break;
                    };
                    received.fetch_add(1, Ordering::Relaxed);
                    got.push((i, sent_at, Instant::now(), payload));
                }
                got
            }));
        }
        let backlog = || {
            sent.load(Ordering::Relaxed)
                .saturating_sub(received.load(Ordering::Relaxed))
        };
        std::thread::sleep(due(n / 2).saturating_duration_since(Instant::now()));
        phase.backlog_mid = backlog();
        std::thread::sleep(due(n - 1).saturating_duration_since(Instant::now()));
        phase.backlog_end = backlog();
        let mut last = start;
        for handle in receivers {
            for (i, sent_at, at, payload) in handle.join().expect("receiver thread") {
                last = last.max(at);
                phase.latency_ms[i] = at.saturating_duration_since(due(i)).as_secs_f64() * 1e3;
                phase.rtt_ms[i] = at.duration_since(sent_at).as_secs_f64() * 1e3;
                phase.lag_ms[i] = sent_at.saturating_duration_since(due(i)).as_secs_f64() * 1e3;
                phase.replies[i] = Some(payload);
            }
        }
        let answered = phase.replies.iter().filter(|r| r.is_some()).count();
        phase.served_per_s = ratio(answered as f64, last.duration_since(start).as_secs_f64());
    });
    phase
}

/// The in-process answer to one request: its canonical report (as the
/// wire renders it) and schedule quality (`None` for a circuit the
/// optimizer emptied, whose critical path is 0).
struct Expected {
    report: String,
    cycles_over_cp: Option<f64>,
}

/// Compiles `req` in-process the way the daemon does: parse the QASM,
/// apply the label, compile with the named strategy.
fn expected_for(req: &Req) -> Result<Expected, String> {
    let mut circuit = qasm::parse(&req.source).map_err(|e| e.to_string())?;
    circuit.set_name(req.label.clone());
    let report = Pipeline::new()
        .with_options(CompileOptions {
            strategy: req.strategy,
            ..CompileOptions::default()
        })
        .compile(&circuit)
        .map_err(|e| e.to_string())?;
    let cp = critical_path_cycles(&report.circuit, &ScheduleConfig::default().timing);
    let canonical = report.canonical_json();
    let report_doc = JsonValue::parse(&canonical).map_err(|e| e.to_string())?;
    Ok(Expected {
        report: report_doc.render_compact(),
        cycles_over_cp: (cp > 0).then(|| report.outcome.result.total_cycles as f64 / cp as f64),
    })
}

/// Output oracle and quality bookkeeping across phases.
struct Checker {
    expected: HashMap<usize, Result<Expected, String>>,
    hits: u64,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            expected: HashMap::new(),
            hits: 0,
        }
    }

    fn expected(&mut self, mix: &Mix, id: usize) -> &Result<Expected, String> {
        self.expected
            .entry(id)
            .or_insert_with(|| expected_for(mix.get(id)))
    }

    /// Checks every reply of a phase: a typed error (`overloaded`,
    /// `timeout`, ...) or a missing reply is a failure; a report that
    /// differs from the in-process compile is a wrong output.
    fn check(&mut self, out: &mut Outcome, mix: &Mix, ids: &[usize], phase: &Phase) {
        for (&id, reply) in ids.iter().zip(&phase.replies) {
            out.attempted += 1;
            let label = &mix.get(id).label;
            let Some(payload) = reply else {
                out.failed += 1;
                continue;
            };
            let doc = match JsonValue::parse(payload) {
                Ok(doc) => doc,
                Err(e) => {
                    out.wrong(format!("{label}: unparseable reply: {e}"));
                    continue;
                }
            };
            if doc.get("status").and_then(JsonValue::as_str) != Some("ok") {
                out.failed += 1;
                continue;
            }
            if doc.get("cache").and_then(JsonValue::as_str) == Some("hit") {
                self.hits += 1;
            }
            let got = doc.get("report").map(JsonValue::render_compact);
            match self.expected(mix, id) {
                Ok(exp) if got.as_deref() == Some(exp.report.as_str()) => {}
                Ok(_) => out.wrong(format!(
                    "{label}: reply differs from the in-process compile"
                )),
                Err(e) => out.wrong(format!("{label}: in-process compile failed: {e}")),
            }
        }
    }

    /// Geometric mean of cycles ÷ critical path over the distinct
    /// circuits of `ids`.
    fn quality(&mut self, mix: &Mix, ids: &[usize]) -> f64 {
        let mut distinct: Vec<usize> = ids.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let q: Vec<f64> = distinct
            .into_iter()
            .filter_map(|id| {
                self.expected(mix, id)
                    .as_ref()
                    .ok()
                    .and_then(|e| e.cycles_over_cp)
            })
            .collect();
        geomean(&q)
    }
}

fn ladder_rate(level: i32) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(level)
}

/// The ladder's rung length, and a stop for a climb that runs far past
/// its share of the run (a rate the generator cannot reach).
struct Ladder {
    started: Instant,
    limit: Duration,
    rung_seconds: f64,
}

impl Ladder {
    fn new(share: Duration) -> Ladder {
        Ladder {
            started: Instant::now(),
            limit: share * 3,
            rung_seconds: (share.as_secs_f64() / RUNGS).clamp(0.5, 2.0),
        }
    }

    fn expired(&self) -> bool {
        self.started.elapsed() >= self.limit
    }
}

/// One ladder rung at grid `level`: enough requests for ≥ 10 beyond
/// the p99 and at least the ladder's rung length. A failed rung is tried
/// once more; the rate is met when either attempt meets the limit.
/// Returns the rate the daemon served in the attempt that met it.
fn rung(
    conns: &mut [TcpStream],
    mix: &mut Mix,
    checker: &mut Checker,
    out: &mut Outcome,
    ladder: &Ladder,
    level: i32,
    log: &mut Vec<String>,
) -> Option<f64> {
    let rate = ladder_rate(level);
    let n = RUNG_MIN_REQUESTS.max((rate * ladder.rung_seconds).ceil() as usize);
    for attempt in 0..2 {
        let ids = mix.next(n);
        let frames: Vec<&str> = ids.iter().map(|&id| mix.get(id).frame.as_str()).collect();
        let phase = open_loop(conns, &frames, rate);
        let met = phase.meets_limit();
        log.push(format!(
            "  rung {rate:>8.1} req/s  n={n:<5} served={:>8.1} req/s  p50={:>7.3} ms  p99={:>8.3} ms  lag_p99={:>6.3} ms  backlog {}->{}  {}",
            phase.served_per_s,
            median(&phase.latency_ms),
            phase.p99(),
            quantile(&phase.lag_ms, 0.99),
            phase.backlog_mid,
            phase.backlog_end,
            if met { "met" } else if attempt == 0 { "missed, retrying" } else { "missed" }
        ));
        checker.check(out, mix, &ids, &phase);
        if met {
            return Some(phase.served_per_s);
        }
    }
    None
}

/// Climbs the ladder: coarse steps of [`COARSE`] grid levels up from
/// [`LADDER_START`] (or down, if the start misses) to bracket the knee,
/// then single grid steps (5% apart) up from the highest met rate,
/// within the ladder's time. Returns the highest met rate and the rate
/// the daemon served there (both 0 when none was met).
fn climb(
    conns: &mut [TcpStream],
    mix: &mut Mix,
    checker: &mut Checker,
    out: &mut Outcome,
    ladder: &Ladder,
    log: &mut Vec<String>,
) -> (f64, f64) {
    let mut level = LADDER_START;
    let mut best = None;
    while !ladder.expired() {
        let Some(served) = rung(conns, mix, checker, out, ladder, level, log) else {
            break;
        };
        best = Some((level, served));
        level += COARSE;
    }
    let ceiling = level;
    while best.is_none() && level > 0 && !ladder.expired() {
        level -= COARSE;
        best = rung(conns, mix, checker, out, ladder, level, log).map(|served| (level, served));
    }
    let Some(mut best) = best else {
        return (0.0, 0.0);
    };
    for fine in best.0 + 1..ceiling.max(best.0 + 1) {
        if ladder.expired() {
            break;
        }
        match rung(conns, mix, checker, out, ladder, fine, log) {
            Some(served) => best = (fine, served),
            None => break,
        }
    }
    (ladder_rate(best.0), best.1)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut last: Option<(Daemon, Vec<TcpStream>, Mix, Vec<usize>)> = None;
    for _ in 0..SETUPS {
        if let Some((daemon, conns, ..)) = last.take() {
            drop(conns);
            Daemon::stop(daemon);
        }
        let (daemon, conns, mix, reference, seconds) =
            setup(args.seed, reference_requests(args.seconds));
        setups.push(seconds);
        last = Some((daemon, conns, mix, reference));
    }
    let (daemon, mut conns, mut mix, reference) = last.expect("at least one set-up");
    let setup_s = median(&setups);
    let mut checker = Checker::new();
    if args.trace {
        run_traced(args, &mut out, &mut conns, &mix, &reference, &mut checker);
        drop(conns);
        daemon.stop();
        return out;
    }

    let frames: Vec<&str> = reference
        .iter()
        .map(|&id| mix.get(id).frame.as_str())
        .collect();
    let phase = open_loop(&mut conns, &frames, REFERENCE_RPS);
    checker.check(&mut out, &mix, &reference, &phase);
    let request_p50 = median(&phase.latency_ms);
    let request_p99 = phase.windowed_p99();
    let quality = checker.quality(&mix, &reference);
    let mut log = Vec::new();
    let ladder = Ladder::new(args.seconds.mul_f64(1.0 - REFERENCE_SHARE));
    let (max_rate, served) = climb(
        &mut conns,
        &mut mix,
        &mut checker,
        &mut out,
        &ladder,
        &mut log,
    );
    drop(conns);
    let peak_rss_mb = daemon.stop();

    out.notes.push(format!(
        "serve-mix: reference {REFERENCE_RPS} req/s, {} requests (p99: median of {} windows' p99 over {} requests each, {} beyond it; whole-phase p99 {:.3} ms); lag_p99={:.3} ms; backlog {}->{}",
        reference.len(),
        (reference.len() / P99_WINDOW).max(1),
        reference.len() / (reference.len() / P99_WINDOW).max(1),
        reference.len() / (reference.len() / P99_WINDOW).max(1) / 100,
        phase.p99(),
        quantile(&phase.lag_ms, 0.99),
        phase.backlog_mid,
        phase.backlog_end
    ));
    out.notes.push(format!(
        "ladder (limit p99 <= {LIMIT_MS} ms, no growing backlog; grid {LADDER_BASE} x {LADDER_STEP}^k req/s):"
    ));
    out.notes.extend(log);
    out.notes.push(format!(
        "cache hits {} of {} requests; fresh circuits {}",
        checker.hits,
        out.attempted,
        mix.fresh.len()
    ));
    out.show("request_ms_p50", request_p50, "ms");
    out.show("request_ms_p99", request_p99, "ms");
    out.show("max_rate_rps", max_rate, "req/s");
    out.show("served_at_max_rate_rps", served, "req/s");
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb, "MB");
    out.set("latency_ms", request_p50, "ms");
    out.set("latency_tail_ms", request_p99, "ms");
    out.set("throughput_per_s", served, "1/s");
    out.set("quality_ratio", quality, "ratio");
    out
}

/// One request's server path replayed in-process through public
/// functions, each step in its span. Returns the reply frame's report
/// rendering and the frame's size.
/// What replaying one request produced.
struct Replayed {
    /// The reply's report, rendered as the wire carries it.
    report: String,
    /// Bytes of the reply frame.
    frame_bytes: usize,
    /// Bytes of the canonical report rendered (0 on a hit).
    report_bytes: usize,
    hit: bool,
}

fn replay_request(
    frame: &str,
    cache: &mut ReportCache,
    t: &mut Tracer,
    counts: &mut StageCounts,
) -> Result<Replayed, String> {
    let request = t.span("service.decode", |_| {
        let doc = JsonValue::parse(frame).map_err(|e| e.to_string())?;
        Request::from_json(&doc).map_err(|e| e.to_string())
    })?;
    let Request::Compile(req) = request else {
        return Err("not a compile request".to_string());
    };
    let mut circuit = t
        .span("circuit.parse", |_| qasm::parse(&req.source))
        .map_err(|e| e.to_string())?;
    if let Some(label) = &req.label {
        circuit.set_name(label.clone());
    }
    let strategy = req.strategy.unwrap_or(Strategy::Full);
    let key = t.span("service.cache_key", |t| {
        let text = t.span("circuit.emit", |_| qasm::emit(&circuit));
        CacheKey::new(
            &format!("{}\n{}", circuit.name(), text),
            "distance=default",
            &format!("strategy={};optimize=true;verify=true", strategy.name()),
        )
    });
    let cached = t.span("service.cache_lookup", |_| cache.get(&key));
    let hit = cached.is_some();
    let mut report_bytes = 0;
    let canonical = match cached {
        Some(json) => json,
        None => {
            let report = stages::compile(&circuit, strategy, t, counts)?;
            let canonical = t.span("report.render", |_| {
                canonical_compile_report_json(&report).render_compact()
            });
            t.span("service.cache_lookup", |_| {
                cache.insert(key, canonical.clone())
            });
            report_bytes = canonical.len();
            canonical
        }
    };
    t.span("service.encode", |_| {
        let report = JsonValue::parse(&canonical).map_err(|e| e.to_string())?;
        let rendered = report.render_compact();
        let response = JsonValue::object([
            ("proto", JsonValue::from(autobraid_service::PROTOCOL)),
            ("status", JsonValue::from("ok")),
            ("kind", JsonValue::from("report")),
            ("cache", JsonValue::from(if hit { "hit" } else { "miss" })),
            ("elapsed_ms", JsonValue::from(0.0)),
            ("report", report),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &response.render_compact()).map_err(|e| e.to_string())?;
        Ok(Replayed {
            report: rendered,
            frame_bytes: buf.len(),
            report_bytes,
            hit,
        })
    })
}

/// The daemon's lifetime counters, from a `stats` request.
fn daemon_counters(conn: &mut TcpStream) -> Option<JsonValue> {
    let stats = JsonValue::object([
        ("proto", JsonValue::from(autobraid_service::PROTOCOL)),
        ("kind", JsonValue::from("stats")),
    ]);
    write_frame(conn, &stats.render_compact()).ok()?;
    let reply = read_frame(conn, DEFAULT_MAX_FRAME).ok()??;
    JsonValue::parse(&reply).ok()?.get("counters").cloned()
}

/// A cache holding the primed hot set, as the daemon's is after set-up.
fn primed_cache(mix: &Mix) -> Result<ReportCache, String> {
    let mut cache = ReportCache::new(ServiceConfig::default().cache_capacity);
    let mut t = Tracer::new(false);
    let mut counts = StageCounts::default();
    for req in &mix.hot {
        replay_request(&req.frame, &mut cache, &mut t, &mut counts)?;
    }
    Ok(cache)
}

/// Totals of one replay pass.
#[derive(Default)]
struct PassTotals {
    seconds: f64,
    frame_bytes: u64,
    report_bytes: u64,
    hits: u64,
}

/// Replays the reference requests once. Every replayed report must
/// equal the in-process compile.
fn replay_pass(
    out: &mut Outcome,
    mix: &Mix,
    ids: &[usize],
    checker: &mut Checker,
    t: &mut Tracer,
    counts: &mut StageCounts,
) -> PassTotals {
    let mut totals = PassTotals::default();
    let mut cache = match primed_cache(mix) {
        Ok(cache) => cache,
        Err(e) => {
            out.wrong(format!("priming replay failed: {e}"));
            return totals;
        }
    };
    for (i, &id) in ids.iter().enumerate() {
        t.set_request(i as u64);
        let started = Instant::now();
        let result = t.span("service.request", |t| {
            replay_request(&mix.get(id).frame, &mut cache, t, counts)
        });
        totals.seconds += started.elapsed().as_secs_f64();
        out.attempted += 1;
        match result {
            Ok(r) => {
                totals.frame_bytes += r.frame_bytes as u64;
                totals.report_bytes += r.report_bytes as u64;
                totals.hits += u64::from(r.hit);
                match checker.expected(mix, id) {
                    Ok(exp) if exp.report == r.report => {}
                    _ => out.wrong(format!("{}: replay differs", mix.get(id).label)),
                }
            }
            Err(e) => out.wrong(format!("{}: replay failed: {e}", mix.get(id).label)),
        }
    }
    totals
}

/// The traced run: the reference phase on the wire (server and wire
/// time, generator lag, backlog), then the same requests replayed
/// in-process: one counting pass under the telemetry recorder, then
/// passes without and with spans, alternating, until the time is up.
fn run_traced(
    args: &Args,
    out: &mut Outcome,
    conns: &mut [TcpStream],
    mix: &Mix,
    reference: &[usize],
    checker: &mut Checker,
) {
    let started = Instant::now();
    let frames: Vec<&str> = reference
        .iter()
        .map(|&id| mix.get(id).frame.as_str())
        .collect();
    let phase = open_loop(conns, &frames, REFERENCE_RPS);
    checker.check(out, mix, reference, &phase);
    let mut server_ms = Vec::new();
    let mut wire_ms = Vec::new();
    for (reply, rtt) in phase.replies.iter().zip(&phase.rtt_ms) {
        let elapsed = reply
            .as_deref()
            .and_then(|p| JsonValue::parse(p).ok())
            .and_then(|d| d.get("elapsed_ms").and_then(JsonValue::as_f64));
        if let Some(elapsed) = elapsed {
            server_ms.push(elapsed);
            wire_ms.push(rtt - elapsed);
        }
    }
    let counters = daemon_counters(&mut conns[0]);
    out.set("service.server_ms_p50", median(&server_ms), "ms");
    out.set("service.wire_ms_p50", median(&wire_ms), "ms");
    for name in ["service.overloaded", "service.timeouts"] {
        let value = counters
            .as_ref()
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_f64);
        match value {
            Some(v) => out.set(name, v, "count"),
            None => out.wrong(format!("the daemon's stats reply lacks {name}")),
        }
    }
    out.set("loadgen.lag_ms_p99", quantile(&phase.lag_ms, 0.99), "ms");
    out.set("loadgen.backlog", phase.backlog_end as f64, "count");
    let wire_budget = args.seconds.mul_f64(TRACED_WIRE_SHARE);
    std::thread::sleep(wire_budget.saturating_sub(started.elapsed()));

    let mut counts = StageCounts::default();
    let (totals, snap) = recorded(|| {
        let mut off = Tracer::new(false);
        replay_pass(out, mix, reference, checker, &mut off, &mut counts)
    });
    let mut t = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while traced.is_empty() || started.elapsed() < args.seconds {
        let mut discard = StageCounts::default();
        let mut off = Tracer::new(false);
        untraced.push(replay_pass(out, mix, reference, checker, &mut off, &mut discard).seconds);
        traced.push(replay_pass(out, mix, reference, checker, &mut t, &mut discard).seconds);
    }
    let n = reference.len() as f64;
    let per = traced.len() as f64 * n;
    out.notes.push(format!(
        "serve-mix traced: {} requests on the wire at {REFERENCE_RPS} req/s, then {} untraced and {} traced in-process passes over them",
        reference.len(),
        untraced.len(),
        traced.len()
    ));
    out.notes.push(t.self_time_table(per, "req"));
    crate::write_trace(args, &t);

    let per_request = |name: &str| t.self_ms(name) / per;
    for (metric, span) in [
        ("circuit.optimize_ms", "circuit.optimize"),
        ("circuit.dag_ms", "circuit.dag"),
        ("circuit.parse_ms", "circuit.parse"),
        ("circuit.emit_ms", "circuit.emit"),
        ("placement.initial_ms", "placement.initial"),
        ("scheduler.engine_ms", "scheduler.engine"),
        ("maslov.ms", "maslov"),
        ("verify.ms", "verify"),
        ("report.render_ms", "report.render"),
        ("service.decode_ms", "service.decode"),
        ("service.cache_key_ms", "service.cache_key"),
        ("service.cache_lookup_ms", "service.cache_lookup"),
        ("service.encode_ms", "service.encode"),
    ] {
        out.set(metric, per_request(span), "ms");
    }
    out.set(
        "circuit.gates_removed",
        counts.gates_removed as f64,
        "count",
    );
    out.set("scheduler.engine_runs", counts.engine_runs as f64, "count");
    out.set("maslov.wins", counts.maslov_wins as f64, "count");
    out.set("report.bytes", totals.report_bytes as f64, "bytes");
    out.set("service.frame_bytes", totals.frame_bytes as f64, "bytes");
    out.set(
        "service.cache.hit_ratio",
        ratio(totals.hits as f64, n),
        "ratio",
    );
    out.set(
        "trace.overhead_frac",
        ratio(median(&traced), median(&untraced)) - 1.0,
        "ratio",
    );
    set_layer_counts(out, &snap);
    zero_unmeasured(out);
}
