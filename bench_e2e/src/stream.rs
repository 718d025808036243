//! `stream-sessions`: a closed loop of two connections to an
//! `autobraidd` with two compile threads, each running `session.*`
//! sessions back to back. A session opens, then alternates gate windows
//! of 16–64 gates with a `session.step` of 1–8 steps, and closes; one
//! session in four gets one seeded tile failure or magic stall.
//!
//! The catalog is stratified: every seed draws the same number of
//! sessions of each family, spread evenly over the family's sizes, so the
//! seed changes the circuits, windows, steps and faults but not how much
//! work a catalog holds.

use crate::daemon::Daemon;
use crate::stats::{median, quantile, ratio};
use crate::telemetry::{recorded, set_layer_counts, zero_unmeasured};
use crate::trace::Tracer;
use crate::{gen, Args, Outcome};
use autobraid::pipeline::{CompileReport, Pipeline, Strategy};
use autobraid::report::canonical_compile_report_json;
use autobraid::streaming::{
    FaultEvent, StepOutcome, StreamError, StreamingOptions, StreamingPipeline,
};
use autobraid_circuit::{Circuit, Gate};
use autobraid_lattice::Grid;
use autobraid_service::{Client, ClientError, SessionOpen};
use autobraid_telemetry::{JsonValue, Rng64};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// The session families: name and qubit range.
const FAMILIES: [(&str, u32, u32); 4] = [
    ("qft", 24, 49),
    ("layered", 24, 49),
    ("ising", 32, 65),
    ("burst", 16, 17),
];
/// Sessions per family in the catalog the connections cycle through.
const PER_FAMILY: usize = 24;
/// Connections, each running sessions back to back.
const CONNECTIONS: usize = 2;
/// Compile threads of the daemon.
const THREADS: usize = 2;
/// One session in this many gets a fault injected.
const FAULT_EVERY: usize = 4;
/// Share of the run the traced run spends on the wire.
const TRACED_WIRE_SHARE: f64 = 0.35;

/// One client action of a session.
#[derive(Debug, Clone)]
enum Action {
    Gates(Range<usize>),
    Step(u64),
    Inject(FaultEvent),
}

/// One planned session with its expected report.
struct Session {
    label: String,
    circuit: Circuit,
    plan: Vec<Action>,
    faulted: bool,
    /// The canonical report as the wire renders it.
    expected: String,
    cycles: u64,
}

impl Session {
    fn gates(&self, range: &Range<usize>) -> &[Gate] {
        &self.circuit.gates()[range.clone()]
    }
}

/// Per-replay observations beyond the spans.
#[derive(Default)]
struct ReplayStats {
    steps: u64,
    /// Wall time of each `session.step` frame's engine work, in ms.
    step_frame_ms: Vec<f64>,
}

/// Replays `session` on an in-process [`StreamingPipeline`] with the
/// options the daemon opens sessions with, each call in its span.
fn replay(
    session: &Session,
    plan: &[Action],
    t: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<CompileReport, StreamError> {
    let options = StreamingOptions::default()
        .with_strategy(Strategy::Full)
        .with_label(session.label.clone());
    let qubits = session.circuit.num_qubits().max(1);
    let mut stream = t.span("streaming.open", |_| {
        StreamingPipeline::open(qubits, options)
    });
    for action in plan {
        match action {
            Action::Gates(range) => t.span("streaming.push", |_| {
                session
                    .gates(range)
                    .iter()
                    .try_for_each(|g| stream.push_gate(*g).map(|_| ()))
            })?,
            Action::Step(count) => {
                let started = Instant::now();
                t.span("streaming.step", |_| {
                    for _ in 0..*count {
                        stats.steps += 1;
                        if matches!(stream.step()?, StepOutcome::Idle) {
                            break;
                        }
                    }
                    Ok::<(), StreamError>(())
                })?;
                stats
                    .step_frame_ms
                    .push(started.elapsed().as_secs_f64() * 1e3);
            }
            Action::Inject(fault) => t.span("streaming.inject", |_| stream.inject(*fault))?,
        }
    }
    t.span("streaming.finish", |_| stream.finish())
}

/// The canonical report rendered the way the wire carries it.
fn wire_rendering(report: &CompileReport) -> String {
    let canonical = canonical_compile_report_json(report).render_compact();
    JsonValue::parse(&canonical)
        .expect("canonical reports are valid JSON")
        .render_compact()
}

/// Plans session `k` of `family` on `n` qubits: gate windows with steps
/// between them, and one fault when `faulted`. A tile failure that would
/// leave a gate unroutable is redrawn, so no session fails.
fn plan_session(
    seed: u64,
    k: usize,
    family: &str,
    n: u32,
    faulted: bool,
    rng: &mut Rng64,
) -> Session {
    let mut circuit = gen::family_circuit(family, n, rng);
    let label = format!("session-{seed}-{k}-{family}{n}");
    circuit.set_name(label.clone());
    let mut plan = Vec::new();
    let mut pos = 0;
    while pos < circuit.len() {
        let end = (pos + rng.gen_range(16..65usize)).min(circuit.len());
        plan.push(Action::Gates(pos..end));
        plan.push(Action::Step(rng.gen_range(1..9u64)));
        pos = end;
    }
    let mut session = Session {
        label,
        circuit,
        plan,
        faulted: false,
        expected: String::new(),
        cycles: 0,
    };
    let fault_at = faulted.then(|| 2 * rng.gen_range(0..session.plan.len().div_ceil(2).max(1)) + 1);
    let side = Grid::with_capacity_for(n as usize).vertices_per_side();
    let mut off = Tracer::new(false);
    for attempt in 0..=8 {
        let mut plan = session.plan.clone();
        if let Some(at) = fault_at {
            let fault = if attempt < 8 && rng.gen_bool(0.5) {
                FaultEvent::TileFailure {
                    row: rng.gen_range(0..side),
                    col: rng.gen_range(0..side),
                }
            } else {
                FaultEvent::MagicStall {
                    steps: rng.gen_range(1..5u64),
                }
            };
            plan.insert(at.min(plan.len()), Action::Inject(fault));
        }
        if let Ok(report) = replay(&session, &plan, &mut off, &mut ReplayStats::default()) {
            session.plan = plan;
            session.faulted = fault_at.is_some();
            session.expected = wire_rendering(&report);
            session.cycles = report.outcome.result.total_cycles;
            return session;
        }
    }
    panic!(
        "{}: no fault-free or magic-stall plan replays",
        session.label
    )
}

/// The seeded catalog: [`PER_FAMILY`] sessions of each family, the
/// `j`-th drawn from the `j`-th of [`PER_FAMILY`] equal slices of the
/// family's qubit range, every [`FAULT_EVERY`]-th one faulted, in a
/// seeded order.
fn catalog(seed: u64) -> Vec<Session> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut slots = Vec::new();
    for (family, lo, hi) in FAMILIES {
        let offset = rng.gen_range(0..FAULT_EVERY);
        for j in 0..PER_FAMILY {
            let width = (hi - lo) as f64 / PER_FAMILY as f64;
            let start = lo + (j as f64 * width) as u32;
            let end = (lo + ((j + 1) as f64 * width) as u32).max(start + 1);
            let n = rng.gen_range(start..end);
            slots.push((family, n, (j + offset).is_multiple_of(FAULT_EVERY)));
        }
    }
    rng.shuffle(&mut slots);
    slots
        .into_iter()
        .enumerate()
        .map(|(k, (family, n, faulted))| plan_session(seed, k, family, n, faulted, &mut rng))
        .collect()
}

/// Runs `session` over `client`, timing each `session.step` round trip.
fn wire_session(
    client: &mut Client,
    session: &Session,
    step_ms: &mut Vec<f64>,
) -> Result<String, ClientError> {
    client.session_open(
        &SessionOpen::new(session.circuit.num_qubits().max(1)).with_label(session.label.clone()),
    )?;
    for action in &session.plan {
        match action {
            Action::Gates(range) => {
                client.session_gate(session.gates(range))?;
            }
            Action::Step(count) => {
                let started = Instant::now();
                client.session_step(*count)?;
                step_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            Action::Inject(fault) => client.session_inject(fault)?,
        }
    }
    Ok(client.session_close()?.report.render_compact())
}

/// One finished wire session.
struct Done {
    session: usize,
    seconds: f64,
    result: Result<String, ClientError>,
}

/// The closed loop: each connection runs catalog sessions back to back
/// (connection `c` takes sessions `c`, `c + CONNECTIONS`, ...) until
/// `seconds` have passed. Returns the finished sessions and every step
/// round trip.
fn closed_loop(daemon: &Daemon, sessions: &[Session], seconds: Duration) -> (Vec<Done>, Vec<f64>) {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(daemon.addr).expect("connect to the daemon");
                    let mut done = Vec::new();
                    let mut step_ms = Vec::new();
                    let mut k = c;
                    while done.is_empty() || started.elapsed() < seconds {
                        let session = k % sessions.len();
                        let begun = Instant::now();
                        let result = wire_session(&mut client, &sessions[session], &mut step_ms);
                        if result.is_err() {
                            // The session may still be open: start over on
                            // a fresh connection.
                            client = Client::connect(daemon.addr).expect("reconnect");
                        }
                        done.push(Done {
                            session,
                            seconds: begun.elapsed().as_secs_f64(),
                            result,
                        });
                        k += CONNECTIONS;
                    }
                    (done, step_ms)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut steps = Vec::new();
        for handle in handles {
            let (done, step_ms) = handle.join().expect("session thread");
            all.extend(done);
            steps.extend(step_ms);
        }
        (all, steps)
    })
}

/// Checks every finished session's report against its in-process
/// replay; returns the gates of the good ones and their session time.
fn check(out: &mut Outcome, sessions: &[Session], done: &[Done]) -> (f64, f64) {
    let (mut gates, mut seconds) = (0.0, 0.0);
    for d in done {
        out.attempted += 1;
        let session = &sessions[d.session];
        match &d.result {
            Ok(report) if *report == session.expected => {
                gates += session.circuit.len() as f64;
                seconds += d.seconds;
            }
            Ok(_) => out.wrong(format!("{}: report differs from the replay", session.label)),
            Err(ClientError::Service(e)) => {
                out.failed += 1;
                out.notes.push(format!("{}: {e}", session.label));
            }
            Err(e) => out.wrong(format!("{}: {e}", session.label)),
        }
    }
    (gates, seconds)
}

fn setup(seed: u64) -> (Daemon, Vec<Session>, f64) {
    let started = Instant::now();
    let sessions = catalog(seed);
    let daemon = Daemon::start(THREADS);
    // Warm the connection path and the workers' search arenas.
    let mut client = Client::connect(daemon.addr).expect("connect to the daemon");
    wire_session(&mut client, &sessions[0], &mut Vec::new()).expect("warm-up session");
    (daemon, sessions, started.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut last: Option<(Daemon, Vec<Session>)> = None;
    for _ in 0..SETUPS {
        if let Some((daemon, _)) = last.take() {
            daemon.stop();
        }
        let (daemon, sessions, seconds) = setup(args.seed);
        setups.push(seconds);
        last = Some((daemon, sessions));
    }
    let (daemon, sessions) = last.expect("at least one set-up");
    let setup_s = median(&setups);
    if args.trace {
        run_traced(args, &mut out, daemon, &sessions);
        return out;
    }
    let (done, step_ms) = closed_loop(&daemon, &sessions, args.seconds);
    let peak_rss_mb = daemon.stop();
    let (gates, session_s) = check(&mut out, &sessions, &done);

    // Quality: the fault-free catalog sessions' cycles (checked above to
    // equal what the wire served) against batch compiles of the same
    // circuits, as a ratio of totals so that the many-cycle sessions the
    // penalty matters for weigh most.
    let batch = Pipeline::new();
    let (mut online_cycles, mut batch_cycles) = (0u64, 0u64);
    for s in sessions.iter().filter(|s| !s.faulted) {
        match batch.compile(&s.circuit) {
            Ok(report) => {
                online_cycles += s.cycles;
                batch_cycles += report.outcome.result.total_cycles;
            }
            Err(e) => out.wrong(format!("{}: batch compile failed: {e}", s.label)),
        }
    }
    let online_ratio = ratio(online_cycles as f64, batch_cycles as f64);
    let (p50, p99) = (median(&step_ms), quantile(&step_ms, 0.99));
    out.notes.push(format!(
        "stream-sessions: {} sessions over {CONNECTIONS} connections ({} distinct, {} with a fault), {} step round trips ({} beyond the p99), {} gates",
        done.len(),
        sessions.len(),
        sessions.iter().filter(|s| s.faulted).count(),
        step_ms.len(),
        step_ms.len() / 100,
        gates
    ));
    out.show("step_ms_p50", p50, "ms");
    out.show("step_ms_p99", p99, "ms");
    out.show("stream_gates_per_s", ratio(gates, session_s), "gates/s");
    out.show("online_cycles_ratio", online_ratio, "ratio");
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb, "MB");
    out.set("latency_ms", p50, "ms");
    out.set("latency_tail_ms", p99, "ms");
    out.set("throughput_per_s", ratio(gates, session_s), "1/s");
    out.set("quality_ratio", online_ratio, "ratio");
    out
}

/// One in-process pass over the catalog; returns the seconds spent and
/// the canonical report bytes rendered.
fn replay_pass(
    out: &mut Outcome,
    sessions: &[Session],
    t: &mut Tracer,
    stats: &mut ReplayStats,
) -> (f64, u64) {
    let mut seconds = 0.0;
    let mut bytes = 0;
    for (k, session) in sessions.iter().enumerate() {
        t.set_request(k as u64);
        let started = Instant::now();
        let result = t.span("streaming.session", |t| {
            replay(session, &session.plan, t, stats)
        });
        seconds += started.elapsed().as_secs_f64();
        out.attempted += 1;
        match result {
            Ok(report) => {
                let rendered = t.span("report.render", |_| wire_rendering(&report));
                bytes += rendered.len() as u64;
                if rendered != session.expected {
                    out.wrong(format!("{}: replay is not deterministic", session.label));
                }
            }
            Err(e) => out.wrong(format!("{}: replay failed: {e}", session.label)),
        }
    }
    (seconds, bytes)
}

/// The traced run: sessions on the wire for part of the time (step
/// round trips), then the catalog replayed in-process: one counting
/// pass under the telemetry recorder, then passes without and with
/// spans, alternating, until the time is up.
fn run_traced(args: &Args, out: &mut Outcome, daemon: Daemon, sessions: &[Session]) {
    let started = Instant::now();
    let (done, step_ms) = closed_loop(&daemon, sessions, args.seconds.mul_f64(TRACED_WIRE_SHARE));
    daemon.stop();
    check(out, sessions, &done);

    let mut counting = ReplayStats::default();
    let ((_, bytes), snap) =
        recorded(|| replay_pass(out, sessions, &mut Tracer::new(false), &mut counting));
    let mut t = Tracer::new(true);
    let mut traced_stats = ReplayStats::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while traced.is_empty() || started.elapsed() < args.seconds {
        untraced.push(
            replay_pass(
                out,
                sessions,
                &mut Tracer::new(false),
                &mut ReplayStats::default(),
            )
            .0,
        );
        traced.push(replay_pass(out, sessions, &mut t, &mut traced_stats).0);
    }
    let per = (traced.len() * sessions.len()) as f64;
    out.notes.push(format!(
        "stream-sessions traced: {} sessions on the wire ({} step round trips), then {} untraced and {} traced in-process passes over {} sessions",
        done.len(),
        step_ms.len(),
        untraced.len(),
        traced.len(),
        sessions.len()
    ));
    out.notes.push(t.self_time_table(per, "session"));
    crate::write_trace(args, &t);

    let per_session = |name: &str| t.self_ms(name) / per;
    out.set("streaming.push_ms", per_session("streaming.push"), "ms");
    out.set("streaming.step_ms", per_session("streaming.step"), "ms");
    out.set("streaming.finish_ms", per_session("streaming.finish"), "ms");
    out.set("report.render_ms", per_session("report.render"), "ms");
    out.set("streaming.steps", counting.steps as f64, "count");
    out.set("report.bytes", bytes as f64, "bytes");
    let server_ms = median(&traced_stats.step_frame_ms);
    out.set("service.server_ms_p50", server_ms, "ms");
    out.set("service.wire_ms_p50", median(&step_ms) - server_ms, "ms");
    out.set(
        "trace.overhead_frac",
        ratio(median(&traced), median(&untraced)) - 1.0,
        "ratio",
    );
    set_layer_counts(out, &snap);
    zero_unmeasured(out);
}
