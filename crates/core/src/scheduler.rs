//! The shared scheduling engine.
//!
//! Every scheduler in this crate — AutoBraid-sp, AutoBraid-full, and the
//! greedy baseline — drains the dependence DAG through the same engine and
//! is charged by the same timing model; they differ only in routing policy,
//! initial placement, and whether the dynamic layout optimizer may run.
//! This makes every reported speedup a pure algorithm comparison.

use crate::config::{Recording, ScheduleConfig, MAX_CONSECUTIVE_SWAP_ROUNDS, MAX_SWAPS_PER_ROUND};
use crate::critical_path::gate_cycles;
use crate::metrics::{LayerPolicy, ScheduleResult, Step};
use crate::strategy::Strategy;
use crate::swap::plan_swap_layer;
use autobraid_circuit::{Circuit, DependenceDag, Frontier, Gate, GateId};
use autobraid_lattice::{Grid, Occupancy, Vertex};
use autobraid_placement::Placement;
use autobraid_router::pathfinder::route_negotiated_with;
use autobraid_router::stack_finder::{
    route_concurrent_seeded, route_concurrent_with, route_greedy, RouteOutcome,
};
use autobraid_router::{CxRequest, InterferenceGraph};
use autobraid_telemetry as telemetry;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Errors the scheduling engine can report.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A ready two-qubit gate can never be routed: the defective channel
    /// vertices disconnect its operand tiles even on an otherwise empty
    /// grid.
    UnroutableGate {
        /// The stuck gate's id.
        gate: GateId,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::UnroutableGate { gate } => write!(
                f,
                "gate {gate} is permanently unroutable under the defective channel map"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One whole braiding layer, as the engine hands it to a policy: every
/// concurrent request at once plus the step context, so a policy can
/// compute layer features (interference density, LLG sizes, defect
/// count) before — or instead of — routing gate by gate.
#[derive(Debug, Clone, Copy)]
pub struct LayerView<'a> {
    /// Zero-based engine step index this layer would commit as.
    pub step: u64,
    /// The pre-step base occupancy: defective channel vertices only,
    /// no paths. `occupancy` starts as a copy of this.
    pub base: &'a Occupancy,
    /// Every ready CX of the layer, priorities already assigned.
    pub requests: &'a [CxRequest],
    /// The layer's interference graph over `requests` (every node
    /// live), `InterferenceGraph::build(requests)`. The engine builds it
    /// once per layer; policies consume it instead of rebuilding it.
    pub interference: &'a InterferenceGraph,
}

/// What a policy reports about one routed layer: the outcome plus
/// which finder actually handled it and why — the per-layer strategy
/// attribution recorded in [`ScheduleResult::layer_policies`] and
/// emitted as a `strategy.chosen` trace event.
#[derive(Debug, Clone)]
pub struct LayerRoute {
    /// The routing outcome, paths reserved in the engine's occupancy.
    pub outcome: RouteOutcome,
    /// Name of the finder that routed the layer (a fixed policy reports
    /// its own [`RoutePolicy::name`]; the portfolio reports its pick).
    pub chosen: &'static str,
    /// Short justification (`"fixed"` for single-finder policies;
    /// feature-based reasons like `"dense-interference"` from the
    /// portfolio chooser).
    pub reason: &'static str,
}

/// A routing-order policy for one concurrent batch of CX gates.
pub trait RoutePolicy {
    /// Policy name used in result labels.
    fn name(&self) -> &'static str;

    /// Routes the batch, reserving paths in `occupancy`.
    fn route(&self, grid: &Grid, occupancy: &mut Occupancy, requests: &[CxRequest])
        -> RouteOutcome;

    /// Routes one whole layer, reporting which finder handled it and
    /// why. The engine calls this; the default defers to
    /// [`route`](RoutePolicy::route) with a `"fixed"` attribution, so
    /// existing policies (including downstream implementors) keep
    /// working unchanged. Override to make per-layer decisions, like
    /// [`PortfolioPolicy`].
    fn route_layer(&self, grid: &Grid, occupancy: &mut Occupancy, layer: LayerView) -> LayerRoute {
        LayerRoute {
            outcome: self.route(grid, occupancy, layer.requests),
            chosen: self.name(),
            reason: "fixed",
        }
    }
}

/// The paper's stack-based path finder (Fig. 13) with a worker-thread
/// budget: independent small LLGs of each batch route concurrently
/// ([`autobraid_router::stack_finder::route_concurrent_with`]). The
/// routed outcome is bit-identical for every thread count — parallelism
/// is a wall-clock optimization only (the determinism contract of
/// `docs/RUNTIME.md`). `ParallelStackPolicy::new(1)` is the serial
/// stack finder.
#[derive(Debug, Clone, Copy)]
pub struct ParallelStackPolicy {
    /// Worker threads per routing pass (0 and 1 both mean serial).
    pub threads: usize,
}

impl ParallelStackPolicy {
    /// A policy routing each batch with up to `threads` workers.
    pub fn new(threads: usize) -> Self {
        ParallelStackPolicy { threads }
    }
}

impl RoutePolicy for ParallelStackPolicy {
    fn name(&self) -> &'static str {
        "stack"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        route_concurrent_with(grid, occupancy, requests, self.threads.max(1))
    }

    fn route_layer(&self, grid: &Grid, occupancy: &mut Occupancy, layer: LayerView) -> LayerRoute {
        LayerRoute {
            outcome: route_concurrent_seeded(
                grid,
                occupancy,
                layer.requests,
                self.threads.max(1),
                layer.interference,
            ),
            chosen: self.name(),
            reason: "fixed",
        }
    }
}

/// The greedy shortest-distance-first policy of the baseline \[10\].
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPolicy;

impl RoutePolicy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        route_greedy(grid, occupancy, requests)
    }
}

/// The negotiated-congestion PathFinder policy
/// ([`autobraid_router::pathfinder`]): route every gate of the layer
/// optimistically, then rip up and reroute under rising present +
/// history congestion costs until the paths are disjoint (or the
/// iteration cap forces a deterministic serial commit).
#[derive(Debug, Clone, Copy, Default)]
pub struct PathFinderPolicy;

impl RoutePolicy for PathFinderPolicy {
    fn name(&self) -> &'static str {
        "pathfinder"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        route_negotiated_with(grid, occupancy, requests).0
    }
}

/// Per-layer chooser between the stack finder and PathFinder.
///
/// Cheap layer features decide most layers outright:
///
/// * ≤ 3 gates — the stack finder's small-LLG stage is already optimal
///   (`"tiny-layer"`);
/// * sparse interference (density ≤ 0.25) with no oversized LLG — the
///   Theorem 1 regime the stack finder was built for
///   (`"sparse-interference"`);
/// * dense interference (density ≥ 0.6) — the peeling relaxation
///   degrades and negotiation shines (`"dense-interference"`).
///
/// In between the chooser is uncertain and *races* both finders on
/// clones of the layer's occupancy, keeping whichever routes more
/// gates (ties broken toward fewer total path vertices, then toward
/// the stack finder). Every input to the decision is deterministic, so
/// the per-layer picks — and therefore the schedule — are too.
#[derive(Debug, Clone, Copy)]
pub struct PortfolioPolicy {
    /// Worker threads handed to the stack finder (the PathFinder side
    /// is single-threaded by construction).
    pub threads: usize,
}

impl PortfolioPolicy {
    /// A portfolio over `threads` stack-finder workers.
    pub fn new(threads: usize) -> Self {
        PortfolioPolicy { threads }
    }

    /// Interference-graph edge density in `[0, 1]` (1 = every pair of
    /// gates interferes), read off the layer's pre-built graph.
    fn interference_density(graph: &InterferenceGraph) -> f64 {
        let n = graph.len();
        if n < 2 {
            return 0.0;
        }
        let edge_ends: usize = (0..n).map(|i| graph.degree(i)).sum();
        edge_ends as f64 / (n * (n - 1)) as f64
    }
}

impl RoutePolicy for PortfolioPolicy {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        let base = occupancy.clone();
        let interference = InterferenceGraph::build(requests);
        self.route_layer(
            grid,
            occupancy,
            LayerView {
                step: 0,
                base: &base,
                requests,
                interference: &interference,
            },
        )
        .outcome
    }

    fn route_layer(&self, grid: &Grid, occupancy: &mut Occupancy, layer: LayerView) -> LayerRoute {
        let requests = layer.requests;
        let stack = |occ: &mut Occupancy| {
            route_concurrent_seeded(grid, occ, requests, self.threads, layer.interference)
        };
        let negotiate = |occ: &mut Occupancy| route_negotiated_with(grid, occ, requests).0;

        if requests.len() <= 3 {
            telemetry::fine_counter("scheduler.portfolio.stack_picks", 1);
            return LayerRoute {
                outcome: stack(occupancy),
                chosen: "stack",
                reason: "tiny-layer",
            };
        }
        let density = Self::interference_density(layer.interference);
        telemetry::fine_observe("scheduler.portfolio.density", density);
        if density <= 0.25 {
            let oversized = autobraid_router::llg::decompose(requests)
                .iter()
                .any(|g| g.size() > 3);
            if !oversized {
                telemetry::fine_counter("scheduler.portfolio.stack_picks", 1);
                return LayerRoute {
                    outcome: stack(occupancy),
                    chosen: "stack",
                    reason: "sparse-interference",
                };
            }
        }
        if density >= 0.6 {
            telemetry::fine_counter("scheduler.portfolio.pathfinder_picks", 1);
            return LayerRoute {
                outcome: negotiate(occupancy),
                chosen: "pathfinder",
                reason: "dense-interference",
            };
        }

        // Uncertain band: race both finders on clones of the base
        // occupancy and keep the better step.
        telemetry::fine_counter("scheduler.portfolio.races", 1);
        let mut stack_occ = occupancy.clone();
        let stack_out = stack(&mut stack_occ);
        let mut nego_occ = occupancy.clone();
        let nego_out = negotiate(&mut nego_occ);
        let path_vertices = |o: &RouteOutcome| o.routed.iter().map(|r| r.path.len()).sum::<usize>();
        let pathfinder_wins = nego_out.routed.len() > stack_out.routed.len()
            || (nego_out.routed.len() == stack_out.routed.len()
                && path_vertices(&nego_out) < path_vertices(&stack_out));
        if pathfinder_wins {
            *occupancy = nego_occ;
            LayerRoute {
                outcome: nego_out,
                chosen: "pathfinder",
                reason: "race-pathfinder-won",
            }
        } else {
            *occupancy = stack_occ;
            LayerRoute {
                outcome: stack_out,
                chosen: "stack",
                reason: "race-stack-won",
            }
        }
    }
}

/// The [`RoutePolicy`] a strategy drives the braiding engine with, or
/// `None` for strategies that bypass it (the Maslov swap network).
/// Derived from the strategy itself so sweeps — like the conformance
/// oracle's defective-lattice pass over every
/// [`crate::strategy::StrategyInfo::supports_defects`] row — never
/// hand-maintain the mapping.
pub fn policy_for(strategy: Strategy, threads: usize) -> Option<Box<dyn RoutePolicy>> {
    match strategy {
        Strategy::Full | Strategy::Stack => Some(Box::new(ParallelStackPolicy::new(threads))),
        Strategy::PathFinder => Some(Box::new(PathFinderPolicy)),
        Strategy::Portfolio => Some(Box::new(PortfolioPolicy::new(threads))),
        Strategy::Baseline => Some(Box::new(GreedyPolicy)),
        _ => None,
    }
}

/// Runs the engine: drains `circuit` on `grid` starting from `placement`,
/// using `policy` for path search; when `allow_layout_optimizer` is set,
/// steps whose scheduled ratio falls below the configured `p` trigger
/// swap-insertion layout changes.
///
/// Returns the result and the final placement.
pub fn run(
    scheduler_name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    allow_layout_optimizer: bool,
    config: &ScheduleConfig,
) -> (ScheduleResult, Placement) {
    let base = Occupancy::new(grid);
    run_with_base_occupancy(
        scheduler_name,
        circuit,
        grid,
        placement,
        policy,
        allow_layout_optimizer,
        config,
        &base,
    )
    .expect("an empty base occupancy never makes a gate unroutable")
}

/// [`run`] against a caller-supplied dependence DAG, so one DAG build can
/// be shared across several engine drives (and the verifier) of the same
/// circuit. `dag` must come from [`ScheduleConfig::dag`] on `circuit`.
#[allow(clippy::too_many_arguments)]
pub fn run_with_dag(
    scheduler_name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    allow_layout_optimizer: bool,
    config: &ScheduleConfig,
    dag: &DependenceDag,
) -> (ScheduleResult, Placement) {
    drive(
        scheduler_name,
        circuit,
        grid,
        placement,
        policy,
        allow_layout_optimizer,
        config,
        &Occupancy::new(grid),
        dag,
        None,
    )
    .expect("an empty base occupancy never makes a gate unroutable")
    .completed()
}

/// [`run`] on a lattice with *defective channels*: every vertex reserved
/// in `base` is permanently unavailable (broken measurement hardware, a
/// region reserved for magic-state distillation, …). Each braiding step
/// starts from a copy of `base` instead of an empty map.
///
/// # Errors
///
/// Returns [`ScheduleError::UnroutableGate`] when a ready gate cannot be
/// routed even alone on the defective lattice and the layout optimizer
/// cannot move its operands together — progress is impossible.
#[allow(clippy::too_many_arguments)]
pub fn run_with_base_occupancy(
    scheduler_name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    allow_layout_optimizer: bool,
    config: &ScheduleConfig,
    base: &Occupancy,
) -> Result<(ScheduleResult, Placement), ScheduleError> {
    let dag = config.dag(circuit);
    drive(
        scheduler_name,
        circuit,
        grid,
        placement,
        policy,
        allow_layout_optimizer,
        config,
        base,
        &dag,
        None,
    )
    .map(Drive::completed)
}

/// How a cycle-budgeted engine drive ended. Returned once per drive, so
/// the size gap between the variants costs nothing worth a box.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Drive {
    /// The circuit drained: the schedule and the final placement.
    Complete(ScheduleResult, Placement),
    /// At the top of a step, `total_cycles` plus the least the rest of
    /// the DAG can still cost passed the budget, so the finished
    /// schedule would have passed it too.
    Pruned {
        /// Swap layers committed before the prune. Zero means the run
        /// so far is step for step what the optimizer-off run does.
        swap_layers: u64,
    },
}

impl Drive {
    /// The schedule of an unbudgeted drive, which always completes.
    fn completed(self) -> (ScheduleResult, Placement) {
        match self {
            Drive::Complete(result, placement) => (result, placement),
            Drive::Pruned { .. } => unreachable!("an unbudgeted drive always completes"),
        }
    }
}

/// The batch loop behind every `run*` entry point: runs an [`Engine`]
/// over the whole circuit and its DAG, borrowed, and steps it until
/// drained. With
/// `budget = Some(b)` the drive stops at the top of the first step
/// where the running `total_cycles` plus the remaining critical path
/// (the engine's routing priority) exceeds
/// `b`, and reports [`Drive::Pruned`]; `None` always drains the
/// circuit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    scheduler_name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    allow_layout_optimizer: bool,
    config: &ScheduleConfig,
    base: &Occupancy,
    dag: &DependenceDag,
    budget: Option<u64>,
) -> Result<Drive, ScheduleError> {
    let _span = telemetry::span("engine");
    if telemetry::decisions_enabled() {
        telemetry::decision(&telemetry::Decision::EngineBegin {
            scheduler: scheduler_name.to_string(),
            circuit: circuit.name().to_string(),
            grid_side: grid.cells_per_side(),
        });
    }
    let mut engine = Engine::new(
        scheduler_name,
        Cow::Borrowed(circuit),
        Cow::Borrowed(dag),
        grid.clone(),
        base.clone(),
        placement,
        config.clone(),
        allow_layout_optimizer,
    );
    while !engine.frontier.is_drained() {
        // What the undrained DAG still costs at the least is the heaviest
        // ready chain of the engine's priority: a dependence chain
        // completes at most one gate per step, and a step that completes
        // a gate costs at least that gate's cycles.
        if let Some(budget) = budget {
            engine.refresh_priority();
            let owed = engine
                .frontier
                .ready()
                .iter()
                .map(|&g| engine.priority[g])
                .max();
            if engine.result.total_cycles + owed.unwrap_or(0) > budget {
                return Ok(Drive::Pruned {
                    swap_layers: engine.result.swap_layers,
                });
            }
        }
        engine.step(policy, &mut Batch)?;
    }
    let (result, placement, ..) = engine.finish();
    Ok(Drive::Complete(result, placement))
}

/// What one [`Engine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stepped {
    /// Only single-qubit gates were ready; this many executed.
    Local { gates: usize },
    /// The layout optimizer spent the step on a swap layer.
    Swap,
    /// A braiding layer committed: `routed` gates routed, `deferred`
    /// offered gates failed and stay ready.
    Braid { routed: usize, deferred: usize },
}

/// A routed layer about to commit, as [`StepHooks::check`] sees it.
pub(crate) struct RoutedLayer<'l> {
    pub(crate) step: u64,
    pub(crate) grid: &'l Grid,
    pub(crate) base: &'l Occupancy,
    pub(crate) placement: &'l Placement,
    pub(crate) requests: &'l [CxRequest],
    pub(crate) outcome: &'l RouteOutcome,
    /// Wall-clock time the policy spent routing the layer.
    pub(crate) route_time: Duration,
}

/// What a caller wraps around the shared [`Engine::step`]. The batch
/// drive keeps the defaults; a stream trims layers after a budget
/// overrun, probes each layer before it commits and counts reroutes.
pub(crate) trait StepHooks {
    /// The caller's error type.
    type Error;

    /// The error for a ready gate that can never route.
    fn unroutable(&self, gate: GateId) -> Self::Error;

    /// Narrows, in place, the ready braids offered to the router;
    /// `priority` is each gate's remaining critical-path weight.
    fn offer(&mut self, _braids: &mut Vec<GateId>, _priority: &[u64]) {}

    /// Inspects a routed layer before it commits; an error aborts the
    /// step with nothing committed.
    fn check(&mut self, _layer: &RoutedLayer<'_>) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The batch drive's hooks: nothing beyond the typed error, because the
/// whole schedule is verified once it is done.
struct Batch;

impl StepHooks for Batch {
    type Error = ScheduleError;

    fn unroutable(&self, gate: GateId) -> ScheduleError {
        ScheduleError::UnroutableGate { gate }
    }
}

/// The scheduling engine (paper §3, Fig. 13). Each [`Engine::step`]
/// takes the ready layer, routes its two-qubit gates with the policy,
/// spends a swap layer instead when too few route and the layout
/// optimizer is on, and commits. The batch [`drive`] borrows a whole
/// circuit and its DAG; a [`crate::streaming::StreamingPipeline`] owns
/// them and [`Engine::push`]es gates as they arrive.
pub(crate) struct Engine<'a> {
    pub(crate) circuit: Cow<'a, Circuit>,
    dag: Cow<'a, DependenceDag>,
    pub(crate) frontier: Frontier,
    pub(crate) grid: Grid,
    /// Defective channel vertices: every step routes on a copy.
    base: Occupancy,
    /// Per-step scratch occupancy.
    occupancy: Occupancy,
    pub(crate) placement: Placement,
    config: ScheduleConfig,
    allow_layout_optimizer: bool,
    /// Remaining critical-path weight of each gate (itself included):
    /// routing priority, so congestion defers slack-rich gates instead
    /// of dependence-critical ones, and the budgeted drive's floor.
    priority: Vec<u64>,
    /// Whether gates were pushed since `priority` was computed. Weights
    /// change only on a push, so a push-then-drain stream recomputes
    /// them once per push batch, not once per step.
    priority_stale: bool,
    pub(crate) result: ScheduleResult,
    utilization_sum: f64,
    consecutive_swap_rounds: usize,
    /// Steps taken so far (local, swap and braid).
    pub(crate) step_index: u64,
    started: Instant,
}

impl<'a> Engine<'a> {
    /// An engine over `circuit` (every gate already in `dag`), starting
    /// from `placement` on `grid` with `base` as the defect map.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        scheduler_name: &str,
        circuit: Cow<'a, Circuit>,
        dag: Cow<'a, DependenceDag>,
        grid: Grid,
        base: Occupancy,
        placement: Placement,
        config: ScheduleConfig,
        allow_layout_optimizer: bool,
    ) -> Self {
        Engine {
            result: ScheduleResult::new(scheduler_name, circuit.name(), config.timing),
            frontier: Frontier::new(&dag),
            occupancy: Occupancy::new(&grid),
            circuit,
            dag,
            grid,
            base,
            placement,
            config,
            allow_layout_optimizer,
            priority: Vec::new(),
            priority_stale: true,
            utilization_sum: 0.0,
            consecutive_swap_rounds: 0,
            step_index: 0,
            started: Instant::now(),
        }
    }

    /// Appends `gate` to the circuit and admits it to the frontier.
    pub(crate) fn push(&mut self, gate: Gate) -> GateId {
        self.circuit.to_mut().push(gate);
        let id = self.dag.to_mut().push(&gate);
        self.frontier.admit(&self.dag);
        self.priority_stale = true;
        id
    }

    /// Recomputes `priority` if gates were pushed since it was computed.
    fn refresh_priority(&mut self) {
        if self.priority_stale {
            let timing = self.config.timing;
            self.priority = chain_weights(&self.circuit, &self.dag, |g| gate_cycles(g, &timing));
            self.priority_stale = false;
        }
    }

    /// Marks channel vertex `v` defective for every later step.
    pub(crate) fn fail_vertex(&mut self, v: Vertex) {
        self.base.reserve(&self.grid, v);
    }

    /// Charges one braiding-step slot in which nothing executes.
    pub(crate) fn idle(&mut self) {
        self.result.total_cycles += self.config.timing.braid_step_cycles();
    }

    /// Runs one step: executes the ready single-qubit gates alone if no
    /// two-qubit gate is ready, and otherwise routes the ready two-qubit
    /// gates as one layer, then commits it (with the ready single-qubit
    /// gates) or spends a swap layer instead.
    ///
    /// # Errors
    ///
    /// `hooks.unroutable` when no offered gate routes even though the
    /// layer was not traded for a swap layer, and whatever
    /// `hooks.check` rejects.
    pub(crate) fn step<H: StepHooks>(
        &mut self,
        policy: &dyn RoutePolicy,
        hooks: &mut H,
    ) -> Result<Stepped, H::Error> {
        let (locals, mut braids): (Vec<GateId>, Vec<GateId>) = self
            .frontier
            .ready()
            .iter()
            .partition(|&&g| !self.circuit.gate(g).is_two_qubit());
        let step = self.step_index;
        if telemetry::fine_decisions_enabled() {
            telemetry::decision(&telemetry::Decision::StepBegin {
                step,
                braids: braids.len(),
                locals: locals.len(),
            });
        }
        self.step_index += 1;
        let timing = self.config.timing;

        if braids.is_empty() {
            debug_assert!(!locals.is_empty(), "frontier non-empty but nothing ready");
            for &g in &locals {
                self.frontier.complete(&self.dag, g);
            }
            self.result.local_steps += 1;
            telemetry::fine_counter("scheduler.steps.local", 1);
            self.result.total_cycles += timing.local_step_cycles();
            let gates = locals.len();
            if self.config.recording == Recording::Full {
                self.result.steps.push(Step::Local { gates: locals });
            }
            return Ok(Stepped::Local { gates });
        }

        self.refresh_priority();
        hooks.offer(&mut braids, &self.priority);
        let requests: Vec<CxRequest> = braids
            .iter()
            .map(|&g| {
                let (a, b) = self
                    .circuit
                    .gate(g)
                    .pair()
                    .expect("braid gates are two-qubit");
                CxRequest::new(g, self.placement.cell_of(a), self.placement.cell_of(b))
                    .with_priority(self.priority[g] as i64)
            })
            .collect();

        let graph = InterferenceGraph::build(&requests);

        self.occupancy.clone_from(&self.base);
        let routing = Instant::now();
        let LayerRoute {
            outcome,
            chosen,
            reason,
        } = policy.route_layer(
            &self.grid,
            &mut self.occupancy,
            LayerView {
                step,
                base: &self.base,
                requests: &requests,
                interference: &graph,
            },
        );
        let route_time = routing.elapsed();
        if telemetry::fine_metrics_enabled() {
            telemetry::counter("scheduler.gates.routed", outcome.routed.len() as u64);
            telemetry::counter("scheduler.gates.deferred", outcome.failed.len() as u64);
            telemetry::observe("scheduler.step.batch_size", requests.len() as f64);
            telemetry::observe("scheduler.step.ratio", outcome.ratio());
        }

        // Dynamic layout optimization (AutoBraid-full): if too few gates
        // scheduled, spend a swap layer instead of committing this step.
        if self.allow_layout_optimizer
            && outcome.ratio() < self.config.layout_threshold
            && self.consecutive_swap_rounds < MAX_CONSECUTIVE_SWAP_ROUNDS
        {
            let swaps = plan_swap_layer(
                &self.grid,
                &self.placement,
                &requests,
                MAX_SWAPS_PER_ROUND,
                &self.base,
            );
            if !swaps.is_empty() {
                for swap in &swaps {
                    self.placement.swap_qubits(swap.a, swap.b);
                    if telemetry::fine_decisions_enabled() {
                        telemetry::decision(&telemetry::Decision::SwapInserted {
                            a: swap.a,
                            b: swap.b,
                        });
                    }
                }
                self.result.swap_layers += 1;
                self.result.swap_count += swaps.len() as u64;
                telemetry::fine_counter("scheduler.steps.swap", 1);
                telemetry::fine_counter("scheduler.swaps.inserted", swaps.len() as u64);
                self.result.total_cycles += 3 * timing.braid_step_cycles();
                self.consecutive_swap_rounds += 1;
                if self.config.recording == Recording::Full {
                    self.result.steps.push(Step::SwapLayer { swaps });
                }
                return Ok(Stepped::Swap);
            }
        }
        self.consecutive_swap_rounds = 0;

        if outcome.routed.is_empty() {
            // On a defect-free lattice at least one gate always routes; a
            // defective channel map can disconnect operand tiles for good.
            return Err(hooks.unroutable(requests.first().map(|r| r.id).unwrap_or_default()));
        }
        hooks.check(&RoutedLayer {
            step,
            grid: &self.grid,
            base: &self.base,
            placement: &self.placement,
            requests: &requests,
            outcome: &outcome,
            route_time,
        })?;

        let utilization = self.occupancy.utilization();
        self.result.peak_utilization = self.result.peak_utilization.max(utilization);
        self.utilization_sum += utilization;

        for routed in &outcome.routed {
            self.frontier.complete(&self.dag, routed.request.id);
        }
        for &g in &locals {
            self.frontier.complete(&self.dag, g);
        }
        self.result.braid_steps += 1;
        telemetry::fine_counter("scheduler.steps.braid", 1);
        self.result.total_cycles += timing.braid_step_cycles();
        // Strategy attribution describes *committed* layers only — a
        // routing pass discarded in favour of a swap layer never shows
        // up here or in the trace.
        if telemetry::fine_decisions_enabled() {
            telemetry::decision(&telemetry::Decision::StrategyChosen {
                step,
                policy: chosen.to_string(),
                reason: reason.to_string(),
            });
        }
        let stepped = Stepped::Braid {
            routed: outcome.routed.len(),
            deferred: outcome.failed.len(),
        };
        if self.config.recording == Recording::Full {
            self.result.layer_policies.push(LayerPolicy {
                step,
                policy: chosen.to_string(),
                reason: reason.to_string(),
            });
            self.result.steps.push(Step::Braid {
                braids: outcome
                    .routed
                    .into_iter()
                    .map(|r| (r.request.id, r.path))
                    .collect(),
                locals,
            });
        }
        Ok(stepped)
    }

    /// Closes the run: the result (mean utilization and compile time
    /// filled in), the final placement, the grid and the circuit.
    pub(crate) fn finish(mut self) -> (ScheduleResult, Placement, Grid, Cow<'a, Circuit>) {
        if self.result.braid_steps > 0 {
            self.result.mean_utilization = self.utilization_sum / self.result.braid_steps as f64;
        }
        self.result.compile_seconds = self.started.elapsed().as_secs_f64();
        (self.result, self.placement, self.grid, self.circuit)
    }
}

/// Per gate, the heaviest dependence chain starting at it (itself
/// included) with each gate weighted by `weight`.
pub(crate) fn chain_weights(
    circuit: &Circuit,
    dag: &DependenceDag,
    weight: impl Fn(&Gate) -> u64,
) -> Vec<u64> {
    let mut chains = vec![0u64; circuit.len()];
    for g in (0..circuit.len()).rev() {
        let tail = dag
            .successors(g)
            .iter()
            .map(|&s| chains[s])
            .max()
            .unwrap_or(0);
        chains[g] = tail + weight(circuit.gate(g));
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_schedule;
    use autobraid_circuit::generators::{bv::bv_all_ones, ising::ising, qft::qft};

    fn schedule(circuit: &Circuit, policy: &dyn RoutePolicy, layout: bool) -> ScheduleResult {
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = Placement::row_major(&grid, circuit.num_qubits());
        let config = ScheduleConfig::default();
        let (result, _) = run(
            "test",
            circuit,
            &grid,
            placement.clone(),
            policy,
            layout,
            &config,
        );
        verify_schedule(circuit, &grid, &placement, &result).expect("schedule verifies");
        result
    }

    #[test]
    fn drains_bv_at_critical_path() {
        let c = bv_all_ones(20).unwrap();
        let r = schedule(&c, &ParallelStackPolicy::new(1), false);
        let cp = crate::critical_path::critical_path_cycles(&c, r.timing());
        assert_eq!(
            r.total_cycles, cp,
            "BV has no congestion: engine must hit CP"
        );
    }

    #[test]
    fn drains_qft_correctly_with_both_policies() {
        let c = qft(12).unwrap();
        let stack = schedule(&c, &ParallelStackPolicy::new(1), false);
        let greedy = schedule(&c, &GreedyPolicy, false);
        let cp = crate::critical_path::critical_path_cycles(&c, stack.timing());
        assert!(stack.total_cycles >= cp);
        assert!(greedy.total_cycles >= cp);
    }

    #[test]
    fn ising_parallel_layers_get_packed() {
        let c = ising(16, 1).unwrap();
        let r = schedule(&c, &ParallelStackPolicy::new(1), false);
        // 16-qubit Ising on a 4×4 row-major grid: coupled pairs are near
        // each other, braids pack densely; the step count must be far
        // below the serial count of 30 CXs.
        assert!(r.braid_steps <= 12, "got {} braid steps", r.braid_steps);
    }

    #[test]
    fn layout_optimizer_does_not_break_verification() {
        let c = qft(16).unwrap();
        let r = schedule(&c, &ParallelStackPolicy::new(1), true);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn layout_optimizer_respects_its_guards() {
        // Random CX layers on a row-major layout, with the optimizer
        // firing whenever a layer does not fully route: swap layers must
        // come in runs of at most MAX_CONSECUTIVE_SWAP_ROUNDS and each
        // must hold at most MAX_SWAPS_PER_ROUND swaps.
        let c = autobraid_circuit::generators::random::layered_cx(64, 6, 1.0, 7).unwrap();
        let grid = Grid::with_capacity_for(64);
        let placement = Placement::row_major(&grid, 64);
        let config = ScheduleConfig::default().with_layout_threshold(1.0);
        let (r, _) = run(
            "t",
            &c,
            &grid,
            placement.clone(),
            &ParallelStackPolicy::new(1),
            true,
            &config,
        );
        verify_schedule(&c, &grid, &placement, &r).expect("schedule verifies");
        let mut run_len = 0;
        let mut longest_run = 0;
        let mut widest = 0;
        for step in &r.steps {
            if let Step::SwapLayer { swaps } = step {
                run_len += 1;
                widest = widest.max(swaps.len());
            } else {
                run_len = 0;
            }
            longest_run = longest_run.max(run_len);
        }
        assert!(r.swap_layers > 0, "the optimizer must commit a swap layer");
        assert!(
            longest_run <= MAX_CONSECUTIVE_SWAP_ROUNDS,
            "{longest_run} swap layers in a row"
        );
        assert!(widest <= MAX_SWAPS_PER_ROUND, "{widest} swaps in one layer");
    }

    #[test]
    fn stats_only_recording_skips_steps() {
        let c = qft(8).unwrap();
        let grid = Grid::with_capacity_for(8);
        let placement = Placement::row_major(&grid, 8);
        let config = ScheduleConfig::default().with_recording(Recording::StatsOnly);
        let (r, _) = run(
            "t",
            &c,
            &grid,
            placement,
            &ParallelStackPolicy::new(1),
            false,
            &config,
        );
        assert!(r.steps.is_empty());
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn commutation_aware_mode_schedules_faster_or_equal() {
        use crate::metrics::verify_schedule_with_dag;
        let c = bv_all_ones(24).unwrap();
        let grid = Grid::with_capacity_for(24);
        let placement = Placement::row_major(&grid, 24);
        let plain_cfg = ScheduleConfig::default();
        let relaxed_cfg = ScheduleConfig::default().with_commutation_aware(true);
        let (plain, _) = run(
            "t",
            &c,
            &grid,
            placement.clone(),
            &ParallelStackPolicy::new(1),
            false,
            &plain_cfg,
        );
        let (relaxed, _) = run(
            "t",
            &c,
            &grid,
            placement.clone(),
            &ParallelStackPolicy::new(1),
            false,
            &relaxed_cfg,
        );
        // BV's CX fan-in fully commutes: massive win.
        assert!(relaxed.total_cycles * 2 < plain.total_cycles);
        let dag = autobraid_circuit::DependenceDag::with_commutation(&c);
        verify_schedule_with_dag(&c, &dag, &grid, &placement, &relaxed).unwrap();
        let cp = crate::critical_path::critical_path_cycles_relaxed(&c, relaxed.timing());
        assert!(relaxed.total_cycles >= cp);
    }

    #[test]
    fn budget_cuts_exactly_the_drives_that_finish_past_it() {
        // A drive's cut test is sound (it never cuts a drive that would
        // finish within budget) and its floor is tight on the last step
        // (a budget one below the final count always cuts).
        let mut swaps = qft(10).unwrap();
        for q in 0..9 {
            swaps.swap(q, 9 - q).h(q);
        }
        for circuit in [qft(16).unwrap(), ising(16, 2).unwrap(), swaps] {
            let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
            let placement = Placement::row_major(&grid, circuit.num_qubits());
            let config = ScheduleConfig::default();
            let dag = DependenceDag::new(&circuit);
            let base = Occupancy::new(&grid);
            for optimizer in [false, true] {
                let drive_with = |budget| {
                    drive(
                        "t",
                        &circuit,
                        &grid,
                        placement.clone(),
                        &ParallelStackPolicy::new(1),
                        optimizer,
                        &config,
                        &base,
                        &dag,
                        budget,
                    )
                    .unwrap()
                };
                let Drive::Complete(full, _) = drive_with(None) else {
                    panic!("an unbudgeted drive completes");
                };
                let Drive::Complete(at_budget, _) = drive_with(Some(full.total_cycles)) else {
                    panic!(
                        "{}: a drive finishing at its budget was cut",
                        circuit.name()
                    );
                };
                assert_eq!(at_budget.steps, full.steps);
                assert!(matches!(
                    drive_with(Some(full.total_cycles - 1)),
                    Drive::Pruned { .. }
                ));
            }
        }
    }

    #[test]
    fn utilization_is_within_bounds() {
        let c = ising(25, 2).unwrap();
        let r = schedule(&c, &ParallelStackPolicy::new(1), false);
        assert!(r.peak_utilization > 0.0 && r.peak_utilization <= 1.0);
        assert!(r.mean_utilization > 0.0 && r.mean_utilization <= r.peak_utilization + 1e-12);
    }
}
