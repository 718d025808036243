//! Gate dependence DAG, frontier tracking, and critical-path analysis.
//!
//! Two gates depend on each other iff they share an operand qubit; the DAG
//! keeps only the immediate (per-qubit last-writer) edges. The *frontier*
//! of ready gates drives every scheduler in the workspace, and the weighted
//! critical path is the paper's "CP" ideal execution time.

use crate::circuit::{Circuit, GateId};
use crate::gate::Gate;
use std::collections::VecDeque;

/// Immediate-dependence DAG of a circuit.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::circuit::Circuit;
/// use autobraid_circuit::dag::DependenceDag;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2).h(2);
/// let dag = DependenceDag::new(&c);
/// assert_eq!(dag.predecessors(0), &[] as &[usize]);
/// assert_eq!(dag.predecessors(1), &[0]);       // cx(0,1) waits on h(0)
/// assert_eq!(dag.predecessors(2), &[1]);       // cx(1,2) waits on cx(0,1)
/// assert_eq!(dag.depth(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DependenceDag {
    /// Gate `g`'s predecessors are
    /// `pred_ids[pred_starts[g]..pred_starts[g + 1]]`: one flat list, so
    /// a push allocates nothing per gate.
    pred_starts: Vec<usize>,
    pred_ids: Vec<GateId>,
    successors: Vec<Vec<GateId>>,
    /// Per-qubit state the next pushed gate's edges are read from.
    rule: EdgeRule,
}

/// How a pushed gate finds its predecessors.
#[derive(Debug, Clone)]
enum EdgeRule {
    /// The last gate on each qubit ([`DependenceDag::new`]).
    LastWriter(Vec<Option<GateId>>),
    /// Per qubit, the previous (closed) commuting set and the current
    /// (open) one ([`DependenceDag::with_commutation`]).
    Commuting {
        closed: Vec<Vec<(GateId, Gate)>>,
        open: Vec<Vec<(GateId, Gate)>>,
    },
}

impl DependenceDag {
    /// Builds the DAG in `O(gates × operands)`.
    pub fn new(circuit: &Circuit) -> Self {
        let qubits = circuit.num_qubits() as usize;
        Self::grown(circuit, EdgeRule::LastWriter(vec![None; qubits]))
    }

    /// Builds the *commutation-relaxed* DAG: gates acting in the same
    /// basis on every shared qubit (see [`crate::commutation::commutes`])
    /// are unordered, so e.g. all controlled-phase gates of a QFT become
    /// mutually concurrent. Edges are a subset of what topological
    /// ordering requires: per qubit, maximal runs of mutually commuting
    /// gates form unordered sets, and each set fully depends on the
    /// previous one.
    ///
    /// ```
    /// use autobraid_circuit::circuit::Circuit;
    /// use autobraid_circuit::dag::DependenceDag;
    ///
    /// let mut c = Circuit::new(3);
    /// c.cx(0, 1).cx(0, 2); // shared control: commute
    /// assert_eq!(DependenceDag::new(&c).depth(), 2);
    /// assert_eq!(DependenceDag::with_commutation(&c).depth(), 1);
    /// ```
    pub fn with_commutation(circuit: &Circuit) -> Self {
        let qubits = circuit.num_qubits() as usize;
        Self::grown(
            circuit,
            EdgeRule::Commuting {
                closed: vec![Vec::new(); qubits],
                open: vec![Vec::new(); qubits],
            },
        )
    }

    fn grown(circuit: &Circuit, rule: EdgeRule) -> Self {
        let mut dag = DependenceDag {
            pred_starts: vec![0],
            pred_ids: Vec::with_capacity(circuit.len()),
            successors: Vec::with_capacity(circuit.len()),
            rule,
        };
        for (_, gate) in circuit.iter() {
            dag.push(gate);
        }
        dag
    }

    /// Appends `gate` as node `len()` with the edges this DAG's build
    /// mode gives it, so a DAG grown gate by gate equals one built from
    /// the whole circuit. Successor lists stay sorted because ids only
    /// increase.
    ///
    /// # Panics
    ///
    /// Panics if `gate` addresses a qubit outside the circuit the DAG
    /// was built for.
    ///
    /// ```
    /// use autobraid_circuit::circuit::Circuit;
    /// use autobraid_circuit::dag::DependenceDag;
    /// use autobraid_circuit::gate::{Gate, TwoKind};
    ///
    /// let mut dag = DependenceDag::new(&Circuit::new(2));
    /// dag.push(&Gate::two(TwoKind::Cx, 0, 1));
    /// assert_eq!(dag.push(&Gate::two(TwoKind::Cx, 1, 0)), 1);
    /// assert_eq!(dag.predecessors(1), &[0]);
    /// ```
    pub fn push(&mut self, gate: &Gate) -> GateId {
        let id = self.len();
        let start = self.pred_ids.len();
        match &mut self.rule {
            EdgeRule::LastWriter(last_on_qubit) => {
                for q in gate.operands() {
                    // A two-qubit gate may repeat a predecessor if both
                    // operands last touched the same gate; dedupe.
                    if let Some(prev) = last_on_qubit[q as usize].replace(id) {
                        if !self.pred_ids[start..].contains(&prev) {
                            self.pred_ids.push(prev);
                        }
                    }
                }
            }
            EdgeRule::Commuting { closed, open } => {
                use crate::commutation::commutes;
                // A gate joining the open set depends on all of the
                // closed one; a non-commuting gate closes the open set.
                for q in gate.operands() {
                    let q = q as usize;
                    if !open[q].iter().all(|(_, g)| commutes(g, gate)) {
                        closed[q] = std::mem::take(&mut open[q]);
                    }
                    for &(p, _) in &closed[q] {
                        if !self.pred_ids[start..].contains(&p) {
                            self.pred_ids.push(p);
                        }
                    }
                    open[q].push((id, *gate));
                }
                self.pred_ids[start..].sort_unstable();
            }
        }
        for &p in &self.pred_ids[start..] {
            self.successors[p].push(id);
        }
        self.pred_starts.push(self.pred_ids.len());
        self.successors.push(Vec::new());
        id
    }

    /// Number of gates (nodes).
    pub fn len(&self) -> usize {
        self.successors.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.successors.is_empty()
    }

    /// Immediate predecessors of `gate`.
    pub fn predecessors(&self, gate: GateId) -> &[GateId] {
        &self.pred_ids[self.pred_starts[gate]..self.pred_starts[gate + 1]]
    }

    /// Immediate successors of `gate`.
    pub fn successors(&self, gate: GateId) -> &[GateId] {
        &self.successors[gate]
    }

    /// Gates with no predecessors.
    pub fn roots(&self) -> Vec<GateId> {
        (0..self.len())
            .filter(|&g| self.predecessors(g).is_empty())
            .collect()
    }

    /// Unweighted DAG depth: the number of dependence levels (0 for an
    /// empty circuit).
    pub fn depth(&self) -> usize {
        self.asap_levels().into_iter().max().map_or(0, |d| d + 1)
    }

    /// As-soon-as-possible level of every gate (roots are level 0).
    pub fn asap_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.len()];
        // Program order is a topological order by construction.
        for g in 0..self.len() {
            for &p in self.predecessors(g) {
                level[g] = level[g].max(level[p] + 1);
            }
        }
        level
    }

    /// Weighted critical-path length: the maximum, over all dependence
    /// chains, of the summed gate weights. This is the paper's ideal "CP"
    /// execution time when `weight` maps each gate to its latency.
    ///
    /// ```
    /// # use autobraid_circuit::circuit::Circuit;
    /// # use autobraid_circuit::dag::DependenceDag;
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1);
    /// let dag = DependenceDag::new(&c);
    /// let cp = dag.critical_path_weight(&c, |g| if g.is_two_qubit() { 2 } else { 1 });
    /// assert_eq!(cp, 3);
    /// ```
    pub fn critical_path_weight(&self, circuit: &Circuit, weight: impl Fn(&Gate) -> u64) -> u64 {
        let mut finish = vec![0u64; self.len()];
        let mut best = 0;
        for g in 0..self.len() {
            let start = self
                .predecessors(g)
                .iter()
                .map(|&p| finish[p])
                .max()
                .unwrap_or(0);
            finish[g] = start + weight(circuit.gate(g));
            best = best.max(finish[g]);
        }
        best
    }
}

/// Incremental frontier over a [`DependenceDag`]: tracks which gates are
/// ready (all predecessors completed), lets a scheduler complete them in
/// any order, and surfaces newly released gates. The frontier does not
/// hold the DAG, so the DAG may keep growing: [`Frontier::admit`] takes
/// in the gates pushed since the last call.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::circuit::Circuit;
/// use autobraid_circuit::dag::{DependenceDag, Frontier};
///
/// let mut c = Circuit::new(2);
/// c.h(0).h(1).cx(0, 1);
/// let dag = DependenceDag::new(&c);
/// let mut frontier = Frontier::new(&dag);
/// let mut ready = frontier.ready().to_vec();
/// ready.sort();
/// assert_eq!(ready, vec![0, 1]);
/// frontier.complete(&dag, 0);
/// frontier.complete(&dag, 1);
/// assert_eq!(frontier.ready(), &[2]);
/// frontier.complete(&dag, 2);
/// assert!(frontier.is_drained());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    remaining_preds: Vec<usize>,
    ready: Vec<GateId>,
    completed: Vec<bool>,
    outstanding: usize,
}

impl Frontier {
    /// Starts a frontier with every root gate ready.
    pub fn new(dag: &DependenceDag) -> Self {
        let mut frontier = Frontier::default();
        frontier.admit(dag);
        frontier
    }

    /// Admits, in id order, every gate pushed onto `dag` since the last
    /// call. Each waits only on its predecessors not yet completed, so a
    /// gate whose predecessors are all done is ready at once.
    ///
    /// ```
    /// use autobraid_circuit::circuit::Circuit;
    /// use autobraid_circuit::dag::{DependenceDag, Frontier};
    /// use autobraid_circuit::gate::{Gate, TwoKind};
    ///
    /// let mut dag = DependenceDag::new(&Circuit::new(2));
    /// let mut frontier = Frontier::new(&dag);
    /// dag.push(&Gate::two(TwoKind::Cx, 0, 1));
    /// frontier.admit(&dag);
    /// frontier.complete(&dag, 0);
    /// dag.push(&Gate::two(TwoKind::Cx, 1, 0));
    /// frontier.admit(&dag);
    /// assert_eq!(frontier.ready(), &[1]);
    /// ```
    pub fn admit(&mut self, dag: &DependenceDag) {
        for gate in self.completed.len()..dag.len() {
            let waiting = dag
                .predecessors(gate)
                .iter()
                .filter(|&&p| !self.completed[p])
                .count();
            self.remaining_preds.push(waiting);
            self.completed.push(false);
            self.outstanding += 1;
            if waiting == 0 {
                self.ready.push(gate);
            }
        }
    }

    /// The currently ready gates, in release order.
    pub fn ready(&self) -> &[GateId] {
        &self.ready
    }

    /// Whether every admitted gate has been completed.
    pub fn is_drained(&self) -> bool {
        self.outstanding == 0
    }

    /// Number of admitted gates not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Marks `gate` complete, releasing any admitted successors in `dag`
    /// whose predecessors are all done.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not currently ready (still has unmet
    /// dependencies, or already completed).
    pub fn complete(&mut self, dag: &DependenceDag, gate: GateId) {
        assert!(!self.completed[gate], "gate {gate} completed twice");
        assert_eq!(
            self.remaining_preds[gate], 0,
            "gate {gate} completed before its {} remaining dependencies",
            self.remaining_preds[gate]
        );
        self.completed[gate] = true;
        self.outstanding -= 1;
        if let Some(pos) = self.ready.iter().position(|&g| g == gate) {
            self.ready.swap_remove(pos);
        }
        // Successor lists are sorted; gates not yet admitted will count
        // only their predecessors still open when they are.
        let admitted = self.completed.len();
        for &s in dag.successors(gate).iter().take_while(|&&s| s < admitted) {
            self.remaining_preds[s] -= 1;
            if self.remaining_preds[s] == 0 {
                self.ready.push(s);
            }
        }
    }

    /// A breadth-first topological drain used for validation: repeatedly
    /// completes all ready gates, returning the layer structure.
    pub fn drain_layers(mut self, dag: &DependenceDag) -> Vec<Vec<GateId>> {
        let mut layers = Vec::new();
        while !self.is_drained() {
            let layer: Vec<GateId> = self.ready.to_vec();
            assert!(
                !layer.is_empty(),
                "frontier stuck with {} outstanding",
                self.outstanding
            );
            for &g in &layer {
                self.complete(dag, g);
            }
            layers.push(layer);
        }
        layers
    }
}

/// Validates that `order` is a topological execution of `circuit`: every
/// gate appears exactly once and after all of its dependence predecessors.
pub fn is_valid_execution_order(circuit: &Circuit, order: &[GateId]) -> bool {
    if order.len() != circuit.len() {
        return false;
    }
    let dag = DependenceDag::new(circuit);
    let mut position = vec![usize::MAX; circuit.len()];
    for (i, &g) in order.iter().enumerate() {
        if g >= circuit.len() || position[g] != usize::MAX {
            return false;
        }
        position[g] = i;
    }
    for g in 0..circuit.len() {
        for &p in dag.predecessors(g) {
            if position[p] >= position[g] {
                return false;
            }
        }
    }
    true
}

/// Longest-path layering by breadth-first traversal — used to cross-check
/// [`DependenceDag::asap_levels`] in tests and by the parallelism analysis.
pub fn bfs_levels(dag: &DependenceDag) -> Vec<usize> {
    let mut indeg: Vec<usize> = (0..dag.len()).map(|g| dag.predecessors(g).len()).collect();
    let mut level = vec![0usize; dag.len()];
    let mut queue: VecDeque<GateId> = dag.roots().into();
    while let Some(g) = queue.pop_front() {
        for &s in dag.successors(g) {
            level[s] = level[s].max(level[g] + 1);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Circuit {
        // Serial chain: every CX shares qubit 0.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(0, 2).cx(0, 3);
        c
    }

    fn diamond() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0); // 0
        c.cx(0, 1); // 1 depends on 0
        c.cx(0, 2); // 2 depends on 1 (shares qubit 0)
        c.cx(1, 3); // 3 depends on 1
        c
    }

    #[test]
    fn chain_is_fully_serial() {
        let c = chain();
        let dag = DependenceDag::new(&c);
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.roots(), vec![0]);
        assert_eq!(dag.asap_levels(), vec![0, 1, 2]);
    }

    #[test]
    fn diamond_structure() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
        assert_eq!(dag.predecessors(3), &[1]);
        assert_eq!(dag.successors(1), &[2, 3]);
        assert_eq!(dag.depth(), 3);
    }

    #[test]
    fn duplicate_predecessor_deduped() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        let dag = DependenceDag::new(&c);
        assert_eq!(
            dag.predecessors(1),
            &[0],
            "single edge despite two shared qubits"
        );
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn independent_gates_parallel() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let dag = DependenceDag::new(&c);
        assert_eq!(dag.depth(), 1);
        assert_eq!(dag.roots().len(), 2);
    }

    #[test]
    fn critical_path_weighted() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        // h=1, cx=2: path h→cx→cx = 1+2+2 = 5.
        assert_eq!(
            dag.critical_path_weight(&c, |g| if g.is_two_qubit() { 2 } else { 1 }),
            5
        );
        // Uniform weights: equals depth.
        assert_eq!(dag.critical_path_weight(&c, |_| 1), 3);
    }

    #[test]
    fn empty_circuit_dag() {
        let c = Circuit::new(3);
        let dag = DependenceDag::new(&c);
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert_eq!(dag.critical_path_weight(&c, |_| 1), 0);
    }

    #[test]
    fn frontier_releases_in_dependence_order() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        let mut f = Frontier::new(&dag);
        assert_eq!(f.ready(), &[0]);
        f.complete(&dag, 0);
        assert_eq!(f.ready(), &[1]);
        f.complete(&dag, 1);
        let mut r = f.ready().to_vec();
        r.sort();
        assert_eq!(r, vec![2, 3]);
        f.complete(&dag, 3);
        f.complete(&dag, 2);
        assert!(f.is_drained());
    }

    #[test]
    #[should_panic(expected = "before its")]
    fn frontier_rejects_early_completion() {
        let c = chain();
        let dag = DependenceDag::new(&c);
        let mut f = Frontier::new(&dag);
        f.complete(&dag, 2);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn frontier_rejects_double_completion() {
        let c = chain();
        let dag = DependenceDag::new(&c);
        let mut f = Frontier::new(&dag);
        f.complete(&dag, 0);
        // Re-completing a done gate: remaining_preds is 0 but completed.
        f.complete(&dag, 0);
    }

    #[test]
    fn drain_layers_matches_asap() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        let layers = Frontier::new(&dag).drain_layers(&dag);
        assert_eq!(layers.len(), dag.depth());
        let asap = dag.asap_levels();
        for (level, layer) in layers.iter().enumerate() {
            for &g in layer {
                assert_eq!(asap[g], level);
            }
        }
    }

    #[test]
    fn bfs_levels_agree_with_asap() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        assert_eq!(bfs_levels(&dag), dag.asap_levels());
    }

    #[test]
    fn commutation_dag_flattens_shared_control_fanout() {
        // BV-style fan-in: all CXs share the target — X-basis on the
        // shared qubit, so they all commute.
        let mut c = Circuit::new(5);
        for q in 0..4 {
            c.cx(q, 4);
        }
        assert_eq!(DependenceDag::new(&c).depth(), 4);
        assert_eq!(DependenceDag::with_commutation(&c).depth(), 1);
    }

    #[test]
    fn commutation_dag_respects_barriers() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).h(1).cx(2, 1);
        let dag = DependenceDag::with_commutation(&c);
        // H on qubit 1 separates the two CXs.
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
    }

    #[test]
    fn commutation_dag_widens_qft_layers() {
        // QFT depth is pinned by the H gates (2n - 1 alternating sets),
        // but commuting controlled-phase cascades concentrate into much
        // wider layers — more routing freedom per step.
        let c = crate::generators::qft::qft(16).unwrap();
        let plain = DependenceDag::new(&c);
        let relaxed = DependenceDag::with_commutation(&c);
        assert!(relaxed.depth() <= plain.depth());
        let max_width = |dag: &DependenceDag| {
            let levels = dag.asap_levels();
            let mut counts = vec![0usize; dag.depth()];
            for &l in &levels {
                counts[l] += 1;
            }
            counts.into_iter().max().unwrap_or(0)
        };
        assert!(
            max_width(&relaxed) >= 2 * max_width(&plain) - 2,
            "commutation should widen layers: {} vs {}",
            max_width(&relaxed),
            max_width(&plain)
        );
    }

    #[test]
    fn commutation_dag_is_executable() {
        let c = crate::generators::qft::qft(10).unwrap();
        let dag = DependenceDag::with_commutation(&c);
        let layers = Frontier::new(&dag).drain_layers(&dag);
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, c.len(), "frontier drains every gate");
    }

    #[test]
    fn commutation_set_boundaries_are_transitive() {
        // z(0), x(0), z(0): the two Z gates do NOT commute past the X, so
        // depth must be 3 even though z-z commute pairwise.
        let mut c = Circuit::new(1);
        c.z(0).x(0).z(0);
        assert_eq!(DependenceDag::with_commutation(&c).depth(), 3);
    }

    #[test]
    fn execution_order_validation() {
        let c = diamond();
        assert!(is_valid_execution_order(&c, &[0, 1, 2, 3]));
        assert!(is_valid_execution_order(&c, &[0, 1, 3, 2]));
        assert!(
            !is_valid_execution_order(&c, &[1, 0, 2, 3]),
            "dependency violated"
        );
        assert!(!is_valid_execution_order(&c, &[0, 1, 2]), "missing gate");
        assert!(
            !is_valid_execution_order(&c, &[0, 0, 2, 3]),
            "duplicate gate"
        );
    }
}
