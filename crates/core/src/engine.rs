//! The Difference Propagation engine: selective-trace propagation of
//! difference functions from fault sites to primary outputs.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use dp_bdd::{BddError, BudgetConfig, Cube, Manager, ManagerStats, NodeId};
use dp_faults::{BridgeKind, BridgingFault, Fault, FaultSite, StuckAtFault};
use dp_netlist::{find_xor_quads, Circuit, Driver, GateKind, NetId, Reachability, XorQuads};
use dp_telemetry::{CounterKind, HistKind, SharedCollector, SpanKind};

use crate::delta::{delta_output, naive_delta_output};
use crate::error::AnalysisError;
use crate::good::{GoodFunctions, GoodSnapshot};
use crate::order::OrderStrategy;

/// Tuning knobs for [`DiffProp`] — the defaults reproduce the paper's
/// algorithm; the alternatives exist for the `ablations` section of
/// `diffprop figures`.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Skip gates whose input differences are all zero (the paper's
    /// selective-trace analogy, §3). Turning this off processes every gate
    /// in the fault sites' fanout cones.
    pub selective_trace: bool,
    /// Use the Table-1 ring-sum identities. When `false`, the engine
    /// materialises faulty functions per gate and XORs with the good output
    /// (the naive baseline).
    pub table1: bool,
    /// Garbage-collect the BDD manager (keeping only good functions) when
    /// the node count exceeds this threshold at the start of an analysis.
    pub gc_threshold: usize,
    /// Adaptive collection: also gc when the node table exceeds this
    /// multiple of its size right after the previous collection (or the
    /// thaw of the good functions), subject to a small absolute floor so
    /// tiny circuits never bother. This keeps the table — and therefore
    /// `peak_nodes` — proportional to the *live* working set instead of the
    /// total ever allocated across a sweep. Collections never change
    /// analysis results (only `NodeId` handles and cache state); set it to
    /// `f64::INFINITY` to restore threshold-only behaviour.
    pub gc_growth: f64,
    /// Work budget for the BDD manager. Only the fallible entry points
    /// ([`DiffProp::try_analyze`], [`DiffProp::build_snapshot`]) honour
    /// it — the infallible methods temporarily lift it so their answers
    /// stay exact. The default,
    /// [`BudgetConfig::UNLIMITED`], reproduces unbounded behaviour.
    pub budget: BudgetConfig,
    /// How the manager's variable order is chosen (and, for
    /// [`OrderStrategy::Auto`], whether the good-function build is sifted
    /// once). Execution-only: every analysis result is bit-identical across
    /// strategies, only cost moves. The default,
    /// [`OrderStrategy::Identity`], reproduces the declared input order.
    pub order: OrderStrategy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            selective_trace: true,
            table1: true,
            gc_threshold: 2_000_000,
            gc_growth: 4.0,
            budget: BudgetConfig::UNLIMITED,
            order: OrderStrategy::Identity,
        }
    }
}

/// Below this table size the adaptive `gc_growth` trigger stays quiet:
/// collecting a few-hundred-node table costs more than it frees.
const GC_TABLE_FLOOR: usize = 1 << 10;

/// [`OrderStrategy::Auto`] never sifts tables smaller than this: a Rudell
/// pass over a few thousand nodes costs more than any order could save.
const SIFT_TABLE_FLOOR: usize = 1 << 12;

/// The result of analysing one fault: the complete test set and the exact
/// metrics derived from it.
///
/// The `NodeId` handles reference the engine's BDD manager and stay valid
/// until the *next* call to [`DiffProp::analyze`] (which may garbage-collect);
/// the scalar fields are eagerly computed and always safe to keep.
#[derive(Debug, Clone)]
pub struct FaultAnalysis {
    /// The fault analysed.
    pub fault: Fault,
    /// Difference function observed at each primary output (output order).
    /// This is the complete test set *for that output*.
    pub po_deltas: Vec<NodeId>,
    /// Union over outputs: the complete test set of the fault.
    pub test_set: NodeId,
    /// Exact detection probability: `|test_set| / 2^n`.
    pub detectability: f64,
    /// Exact number of detecting vectors (when it fits in `u128`,
    /// i.e. circuits of at most 127 inputs).
    pub test_count: Option<u128>,
    /// `observable_outputs[k]` is `true` when the fault is visible at output
    /// `k` for some vector.
    pub observable_outputs: Vec<bool>,
    /// Whether the faulty function *at the site* is a constant — for a
    /// bridging fault this is the paper's §4.2 test for "exhibits stuck-at
    /// behaviour". Always `true` for stuck-at faults.
    pub site_function_constant: bool,
    /// Gate deltas the propagation loop computed for this fault's pass
    /// (selective trace skips do not count, and a four-NAND XOR quad
    /// propagated as one XOR counts once). A member of a region pass
    /// ([`DiffProp::try_analyze_stuck_at_batch`]) reports the count of its
    /// root's inversion pass, so in a sweep the value follows the region
    /// plan (`SweepConfig::batch`), but never thread count or claim order.
    pub gates_propagated: u32,
    /// Ternary fixpoint sweeps a feedback-bridge analysis ran before the
    /// bridged wire stabilised. Zero for every acyclic fault model (single
    /// and multiple stuck-at, non-feedback bridges), whose one-pass
    /// propagation needs no iteration.
    pub fixpoint_iterations: u32,
    /// Fraction of input vectors under which a feedback-bridge's wired value
    /// never settles (residual X after the fixpoint — the loop oscillates).
    /// Oscillating vectors are *excluded* from the test set: only vectors
    /// with a definite output difference count as detections. Zero for
    /// acyclic fault models.
    pub oscillation_density: f64,
}

impl FaultAnalysis {
    /// `true` when at least one input vector detects the fault.
    pub fn is_detectable(&self) -> bool {
        !self.test_set.is_false()
    }

    /// Number of primary outputs at which the fault is observable.
    pub fn num_observable(&self) -> usize {
        self.observable_outputs.iter().filter(|&&b| b).count()
    }
}

/// Iteration cap for the feedback-bridge ternary fixpoint. The dual-rail
/// Kleene iteration is monotone, so real netlists stabilise in a handful of
/// sweeps (roughly the loop depth plus two); the cap turns a pathological
/// symbolic chain into a typed [`AnalysisError::FixpointDiverged`] instead
/// of a hang.
const MAX_FIXPOINT_ITERS: u32 = 64;

/// Dual-rail ternary value of a net: `.0` is the set of input vectors where
/// the net is definitely 1, `.1` where it is definitely 0; vectors in
/// neither set carry X. A fully defined net has `.0 = f` and `.1 = ¬f`.
type Rails = (NodeId, NodeId);

/// Kleene (ternary) evaluation of one gate over dual-rail fanins: the
/// output is definite exactly on the vectors where its inputs force it
/// (a definite 0 into an AND decides the output even if other inputs
/// are X, and so on).
fn ternary_gate(m: &mut Manager, kind: GateKind, fanins: &[Rails]) -> Rails {
    match kind {
        GateKind::And | GateKind::Nand => {
            let mut hi = NodeId::TRUE;
            let mut lo = NodeId::FALSE;
            for &(h, l) in fanins {
                hi = m.and(hi, h);
                lo = m.or(lo, l);
            }
            if matches!(kind, GateKind::Nand) {
                (lo, hi)
            } else {
                (hi, lo)
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut hi = NodeId::FALSE;
            let mut lo = NodeId::TRUE;
            for &(h, l) in fanins {
                hi = m.or(hi, h);
                lo = m.and(lo, l);
            }
            if matches!(kind, GateKind::Nor) {
                (lo, hi)
            } else {
                (hi, lo)
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // Parity is definite only where every input is: no single
            // definite input can decide an XOR.
            let mut defined = NodeId::TRUE;
            let mut v = NodeId::FALSE;
            for &(h, l) in fanins {
                let d = m.or(h, l);
                defined = m.and(defined, d);
                v = m.xor(v, h);
            }
            let nv = m.not(v);
            let hi = m.and(defined, v);
            let lo = m.and(defined, nv);
            if matches!(kind, GateKind::Xnor) {
                (lo, hi)
            } else {
                (hi, lo)
            }
        }
        GateKind::Not => (fanins[0].1, fanins[0].0),
        GateKind::Buf => fanins[0],
    }
}

/// Initialised fault-site state handed to the propagation core.
#[derive(Debug, Default)]
struct SiteInit {
    /// Net-level pinned differences, keyed by net index.
    deltas: HashMap<usize, NodeId>,
    /// Pin-level pinned differences, keyed by (sink gate index, pin).
    branch_deltas: HashMap<(usize, usize), NodeId>,
    /// Nets whose differences must never be recomputed.
    site_nets: BTreeSet<usize>,
    /// Gates awaiting processing, in topological (index) order.
    worklist: BTreeSet<usize>,
    /// Nets through which every fault effect must flow (the stuck net, a
    /// branch's sink gate, a bridge's two wires). A primary output can see
    /// the fault only if it lies in the fanout cone of one of these, so
    /// outputs outside every cone carry a structurally ⊥ difference.
    flow_nets: Vec<usize>,
}

/// The Difference Propagation analyser for one circuit.
///
/// Thawed from a frozen snapshot of the good functions, built once, it
/// analyses any number of faults against them. See the [crate
/// documentation](crate) for the method and an end-to-end example.
#[derive(Debug)]
pub struct DiffProp<'c> {
    circuit: &'c Circuit,
    good: GoodFunctions,
    config: EngineConfig,
    /// Node-table size right after the last collection (or the thaw); the
    /// reference point for [`EngineConfig::gc_growth`].
    gc_baseline: usize,
    /// Transitive-fanout relation, built once per engine. Drives the
    /// cone-restricted propagation: per fault, the set of live primary
    /// outputs (those in a fault site's fanout cone).
    reach: Reachability,
    /// Per-net cache of "reaches at least one primary output". Gates with a
    /// `false` entry compute nothing observable, so the propagation frontier
    /// never enters them.
    feeds_output: Vec<bool>,
    /// The circuit's four-NAND XORs, found once per engine. On the default
    /// path a quad with no fault site inside propagates as one XOR gate.
    quads: XorQuads,
    /// Optional telemetry sink. Strictly observational: attaching one never
    /// changes an analysis result, only records spans and counters. The
    /// engine touches it once per propagation (plus once per gate at
    /// [`dp_telemetry::TelemetryLevel::Detailed`]).
    telemetry: Option<SharedCollector>,
}

impl<'c> DiffProp<'c> {
    /// Creates an analyser with default configuration and declared-order
    /// variables.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_config(circuit, EngineConfig::default())
    }

    /// Creates an analyser with an explicit configuration: the one
    /// lifecycle of [`DiffProp::build_snapshot`] then
    /// [`DiffProp::from_snapshot`], with the build run *without* a budget
    /// (construction cannot fail) and [`EngineConfig::budget`] armed for
    /// subsequent fallible analyses. Use [`DiffProp::build_snapshot`] to
    /// bound the build too.
    pub fn with_config(circuit: &'c Circuit, config: EngineConfig) -> Self {
        let unlimited = EngineConfig {
            budget: BudgetConfig::UNLIMITED,
            ..config
        };
        let snapshot =
            Self::build_snapshot(circuit, unlimited).expect("unlimited budget cannot trip");
        Self::from_snapshot(circuit, &snapshot, config)
    }

    /// Attaches a telemetry collector. Observation-only by contract: the
    /// golden and property layers pin that analyses with and without a
    /// collector are bit-identical. The collector is shared (sweep drivers
    /// keep a handle to record their own spans into the same sink).
    pub fn attach_collector(&mut self, collector: SharedCollector) {
        self.telemetry = Some(collector);
    }

    /// Builds the good functions once and freezes them into an immutable,
    /// shareable [`GoodSnapshot`] — the first half of every engine's
    /// lifecycle. Honours [`EngineConfig::budget`] during the build.
    ///
    /// Returns [`AnalysisError::BudgetExceeded`] when the circuit's good
    /// functions alone exceed the budget — analysis cannot even start, and
    /// the caller should fall back to simulation for the whole circuit.
    ///
    /// The build runs the strategy's static order, then, for
    /// [`OrderStrategy::Auto`] over `SIFT_TABLE_FLOOR` nodes, one Rudell
    /// sift. The sift is budget-exempt (`prop_sift_budget.rs` pins it) and
    /// preserves every function, so it moves cost only, never a result. An
    /// unsifted table is collected before freezing so the base carries only
    /// the live good functions, not build intermediates (a sift already
    /// collects).
    pub fn build_snapshot(
        circuit: &Circuit,
        config: EngineConfig,
    ) -> Result<GoodSnapshot, AnalysisError> {
        Self::build_snapshot_counted(circuit, config)
            .map_err(|(err, _)| AnalysisError::BudgetExceeded(err))
    }

    /// [`DiffProp::build_snapshot`], whose error also carries the counters
    /// of the build that tripped.
    pub(crate) fn build_snapshot_counted(
        circuit: &Circuit,
        config: EngineConfig,
    ) -> Result<GoodSnapshot, (BddError, Box<ManagerStats>)> {
        let order = config.order;
        let mut good =
            GoodFunctions::try_build_counted(circuit, &order.resolve(circuit), config.budget)?;
        if order.autosifts() && good.num_nodes() > SIFT_TABLE_FLOOR {
            good.sift();
        } else {
            good.gc();
        }
        Ok(good.freeze())
    }

    /// Creates an analyser over a thawed copy of a frozen snapshot: the good
    /// functions resolve against the shared base, and everything this engine
    /// allocates lands in a private delta manager, whose operation cache
    /// starts at the size an engine runs it at. Infallible — the expensive,
    /// fallible work happened in [`DiffProp::build_snapshot`].
    ///
    /// Every analysis result depends only on the snapshot's functions (OBDD
    /// canonicity), not on the variable order they were built in.
    pub fn from_snapshot(
        circuit: &'c Circuit,
        snapshot: &GoodSnapshot,
        config: EngineConfig,
    ) -> Self {
        let mut good = snapshot.thaw();
        good.manager_mut().set_budget(config.budget);
        let gc_baseline = good.num_nodes();
        let reach = Reachability::compute(circuit);
        let feeds_output = reach.feeds_output_flags(circuit);
        let quads = find_xor_quads(circuit);
        DiffProp {
            circuit,
            good,
            config,
            gc_baseline,
            reach,
            feeds_output,
            quads,
            telemetry: None,
        }
    }

    /// Collects garbage if either trigger fires: the absolute
    /// [`EngineConfig::gc_threshold`], or the adaptive
    /// [`EngineConfig::gc_growth`] multiple of the post-collection baseline.
    fn maybe_gc(&mut self) {
        let n = self.good.num_nodes();
        let adaptive =
            (self.gc_baseline as f64 * self.config.gc_growth).min(usize::MAX as f64) as usize;
        if n > self.config.gc_threshold || n > adaptive.max(GC_TABLE_FLOOR) {
            self.good.gc();
            self.gc_baseline = self.good.num_nodes();
        }
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The shared good functions (and BDD manager).
    pub fn good(&self) -> &GoodFunctions {
        &self.good
    }

    /// Analyses one fault: initialises its difference function(s) and
    /// propagates them to the primary outputs, producing the complete test
    /// set and the exact metrics.
    ///
    /// Always exact: any configured [`EngineConfig::budget`] is lifted for
    /// the duration of the call and re-armed afterwards, so this never
    /// degrades an answer (it may run unboundedly long instead — use
    /// [`DiffProp::try_analyze`] for bounded behaviour).
    ///
    /// Any `NodeId` in a previously returned [`FaultAnalysis`] may be
    /// invalidated by this call (the engine garbage-collects when past
    /// [`EngineConfig::gc_threshold`]).
    pub fn analyze(&mut self, fault: &Fault) -> FaultAnalysis {
        let saved = self.good.manager().budget();
        self.good.manager_mut().set_budget(BudgetConfig::UNLIMITED);
        let analysis = self
            .try_analyze(fault)
            .expect("unlimited budget cannot trip");
        self.good.manager_mut().set_budget(saved);
        analysis
    }

    /// Budget-honouring variant of [`DiffProp::analyze`].
    ///
    /// Under the configured [`EngineConfig::budget`] this either returns an
    /// analysis **bit-identical** to the unbudgeted engine's, or
    /// [`AnalysisError::BudgetExceeded`] — never a silently wrong answer.
    /// After an error the engine has recovered (good functions collected,
    /// budget window reset) and is immediately reusable for the next fault.
    pub fn try_analyze(&mut self, fault: &Fault) -> Result<FaultAnalysis, AnalysisError> {
        if let Fault::Bridging(f) = fault {
            // A feedback pair (one wire in the other's fanout cone) breaks
            // the one-pass delta propagation: the wired value depends on
            // itself through the loop. Route it through the ternary fixpoint
            // instead.
            if self.reach.reaches(f.a, f.b) || self.reach.reaches(f.b, f.a) {
                return self.try_analyze_bridge_fixpoint(f);
            }
        }
        let (po_deltas, gates_propagated, site_function_constant) = self.propagate_fault(fault);
        let mut analysis = self.finish(fault.clone(), po_deltas, gates_propagated);
        analysis.site_function_constant = site_function_constant;
        match self.check_budget() {
            Some(err) => Err(err),
            None => Ok(analysis),
        }
    }

    /// The propagation step of a one-pass analysis: collects garbage if
    /// due, opens a budget window, initialises the site differences and
    /// propagates them. Returns the difference at each primary output, the
    /// gate count and whether the site function is constant. The caller
    /// finishes the result and checks the budget.
    fn propagate_fault(&mut self, fault: &Fault) -> (Vec<NodeId>, u32, bool) {
        self.maybe_gc();
        self.good.manager_mut().reset_budget_window();

        // 1. Initialise site differences. A stuck-at component pins a
        // constant, so only a bridge's wired value can make the site
        // function non-constant.
        let mut init = SiteInit::default();
        let mut site_function_constant = true;
        match fault {
            Fault::StuckAt(f) => self.init_stuck_at(f, &mut init),
            Fault::Bridging(f) => {
                let fa = self.good.node(f.a);
                let fb = self.good.node(f.b);
                let m = self.good.manager_mut();
                let wired = match f.kind {
                    BridgeKind::And => m.and(fa, fb),
                    BridgeKind::Or => m.or(fa, fb),
                };
                site_function_constant = m.is_constant(wired);
                let da = m.xor(fa, wired);
                let db = m.xor(fb, wired);
                init.deltas.insert(f.a.index(), da);
                init.deltas.insert(f.b.index(), db);
                init.site_nets.insert(f.a.index());
                init.site_nets.insert(f.b.index());
                for n in [f.a, f.b] {
                    init.flow_nets.push(n.index());
                    for &(sink, _) in self.circuit.fanout(n) {
                        if self.feeds_output[sink.index()] {
                            init.worklist.insert(sink.index());
                        }
                    }
                }
            }
            Fault::MultiStuckAt(mf) => {
                // Every component pins its site, and the fronts propagate —
                // and possibly mask each other — in one combined pass. A
                // downstream faulted site stays pinned whatever reaches it
                // from upstream, as in Bossen & Hong's multiple-fault model.
                for c in mf.components() {
                    self.init_stuck_at(c, &mut init);
                }
            }
        }

        // 2. Propagate them to the outputs.
        let (po_deltas, gates_propagated) = self.propagate(init);
        (po_deltas, gates_propagated, site_function_constant)
    }

    /// Post-analysis budget check and recovery. A tripped manager never
    /// allocates nodes or caches results, so every function it still holds
    /// is exact; recovery is just dropping the abandoned intermediates and
    /// opening a fresh window.
    fn check_budget(&mut self) -> Option<AnalysisError> {
        let err = self.good.manager().budget_exceeded()?;
        self.good.manager_mut().reset_budget_window();
        self.good.gc();
        self.gc_baseline = self.good.num_nodes();
        Some(AnalysisError::BudgetExceeded(err))
    }

    /// The shared result tail of every analysis: the complete test set is
    /// the union of the per-output differences, built by one n-ary
    /// [`Manager::or_many`] descent, and the exact metrics are read off
    /// it. The acyclic defaults (constant site, no fixpoint, no
    /// oscillation) are left for the caller to override.
    fn finish(
        &mut self,
        fault: Fault,
        po_deltas: Vec<NodeId>,
        gates_propagated: u32,
    ) -> FaultAnalysis {
        let test_set = self.good.manager_mut().or_many(&po_deltas);
        self.finish_with(fault, po_deltas, test_set, gates_propagated)
    }

    /// [`DiffProp::finish`] for a caller that already holds the union of
    /// `po_deltas`.
    fn finish_with(
        &mut self,
        fault: Fault,
        po_deltas: Vec<NodeId>,
        test_set: NodeId,
        gates_propagated: u32,
    ) -> FaultAnalysis {
        let (detectability, test_count) = self.good.manager().density_and_count(test_set);
        let observable_outputs = po_deltas.iter().map(|d| !d.is_false()).collect();
        FaultAnalysis {
            fault,
            po_deltas,
            test_set,
            detectability,
            test_count,
            observable_outputs,
            site_function_constant: true,
            gates_propagated,
            fixpoint_iterations: 0,
            oscillation_density: 0.0,
        }
    }

    /// Analyses a bridging fault by **ternary fixpoint**: both wires are
    /// overridden to the wired value `w`, and the monotone dual-rail Kleene
    /// iteration `w ← wired(driven_a, driven_b)` runs from all-X until the
    /// bridged value stabilises.
    ///
    /// This is the engine's path for feedback pairs
    /// ([`dp_faults::BridgeTopology::Feedback`]), where the wired value
    /// feeds back into its own computation and the one-pass delta
    /// propagation does not apply. On a non-feedback pair it converges in
    /// exactly two sweeps to the same faulty functions as the one-pass
    /// path, so every scalar is bit-identical (OBDD canonicity).
    ///
    /// Each sweep is event-driven: it re-seeds the gates reading either
    /// wire and re-evaluates a gate only when one of its fanin rails
    /// changed, so `gates_propagated` counts real gate evaluations, never
    /// more than one per net of the wires' fanout cones per sweep.
    ///
    /// Vectors whose loop never settles (residual X on the bridged wire
    /// after the fixpoint) are reported via
    /// [`FaultAnalysis::oscillation_density`] and **excluded from the test
    /// set**: only definite output differences count as detections — the
    /// pessimistic reading of an oscillating wire.
    ///
    /// Honours the configured budget like [`DiffProp::try_analyze`]; a loop
    /// that fails to stabilise within the iteration cap returns
    /// [`AnalysisError::FixpointDiverged`] with the engine recovered.
    pub fn try_analyze_bridge_fixpoint(
        &mut self,
        fault: &BridgingFault,
    ) -> Result<FaultAnalysis, AnalysisError> {
        self.maybe_gc();
        self.good.manager_mut().reset_budget_window();
        let circuit = self.circuit;
        let (a, b) = (fault.a.index(), fault.b.index());
        // Dual-rail state per net; `None` is fault-free and reads as the
        // net's (fully defined) good function. Only nets in the wires'
        // fanout cones ever leave `None`.
        let mut state: Vec<Option<Rails>> = vec![None; circuit.num_nets()];
        // Gates awaiting re-evaluation: the dirty flag keeps each queued at
        // most once, and the min-heap pops them in ascending (topological)
        // index order, so every fanin is final when a gate is evaluated.
        let mut dirty = vec![false; circuit.num_nets()];
        let mut queue: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
        let enqueue_fanout = |net: NetId, dirty: &mut [bool], queue: &mut BinaryHeap<_>| {
            for &(sink, _) in circuit.fanout(net) {
                if !std::mem::replace(&mut dirty[sink.index()], true) {
                    queue.push(Reverse(sink.index()));
                }
            }
        };
        let mut gates_propagated: u32 = 0;
        let mut w: Rails = (NodeId::FALSE, NodeId::FALSE); // all-X start
        let mut iterations: u32 = 0;
        let mut converged = false;
        while iterations < MAX_FIXPOINT_ITERS {
            iterations += 1;
            state[a] = Some(w);
            state[b] = Some(w);
            enqueue_fanout(fault.a, &mut dirty, &mut queue);
            enqueue_fanout(fault.b, &mut dirty, &mut queue);
            while let Some(Reverse(idx)) = queue.pop() {
                dirty[idx] = false;
                if idx == a || idx == b {
                    continue; // pinned to the wired value
                }
                // A net in a wire's fanout cone other than the wires
                // themselves is always gate-driven (a primary input is
                // reachable only from itself), so this evaluates its gate
                // under the override.
                let net = NetId::from_index(idx);
                let rails = self.driven_rails(net, &state);
                gates_propagated += 1;
                if rails != state[idx].unwrap_or_else(|| self.good_rails(net)) {
                    state[idx] = Some(rails);
                    enqueue_fanout(net, &mut dirty, &mut queue);
                }
            }
            let da = self.driven_rails(fault.a, &state);
            let db = self.driven_rails(fault.b, &state);
            let m = self.good.manager_mut();
            let w_next = match fault.kind {
                BridgeKind::And => (m.and(da.0, db.0), m.or(da.1, db.1)),
                BridgeKind::Or => (m.or(da.0, db.0), m.and(da.1, db.1)),
            };
            // A tripped manager hands back unusable results; bail out before
            // they could fake a convergence.
            if let Some(err) = self.check_budget() {
                return Err(err);
            }
            if w_next == w {
                // The sweep above already ran under this very override, so
                // the state is a consistent solution of the loop equations.
                converged = true;
                break;
            }
            w = w_next;
        }
        if !converged {
            self.good.gc();
            self.gc_baseline = self.good.num_nodes();
            return Err(AnalysisError::FixpointDiverged { iterations });
        }

        // Definite output differences only: faulty definitely 1 where the
        // good circuit says 0, or definitely 0 where it says 1. A net still
        // at `None` never saw the fault.
        let po_deltas: Vec<NodeId> = circuit
            .outputs()
            .iter()
            .map(|&o| match state[o.index()] {
                Some((hi, lo)) => {
                    let g = self.good.node(o);
                    let m = self.good.manager_mut();
                    let ng = m.not(g);
                    let d1 = m.and(hi, ng);
                    let d0 = m.and(lo, g);
                    m.or(d1, d0)
                }
                None => NodeId::FALSE,
            })
            .collect();
        let mut analysis = self.finish(Fault::Bridging(*fault), po_deltas, gates_propagated);
        let m = self.good.manager_mut();
        let defined = m.or(w.0, w.1);
        let oscillating = m.not(defined);
        analysis.oscillation_density = m.density(oscillating);
        analysis.fixpoint_iterations = iterations;
        // Constant in the definite sense: the wire settles to the same
        // value on *every* vector — the §4.2 stuck-at-behaviour test.
        analysis.site_function_constant = w.0 == NodeId::TRUE || w.1 == NodeId::TRUE;
        if let Some(err) = self.check_budget() {
            return Err(err);
        }
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            tel.count_span(SpanKind::GateProp, gates_propagated as u64);
            tel.add(CounterKind::GatesPropagated, gates_propagated as u64);
            tel.record_hist(HistKind::FixpointIterations, iterations as u64);
            if analysis.oscillation_density > 0.0 {
                tel.add(CounterKind::OscillatingFaults, 1);
            }
        }
        Ok(analysis)
    }

    /// The dual-rail value a net's *driver* produces under `state`
    /// (overridden fanins read their rails, fault-free fanins their good
    /// functions). A primary input drives its good rails.
    fn driven_rails(&mut self, net: NetId, state: &[Option<Rails>]) -> Rails {
        let circuit = self.circuit;
        let Driver::Gate { kind, fanins } = circuit.driver(net) else {
            return self.good_rails(net);
        };
        let rails: Vec<Rails> = fanins
            .iter()
            .map(|f| state[f.index()].unwrap_or_else(|| self.good_rails(*f)))
            .collect();
        ternary_gate(self.good.manager_mut(), *kind, &rails)
    }

    /// A fault-free net's dual rails: `(f, ¬f)` — fully defined.
    fn good_rails(&self, net: NetId) -> Rails {
        let g = self.good.node(net);
        (g, self.good.manager().not(g))
    }

    /// Analyses a **batch of single stuck-at faults that share one
    /// fanout-free region root** in one propagation pass, returning one
    /// independent [`FaultAnalysis`] per fault, in input order.
    ///
    /// Every fault in the region of root `r` ([`Reachability::region_root`]
    /// of its flow net) reaches the outputs only through `r`, and every net
    /// between its site and `r` has fanout 1 and carries no other fault. So
    /// the faulty circuit is the good one with `r` replaced by `r ⊕ Δ_r`,
    /// where `Δ_r` is the fault's own difference at `r`, and its output
    /// differences are `Δ_r ∧ S_o`, with `S_o` the output difference of
    /// inverting `r`. The pass propagates `⊤` from `r` once for every `S_o`
    /// and builds `U = ⋁ S_o` once. Each member then walks its difference
    /// from its site to `r` along the single-fanout chain (Table 1, one
    /// differing pin per gate) and gets `Δ_r ∧ S_o` per output and
    /// `Δ_r ∧ U` as its test set. Both polarities of one site are two
    /// members. The result is **bit-identical** to analysing the fault
    /// alone (OBDD canonicity: identical functions give identical scalars).
    ///
    /// `gates_propagated` reports the `⊤` pass's count on every member (the
    /// per-fault split is not observable from a shared pass); the walks are
    /// not counted.
    ///
    /// On [`AnalysisError::BudgetExceeded`] the engine has recovered and the
    /// caller should retry the faults individually — a batch can trip a
    /// window its members would individually fit.
    ///
    /// # Panics
    ///
    /// Panics if `faults` is empty, repeats a fault (a site with the same
    /// stuck value), or has members in two fanout-free regions.
    pub fn try_analyze_stuck_at_batch(
        &mut self,
        faults: &[StuckAtFault],
    ) -> Result<Vec<FaultAnalysis>, AnalysisError> {
        assert!(!faults.is_empty(), "a batch needs at least one fault");
        if faults.len() == 1 {
            return Ok(vec![self.try_analyze(&Fault::StuckAt(faults[0]))?]);
        }
        let root = self.reach.region_root(faults[0].site.flow_net());
        for (i, f) in faults.iter().enumerate() {
            assert!(
                self.reach.region_root(f.site.flow_net()) == root,
                "batched faults must share one fanout-free region root: {f} is outside {root}'s region"
            );
            assert!(!faults[..i].contains(f), "a batch repeats the fault {f}");
        }
        self.maybe_gc();
        self.good.manager_mut().reset_budget_window();
        let mut init = SiteInit::default();
        self.init_site(FaultSite::Net(root), NodeId::TRUE, &mut init);
        let (inversion, gates_propagated) = self.propagate(init);
        let union = self.good.manager_mut().or_many(&inversion);
        let mut analyses = Vec::with_capacity(faults.len());
        for f in faults {
            let at_root = self.delta_at_root(f, root);
            let m = self.good.manager_mut();
            let po_deltas = inversion
                .iter()
                .map(|&s| if s.is_false() { s } else { m.and(at_root, s) })
                .collect();
            let test_set = m.and(at_root, union);
            analyses.push(self.finish_with(
                Fault::StuckAt(*f),
                po_deltas,
                test_set,
                gates_propagated,
            ));
        }
        // A window the shared pass tripped stays tripped through the
        // members' walks, so this one check covers both.
        match self.check_budget() {
            Some(err) => Err(err),
            None => Ok(analyses),
        }
    }

    /// A stuck-at fault's difference at its region root `root`: its
    /// excitation, carried gate by gate along the single-fanout chain from
    /// its site (a branch enters its sink at one pin) with every other pin
    /// fault-free.
    fn delta_at_root(&mut self, f: &StuckAtFault, root: NetId) -> NodeId {
        let lit = self.excitation(f);
        let (mut net, mut delta) = match f.site {
            FaultSite::Net(n) => (n, lit),
            FaultSite::Branch(b) => (b.sink, self.pin_delta(b.sink, b.pin, lit)),
        };
        while net != root && !delta.is_false() {
            let (sink, pin) = self.circuit.fanout(net)[0];
            delta = self.pin_delta(sink, pin, delta);
            net = sink;
        }
        delta
    }

    /// The output difference of `gate` when only input `pin` differs, by
    /// `delta`.
    fn pin_delta(&mut self, gate: NetId, pin: usize, delta: NodeId) -> NodeId {
        let Driver::Gate { kind, fanins } = self.circuit.driver(gate) else {
            unreachable!("a fanout sink is a gate");
        };
        let goods: Vec<NodeId> = fanins.iter().map(|&f| self.good.node(f)).collect();
        let mut deltas = vec![NodeId::FALSE; fanins.len()];
        deltas[pin] = delta;
        let m = self.good.manager_mut();
        if self.config.table1 {
            delta_output(m, *kind, &goods, &deltas)
        } else {
            naive_delta_output(m, *kind, &goods, &deltas)
        }
    }

    /// A stuck-at fault's excitation `f_s ⊕ v`: where the line differs
    /// from its stuck value.
    fn excitation(&self, f: &StuckAtFault) -> NodeId {
        let fs = self.good.node(f.site.net());
        if f.value {
            self.good.manager().not(fs)
        } else {
            fs
        }
    }

    /// Adds one stuck-at component's pinned difference, its excitation,
    /// to a site initialisation.
    fn init_stuck_at(&mut self, f: &StuckAtFault, init: &mut SiteInit) {
        let delta = self.excitation(f);
        self.init_site(f.site, delta, init);
    }

    /// Pins `delta` on a site: a net's difference, or a branch's on its
    /// sink pin.
    fn init_site(&self, site: FaultSite, delta: NodeId, init: &mut SiteInit) {
        init.flow_nets.push(site.flow_net().index());
        match site {
            FaultSite::Net(n) => {
                init.deltas.insert(n.index(), delta);
                init.site_nets.insert(n.index());
                for &(sink, _) in self.circuit.fanout(n) {
                    if self.feeds_output[sink.index()] {
                        init.worklist.insert(sink.index());
                    }
                }
                // A primary-input net that is also an output is directly
                // observable; po_deltas picks it up from the map.
            }
            FaultSite::Branch(b) => {
                // A branch fault flows exclusively through its sink gate.
                init.branch_deltas.insert((b.sink.index(), b.pin), delta);
                if self.feeds_output[b.sink.index()] {
                    init.worklist.insert(b.sink.index());
                }
            }
        }
    }

    /// Event-driven propagation in topological (index) order, returning the
    /// difference at each primary output and the number of gate deltas
    /// computed. Nets are stored fanins-before-fanouts, so ascending index
    /// order guarantees every fanin difference is final when a gate is
    /// processed.
    ///
    /// Cone-restricted: a primary output outside the fanout cone of every
    /// [`SiteInit::flow_nets`] entry carries a structurally ⊥ difference, so
    /// it is not looked up; gates that feed no primary output never enter
    /// the frontier. Both skips elide work whose result is the identity, so
    /// every returned value is bit-identical to the unrestricted engine's.
    ///
    /// On the default path (Table 1 with selective trace) a *clean* XOR
    /// quad — no site net inside it, no pinned branch into it — runs as one
    /// XOR gate: its output gets `Δa ⊕ Δc` and counts as one gate, and its
    /// internal nets only hand the output to the worklist. The quad
    /// computes `a ⊕ c` whatever its inputs carry, so this is Table 1's XOR
    /// row and bit-identical to the gate-by-gate result.
    fn propagate(&mut self, init: SiteInit) -> (Vec<NodeId>, u32) {
        let circuit = self.circuit;
        // Reading the level once keeps the per-gate path to a plain branch;
        // only `Detailed` pays for per-gate clock reads.
        let detailed = self
            .telemetry
            .as_ref()
            .is_some_and(|t| t.borrow().detailed());
        let mut gates_propagated: u32 = 0;
        let SiteInit {
            mut deltas,
            branch_deltas,
            site_nets,
            mut worklist,
            flow_nets,
        } = init;
        let po_live: Vec<bool> = circuit
            .outputs()
            .iter()
            .map(|&o| {
                flow_nets
                    .iter()
                    .any(|&f| self.reach.reaches(NetId::from_index(f), o))
            })
            .collect();
        let shortcut = self.config.table1 && self.config.selective_trace;
        let dirty = if shortcut {
            self.dirty_quads(&site_nets, &branch_deltas)
        } else {
            Vec::new()
        };
        let mut goods_buf: Vec<NodeId> = Vec::new();
        let mut deltas_buf: Vec<NodeId> = Vec::new();
        while let Some(idx) = worklist.pop_first() {
            if site_nets.contains(&idx) {
                continue; // site differences are fixed by the fault model
            }
            let net = NetId::from_index(idx);
            let quad = match self.quads.member(net) {
                Some(q) if shortcut && !dirty.contains(&q) => Some(&self.quads.quads()[q]),
                _ => None,
            };
            // A clean quad is one XOR of its inputs; no branch is pinned
            // into it, so the pin lookups below all miss.
            let (kind, fanins): (GateKind, &[NetId]) = match (quad, circuit.driver(net)) {
                (Some(q), _) if q.output != net => {
                    worklist.insert(q.output.index());
                    continue;
                }
                (Some(q), _) => (GateKind::Xor, &q.inputs),
                (None, Driver::Gate { kind, fanins }) => (*kind, fanins),
                (None, Driver::Input) => continue,
            };
            goods_buf.clear();
            deltas_buf.clear();
            for (pin, f) in fanins.iter().enumerate() {
                goods_buf.push(self.good.node(*f));
                // A pinned branch overrides whatever its stem carries.
                let d = branch_deltas
                    .get(&(idx, pin))
                    .or_else(|| deltas.get(&f.index()))
                    .copied()
                    .unwrap_or(NodeId::FALSE);
                deltas_buf.push(d);
            }
            if self.config.selective_trace && deltas_buf.iter().all(|d| d.is_false()) {
                continue;
            }
            let gate_t0 = detailed.then(std::time::Instant::now);
            let m = self.good.manager_mut();
            let dg = if self.config.table1 {
                delta_output(m, kind, &goods_buf, &deltas_buf)
            } else {
                naive_delta_output(m, kind, &goods_buf, &deltas_buf)
            };
            gates_propagated += 1;
            if let Some(t0) = gate_t0 {
                if let Some(tel) = &self.telemetry {
                    tel.borrow_mut().finish(SpanKind::GateProp, Some(t0));
                }
            }
            // Selective trace stops the frontier at zero differences; with
            // it off, the whole fanout cone is processed (the exhaustive
            // alternative the paper's §3 improves on).
            if !dg.is_false() || !self.config.selective_trace {
                deltas.insert(idx, dg);
                for &(sink, _) in circuit.fanout(net) {
                    if self.feeds_output[sink.index()] {
                        worklist.insert(sink.index());
                    }
                }
            }
        }

        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            if !detailed {
                // Detailed mode already counted each gate span when timing it.
                tel.count_span(SpanKind::GateProp, gates_propagated as u64);
            }
            tel.add(CounterKind::GatesPropagated, gates_propagated as u64);
        }
        // A branch fault never reaches its own stem's PO directly, and an
        // output off every fault cone is ⊥ without consulting the map.
        let po_deltas = circuit
            .outputs()
            .iter()
            .zip(&po_live)
            .map(|(o, &live)| {
                if live {
                    deltas.get(&o.index()).copied().unwrap_or(NodeId::FALSE)
                } else {
                    NodeId::FALSE
                }
            })
            .collect();
        (po_deltas, gates_propagated)
    }

    /// The quads a fault cannot shortcut: those with a site net inside, or
    /// with a pinned branch into one of their gates. They run gate by gate.
    fn dirty_quads(
        &self,
        site_nets: &BTreeSet<usize>,
        branch_deltas: &HashMap<(usize, usize), NodeId>,
    ) -> Vec<usize> {
        let inside = site_nets
            .iter()
            .filter_map(|&n| self.quads.owner_of(NetId::from_index(n)));
        let pinned = branch_deltas
            .keys()
            .filter_map(|&(sink, _)| self.quads.member(NetId::from_index(sink)));
        inside.chain(pinned).collect()
    }

    /// One explicit test vector for the fault, or `None` if undetectable.
    pub fn pick_test(&self, analysis: &FaultAnalysis) -> Option<Vec<bool>> {
        self.good.manager().pick_minterm(analysis.test_set)
    }

    /// The cubes of the complete test set (each cube's completions are all
    /// tests).
    pub fn test_cubes(&self, analysis: &FaultAnalysis) -> Vec<Cube> {
        self.good.manager().cubes(analysis.test_set).collect()
    }

    /// The syndrome of a net (fraction of vectors setting it to 1).
    pub fn syndrome(&mut self, n: NetId) -> f64 {
        self.good.syndrome(n)
    }

    /// The paper's detectability upper bound for a stuck-at fault: the
    /// syndrome of the faulted line (stuck-at-0) or its complement
    /// (stuck-at-1). `None` for bridging faults, which have no single-line
    /// excitation bound.
    pub fn detectability_bound(&mut self, fault: &Fault) -> Option<f64> {
        match fault {
            Fault::StuckAt(f) => {
                let s = self.good.syndrome(f.site.net());
                Some(if f.value { 1.0 - s } else { s })
            }
            Fault::Bridging(_) => None,
            // A multiple fault has no single-line excitation syndrome.
            Fault::MultiStuckAt(_) => None,
        }
    }

    /// The paper's *adherence* `a = δ / u`: the share of excitation minterms
    /// that are actually tests. `None` for bridging faults or when the bound
    /// is zero (the fault cannot be excited at all).
    pub fn adherence(&mut self, analysis: &FaultAnalysis) -> Option<f64> {
        let u = self.detectability_bound(&analysis.fault)?;
        (u > 0.0).then(|| analysis.detectability / u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_faults::{
        checkpoint_faults, enumerate_nfbfs, BridgingFault, MultiStuckAt, StuckAtFault,
    };
    use dp_netlist::generators::{
        alu74181, c1355_surrogate, c17, c1908_surrogate, c499_surrogate, c95, full_adder,
    };
    use dp_sim::exhaustive_detectability;

    /// DP's exact counts must equal brute-force simulation for every
    /// checkpoint fault of a circuit.
    fn cross_validate_stuck_at(circuit: &Circuit) {
        let mut dp = DiffProp::new(circuit);
        for f in checkpoint_faults(circuit) {
            let fault = Fault::from(f);
            let analysis = dp.analyze(&fault);
            let (det, total) = exhaustive_detectability(circuit, &fault);
            assert_eq!(
                analysis.test_count,
                Some(det as u128),
                "{fault} on {}",
                circuit.name()
            );
            let exact = det as f64 / total as f64;
            assert!((analysis.detectability - exact).abs() < 1e-12);
        }
    }

    fn cross_validate_bridging(circuit: &Circuit) {
        let mut dp = DiffProp::new(circuit);
        for kind in [BridgeKind::And, BridgeKind::Or] {
            for f in enumerate_nfbfs(circuit, kind) {
                let fault = Fault::from(f);
                let analysis = dp.analyze(&fault);
                let (det, _) = exhaustive_detectability(circuit, &fault);
                assert_eq!(
                    analysis.test_count,
                    Some(det as u128),
                    "{fault} on {}",
                    circuit.name()
                );
            }
        }
    }

    #[test]
    fn stuck_at_matches_simulation_c17() {
        cross_validate_stuck_at(&c17());
    }

    #[test]
    fn stuck_at_matches_simulation_full_adder() {
        cross_validate_stuck_at(&full_adder());
    }

    #[test]
    fn stuck_at_matches_simulation_c95() {
        cross_validate_stuck_at(&c95());
    }

    #[test]
    fn bridging_matches_simulation_c17() {
        cross_validate_bridging(&c17());
    }

    #[test]
    fn bridging_matches_simulation_full_adder() {
        cross_validate_bridging(&full_adder());
    }

    #[test]
    fn every_test_vector_detects() {
        let c = c95();
        let mut dp = DiffProp::new(&c);
        for f in checkpoint_faults(&c).into_iter().take(10) {
            let fault = Fault::from(f);
            let analysis = dp.analyze(&fault);
            if let Some(v) = dp.pick_test(&analysis) {
                assert!(dp_sim::detects(&c, &fault, &v), "{fault}");
            }
            // All cube completions are tests.
            for cube in dp.test_cubes(&analysis).into_iter().take(3) {
                assert!(dp_sim::detects(&c, &fault, &cube.to_vector(false)));
                assert!(dp_sim::detects(&c, &fault, &cube.to_vector(true)));
            }
        }
    }

    #[test]
    fn observable_outputs_match_po_deltas() {
        let c = c17();
        let mut dp = DiffProp::new(&c);
        for f in checkpoint_faults(&c) {
            let analysis = dp.analyze(&Fault::from(f));
            for (k, &d) in analysis.po_deltas.iter().enumerate() {
                assert_eq!(analysis.observable_outputs[k], !d.is_false());
            }
            assert!(analysis.num_observable() <= c.num_outputs());
        }
    }

    #[test]
    fn adherence_is_bounded_by_one() {
        let c = c95();
        let mut dp = DiffProp::new(&c);
        for f in checkpoint_faults(&c) {
            let analysis = dp.analyze(&Fault::from(f));
            if let Some(a) = dp.adherence(&analysis) {
                assert!((0.0..=1.0 + 1e-12).contains(&a), "adherence {a}");
            }
        }
    }

    #[test]
    fn po_fault_has_adherence_one() {
        // A stuck-at on a PO net: every excitation vector is a test.
        let c = full_adder();
        let sum = c.outputs()[0];
        let fault = Fault::from(StuckAtFault {
            site: dp_faults::FaultSite::Net(sum),
            value: false,
        });
        // PO nets are not checkpoints, but DP handles any site.
        let mut dp = DiffProp::new(&c);
        let analysis = dp.analyze(&fault);
        let a = dp.adherence(&analysis).expect("stuck-at has a bound");
        assert!((a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn selective_trace_off_agrees() {
        let c = c17();
        let mut dp1 = DiffProp::new(&c);
        let mut dp2 = DiffProp::with_config(
            &c,
            EngineConfig {
                selective_trace: false,
                ..Default::default()
            },
        );
        for f in checkpoint_faults(&c) {
            let a1 = dp1.analyze(&Fault::from(f));
            let a2 = dp2.analyze(&Fault::from(f));
            assert_eq!(a1.test_count, a2.test_count, "{f}");
        }
    }

    #[test]
    fn naive_mode_agrees() {
        let c = full_adder();
        let mut dp1 = DiffProp::new(&c);
        let mut dp2 = DiffProp::with_config(
            &c,
            EngineConfig {
                table1: false,
                ..Default::default()
            },
        );
        for kind in [BridgeKind::And, BridgeKind::Or] {
            for f in enumerate_nfbfs(&c, kind) {
                let a1 = dp1.analyze(&Fault::from(f));
                let a2 = dp2.analyze(&Fault::from(f));
                assert_eq!(a1.test_count, a2.test_count, "{f}");
            }
        }
    }

    #[test]
    fn bridge_site_constant_flag() {
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.not("nx", x).unwrap();
        let g1 = b.gate("g1", GateKind::And, &[x, y]).unwrap();
        let g2 = b.gate("g2", GateKind::Or, &[nx, y]).unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let mut dp = DiffProp::new(&c);
        // x and nx bridged is a feedback pair (nx sits in x's fanout cone):
        // the ternary fixpoint gives w = x AND NOT w, i.e. definite 0 at
        // x=0 and an oscillation at x=1 — not a constant site. At x=0,y=0
        // the wire drags nx to 0 and flips g2, the one definite detection.
        let f = Fault::from(BridgingFault::new(x, nx, BridgeKind::And));
        let analysis = dp.analyze(&f);
        assert!(!analysis.site_function_constant);
        assert_eq!(analysis.detectability, 0.25);
        assert_eq!(analysis.oscillation_density, 0.5, "oscillates iff x=1");
        assert!(analysis.fixpoint_iterations >= 2);
        // x and y bridged: wired value x·y is not constant.
        let f2 = Fault::from(BridgingFault::new(x, y, BridgeKind::And));
        let analysis2 = dp.analyze(&f2);
        assert!(!analysis2.site_function_constant);
        assert_eq!(analysis2.oscillation_density, 0.0);
    }

    #[test]
    fn undetectable_fault_reports_empty_test_set() {
        // Redundant logic: g = (x AND y) OR (x AND NOT y) = x; a stuck-at-0
        // on the OR output is detectable, but stuck faults inside can be
        // redundant. Use branch fault that cannot propagate: y branch into
        // the pair cancels. Simpler: x OR (x AND y): the AND-gate output
        // stuck-at-0 is undetectable.
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("red");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.gate("a", GateKind::And, &[x, y]).unwrap();
        let o = b.gate("o", GateKind::Or, &[x, a]).unwrap();
        b.output(o);
        let c = b.finish().unwrap();
        let mut dp = DiffProp::new(&c);
        let fault = Fault::from(StuckAtFault {
            site: dp_faults::FaultSite::Net(a),
            value: false,
        });
        let analysis = dp.analyze(&fault);
        assert!(!analysis.is_detectable());
        assert_eq!(analysis.test_count, Some(0));
        assert!(dp.pick_test(&analysis).is_none());
    }

    fn multi(components: &[StuckAtFault]) -> Fault {
        Fault::MultiStuckAt(MultiStuckAt::new(components.to_vec()))
    }

    #[test]
    fn multi_stuck_at_matches_simulation() {
        for circuit in [c17(), full_adder(), c95()] {
            let faults = checkpoint_faults(&circuit);
            let mut dp = DiffProp::new(&circuit);
            // All adjacent pairs plus a few triples.
            for w in faults.windows(2) {
                if w[0].site == w[1].site {
                    continue;
                }
                let fault = multi(w);
                let analysis = dp.analyze(&fault);
                let (det, _) = exhaustive_detectability(&circuit, &fault);
                assert_eq!(
                    analysis.test_count,
                    Some(det as u128),
                    "{} + {} on {}",
                    w[0],
                    w[1],
                    circuit.name()
                );
            }
            for w in faults.chunks(3).take(5) {
                if w.len() < 3 || w[0].site == w[1].site || w[1].site == w[2].site {
                    continue;
                }
                let fault = multi(w);
                let analysis = dp.analyze(&fault);
                let (det, _) = exhaustive_detectability(&circuit, &fault);
                assert_eq!(analysis.test_count, Some(det as u128));
            }
        }
    }

    #[test]
    fn multi_fault_can_mask_components() {
        // x s-a-0 together with x s-a-1 is impossible (same site) — use two
        // sites whose effects cancel at the XOR: a s-a-0 and b s-a-0 on
        // inputs of an XOR mask each other exactly when a = b = 1.
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("mask");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::Xor, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let f1 = StuckAtFault {
            site: dp_faults::FaultSite::Net(x),
            value: false,
        };
        let f2 = StuckAtFault {
            site: dp_faults::FaultSite::Net(y),
            value: false,
        };
        let mut dp = DiffProp::new(&c);
        let single = dp.analyze(&Fault::from(f1));
        let double = dp.analyze(&multi(&[f1, f2]));
        // Single fault: detected whenever x = 1 (2 of 4 vectors).
        assert_eq!(single.test_count, Some(2));
        // Double fault: x=1,y=0 and x=0,y=1 detect; x=y=1 masks.
        assert_eq!(double.test_count, Some(2));
        let v = dp.pick_test(&double).unwrap();
        assert_ne!(v, vec![true, true], "masked vector must not be picked");
    }

    #[test]
    fn aggressive_gc_threshold_does_not_change_results() {
        // A threshold below the good-function size forces a collection on
        // every analysis; results must be identical to the default engine.
        let c = c95();
        let mut relaxed = DiffProp::new(&c);
        let mut aggressive = DiffProp::with_config(
            &c,
            EngineConfig {
                gc_threshold: 1,
                ..Default::default()
            },
        );
        for f in checkpoint_faults(&c) {
            let a = relaxed.analyze(&Fault::from(f));
            let b = aggressive.analyze(&Fault::from(f));
            assert_eq!(a.test_count, b.test_count, "{f}");
            assert_eq!(a.observable_outputs, b.observable_outputs);
        }
    }

    #[test]
    fn syndrome_and_bound_relationships() {
        // detectability_bound(s-a-0) + detectability_bound(s-a-1) = 1 for
        // net faults (syndrome and its complement partition the space).
        let c = c95();
        let mut dp = DiffProp::new(&c);
        for f in checkpoint_faults(&c).into_iter().take(30) {
            let f0 = Fault::from(StuckAtFault {
                site: f.site,
                value: false,
            });
            let f1 = Fault::from(StuckAtFault {
                site: f.site,
                value: true,
            });
            let b0 = dp.detectability_bound(&f0).unwrap();
            let b1 = dp.detectability_bound(&f1).unwrap();
            assert!((b0 + b1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn try_analyze_is_exact_or_err_and_the_engine_recovers() {
        let c = c95();
        let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
        let mut reference = DiffProp::new(&c);
        // Generous enough to build the good functions, tight enough that
        // some analyses trip (found by scanning budgets if none does).
        for max_nodes in [600, 900, 1500] {
            let config = EngineConfig {
                budget: BudgetConfig::with_max_nodes(max_nodes),
                ..Default::default()
            };
            let Ok(snapshot) = DiffProp::build_snapshot(&c, config) else {
                continue;
            };
            let mut dp = DiffProp::from_snapshot(&c, &snapshot, config);
            for fault in &faults {
                match dp.try_analyze(fault) {
                    Ok(a) => {
                        let exact = reference.analyze(fault);
                        assert_eq!(
                            a.test_count, exact.test_count,
                            "budgeted Ok must be bit-identical ({fault})"
                        );
                        assert_eq!(a.detectability.to_bits(), exact.detectability.to_bits());
                        assert_eq!(a.observable_outputs, exact.observable_outputs);
                    }
                    Err(AnalysisError::BudgetExceeded(_)) => {
                        // The engine must be reusable: the infallible path
                        // still produces the exact answer afterwards.
                        let after = dp.analyze(fault);
                        let exact = reference.analyze(fault);
                        assert_eq!(after.test_count, exact.test_count, "{fault}");
                    }
                    Err(AnalysisError::FixpointDiverged { .. }) => {
                        panic!("stuck-at fault reported a fixpoint divergence")
                    }
                }
            }
        }
    }

    #[test]
    fn build_snapshot_rejects_impossible_budgets() {
        let c = c95();
        let config = EngineConfig {
            budget: BudgetConfig::with_max_nodes(4),
            ..Default::default()
        };
        match DiffProp::build_snapshot(&c, config) {
            Err(AnalysisError::BudgetExceeded(e)) => {
                assert!(e.to_string().contains("budget"), "{e}");
            }
            Err(e) => panic!("expected a budget error, got {e}"),
            Ok(_) => panic!("c95 good functions cannot fit in 4 nodes"),
        }
    }

    #[test]
    fn infallible_analyze_ignores_the_configured_budget() {
        let c = c17();
        let config = EngineConfig {
            budget: BudgetConfig::with_max_op_steps(1),
            ..Default::default()
        };
        // with_config builds unbudgeted, so construction succeeds; analyze
        // lifts the (absurd) budget for the duration of each call.
        let mut dp = DiffProp::with_config(&c, config);
        let mut reference = DiffProp::new(&c);
        for f in checkpoint_faults(&c) {
            let fault = Fault::from(f);
            assert!(dp.try_analyze(&fault).is_err(), "1 op step must trip");
            let a = dp.analyze(&fault);
            let e = reference.analyze(&fault);
            assert_eq!(a.test_count, e.test_count, "{fault}");
        }
    }

    #[test]
    fn budgeted_multi_stuck_at_recovers_like_the_single_path() {
        let c = c95();
        let faults = checkpoint_faults(&c);
        let pair = multi(&[faults[0], faults[3]]);
        let config = EngineConfig {
            budget: BudgetConfig::with_max_op_steps(2),
            ..Default::default()
        };
        let mut dp = DiffProp::with_config(&c, config);
        assert!(matches!(
            dp.try_analyze(&pair),
            Err(AnalysisError::BudgetExceeded(_))
        ));
        let exact = DiffProp::new(&c).analyze(&pair);
        let after = dp.analyze(&pair);
        assert_eq!(after.test_count, exact.test_count);
    }

    #[test]
    fn pi_that_is_also_po_is_directly_observable() {
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("pipo");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        b.output(x);
        b.output(g);
        let c = b.finish().unwrap();
        let mut dp = DiffProp::new(&c);
        let fault = Fault::from(StuckAtFault {
            site: dp_faults::FaultSite::Net(x),
            value: false,
        });
        let analysis = dp.analyze(&fault);
        assert!(analysis.observable_outputs[0], "PI observable at its PO");
        // Detectable whenever x = 1 (half the vectors at least).
        assert!(analysis.detectability >= 0.5);
    }

    /// Groups faults by the fanout-free region root of their flow net, in
    /// first-appearance order (white-box: the engine's own relation).
    fn region_batches(dp: &DiffProp<'_>, faults: &[StuckAtFault]) -> Vec<Vec<StuckAtFault>> {
        let mut roots: Vec<NetId> = Vec::new();
        let mut batches: Vec<Vec<StuckAtFault>> = Vec::new();
        for f in faults {
            let root = dp.reach.region_root(f.site.flow_net());
            match roots.iter().position(|&r| r == root) {
                Some(b) => batches[b].push(*f),
                None => {
                    roots.push(root);
                    batches.push(vec![*f]);
                }
            }
        }
        batches
    }

    /// The region of the most checkpoint faults.
    fn largest_region(dp: &DiffProp<'_>) -> Vec<StuckAtFault> {
        region_batches(dp, &checkpoint_faults(dp.circuit))
            .into_iter()
            .max_by_key(Vec::len)
            .expect("a circuit has checkpoint faults")
    }

    #[test]
    fn batched_analysis_is_bit_identical_to_singles() {
        let c = alu74181();
        let mut dp = DiffProp::new(&c);
        let mut reference = DiffProp::new(&c);
        let regions = region_batches(&dp, &checkpoint_faults(&c));
        let mut fused = 0;
        for batch in regions.iter().filter(|b| b.len() > 1) {
            fused += 1;
            let analyses = dp.try_analyze_stuck_at_batch(batch).unwrap();
            assert_eq!(analyses.len(), batch.len());
            for (f, a) in batch.iter().zip(&analyses) {
                let single = reference.analyze(&Fault::StuckAt(*f));
                assert_eq!(a.test_count, single.test_count, "{f}");
                assert_eq!(
                    a.detectability.to_bits(),
                    single.detectability.to_bits(),
                    "{f}"
                );
                assert_eq!(a.observable_outputs, single.observable_outputs, "{f}");
                assert!(a.site_function_constant);
                // The per-output deltas carry the same functions.
                for (&d, &e) in a.po_deltas.iter().zip(&single.po_deltas) {
                    assert_eq!(
                        dp.good.manager().density(d).to_bits(),
                        reference.good.manager().density(e).to_bits()
                    );
                }
            }
        }
        assert!(
            fused > 1,
            "alu74181 has regions of several checkpoint faults"
        );
    }

    #[test]
    fn batched_analysis_matches_singles_on_disjoint_halves() {
        // Two structurally independent halves, one region each: every
        // member of a half's batch is observable at its own half's output
        // only.
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("halves");
        let x = b.input("x");
        let y = b.input("y");
        let u = b.input("u");
        let v = b.input("v");
        let g1 = b.gate("g1", GateKind::And, &[x, y]).unwrap();
        let g2 = b.gate("g2", GateKind::Or, &[u, v]).unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let stuck = |n: NetId, value: bool| StuckAtFault {
            site: FaultSite::Net(n),
            value,
        };
        let halves = [
            [stuck(x, true), stuck(y, false)],
            [stuck(u, false), stuck(v, true)],
        ];
        let mut dp = DiffProp::new(&c);
        let mut reference = DiffProp::new(&c);
        for (k, batch) in halves.iter().enumerate() {
            let analyses = dp.try_analyze_stuck_at_batch(batch).unwrap();
            for (f, a) in batch.iter().zip(&analyses) {
                let mut own = vec![false, false];
                own[k] = true;
                assert_eq!(a.observable_outputs, own, "{f}");
                let single = reference.analyze(&Fault::StuckAt(*f));
                assert_eq!(a.test_count, single.test_count, "{f}");
                let (det, total) = exhaustive_detectability(&c, &Fault::StuckAt(*f));
                assert_eq!(a.test_count, Some(det as u128));
                assert!((a.detectability - det as f64 / total as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn a_region_batch_builds_one_union_for_all_its_members() {
        // The root r fans out to two outputs, and every gate is an AND or a
        // NAND, whose one-pin differences need no `or`. The batch's only
        // `or` work is the union of r's inversion fronts, built once for
        // all ten members rather than once per member.
        use dp_bdd::OpKind;
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("one-union");
        let [x, y, z, u, v] = ["x", "y", "z", "u", "v"].map(|n| b.input(n));
        let a = b.gate("a", GateKind::And, &[y, z]).unwrap();
        let r = b.gate("r", GateKind::And, &[a, u]).unwrap();
        let o1 = b.gate("o1", GateKind::And, &[r, x]).unwrap();
        let o2 = b.gate("o2", GateKind::Nand, &[r, v]).unwrap();
        b.output(o1);
        b.output(o2);
        let c = b.finish().unwrap();
        let snapshot = DiffProp::build_snapshot(&c, EngineConfig::default()).unwrap();
        let mut dp = DiffProp::from_snapshot(&c, &snapshot, EngineConfig::default());
        let mut twin = DiffProp::from_snapshot(&c, &snapshot, EngineConfig::default());
        let ors = |dp: &DiffProp<'_>| dp.good.manager().stats()[OpKind::Or].lookups;
        let before = ors(&dp);
        let batch: Vec<StuckAtFault> = [y, z, a, u, r]
            .into_iter()
            .flat_map(|n| both_values(FaultSite::Net(n)))
            .collect();
        let analyses = dp.try_analyze_stuck_at_batch(&batch).unwrap();
        assert!(analyses.iter().all(FaultAnalysis::is_detectable));
        let mut init = SiteInit::default();
        twin.init_site(FaultSite::Net(r), NodeId::TRUE, &mut init);
        let (inversion, _) = twin.propagate(init);
        twin.good.manager_mut().or_many(&inversion);
        assert!(ors(&dp) > before, "the union of two fronts is an `or`");
        assert_eq!(ors(&dp), ors(&twin));
    }

    #[test]
    fn batch_costs_its_propagation_and_its_members_finishes() {
        // Two engines thawed from one snapshot start identical. One runs
        // the batch; the other runs the root's inversion pass and union
        // once, then each member's walk to the root and its finish. Every
        // exact counter must agree.
        let c = alu74181();
        let snapshot = DiffProp::build_snapshot(&c, EngineConfig::default()).unwrap();
        let mut dp = DiffProp::from_snapshot(&c, &snapshot, EngineConfig::default());
        let mut steps = DiffProp::from_snapshot(&c, &snapshot, EngineConfig::default());
        // The largest region whose root reaches two or more outputs.
        let fans_out = |b: &Vec<StuckAtFault>| {
            let root = dp.reach.region_root(b[0].site.flow_net());
            c.outputs()
                .iter()
                .filter(|&&o| dp.reach.reaches(root, o))
                .count()
                > 1
        };
        let batch = region_batches(&dp, &checkpoint_faults(&c))
            .into_iter()
            .filter(fans_out)
            .max_by_key(Vec::len)
            .expect("alu74181 has roots that reach several outputs");
        assert!(batch.len() > 1);
        let analyses = dp.try_analyze_stuck_at_batch(&batch).unwrap();

        let root = steps.reach.region_root(batch[0].site.flow_net());
        let mut init = SiteInit::default();
        steps.init_site(FaultSite::Net(root), NodeId::TRUE, &mut init);
        let (inversion, gates) = steps.propagate(init);
        assert!(inversion.iter().filter(|d| !d.is_false()).count() > 1);
        let union = steps.good.manager_mut().or_many(&inversion);
        for (f, a) in batch.iter().zip(&analyses) {
            let at_root = steps.delta_at_root(f, root);
            let m = steps.good.manager_mut();
            let po_deltas = inversion
                .iter()
                .map(|&s| if s.is_false() { s } else { m.and(at_root, s) })
                .collect();
            let test_set = m.and(at_root, union);
            let e = steps.finish_with(Fault::StuckAt(*f), po_deltas, test_set, gates);
            assert_eq!(a.test_set, e.test_set, "{f}");
            assert_eq!(a.gates_propagated, gates, "{f}");
        }
        let (got, want) = (dp.good.manager().stats(), steps.good.manager().stats());
        assert_eq!(got.op_cumulative_total(), want.op_cumulative_total());
        assert_eq!(got.unique, want.unique);
        assert_eq!(got.op_steps, want.op_steps);
    }

    #[test]
    #[should_panic(expected = "a batch repeats the fault")]
    fn batch_rejects_a_repeated_fault() {
        let c = c17();
        let f = checkpoint_faults(&c)[0];
        let other = StuckAtFault {
            site: f.site,
            value: !f.value,
        };
        let mut dp = DiffProp::new(&c);
        let _ = dp.try_analyze_stuck_at_batch(&[f, other, f]);
    }

    #[test]
    #[should_panic(expected = "batched faults must share one fanout-free region root")]
    fn batch_rejects_members_of_two_regions() {
        // c17's input 1 lies in output 22's region, input 7 in output 23's.
        let c = c17();
        let at = |name: &str| StuckAtFault {
            site: FaultSite::Net(c.find_net(name).unwrap()),
            value: false,
        };
        let mut dp = DiffProp::new(&c);
        let _ = dp.try_analyze_stuck_at_batch(&[at("1"), at("7")]);
    }

    /// Both stuck-at faults of one site.
    fn both_values(site: FaultSite) -> [StuckAtFault; 2] {
        [false, true].map(|value| StuckAtFault { site, value })
    }

    /// An engine that never collects, so no edge is ever renumbered.
    fn uncollected(c: &Circuit) -> DiffProp<'_> {
        DiffProp::with_config(
            c,
            EngineConfig {
                gc_threshold: usize::MAX,
                gc_growth: f64::INFINITY,
                ..Default::default()
            },
        )
    }

    /// Runs `batch` fused, then each member alone on the same uncollected
    /// engine: by canonicity every output difference and test set must be
    /// the very same edge.
    fn assert_batch_matches_singles(dp: &mut DiffProp<'_>, batch: &[StuckAtFault]) {
        let fused = dp.try_analyze_stuck_at_batch(batch).unwrap();
        assert_eq!(fused.len(), batch.len());
        for (f, a) in batch.iter().zip(&fused) {
            let single = dp.try_analyze(&Fault::StuckAt(*f)).unwrap();
            let at = format!("{f} on {}", dp.circuit.name());
            assert_eq!(a.fault, single.fault, "{at}");
            assert_eq!(a.test_count, single.test_count, "{at}");
            assert_eq!(
                a.detectability.to_bits(),
                single.detectability.to_bits(),
                "{at}"
            );
            assert_eq!(a.observable_outputs, single.observable_outputs, "{at}");
            assert_eq!(a.po_deltas, single.po_deltas, "{at}");
            assert_eq!(a.test_set, single.test_set, "{at}");
        }
    }

    /// Both polarities on every net and on every fanout branch.
    fn pin_universe(c: &Circuit) -> Vec<StuckAtFault> {
        let branches = c.fanout_branches().into_iter().map(FaultSite::Branch);
        let nets = c.nets().map(FaultSite::Net);
        nets.chain(branches).flat_map(both_values).collect()
    }

    #[test]
    fn region_batches_are_bit_identical_to_single_analyses() {
        for c in [c17(), c95(), alu74181()] {
            let mut dp = uncollected(&c);
            for batch in region_batches(&dp, &checkpoint_faults(&c)) {
                assert_batch_matches_singles(&mut dp, &batch);
            }
        }
        // c499s's XOR chains: every fourth region of several faults.
        let c = c499_surrogate();
        let mut dp = uncollected(&c);
        let regions = region_batches(&dp, &checkpoint_faults(&c));
        for batch in regions.iter().filter(|b| b.len() > 1).step_by(4) {
            assert_batch_matches_singles(&mut dp, batch);
        }
    }

    #[test]
    fn c1908s_pin_level_regions_are_bit_identical_to_single_analyses() {
        // Inside an XOR quad the first NAND fans out twice and is a root of
        // its own, while a branch into a second-level NAND chains through
        // the quad's output gate to that output's root.
        let c = c1908_surrogate();
        let mut dp = uncollected(&c);
        let regions = region_batches(&dp, &pin_universe(&c));
        let chained = |f: &StuckAtFault| match f.site {
            FaultSite::Branch(b) => dp.reach.region_root(b.sink) != b.sink,
            FaultSite::Net(_) => false,
        };
        let quad_internal = |n: NetId| dp.quads.owner_of(n).is_some();
        assert!(regions.iter().flatten().any(chained));
        assert!(regions
            .iter()
            .any(|b| quad_internal(dp.reach.region_root(b[0].site.flow_net()))));
        for batch in regions.iter().filter(|b| b.len() > 1).step_by(3) {
            assert_batch_matches_singles(&mut dp, batch);
        }
    }

    #[test]
    fn a_root_that_is_an_output_and_fans_out_matches_single_analyses() {
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("po-root");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        let h = b.gate("h", GateKind::Or, &[g, z]).unwrap();
        b.output(g);
        b.output(h);
        let c = b.finish().unwrap();
        let mut dp = uncollected(&c);
        assert_eq!(dp.reach.region_root(x), g);
        let batch: Vec<StuckAtFault> = [x, y, g]
            .into_iter()
            .flat_map(|n| both_values(FaultSite::Net(n)))
            .collect();
        assert_batch_matches_singles(&mut dp, &batch);
        for f in &batch {
            let (det, _) = exhaustive_detectability(&c, &Fault::StuckAt(*f));
            let a = dp.analyze(&Fault::StuckAt(*f));
            assert_eq!(a.test_count, Some(det as u128), "{f}");
        }
    }

    #[test]
    fn a_branch_whose_stem_reconverges_inside_the_region_matches_single_analyses() {
        // s fans out to g1 and g2, which both feed only h: both branches lie
        // in h's region, and each meets the good stem again at h.
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("reconverge");
        let s = b.input("s");
        let p = b.input("p");
        let q = b.input("q");
        let g1 = b.gate("g1", GateKind::And, &[s, p]).unwrap();
        let g2 = b.gate("g2", GateKind::Or, &[q, s]).unwrap();
        let h = b.gate("h", GateKind::Nand, &[g1, g2]).unwrap();
        b.output(h);
        let c = b.finish().unwrap();
        let mut dp = uncollected(&c);
        let branches = c.fanout_branches();
        assert_eq!(branches.len(), 2);
        assert!(branches.iter().all(|b| dp.reach.region_root(b.sink) == h));
        let sites = [p, q, g1, g2, h].into_iter().map(FaultSite::Net);
        let batch: Vec<StuckAtFault> = branches
            .into_iter()
            .map(FaultSite::Branch)
            .chain(sites)
            .flat_map(both_values)
            .collect();
        assert_batch_matches_singles(&mut dp, &batch);
        for f in &batch {
            let (det, _) = exhaustive_detectability(&c, &Fault::StuckAt(*f));
            let a = dp.analyze(&Fault::StuckAt(*f));
            assert_eq!(a.test_count, Some(det as u128), "{f}");
        }
    }

    #[test]
    fn pair_batches_are_bit_identical_to_single_analyses() {
        for c in [c17(), c95(), alu74181()] {
            let mut dp = uncollected(&c);
            for &x in c.inputs() {
                assert_batch_matches_singles(&mut dp, &both_values(FaultSite::Net(x)));
            }
        }
        let c = c499_surrogate();
        let mut dp = uncollected(&c);
        for &x in c.inputs().iter().step_by(8) {
            let [f0, f1] = both_values(FaultSite::Net(x));
            assert_batch_matches_singles(&mut dp, &[f1, f0]);
        }
        // The rule holds at any site, a fanout branch too.
        let c = c95();
        let branch = checkpoint_faults(&c)
            .into_iter()
            .find(|f| matches!(f.site, FaultSite::Branch(_)))
            .expect("c95 has fanout branches");
        assert_batch_matches_singles(&mut uncollected(&c), &both_values(branch.site));
    }

    #[test]
    fn a_pair_at_an_input_that_is_also_an_output_sees_its_own_literal() {
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("pipo");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        b.output(x);
        b.output(g);
        let c = b.finish().unwrap();
        let pair = both_values(FaultSite::Net(x));
        assert_batch_matches_singles(&mut uncollected(&c), &pair);
        let mut dp = DiffProp::new(&c);
        let analyses = dp.try_analyze_stuck_at_batch(&pair).unwrap();
        let vx = dp.good.node(x);
        assert_eq!(analyses[0].po_deltas[0], vx, "x/0 shows where x = 1");
        assert_eq!(analyses[1].po_deltas[0], dp.good.manager().not(vx));
    }

    #[test]
    fn pairs_fuse_with_single_polarities_of_one_region() {
        // Every other site of alu74181's largest region keeps one polarity
        // only: pairs and single polarities share one pass.
        let c = alu74181();
        let mut dp = uncollected(&c);
        let region = largest_region(&dp);
        let batch: Vec<StuckAtFault> = region
            .chunks(2)
            .enumerate()
            .flat_map(|(i, pair)| if i % 2 == 0 { pair } else { &pair[..1] })
            .copied()
            .collect();
        let pairs = batch.windows(2).filter(|w| w[0].site == w[1].site).count();
        assert!(pairs > 0 && 2 * pairs < batch.len(), "{batch:?}");
        assert_batch_matches_singles(&mut dp, &batch);
    }

    #[test]
    fn singleton_batch_delegates_to_single_analysis() {
        let c = c17();
        let mut dp = DiffProp::new(&c);
        let f = checkpoint_faults(&c)[0];
        let batch = dp.try_analyze_stuck_at_batch(&[f]).unwrap();
        let single = DiffProp::new(&c).analyze(&Fault::StuckAt(f));
        assert_eq!(batch[0].test_count, single.test_count);
        assert_eq!(
            batch[0].detectability.to_bits(),
            single.detectability.to_bits()
        );
    }

    #[test]
    fn auto_means_one_sift_at_build_for_every_engine() {
        // c1908s's fanin-DFS build is well over SIFT_TABLE_FLOOR, so Auto
        // sifts it: every engine is thawed from the sifted snapshot, whose
        // order must differ from plain fanin-DFS.
        let c = c1908_surrogate();
        let auto = EngineConfig {
            order: OrderStrategy::Auto,
            ..Default::default()
        };
        let dp = DiffProp::with_config(&c, auto);
        assert!(dp.good.manager().has_frozen_base());
        let fanin = GoodFunctions::build_with_order(&c, &OrderStrategy::FaninDfs.resolve(&c));
        assert_ne!(dp.good.manager().order(), fanin.manager().order());
    }

    #[test]
    fn c499s_test_sets_equal_the_binary_or_fold() {
        // The complete test set is one n-ary `or`; by canonicity it is the
        // edge a fold of binary `or`s over the same outputs returns.
        let c = c499_surrogate();
        let mut dp = DiffProp::with_config(
            &c,
            EngineConfig {
                order: OrderStrategy::FaninDfs,
                ..Default::default()
            },
        );
        for f in checkpoint_faults(&c).into_iter().take(32) {
            let a = dp.analyze(&Fault::from(f));
            let m = dp.good.manager_mut();
            let fold = a
                .po_deltas
                .iter()
                .fold(NodeId::FALSE, |acc, &d| m.or(acc, d));
            assert_eq!(a.test_set, fold, "{f}");
        }
    }

    #[test]
    fn c1908s_quad_shortcut_matches_the_gate_by_gate_engine() {
        let c = c1908_surrogate();
        let mut dp = DiffProp::new(&c);
        assert!(!dp.quads.is_empty());
        let mut gate_by_gate = DiffProp::with_config(
            &c,
            EngineConfig {
                table1: false,
                ..Default::default()
            },
        );
        let stuck: Vec<StuckAtFault> = checkpoint_faults(&c).into_iter().step_by(23).collect();
        let pairs = stuck.windows(2).step_by(3).map(multi);
        let mut fewer_gates = 0;
        for fault in stuck.iter().map(|&f| Fault::from(f)).chain(pairs) {
            let a = dp.analyze(&fault);
            let b = gate_by_gate.analyze(&fault);
            assert_eq!(a.test_count, b.test_count, "{fault}");
            assert_eq!(
                a.detectability.to_bits(),
                b.detectability.to_bits(),
                "{fault}"
            );
            assert_eq!(a.observable_outputs, b.observable_outputs, "{fault}");
            for (&d, &e) in a.po_deltas.iter().zip(&b.po_deltas) {
                assert_eq!(
                    dp.good.manager().density(d).to_bits(),
                    gate_by_gate.good.manager().density(e).to_bits(),
                    "{fault}"
                );
            }
            if a.gates_propagated < b.gates_propagated {
                fewer_gates += 1;
            }
        }
        assert!(fewer_gates > 0, "no fault took the quad shortcut");
    }

    #[test]
    fn c1355s_batches_are_bit_identical_to_singles() {
        let c = c1355_surrogate();
        let mut dp = DiffProp::new(&c);
        let mut reference = DiffProp::new(&c);
        let faults: Vec<StuckAtFault> = checkpoint_faults(&c).into_iter().step_by(5).collect();
        let regions = region_batches(&dp, &faults);
        let mut batches = 0;
        for mut batch in regions.into_iter().filter(|b| b.len() > 1).take(3) {
            // At most eight members, the sweep's default batch size.
            batch.truncate(8);
            batches += 1;
            let analyses = dp.try_analyze_stuck_at_batch(&batch).unwrap();
            for (f, a) in batch.iter().zip(&analyses) {
                let single = reference.analyze(&Fault::StuckAt(*f));
                assert_eq!(a.test_count, single.test_count, "{f}");
                assert_eq!(
                    a.detectability.to_bits(),
                    single.detectability.to_bits(),
                    "{f}"
                );
                assert_eq!(a.observable_outputs, single.observable_outputs, "{f}");
            }
        }
        assert_eq!(
            batches, 3,
            "c1355s has regions of several checkpoint faults"
        );
    }
}
