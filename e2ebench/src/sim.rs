//! The simulated workloads: `testbed`, `fabric` and `campaign`.
//!
//! A cell is one full simulation (one repair algorithm, or one
//! orchestration policy × algorithm) driven from the benchmark's own
//! event loop, which mirrors the experiment harness's loop so every call
//! site into the engine, the fault injector, the orchestrator and the
//! foreground can be timed from outside.

use std::sync::Arc;
use std::time::Instant;

use chameleon_cluster::{
    ChunkId, Cluster, ClusterConfig, ForegroundDriver, ForegroundReport, PlacementStrategy,
    TopologySpec,
};
use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_core::baseline::{PlanShape, StaticRepairDriver};
use chameleon_core::chameleon::{ChameleonConfig, ChameleonDriver, ChameleonStats};
use chameleon_core::{
    BudgetPolicy, Orchestrator, OrchestratorConfig, QueuePolicy, RepairContext, RepairDriver,
    RepairOutcome,
};
use chameleon_simnet::{
    FaultInjector, FaultPlan, FaultSpec, Monitor, NodeCaps, ResourceKind, Simulator,
};
use chameleon_traces::{TraceKind, Workload};

use crate::checks;
use crate::timed::{Acc, Off, Probe, Slot, TimedCode, TimedDriver, TimedWorkload};
use crate::{derive_seed, Bench, CellRun, Layers};

/// 10 Gb/s links and 500 MB/s disks, the paper's testbed (§V-A).
const LINK_BPS: f64 = 1.25e9;
const DISK_BPS: f64 = 500e6;
const CHUNK: u64 = 64 << 20;
const SLICE: u64 = 1 << 20;
/// Monitor window, as in §II-D.
const WINDOW_SECS: f64 = 15.0;
/// Relative tolerance for "never above a capacity" checks.
const FLOAT_TOL: f64 = 1e-6;
/// ChameleonEC's time constants in the `testbed` cells, as a share of
/// the paper's (`T_phase` 20 s, checks every 1 s, 2 s grace): a repair
/// here lasts 5–7 simulated seconds, so scaled by 0.1 it spans several
/// phases and progress checks, as the paper's minutes-long repairs did.
const TESTBED_TIME_SCALE: f64 = 0.1;

/// Repair algorithms a cell can run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// Conventional repair (star).
    Cr,
    /// Partial-parallel repair (tree).
    Ppr,
    /// ECPipe (chain).
    EcPipe,
    /// ChameleonEC with ETRP and SAR.
    Chameleon,
}

impl Algo {
    fn label(self) -> &'static str {
        match self {
            Algo::Cr => "CR",
            Algo::Ppr => "PPR",
            Algo::EcPipe => "ECPipe",
            Algo::Chameleon => "ChameleonEC",
        }
    }

    fn driver(self, ctx: RepairContext, cell: &Cell) -> Box<dyn CellDriver> {
        let shape = match self {
            Algo::Cr => PlanShape::Star,
            Algo::Ppr => PlanShape::Tree,
            Algo::EcPipe => PlanShape::Chain,
            Algo::Chameleon => {
                let paper = ChameleonConfig::default();
                let config = ChameleonConfig {
                    max_concurrent_chunks: cell.concurrency,
                    t_phase_secs: paper.t_phase_secs * cell.time_scale,
                    check_interval_secs: paper.check_interval_secs * cell.time_scale,
                    straggler_min_delay_secs: paper.straggler_min_delay_secs * cell.time_scale,
                    ..paper
                };
                return Box::new(ChameleonDriver::new(ctx, config));
            }
        };
        Box::new(
            StaticRepairDriver::new(ctx, shape, cell.driver_seed)
                .with_concurrency(cell.concurrency),
        )
    }
}

/// A repair driver that can also report ChameleonEC's scheduler counters
/// (phases, re-tunings, re-orderings), so a cell's result shows whether
/// ETRP re-planned and SAR acted.
trait CellDriver: RepairDriver {
    /// The scheduler counters, for ChameleonEC only.
    fn scheduler(&self) -> Option<ChameleonStats>;
}

impl CellDriver for StaticRepairDriver {
    fn scheduler(&self) -> Option<ChameleonStats> {
        None
    }
}

impl CellDriver for ChameleonDriver {
    fn scheduler(&self) -> Option<ChameleonStats> {
        Some(self.stats())
    }
}

impl CellDriver for TimedDriver<dyn CellDriver> {
    fn scheduler(&self) -> Option<ChameleonStats> {
        self.inner.scheduler()
    }
}

/// What a cell runs after set-up.
#[derive(Debug, Clone)]
enum Mode {
    /// Full-node repair of `victims` under an optional fault plan.
    Repair {
        victims: Vec<usize>,
        faults: Option<FaultPlan>,
    },
    /// A continuous campaign under the orchestrator.
    Campaign {
        orch: OrchestratorConfig,
        faults: FaultPlan,
    },
}

impl Mode {
    fn faults(&self) -> Option<&FaultPlan> {
        match self {
            Mode::Repair { faults, .. } => faults.as_ref(),
            Mode::Campaign { faults, .. } => Some(faults),
        }
    }
}

/// One simulated cell.
#[derive(Debug, Clone)]
struct Cell {
    label: String,
    algo: Algo,
    concurrency: usize,
    /// ChameleonEC's time constants (`T_phase`, the progress-check
    /// interval and the straggler grace period) as a share of the
    /// paper's; the baselines have none.
    time_scale: f64,
    driver_seed: u64,
    mode: Mode,
}

/// A simulated workload: one cluster and foreground, several cells.
pub struct SimBench {
    name: &'static str,
    code: Arc<dyn ErasureCode>,
    cfg: ClusterConfig,
    fg_seed: u64,
    requests_per_client: usize,
    /// The smallest request any client issues, in bytes.
    smallest_request: u64,
    cells: Vec<Cell>,
}

/// Sizes of a simulated workload (the benchmark's tests shrink them).
#[derive(Debug, Clone, Copy)]
pub struct SimSize {
    /// Chunks stored per node (and lost per failed node, on average).
    pub chunks_per_node: usize,
    /// Foreground requests per client.
    pub requests_per_client: usize,
    /// Storage nodes.
    pub nodes: usize,
    /// Foreground clients.
    pub clients: usize,
    /// Storage nodes failed at the start of a repair workload.
    pub failed_nodes: usize,
}

impl SimSize {
    /// `testbed` at full size: the paper's 20 nodes at the `stressed`
    /// scale of the time-dependent experiments.
    pub fn testbed() -> Self {
        SimSize {
            chunks_per_node: 60,
            requests_per_client: 20_000,
            nodes: 20,
            clients: 4,
            failed_nodes: 1,
        }
    }

    /// `fabric` at full size.
    pub fn fabric() -> Self {
        SimSize {
            chunks_per_node: 20,
            requests_per_client: 500,
            nodes: 1000,
            clients: 64,
            failed_nodes: 2,
        }
    }

    /// `campaign` at full size: exp17's small scale.
    pub fn campaign() -> Self {
        SimSize {
            chunks_per_node: 20,
            requests_per_client: 4_000,
            nodes: 20,
            clients: 4,
            failed_nodes: 0,
        }
    }

    fn config(
        &self,
        stripe_width: usize,
        placement_seed: u64,
        topology: TopologySpec,
    ) -> ClusterConfig {
        ClusterConfig {
            storage_nodes: self.nodes,
            clients: self.clients,
            node_caps: NodeCaps::symmetric(LINK_BPS, DISK_BPS),
            chunk_size: CHUNK,
            slice_size: SLICE,
            stripe_width,
            stripes: (self.chunks_per_node * self.nodes).div_ceil(stripe_width),
            placement: PlacementStrategy::Random(placement_seed),
            monitor_window_secs: WINDOW_SECS,
            topology,
        }
    }
}

/// Picks `count` distinct victims whose chunk counts are closest to the
/// mean, breaking ties in a seed-shuffled order. Conditioning the victims
/// on their load keeps the amount of repair work, and so the host time,
/// nearly the same for every seed while the placement itself varies.
fn pick_victims(cfg: &ClusterConfig, count: usize, seed: u64) -> Vec<usize> {
    let cluster = Cluster::new(cfg.clone()).expect("valid cluster config");
    let nodes = cfg.storage_nodes;
    let mean = (cfg.stripes * cfg.stripe_width) as f64 / nodes as f64;
    let mut order: Vec<(u64, usize)> = (0..nodes)
        .map(|n| {
            let load = cluster.placement().chunks_on(n).len() as f64;
            let distance = ((load - mean).abs() * 1000.0) as u64;
            (distance, n)
        })
        .collect();
    order.sort_by_key(|&(distance, n)| (distance, derive_seed(seed, n as u64)));
    order.iter().take(count).map(|&(_, n)| n).collect()
}

impl SimBench {
    /// The paper's 20-node testbed: CR, PPR, ECPipe and ChameleonEC each
    /// repair one failed node under 4 YCSB-A clients while one helper's
    /// network is slowed 4× mid-repair.
    pub fn testbed(seed: u64, size: SimSize) -> Self {
        let cfg = size.config(14, derive_seed(seed, 1), TopologySpec::Flat);
        let victims = pick_victims(&cfg, size.failed_nodes, derive_seed(seed, 2));
        let straggler_pick = derive_seed(seed, 3);
        let helpers: Vec<usize> = (0..cfg.storage_nodes)
            .filter(|n| !victims.contains(n))
            .collect();
        let straggler = helpers[(straggler_pick % helpers.len() as u64) as usize];
        // Onset 1–3 s into a repair that lasts about 5–7 simulated
        // seconds, and lasting past its end, so SAR sees a delayed helper.
        // ChameleonEC's time constants are scaled with it, so the repair
        // spans several phases and ETRP re-plans at each.
        let onset = 1.0 + unit(derive_seed(seed, 4)) * 2.0;
        let faults = FaultPlan::new(vec![FaultSpec::Slowdown {
            node: straggler,
            at_secs: onset,
            factor: 0.25,
            duration_secs: 30.0,
        }]);
        let driver_seed = derive_seed(seed, 5);
        let mut cells: Vec<Cell> = [Algo::Cr, Algo::Ppr, Algo::EcPipe, Algo::Chameleon]
            .into_iter()
            .map(|algo| Cell {
                label: algo.label().to_string(),
                algo,
                concurrency: StaticRepairDriver::DEFAULT_CONCURRENCY,
                time_scale: TESTBED_TIME_SCALE,
                driver_seed,
                mode: Mode::Repair {
                    victims: victims.clone(),
                    faults: Some(faults.clone()),
                },
            })
            .collect();
        // The same failure, admitted by the orchestrator: the victim
        // crashes at the start, and a second helper crashes 2–4 s in and
        // returns 3 s later, so in-flight repairs abort and requeue.
        let others: Vec<usize> = helpers
            .iter()
            .copied()
            .filter(|&n| n != straggler)
            .collect();
        let second = others[(derive_seed(seed, 8) % others.len() as u64) as usize];
        let second_at = 2.0 + unit(derive_seed(seed, 9)) * 2.0;
        let mut specs = faults.specs().to_vec();
        specs.extend(
            victims
                .iter()
                .map(|&node| FaultSpec::Crash { node, at_secs: 0.0 }),
        );
        specs.push(FaultSpec::Crash {
            node: second,
            at_secs: second_at,
        });
        specs.push(FaultSpec::Recover {
            node: second,
            at_secs: second_at + 3.0,
        });
        cells.push(Cell {
            label: format!("priority/negotiated/{}", Algo::Chameleon.label()),
            algo: Algo::Chameleon,
            concurrency: StaticRepairDriver::DEFAULT_CONCURRENCY,
            time_scale: TESTBED_TIME_SCALE,
            driver_seed,
            mode: Mode::Campaign {
                orch: negotiated_orchestrator(),
                faults: FaultPlan::new(specs),
            },
        });
        let code = ReedSolomon::new(10, 4).expect("RS(10,4)");
        Self::assemble("testbed", Arc::new(code), cfg, seed, size, cells)
    }

    /// 1000 storage nodes in 25 racks behind a 1:4 spine: CR and
    /// ChameleonEC repair several failed nodes at repair concurrency 32
    /// under 64 YCSB-A clients.
    pub fn fabric(seed: u64, size: SimSize) -> Self {
        let racks = 25.min(size.nodes / 2).max(2);
        let topology = TopologySpec::Racked {
            racks,
            oversub: 4.0,
        };
        let cfg = size.config(14, derive_seed(seed, 1), topology);
        let victims = pick_victims(&cfg, size.failed_nodes, derive_seed(seed, 2));
        let driver_seed = derive_seed(seed, 5);
        let cells = [Algo::Cr, Algo::Chameleon]
            .into_iter()
            .map(|algo| Cell {
                label: algo.label().to_string(),
                algo,
                concurrency: 32,
                time_scale: 1.0,
                driver_seed,
                mode: Mode::Repair {
                    victims: victims.clone(),
                    faults: None,
                },
            })
            .collect();
        let code = ReedSolomon::new(10, 4).expect("RS(10,4)");
        Self::assemble("fabric", Arc::new(code), cfg, seed, size, cells)
    }

    /// exp17-style continuous campaigns: seeded Poisson crashes with
    /// recovery on 20 nodes and RS(4,2); FIFO/fixed and
    /// priority/negotiated orchestration over CR, ECPipe and ChameleonEC.
    pub fn campaign(seed: u64, size: SimSize) -> Self {
        let cfg = size.config(6, derive_seed(seed, 1), TopologySpec::Flat);
        let faults = campaign_faults(derive_seed(seed, 7), cfg.storage_nodes);
        let driver_seed = derive_seed(seed, 5);
        let fifo = OrchestratorConfig {
            queue: QueuePolicy::Fifo,
            budget: BudgetPolicy::Fixed(400e6),
            ..negotiated_orchestrator()
        };
        let mut cells = Vec::new();
        for (policy, orch) in [
            ("fifo/fixed", fifo),
            ("priority/negotiated", negotiated_orchestrator()),
        ] {
            for algo in [Algo::Cr, Algo::EcPipe, Algo::Chameleon] {
                cells.push(Cell {
                    label: format!("{policy}/{}", algo.label()),
                    algo,
                    concurrency: StaticRepairDriver::DEFAULT_CONCURRENCY,
                    time_scale: 1.0,
                    driver_seed,
                    mode: Mode::Campaign {
                        orch,
                        faults: faults.clone(),
                    },
                });
            }
        }
        let code = ReedSolomon::new(4, 2).expect("RS(4,2)");
        Self::assemble("campaign", Arc::new(code), cfg, seed, size, cells)
    }

    fn workloads(&self) -> Vec<Box<dyn Workload>> {
        (0..self.cfg.clients)
            .map(|c| TraceKind::YcsbA.build(derive_seed(self.fg_seed, c as u64)))
            .collect()
    }

    fn assemble(
        name: &'static str,
        code: Arc<dyn ErasureCode>,
        cfg: ClusterConfig,
        seed: u64,
        size: SimSize,
        cells: Vec<Cell>,
    ) -> Self {
        let mut bench = SimBench {
            name,
            code,
            cfg,
            fg_seed: derive_seed(seed, 6),
            requests_per_client: size.requests_per_client,
            smallest_request: 0,
            cells,
        };
        // Drawn from fresh copies of the same generators.
        let requests = bench.requests_per_client;
        bench.smallest_request = bench
            .workloads()
            .iter_mut()
            .flat_map(|w| (0..requests).map(move |_| w.next_request().value_size.max(1)))
            .min()
            .unwrap_or(1);
        bench
    }
}

/// exp17's priority/negotiated policy: the queue ordered by residual
/// redundancy, the repair budget renegotiated each window with 2%
/// headroom and a 200 MB/s floor, at most 8 repairs in flight.
fn negotiated_orchestrator() -> OrchestratorConfig {
    OrchestratorConfig {
        queue: QueuePolicy::RedundancyPriority,
        budget: BudgetPolicy::Negotiated {
            headroom: 0.02,
            floor: 200e6,
        },
        max_in_flight: 8,
        window_secs: WINDOW_SECS,
    }
}

/// Crash rate and horizon of exp17: MTTF 150 s per node over 90 s, with
/// each crashed node returning 30 s later.
const MTTF_SECS: f64 = 150.0;
const HORIZON_SECS: f64 = 90.0;
const RECOVER_SECS: f64 = 30.0;
/// Crashes per campaign. The Poisson stream is drawn from successive
/// sub-seeds until it holds exactly this many crashes (the mode of the
/// count at these rates), which conditions the stream on its count so
/// every seed asks for about the same amount of repair.
const CAMPAIGN_CRASHES: usize = 10;

fn campaign_faults(seed: u64, nodes: usize) -> FaultPlan {
    let candidates: Vec<usize> = (0..nodes).collect();
    (0..)
        .map(|attempt| {
            FaultPlan::seeded_poisson(
                derive_seed(seed, attempt),
                &candidates,
                MTTF_SECS,
                (0.0, HORIZON_SECS),
                Some(RECOVER_SECS),
            )
        })
        .find(|plan| {
            plan.specs()
                .iter()
                .filter(|s| matches!(s, FaultSpec::Crash { .. }))
                .count()
                == CAMPAIGN_CRASHES
        })
        .expect("an infinite stream of plans contains one of the modal count")
}

/// A uniform draw in `[0, 1)` from a 64-bit hash.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The repair side of a cell: a bare driver or an orchestrated one.
enum Repairer {
    Driver(Box<dyn CellDriver>),
    Orchestrator(Box<Orchestrator>),
}

/// Everything a cell's timed phase needs, built during set-up.
struct Prepared {
    ctx: RepairContext,
    sim: Simulator,
    injector: Option<FaultInjector>,
    fg: ForegroundDriver,
    repairer: Repairer,
    /// The lost set, handed to the driver when the timed phase starts.
    start: Vec<ChunkId>,
    /// The lost set, kept for the checks.
    lost: Vec<ChunkId>,
}

impl SimBench {
    fn prepare(&self, cell: &Cell, acc: Option<&Arc<Acc>>) -> Prepared {
        let code: Arc<dyn ErasureCode> = match acc {
            Some(acc) => Arc::new(TimedCode {
                inner: self.code.clone(),
                acc: acc.clone(),
            }),
            None => self.code.clone(),
        };
        let mut cluster = match acc {
            Some(acc) => acc.time(Slot::ClusterBuild, || Cluster::new(self.cfg.clone())),
            None => Cluster::new(self.cfg.clone()),
        }
        .expect("valid cluster config");
        let victims: &[usize] = match &cell.mode {
            Mode::Repair { victims, .. } => victims,
            Mode::Campaign { .. } => &[],
        };
        for &v in victims {
            cluster.fail_node(v).expect("victim is a storage node");
        }
        let lost = cluster.lost_chunks(victims);
        let ctx = RepairContext::new(cluster, code);
        let mut sim = ctx.cluster.build_simulator();
        let injector = cell.mode.faults().map(|p| p.inject(&mut sim));
        let workloads = match acc {
            Some(acc) => self
                .workloads()
                .into_iter()
                .map(|inner| {
                    Box::new(TimedWorkload {
                        inner,
                        acc: acc.clone(),
                    }) as Box<dyn Workload>
                })
                .collect(),
            None => self.workloads(),
        };
        let fg = ForegroundDriver::new(workloads, self.requests_per_client);
        let mut driver = cell.algo.driver(ctx.clone(), cell);
        if let Some(acc) = acc {
            driver = Box::new(TimedDriver {
                inner: driver,
                acc: acc.clone(),
            });
        }
        let repairer = match &cell.mode {
            Mode::Repair { .. } => Repairer::Driver(driver),
            Mode::Campaign { orch, .. } => Repairer::Orchestrator(Box::new(Orchestrator::new(
                ctx.clone(),
                driver as Box<dyn RepairDriver>,
                *orch,
            ))),
        };
        Prepared {
            ctx,
            sim,
            injector,
            fg,
            repairer,
            start: lost.clone(),
            lost,
        }
    }
}

/// The timed phase: the experiment loop, with every call site into a
/// layer passed through `probe`.
fn drive<P: Probe>(p: &mut Prepared, probe: &P) {
    let Prepared {
        ctx,
        sim,
        injector,
        fg,
        repairer,
        start,
        ..
    } = p;
    probe.time(Slot::Foreground, || fg.start(&ctx.cluster, sim));
    if let Repairer::Driver(driver) = repairer {
        driver.start(sim, std::mem::take(start));
    }
    while let Some(ev) = probe.time(Slot::NextEvent, || sim.next_event()) {
        if let Some(inj) = injector.as_mut() {
            if let Some(fault) = probe.time(Slot::Faults, || inj.on_event(sim, &ev)) {
                match repairer {
                    Repairer::Driver(d) => d.on_fault(sim, &fault),
                    Repairer::Orchestrator(o) => {
                        probe.time(Slot::Orchestrator, || o.on_fault(sim, &fault))
                    }
                }
                continue;
            }
        }
        let repair_event = match repairer {
            Repairer::Driver(d) => d.on_event(sim, &ev),
            Repairer::Orchestrator(o) => probe.time(Slot::Orchestrator, || o.on_event(sim, &ev)),
        };
        if !repair_event {
            probe.time(Slot::Foreground, || fg.on_event(&ctx.cluster, sim, &ev));
        }
    }
}

impl SimBench {
    /// Repair, foreground and monitor checks of one finished cell.
    fn check(
        &self,
        cell: &Cell,
        p: &Prepared,
        outcome: &RepairOutcome,
        fg: &ForegroundReport,
    ) -> Result<(), String> {
        if let Repairer::Driver(_) = p.repairer {
            checks::repaired_once(&p.lost, outcome, self.cfg.chunk_size)?;
        }
        let issued = self.cfg.clients * self.requests_per_client;
        checks::foreground(fg, issued, self.smallest_request as f64 / LINK_BPS)?;
        let caps = vec![self.cfg.node_caps; self.cfg.total_nodes()];
        let monitor = p.sim.monitor();
        checks::node_caps_respected(monitor, &caps, cell.mode.faults(), FLOAT_TOL)?;
        if let TopologySpec::Racked { racks, oversub } = self.cfg.topology {
            self.check_fabric(monitor, &p.sim, racks, oversub)?;
        }
        Ok(())
    }

    /// Link capacities computed here from the topology spec: ToR links
    /// carry their rack's aggregate node bandwidth, and the spine a
    /// `1/oversub` share of all ToR uplinks.
    fn check_fabric(
        &self,
        monitor: &Monitor,
        sim: &Simulator,
        racks: usize,
        oversub: f64,
    ) -> Result<(), String> {
        let topo = sim
            .topology()
            .ok_or("racked cluster built without a topology")?;
        let per_rack = self.cfg.total_nodes().div_ceil(racks) as f64;
        let tor_cap = per_rack * self.cfg.node_caps.capacity(ResourceKind::Uplink);
        let tor_up: Vec<checks::Link> = (0..racks)
            .map(|r| checks::Link {
                index: topo.tor_up_link(r),
                capacity: tor_cap,
            })
            .collect();
        let spine = match (topo.spine_link(), oversub > 1.0) {
            (Some(index), true) => Some(checks::Link {
                index,
                capacity: racks as f64 * tor_cap / oversub,
            }),
            (None, false) => None,
            _ => return Err("spine presence disagrees with the oversubscription ratio".into()),
        };
        checks::fabric(monitor, &tor_up, spine, sim.now().as_secs(), FLOAT_TOL)
    }
}

impl Bench for SimBench {
    fn name(&self) -> &'static str {
        self.name
    }

    fn cells(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.label.clone()).collect()
    }

    fn ops(&self, _cell: usize) -> u64 {
        1
    }

    fn run_cell(&self, index: usize, traced: bool, _full_check: bool) -> Result<CellRun, String> {
        let cell = &self.cells[index];
        let acc = traced.then(|| Arc::new(Acc::default()));
        let setup = Instant::now();
        let mut p = self.prepare(cell, acc.as_ref());
        let setup_ns = setup.elapsed().as_nanos() as u64;

        let cpu0 = crate::sys::cpu_nanos();
        let wall = Instant::now();
        match &acc {
            Some(acc) => drive(&mut p, acc.as_ref()),
            None => drive(&mut p, &Off),
        }
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let cpu_ns = crate::sys::cpu_nanos() - cpu0;

        if !p.fg.is_done() {
            return Err("foreground did not finish".into());
        }
        let fg = p.fg.report(&p.sim);
        let mut scheduler = None;
        let (outcome, campaign) = match &p.repairer {
            Repairer::Driver(d) => {
                if !d.is_done() {
                    return Err("repair driver did not finish".into());
                }
                scheduler = d.scheduler();
                (d.outcome(&p.sim), None)
            }
            Repairer::Orchestrator(o) => {
                if !o.is_done() {
                    return Err("campaign did not quiesce".into());
                }
                let report = o.report();
                checks::ledger(o.ledger(), &report, &o.ledger_jsonl())?;
                (
                    o.outcome(&p.sim),
                    Some((report, checks::census(o.ledger()))),
                )
            }
        };
        self.check(cell, &p, &outcome, &fg)?;

        let profile = p.sim.profile();
        let end = p.sim.now().as_secs();
        let ledger = campaign.as_ref().map_or("-".to_string(), |(_, census)| {
            census
                .iter()
                .map(|(state, n)| format!("{state}:{n}"))
                .collect::<Vec<_>>()
                .join(",")
        });
        let digest = format!(
            "events={} solves={} end_bits={:016x} repaired_bytes={} fg={}/{} ledger={}",
            profile.events,
            profile.solves,
            end.to_bits(),
            outcome.repaired_bytes,
            fg.completed,
            fg.aborted,
            ledger
        );
        let mut report = format!(
            "repair_mbps={:.1} chunks={} repaired_bytes={} fg_p50_ms={:.3} fg_p99_ms={:.3} sim_end_s={end:.2}",
            outcome.throughput() / 1e6,
            outcome.chunks_repaired,
            outcome.repaired_bytes,
            fg.latency.map_or(0.0, |l| l.p50) * 1e3,
            fg.p99_latency * 1e3,
        );
        if let Some(s) = scheduler {
            report.push_str(&format!(
                " phases={} retunes={} reorders={}",
                s.phases, s.retunes, s.reorders
            ));
        }
        if let Some((r, _)) = &campaign {
            report.push_str(&format!(
                " enqueued={} dispatched={} data_loss_events={}",
                r.enqueued, r.dispatched, r.data_loss_events
            ));
        }

        let mut layers = Layers::new();
        if let Some(acc) = &acc {
            let driver = acc.secs(Slot::DriverStart)
                + acc.secs(Slot::DriverEvent)
                + acc.secs(Slot::DriverFault);
            let orch_self = match &campaign {
                Some(_) => acc.secs(Slot::Orchestrator) - driver,
                None => 0.0,
            };
            let wasted = outcome.recovery.wasted_repair_bytes;
            let coding = &outcome.coding;
            for (key, value) in [
                ("wall_s", wall_ns as f64 / 1e9),
                ("simnet.next_event_s", acc.secs(Slot::NextEvent)),
                ("simnet.events", profile.events as f64),
                ("simnet.solves", profile.solves as f64),
                ("simnet.solver_rounds", profile.solver_rounds as f64),
                ("simnet.dirty_groups", profile.dirty_groups as f64),
                ("simnet.full_solves", profile.full_solves as f64),
                ("simnet.heap_rebuilds", profile.heap_rebuilds as f64),
                ("simnet.faults.on_event_s", acc.secs(Slot::Faults)),
                ("core.driver.on_event_s", acc.secs(Slot::DriverEvent)),
                ("core.driver.start_s", acc.secs(Slot::DriverStart)),
                ("core.driver.on_fault_s", acc.secs(Slot::DriverFault)),
                ("core.plan.coefficients_s", acc.secs(Slot::Coefficients)),
                ("core.coding.bytes", coding.bytes_coded as f64),
                ("core.coding.s", coding.total_nanos() as f64 / 1e9),
                ("core.orchestrator.self_s", orch_self),
                (
                    "core.orchestrator.repaired",
                    campaign.as_ref().map_or(0.0, |(r, _)| r.repaired as f64),
                ),
                (
                    "core.orchestrator.dispatched",
                    campaign.as_ref().map_or(0.0, |(r, _)| r.dispatched as f64),
                ),
                ("core.recovery.repaired_bytes", outcome.repaired_bytes),
                ("core.recovery.wasted_bytes", wasted),
                ("cluster.build_s", acc.secs(Slot::ClusterBuild)),
                ("cluster.fg.on_event_s", acc.secs(Slot::Foreground)),
                ("traces.next_request_s", acc.secs(Slot::NextRequest)),
                (
                    "traces.next_request_calls",
                    acc.calls(Slot::NextRequest) as f64,
                ),
                (
                    "covered_s",
                    acc.secs(Slot::NextEvent)
                        + acc.secs(Slot::Faults)
                        + driver
                        + orch_self
                        + acc.secs(Slot::Foreground),
                ),
            ] {
                layers.insert(key.to_string(), value);
            }
        }
        Ok(CellRun {
            setup_ns,
            wall_ns,
            cpu_ns,
            digest,
            report,
            layers,
        })
    }
}
