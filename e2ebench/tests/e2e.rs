//! The benchmark's own tests: every workload end to end at tiny sizes,
//! and every output check failing on a deliberately corrupted output.

use std::sync::Arc;

use chameleon_cluster::{Cluster, ClusterConfig};
use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_core::baseline::{PlanShape, StaticRepairDriver};
use chameleon_core::{
    BudgetPolicy, LedgerState, Orchestrator, OrchestratorConfig, QueuePolicy, RepairContext,
    RepairDriver,
};
use chameleon_e2ebench::codec::{check_encoded, CodecBench, CodecCell, Op, ScalarGf};
use chameleon_e2ebench::sim::{SimBench, SimSize};
use chameleon_e2ebench::{checks, run, Bench, PER_LAYER};
use chameleon_simnet::{FaultPlan, FaultSpec, ResourceKind};

fn tiny(nodes: usize, failed_nodes: usize) -> SimSize {
    SimSize {
        chunks_per_node: 4,
        requests_per_client: 40,
        nodes,
        clients: 4,
        failed_nodes,
    }
}

fn tiny_codec(seed: u64) -> CodecBench {
    let cells = [Op::Encode, Op::Repair, Op::Decode4]
        .into_iter()
        .flat_map(|op| {
            [4 << 10, 1 << 20].map(|block| CodecCell {
                block,
                op,
                stripes: 2,
                calls: 4,
            })
        })
        .collect();
    CodecBench::with_cells(seed, cells)
}

fn workloads(seed: u64) -> Vec<Box<dyn Bench>> {
    vec![
        Box::new(SimBench::testbed(seed, tiny(20, 1))),
        Box::new(SimBench::fabric(seed, tiny(40, 2))),
        Box::new(SimBench::campaign(seed, tiny(20, 0))),
        Box::new(tiny_codec(seed)),
    ]
}

#[test]
fn every_workload_runs_and_passes_its_checks_on_two_seeds() {
    for seed in [1, 2] {
        for bench in workloads(seed) {
            let summary = run(bench.as_ref(), 0.01, false);
            assert!(
                summary.correct(),
                "{} seed {seed}: {:?}",
                bench.name(),
                summary.errors
            );
            assert!(summary.attempted > 0);
            let names: Vec<&str> = summary.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]);
            for m in &summary.metrics {
                assert!(m.value > 0.0, "{} {} is {}", bench.name(), m.name, m.value);
            }
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_cover_the_loop() {
    for bench in workloads(3) {
        let summary = run(bench.as_ref(), 0.01, true);
        assert!(summary.correct(), "{}: {:?}", bench.name(), summary.errors);
        let names: Vec<&str> = summary.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
        let get = |name: &str| {
            summary
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(get("trace_overhead") > 0.0, "{}", bench.name());
        let coverage = get("trace.self_time_coverage");
        assert!(
            coverage > 0.5 && coverage <= 1.0,
            "{} coverage {coverage}",
            bench.name()
        );
        if bench.name() == "codec" {
            assert!(get("codes.encode_mb_s.1m") > 0.0 && get("gf.mul_xor_mb_s.1m") > 0.0);
        } else {
            assert!(get("simnet.events") > 0.0 && get("simnet.ns_per_event") > 0.0);
            assert!(get("core.driver.on_event_s") > 0.0 && get("traces.next_request_ns") > 0.0);
        }
        if bench.name() == "campaign" || bench.name() == "testbed" {
            assert!(get("core.orchestrator.self_s") > 0.0);
            assert!(get("simnet.faults.on_event_s") > 0.0);
        }
    }
}

#[test]
fn digests_ignore_tracing_and_follow_the_seed() {
    let digests = |seed| -> Vec<String> {
        let mut out = Vec::new();
        for bench in workloads(seed) {
            for cell in 0..bench.cells().len() {
                let plain = bench
                    .run_cell(cell, false, false)
                    .expect("cell runs")
                    .digest;
                let traced = bench.run_cell(cell, true, false).expect("cell runs").digest;
                assert_eq!(plain, traced, "{} cell {cell}", bench.name());
                out.push(plain);
            }
        }
        out
    };
    let a = digests(4);
    let b = digests(5);
    assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{a:?}\n{b:?}");
}

#[test]
fn flipped_parity_byte_fails_the_scalar_oracle() {
    let rs = ReedSolomon::new(10, 4).unwrap();
    let data: Vec<Vec<u8>> = (0..10u8)
        .map(|i| {
            (0..300u32)
                .map(|j| (j as u8).wrapping_mul(31) ^ i.wrapping_mul(97))
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let coeffs: Vec<Vec<u8>> = (10..14)
        .map(|p| {
            let sources: Vec<usize> = (0..10).collect();
            rs.repair_coefficients(p, &sources)
                .unwrap()
                .iter()
                .map(|c| c.value())
                .collect()
        })
        .collect();
    let gf = ScalarGf::default();
    let mut out = rs.encode(&refs).unwrap();
    for parity in 0..4 {
        check_encoded(&gf, &coeffs, &refs, &out, parity, 0..300).expect("true parity passes");
    }
    out[12][137] ^= 0x40;
    let err = check_encoded(&gf, &coeffs, &refs, &out, 2, 0..300).unwrap_err();
    assert!(err.contains("parity 12"), "{err}");
    out[12][137] ^= 0x40;
    out[3][5] ^= 1;
    assert!(check_encoded(&gf, &coeffs, &refs, &out, 0, 0..300).is_err());
}

#[test]
fn dropped_repaired_chunk_fails_the_repair_check() {
    let mut cfg = ClusterConfig::small(6);
    cfg.stripes = 12;
    let chunk_size = cfg.chunk_size;
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster.fail_node(0).unwrap();
    let lost = cluster.lost_chunks(&[0]);
    assert!(lost.len() > 1);
    let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
    let mut sim = ctx.cluster.build_simulator();
    let mut driver = StaticRepairDriver::new(ctx, PlanShape::Star, 1);
    driver.start(&mut sim, lost.clone());
    while let Some(ev) = sim.next_event() {
        driver.on_event(&mut sim, &ev);
    }
    let outcome = driver.outcome(&sim);
    checks::repaired_once(&lost, &outcome, chunk_size).expect("a clean repair passes");

    let mut dropped = outcome.clone();
    dropped.spans.pop();
    assert!(checks::repaired_once(&lost, &dropped, chunk_size).is_err());
    let mut twice = outcome.clone();
    twice.spans.push(twice.spans[0]);
    assert!(checks::repaired_once(&lost, &twice, chunk_size).is_err());
    let mut short = outcome;
    short.repaired_bytes -= chunk_size as f64;
    assert!(checks::repaired_once(&lost, &short, chunk_size).is_err());
}

#[test]
fn ledger_entry_left_in_flight_fails_the_ledger_check() {
    let mut cfg = ClusterConfig::small(6);
    cfg.stripes = 12;
    let ctx = RepairContext::new(
        Cluster::new(cfg).unwrap(),
        Arc::new(ReedSolomon::new(4, 2).unwrap()),
    );
    let mut sim = ctx.cluster.build_simulator();
    let nodes: Vec<usize> = (0..ctx.cluster.storage_nodes()).collect();
    let plan = FaultPlan::seeded_poisson(9, &nodes, 60.0, (0.0, 40.0), Some(20.0));
    let mut injector = plan.inject(&mut sim);
    let driver = Box::new(StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 1));
    let config = OrchestratorConfig {
        queue: QueuePolicy::RedundancyPriority,
        budget: BudgetPolicy::Unlimited,
        max_in_flight: 4,
        window_secs: 15.0,
    };
    let mut orch = Orchestrator::new(ctx, driver, config);
    while let Some(ev) = sim.next_event() {
        if let Some(fault) = injector.on_event(&mut sim, &ev) {
            orch.on_fault(&mut sim, &fault);
        } else {
            orch.on_event(&mut sim, &ev);
        }
    }
    let report = orch.report();
    let jsonl = orch.ledger_jsonl();
    assert!(!orch.ledger().is_empty());
    checks::ledger(orch.ledger(), &report, &jsonl).expect("a quiesced campaign passes");

    let mut in_flight = orch.ledger().clone();
    let entry = in_flight.values_mut().next().unwrap();
    entry.state = LedgerState::InFlight;
    let err = checks::ledger(&in_flight, &report, &jsonl).unwrap_err();
    assert!(err.contains("in_flight"), "{err}");

    let lines: Vec<&str> = jsonl.lines().collect();
    let truncated: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(checks::ledger(orch.ledger(), &report, &truncated).is_err());
    let mangled = jsonl.replacen("\"state\":", "\"state\"", 1);
    assert!(checks::ledger(orch.ledger(), &report, &mangled).is_err());
}

#[test]
fn capacity_follows_the_fault_plan() {
    let plan = FaultPlan::new(vec![
        FaultSpec::Slowdown {
            node: 1,
            at_secs: 5.0,
            factor: 0.25,
            duration_secs: 4.0,
        },
        FaultSpec::Crash {
            node: 2,
            at_secs: 2.0,
        },
        FaultSpec::Recover {
            node: 2,
            at_secs: 8.0,
        },
    ]);
    let secs = |node, kind| checks::capacity_seconds(&plan, node, kind, 0.0, 15.0);
    assert!((secs(1, ResourceKind::Uplink) - 12.0).abs() < 1e-9);
    assert!((secs(1, ResourceKind::DiskRead) - 15.0).abs() < 1e-9);
    assert!((secs(2, ResourceKind::DiskWrite) - 9.0).abs() < 1e-9);
    assert!((secs(0, ResourceKind::Downlink) - 15.0).abs() < 1e-9);
}

#[test]
fn traffic_above_the_planned_capacity_fails_the_overshoot_check() {
    let mut cfg = ClusterConfig::small(6);
    cfg.stripes = 12;
    let caps = vec![cfg.node_caps; cfg.total_nodes()];
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster.fail_node(0).unwrap();
    let lost = cluster.lost_chunks(&[0]);
    let ctx = RepairContext::new(cluster, Arc::new(ReedSolomon::new(4, 2).unwrap()));
    let slowdown = |factor| {
        FaultPlan::new(vec![FaultSpec::Slowdown {
            node: 1,
            at_secs: 0.0,
            factor,
            duration_secs: 1e6,
        }])
    };
    let applied = slowdown(0.25);
    let mut sim = ctx.cluster.build_simulator();
    let mut injector = applied.inject(&mut sim);
    let mut driver = StaticRepairDriver::new(ctx.clone(), PlanShape::Star, 1);
    driver.start(&mut sim, lost);
    while let Some(ev) = sim.next_event() {
        if let Some(fault) = injector.on_event(&mut sim, &ev) {
            driver.on_fault(&mut sim, &fault);
        } else {
            driver.on_event(&mut sim, &ev);
        }
    }
    assert!(driver.is_done());
    let monitor = sim.monitor();
    checks::node_caps_respected(monitor, &caps, Some(&applied), 1e-6)
        .expect("a straggler within its slowed capacity passes");

    // The same traffic judged against a harsher slowdown, or against a
    // crash, than the engine applied: node 1 ran above that capacity.
    let err = checks::node_caps_respected(monitor, &caps, Some(&slowdown(0.01)), 1e-6).unwrap_err();
    assert!(err.contains("node 1 Uplink"), "{err}");
    let crashed = FaultPlan::new(vec![FaultSpec::Crash {
        node: 1,
        at_secs: 0.0,
    }]);
    let err = checks::node_caps_respected(monitor, &caps, Some(&crashed), 1e-6).unwrap_err();
    assert!(err.contains("node 1"), "{err}");
}
