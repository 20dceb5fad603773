//! Online cost-model calibration, pinned end-to-end: a deliberately
//! mis-priced device profile routes a sum to the device; the executor's
//! observed virtual-time residuals feed the EWMA calibration profiles;
//! once the (op, route) key warms up, the planner flips the route to the
//! host **purely from residual evidence** — no code path consults the
//! real device profile — and every answer before, during, and after the
//! flip is bit-identical to the Volcano oracle.

use htapg::core::calibrate::{Calibrated, CalibrationProfiles};
use htapg::core::engine::StorageEngine;
use htapg::core::plan::Aggregate;
use htapg::core::plan::{DeviceCostProfile, LogicalPlan, Route};
use htapg::core::prng::env_seed;
use htapg::engines::ReferenceEngine;
use htapg::exec::physical::{self, QueryOutput, Segmentation};
use htapg::exec::threading::ThreadingPolicy;
use htapg::workload::driver::{load_customers, run_sequential};
use htapg::workload::queries::{mixed_stream, MixConfig};
use htapg::workload::tpcc::{item_attr, item_schema, Generator};

/// A device profile that lies: transfers and kernels are priced at a few
/// virtual ns, so the uncalibrated planner finds the device irresistibly
/// cheap. The engine's *actual* simulated device is untouched — the lie
/// surfaces as estimated-vs-actual residuals.
fn lying_cheap_device() -> DeviceCostProfile {
    DeviceCostProfile {
        pcie_bandwidth: 1.0e15,
        pcie_latency_ns: 1,
        kernel_launch_ns: 1,
        mem_bandwidth: 1.0e15,
        clock_hz: 1.0e15,
        lanes: 640,
    }
}

fn planned_sum_checked(engine: &dyn StorageEngine, logical: &LogicalPlan) -> (Route, f64) {
    let plan = engine.plan(logical).unwrap();
    let route = plan.route();
    let out = physical::execute_observed(engine, &plan, ThreadingPolicy::Single).unwrap();
    match out.output {
        QueryOutput::Sum(x) => (route, x),
        other => panic!("sum plan returned {other:?}"),
    }
}

/// The tentpole scenario: mis-priced device -> residuals -> route flip.
#[test]
fn residuals_flip_a_mispriced_device_route_to_the_host() {
    let engine =
        Calibrated::new(Box::new(ReferenceEngine::new())).with_device_profile(lying_cheap_device());
    let gen = Generator::new(env_seed(21));
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..100 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    let logical = LogicalPlan::sum(rel, item_attr::I_PRICE);
    let oracle = physical::volcano(
        &engine,
        rel,
        item_attr::I_PRICE,
        &Aggregate::Sum,
        Segmentation::Canonical,
    )
    .unwrap()
    .as_sum()
    .unwrap();
    let warmup = engine.profiles().config().warmup;

    // Warm-up rounds: the lying profile keeps routing to the (cold)
    // device. A same-value write-back before each plan bumps the relation
    // version, so the replica is always stale and every round pays the
    // real upload the planner priced at ~nothing.
    for round in 0..warmup {
        let price = engine.read_field(rel, 0, item_attr::I_PRICE).unwrap();
        engine.update_field(rel, 0, item_attr::I_PRICE, &price).unwrap();
        let (route, sum) = planned_sum_checked(&engine, &logical);
        assert_eq!(
            route,
            Route::DevicePipelined,
            "round {round}: mis-priced cold device must look cheapest"
        );
        assert_eq!(sum.to_bits(), oracle.to_bits(), "device route vs volcano, round {round}");
    }

    // The key is warmed now; the learned factor records how badly the
    // profile lied.
    let profiles = engine.profiles();
    assert_eq!(profiles.observations("plan.aggregate.sum", "device-pipelined"), warmup);
    let factor = profiles.learned_factor("plan.aggregate.sum", "device-pipelined").unwrap();
    assert!(factor > 100.0, "the lie was orders of magnitude: factor {factor}");

    // The flip: same logical plan, same (stale-replica) evidence, same
    // lying profile — only the calibration state changed.
    let price = engine.read_field(rel, 0, item_attr::I_PRICE).unwrap();
    engine.update_field(rel, 0, item_attr::I_PRICE, &price).unwrap();
    let plan = engine.plan(&logical).unwrap();
    assert_eq!(
        plan.route(),
        Route::InlineVolcano,
        "calibrated device estimate must exceed the host scan"
    );
    assert!(plan.root.raw_estimated_ns > 0, "host route raw estimate survives on the flipped plan");
    let out = physical::execute_observed(&engine, &plan, ThreadingPolicy::Single).unwrap();
    match out.output {
        QueryOutput::Sum(x) => {
            assert_eq!(x.to_bits(), oracle.to_bits(), "flipped host route vs volcano")
        }
        other => panic!("sum plan returned {other:?}"),
    }
    assert_eq!(out.executed_route, Route::InlineVolcano);
}

/// The driver's adaptive execution calibrates live under a mixed HTAP
/// stream: after a sequential run every learned factor is finite and
/// positive, and the analytic op keys have accumulated observations.
#[test]
fn driver_calibrates_live_under_mixed_load() {
    let engine = Calibrated::new(Box::new(ReferenceEngine::new()));
    let gen = Generator::new(env_seed(31));
    let rel = load_customers(&engine, &gen, 400).unwrap();
    let ops = mixed_stream(&gen, 1, 400, 150, &MixConfig::default());
    let report = run_sequential(&engine, rel, &ops);
    assert_eq!(report.oltp.errors + report.olap.errors, 0);

    let profiles = engine.profiles();
    assert!(!profiles.is_empty(), "a mixed run must feed the profiles");
    let snap = profiles.snapshot();
    let total_obs: u64 = snap.entries.iter().map(|e| e.observations).sum();
    assert_eq!(total_obs, ops.len() as u64, "every driver op contributes exactly one residual");
    for e in &snap.entries {
        assert!(e.factor.is_finite() && e.factor > 0.0, "{e:?}");
        assert!(e.op.starts_with("plan."), "keys are plan span names: {e:?}");
    }
}

/// Calibration is a pure function of the observation stream: two
/// identically-seeded sequential runs on fresh engines snapshot to
/// byte-identical factors (`f64::to_bits` equality), regardless of
/// `HTAPG_THREADS`.
#[test]
fn identically_seeded_runs_calibrate_byte_identically() {
    let run = |seed: u64| {
        let engine = Calibrated::new(Box::new(ReferenceEngine::new()));
        let gen = Generator::new(seed);
        let rel = load_customers(&engine, &gen, 300).unwrap();
        let ops = mixed_stream(&gen, 1, 300, 120, &MixConfig::default());
        let report = run_sequential(&engine, rel, &ops);
        assert_eq!(report.oltp.errors + report.olap.errors, 0);
        engine.profiles().snapshot()
    };
    let seed = env_seed(7);
    let a = run(seed);
    let b = run(seed);
    assert!(!a.entries.is_empty());
    assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!((&x.op, &x.route), (&y.op, &y.route));
        assert_eq!(x.observations, y.observations);
        assert_eq!(
            x.factor.to_bits(),
            y.factor.to_bits(),
            "({}, {}) factors differ in bits",
            x.op,
            x.route
        );
    }
}

/// Snapshot/restore moves learned state between engines: a fresh engine
/// restored from a warmed snapshot plans like the warmed one immediately.
#[test]
fn restored_snapshot_transfers_the_route_flip() {
    let teach = CalibrationProfiles::new();
    for _ in 0..teach.config().warmup {
        // "The device profile under-estimates sums by ~5000x."
        teach.observe("plan.aggregate.sum", "device-pipelined", 10, 50_000);
    }
    let snap = teach.snapshot();

    let engine =
        Calibrated::new(Box::new(ReferenceEngine::new())).with_device_profile(lying_cheap_device());
    let gen = Generator::new(env_seed(17));
    let rel = engine.create_relation(item_schema()).unwrap();
    for i in 0..100 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    let logical = LogicalPlan::sum(rel, item_attr::I_PRICE);
    // Unrestored: the lie wins.
    assert_eq!(engine.plan(&logical).unwrap().route(), Route::DevicePipelined);
    // Restored: the transferred evidence flips the very first plan.
    engine.profiles().restore(&snap);
    assert_eq!(engine.plan(&logical).unwrap().route(), Route::InlineVolcano);
}
