//! Sharded scale-out integration: partitioned placement over `SimCluster`
//! (DESIGN.md §15) must be a *pure* scale-out — the scatter-gather plan
//! returns the same bits as the single-node plan at every node count and
//! for both partitioning kinds, the EXPLAIN root reconciles exactly with
//! the cluster ledger's wall delta, and the HTAP driver can mix routed
//! point ops with scatter analytics on the executor pool.

use htapg::core::calibrate::Calibrated;
use htapg::core::engine::StorageEngine;
use htapg::core::obs::{self, TraceReport, Tracer};
use htapg::core::plan::{Aggregate, LogicalPlan, PhysicalOp, Predicate, Route};
use htapg::core::prng::{check_cases, env_seed, Prng};
use htapg::core::{DataType, RelationId, Schema, ShardingKind, Value};
use htapg::device::cluster::NetSpec;
use htapg::exec::physical::{self, volcano, Segmentation};
use htapg::exec::{ShardedEngine, ThreadingPolicy};
use htapg::workload::driver::run_concurrent;
use htapg::workload::queries::Op;

/// Deterministic (key, value) rows shared by every engine in one case.
fn rows(rng: &mut Prng, n: u64) -> Vec<(i64, f64)> {
    (0..n)
        .map(|_| (rng.gen_range(0..24) as i64, rng.gen_range(0..1_000_000) as f64 / 7.0))
        .collect()
}

fn load(
    kind: ShardingKind,
    nodes: u32,
    partition_rows: u64,
    data: &[(i64, f64)],
) -> (ShardedEngine, RelationId) {
    let e = ShardedEngine::with_config(kind, nodes, partition_rows, NetSpec::default());
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)]);
    let rel = e.create_relation(schema).unwrap();
    for &(k, v) in data {
        e.insert(rel, &vec![Value::Int64(k), Value::Float64(v)]).unwrap();
    }
    (e, rel)
}

fn run_sum(e: &ShardedEngine, rel: RelationId) -> f64 {
    let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
    physical::execute(e, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap()
}

fn run_filter_sum(e: &ShardedEngine, rel: RelationId, pred: Predicate) -> f64 {
    let plan = e.plan(&LogicalPlan::filter_sum(rel, 1, pred)).unwrap();
    physical::execute(e, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap()
}

fn run_group_sum(e: &ShardedEngine, rel: RelationId) -> Vec<(i64, f64)> {
    let plan = e.plan(&LogicalPlan::group_sum(rel, 0, 1)).unwrap();
    physical::execute(e, &plan, ThreadingPolicy::Single).unwrap().as_groups().unwrap().to_vec()
}

fn assert_groups_bits(got: &[(i64, f64)], want: &[(i64, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: group count diverged");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "{what}: key order diverged");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{what}: key {} value diverged", g.0);
    }
}

// ---------------------------------------------------------------------
// The acceptance sweep: node counts {1, 2, 4, 8} × {hash, range} × every
// aggregate shape, seeded data — all byte-equal to the single-node plan
// and to the sharded volcano oracle.
// ---------------------------------------------------------------------

#[test]
fn scatter_gather_is_bit_identical_to_single_node_at_every_scale() {
    check_cases("cluster_shard_sweep", 3, 0x5CA7_7E12, |case, rng| {
        let part = [64u64, 192, 320, 512][case as usize % 4];
        let n = 1_200 + rng.gen_range(0..900u64);
        let data = rows(rng, n);
        let pred = Predicate::Ge(rng.gen_range(0..140_000) as f64);
        for &kind in &[ShardingKind::Hash, ShardingKind::Range] {
            // The k = 1 cluster is the baseline; its planner still emits
            // the scatter shape (one local shard), and its result must
            // already match the single-node volcano oracle.
            let (e1, r1) = load(kind, 1, part, &data);
            let base_sum = run_sum(&e1, r1);
            let base_filter = run_filter_sum(&e1, r1, pred);
            let base_groups = run_group_sum(&e1, r1);
            let p = part as usize;
            assert_eq!(
                base_sum.to_bits(),
                volcano(&e1, r1, 1, &Aggregate::Sum, Segmentation::Fragments(p))
                    .unwrap()
                    .as_sum()
                    .unwrap()
                    .to_bits(),
                "case {case} {kind:?}: k=1 sum diverged from the volcano oracle"
            );
            assert_eq!(
                base_filter.to_bits(),
                volcano(&e1, r1, 1, &Aggregate::FilterSum(pred), Segmentation::Fragments(p))
                    .unwrap()
                    .as_sum()
                    .unwrap()
                    .to_bits(),
                "case {case} {kind:?}: k=1 filter-sum diverged from the volcano oracle"
            );
            assert_groups_bits(
                &base_groups,
                volcano(
                    &e1,
                    r1,
                    1,
                    &Aggregate::GroupSum { key_attr: 0 },
                    Segmentation::Fragments(p),
                )
                .unwrap()
                .as_groups()
                .unwrap(),
                &format!("case {case} {kind:?}: k=1 group-sum vs oracle"),
            );

            for &nodes in &[2u32, 4, 8] {
                let (e, rel) = load(kind, nodes, part, &data);
                let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
                assert_eq!(plan.root.route, Route::Scatter { shards: nodes as u16 });
                assert!(
                    matches!(plan.root.children[0].op, PhysicalOp::Gather { shards } if shards == nodes as u16),
                    "case {case} {kind:?} nodes {nodes}: missing gather node"
                );
                let what = format!("case {case} {kind:?} nodes {nodes}");
                assert_eq!(run_sum(&e, rel).to_bits(), base_sum.to_bits(), "{what}: sum");
                assert_eq!(
                    run_filter_sum(&e, rel, pred).to_bits(),
                    base_filter.to_bits(),
                    "{what}: filter-sum"
                );
                assert_groups_bits(&run_group_sum(&e, rel), &base_groups, &what);
            }
        }
    });
}

/// A `Calibrated` wrapper forwards the shard evidence and the offload
/// hook, so a calibrated sharded engine still plans scatter-gather and
/// runs it on the shards, bit for bit the fragment oracle's answer.
#[test]
fn calibrated_sharded_engine_still_scatters() {
    let seed = env_seed(0xCA1B);
    let data = rows(&mut Prng::seed_from_u64(seed), 2_000);
    let (e, rel) = load(ShardingKind::Hash, 4, 256, &data);
    let e = Calibrated::new(Box::new(e));
    let pred = Predicate::Ge(70_000.0);
    for (logical, agg) in [
        (LogicalPlan::sum(rel, 1), Aggregate::Sum),
        (LogicalPlan::filter_sum(rel, 1, pred), Aggregate::FilterSum(pred)),
        (LogicalPlan::group_sum(rel, 0, 1), Aggregate::GroupSum { key_attr: 0 }),
    ] {
        let plan = e.plan(&logical).unwrap();
        assert_eq!(plan.root.route, Route::Scatter { shards: 4 }, "{agg:?} (HTAPG_SEED={seed})");
        let got = physical::execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let want = volcano(&e, rel, 1, &agg, Segmentation::Fragments(256)).unwrap();
        match (got.as_groups(), want.as_groups()) {
            (Some(g), Some(w)) => assert_groups_bits(g, w, &format!("{agg:?} (HTAPG_SEED={seed})")),
            _ => assert_eq!(
                got.as_sum().unwrap().to_bits(),
                want.as_sum().unwrap().to_bits(),
                "{agg:?} (HTAPG_SEED={seed})"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// EXPLAIN/ledger reconciliation: a traced cluster run's root span covers
// exactly the cluster ledger's wall delta — point-op round trips, retry
// backoff, and the scatter settle all land on the same clock.
// ---------------------------------------------------------------------

#[test]
fn explain_root_reconciles_with_the_cluster_ledger() {
    let seed = env_seed(0xC1D5);
    let mut rng = Prng::seed_from_u64(seed);
    let data = rows(&mut rng, 3_000);
    let (e, rel) = load(ShardingKind::Range, 4, 256, &data);
    let clock = e.trace_clock().expect("the sharded engine runs on the cluster ledger");

    let tracer = Tracer::new(clock.clone());
    obs::install(tracer.clone());
    let base = e.cluster_ledger().snapshot();
    let v0 = clock.now_ns();
    {
        let _root = obs::span("query", "cluster.run");
        for row in [3u64, 700, 1_500, 2_900] {
            e.read_field(rel, row, 1).unwrap();
        }
        e.update_field(rel, 42, 1, &Value::Float64(1.5)).unwrap();
        run_sum(&e, rel);
        run_group_sum(&e, rel);
    }
    let v1 = clock.now_ns();
    obs::uninstall();

    let delta = e.cluster_ledger().snapshot().since(&base);
    assert!(delta.network_ns > 0, "the run crossed the interconnect (HTAPG_SEED={seed})");
    assert!(delta.network_bytes > 0, "payload bytes were counted (HTAPG_SEED={seed})");

    let report = TraceReport::from_spans(tracer.drain());
    let root = report.find_root("cluster.run").expect("root span present");
    assert!(root.inclusive_ns > 0, "the traced run advanced virtual time (HTAPG_SEED={seed})");
    assert_eq!(
        root.inclusive_ns,
        v1 - v0,
        "root span inclusive ns must equal the cluster ledger wall delta (HTAPG_SEED={seed})"
    );
    assert_eq!(
        root.inclusive_ns, delta.wall_ns,
        "ledger snapshot delta must agree with the trace clock (HTAPG_SEED={seed})"
    );
}

// ---------------------------------------------------------------------
// Mixed HTAP load on the driver: point ops route to the owning shard
// while analytics scatter-gather, concurrently, on the executor pool.
// ---------------------------------------------------------------------

#[test]
fn driver_mixes_routed_point_ops_with_scatter_analytics() {
    let seed = env_seed(0xD21F);
    let mut rng = Prng::seed_from_u64(seed);
    const N: u64 = 4_000;
    let data = rows(&mut rng, N);
    let (e, rel) = load(ShardingKind::Hash, 4, 256, &data);

    let mut ops = Vec::new();
    for i in 0..240u64 {
        ops.push(match i % 6 {
            0 => Op::SumColumn(1),
            1 => Op::GroupSum { key_attr: 0, value_attr: 1 },
            2 => Op::UpdateField {
                row: rng.gen_range(0..N),
                attr: 1,
                value: Value::Float64(rng.gen_range(0..1_000) as f64),
            },
            3 => Op::Materialize(vec![rng.gen_range(0..N)]),
            _ => Op::PointRead(rng.gen_range(0..N)),
        });
    }
    let report = run_concurrent(&e, rel, &ops, 2, 2);
    assert_eq!(report.oltp.errors, 0, "no point op may fail (HTAPG_SEED={seed})");
    assert_eq!(report.olap.errors, 0, "no scatter may fail (HTAPG_SEED={seed})");
    assert_eq!(report.oltp.ops, 160);
    assert_eq!(report.olap.ops, 80);

    // Quiescent analytic state matches the single-node oracle bit-for-bit
    // even after the concurrent write traffic.
    assert_eq!(
        run_sum(&e, rel).to_bits(),
        volcano(&e, rel, 1, &Aggregate::Sum, Segmentation::Fragments(256))
            .unwrap()
            .as_sum()
            .unwrap()
            .to_bits(),
        "post-run sum diverged from the oracle (HTAPG_SEED={seed})"
    );

    // Placement stayed complete, and the per-node dashboard metrics are
    // live: every node holds rows, and the remote nodes moved bytes.
    let per_node = e.shard_rows(rel).unwrap();
    assert_eq!(per_node.iter().sum::<u64>(), N);
    let m = obs::metrics();
    assert!(m.gauge("cluster.node0.rows").get() > 0);
    for n in 1..4u32 {
        let name: &'static str = Box::leak(format!("cluster.node{n}.net_bytes").into_boxed_str());
        assert!(m.counter(name).get() > 0, "node {n} never moved bytes (HTAPG_SEED={seed})");
    }
}
