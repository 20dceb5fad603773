//! The `repro cluster` section: scatter-gather scan throughput vs node
//! count on the sharded engine (DESIGN.md §15).
//!
//! One seeded f64 column is loaded into a [`ShardedEngine`] at every node
//! count; the planner lowers each aggregate to the scatter plan, every
//! shard reduces its local fragments on its own simulated device, and the
//! coordinator settles the cluster wall with the slowest shard's
//! `exec + round trip`. The sweep reports the measured *warm* scan wall
//! (virtual ns off the cluster ledger), the network bytes the scatter
//! moved, and the planner's own estimate for the same plan.
//!
//! Geometry: `partition_rows` is chosen as `rows.div_ceil(1024)` — the
//! flat executor's reduction segment length — so the fragment-granularity
//! scatter result is bit-identical not only to the single-node scatter
//! plan but to the *flat* single-node canonical sum. Every point asserts
//! that equality and reports it as `bit_identical`.
//!
//! Gates for CI: `scaling_gate_2x` (≥ 1.6× single-node scan throughput at
//! 2 nodes), `scaling_gate_4x` (≥ 3× at 4 nodes), `bit_identical` (every
//! scattered result byte-equal to the single-node oracle), and
//! `scatter_win_rate` (fraction of multi-node scatter plans the cost model
//! prices under the single-node plan).

use htapg_core::engine::StorageEngine;
use htapg_core::plan::{Aggregate, LogicalPlan, Predicate, Route};
use htapg_core::prng::Prng;
use htapg_core::{DataType, Schema, ShardingKind, Value};
use htapg_device::cluster::NetSpec;
use htapg_exec::physical::{self, Segmentation};
use htapg_exec::{ShardedEngine, ThreadingPolicy};

/// The scaling ladder of the acceptance sweep.
pub const NODE_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Sweep table size: large enough that per-shard kernel time dwarfs the
/// fixed launch + round-trip overhead, so the scaling gates measure the
/// scatter, not the floor.
pub fn table_rows(quick: bool) -> u64 {
    if quick {
        1 << 21
    } else {
        1 << 22
    }
}

/// Placement-fragment size for `rows`: the flat executor's reduction
/// segment length (`rows.div_ceil(1024)`), which makes the sharded
/// fragment geometry coincide bitwise with the flat canonical sum.
pub fn partition_rows(rows: u64) -> u64 {
    rows.div_ceil(1024).max(1)
}

/// A datacenter-ish interconnect (2 µs, 10 GB/s) — faster than the
/// default WAN-ish `NetSpec`, slower than PCIe, priced identically.
pub fn cluster_net() -> NetSpec {
    NetSpec { latency_ns: 2_000, bandwidth: 10.0e9 }
}

/// One node-count step of the scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ClusterPoint {
    pub nodes: u32,
    /// Cluster-ledger wall ns of one warm scattered column sum.
    pub scan_wall_ns: u64,
    /// Scan throughput implied by the warm wall (rows / virtual second).
    pub rows_per_sec: f64,
    /// Network bytes the measured scatter moved (requests + partials).
    pub net_bytes: u64,
    /// Planner estimate for the scatter sum plan at this node count.
    pub est_sum_ns: u64,
    /// Planner estimate for the scatter filter-sum plan.
    pub est_filter_ns: u64,
    /// Every scattered result matched the single-node oracle bit-for-bit.
    pub bit_identical: bool,
}

/// Run the sweep at the standard geometry.
pub fn measure(seed: u64, quick: bool) -> Vec<ClusterPoint> {
    measure_with(seed, table_rows(quick), &NODE_COUNTS)
}

/// Run the node-count sweep on a `rows`-row single-column table. Every
/// engine sees the identical seeded value stream; range sharding keeps the
/// per-node fragment counts exactly balanced so the settle measures the
/// scatter, not placement skew.
pub fn measure_with(seed: u64, rows: u64, node_counts: &[u32]) -> Vec<ClusterPoint> {
    let part = partition_rows(rows);
    let mut rng = Prng::seed_from_u64(seed);
    let values: Vec<f64> = (0..rows).map(|_| rng.gen_range(0..1_000_000) as f64 / 7.0).collect();
    let pred = Predicate::Ge(70_000.0);
    // The flat single-node oracles: the whole sweep must reproduce these
    // bits at every node count (see `partition_rows`).
    let flat = |agg| physical::reduce(&agg, &values, &[], Segmentation::Canonical, None).as_sum();
    let want_sum = flat(Aggregate::Sum).expect("sum");
    let want_filter = flat(Aggregate::FilterSum(pred)).expect("filter sum");

    let mut points = Vec::new();
    for &nodes in node_counts {
        let e = ShardedEngine::with_config(ShardingKind::Range, nodes, part, cluster_net());
        let schema = Schema::of(&[("v", DataType::Float64)]);
        let rel = e.create_relation(schema).expect("create relation");
        for &v in &values {
            e.insert(rel, &vec![Value::Float64(v)]).expect("insert");
        }

        let sum_plan = e.plan(&LogicalPlan::sum(rel, 0)).expect("plan sum");
        assert_eq!(
            sum_plan.root.route,
            Route::Scatter { shards: nodes as u16 },
            "the sharded engine must lower analytics to the scatter plan"
        );
        let filter_plan = e.plan(&LogicalPlan::filter_sum(rel, 0, pred)).expect("plan filter");

        // Warm-up round: places every shard's device replica, so the
        // measured round prices steady-state kernels, not cold uploads.
        let warm = physical::execute(&e, &sum_plan, ThreadingPolicy::Single)
            .expect("warm scatter")
            .as_sum()
            .expect("sum output");

        let base = e.cluster_ledger().snapshot();
        let got_sum = physical::execute(&e, &sum_plan, ThreadingPolicy::Single)
            .expect("measured scatter")
            .as_sum()
            .expect("sum output");
        let d = e.cluster_ledger().snapshot().since(&base);
        let got_filter = physical::execute(&e, &filter_plan, ThreadingPolicy::Single)
            .expect("measured filter scatter")
            .as_sum()
            .expect("sum output");

        let bit_identical = warm.to_bits() == want_sum.to_bits()
            && got_sum.to_bits() == want_sum.to_bits()
            && got_filter.to_bits() == want_filter.to_bits();
        points.push(ClusterPoint {
            nodes,
            scan_wall_ns: d.wall_ns.max(1),
            rows_per_sec: rows as f64 * 1e9 / d.wall_ns.max(1) as f64,
            net_bytes: d.network_bytes,
            est_sum_ns: sum_plan.estimated_ns(),
            est_filter_ns: filter_plan.estimated_ns(),
            bit_identical,
        });
    }
    points
}

/// Measured scan speedup of `nodes` over the single-node point.
pub fn speedup_at(points: &[ClusterPoint], nodes: u32) -> Option<f64> {
    let base = points.iter().find(|p| p.nodes == 1)?;
    let at = points.iter().find(|p| p.nodes == nodes)?;
    Some(base.scan_wall_ns as f64 / at.scan_wall_ns as f64)
}

/// Fraction of multi-node scatter plans the cost model prices strictly
/// under the single-node plan for the same query.
pub fn scatter_win_rate(points: &[ClusterPoint]) -> f64 {
    let Some(base) = points.iter().find(|p| p.nodes == 1) else {
        return 0.0;
    };
    let (mut wins, mut total) = (0u32, 0u32);
    for p in points.iter().filter(|p| p.nodes > 1) {
        total += 2;
        wins += u32::from(p.est_sum_ns < base.est_sum_ns);
        wins += u32::from(p.est_filter_ns < base.est_filter_ns);
    }
    if total == 0 {
        0.0
    } else {
        wins as f64 / total as f64
    }
}

/// The headline scaling gate: ≥ 1.6× scan throughput at 2 nodes.
pub fn scaling_gate_2x(points: &[ClusterPoint]) -> bool {
    speedup_at(points, 2).is_some_and(|s| s >= 1.6)
}

/// The second scaling gate: ≥ 3× scan throughput at 4 nodes.
pub fn scaling_gate_4x(points: &[ClusterPoint]) -> bool {
    speedup_at(points, 4).is_some_and(|s| s >= 3.0)
}

/// Every point's results matched the single-node oracle bit-for-bit.
pub fn all_bit_identical(points: &[ClusterPoint]) -> bool {
    !points.is_empty() && points.iter().all(|p| p.bit_identical)
}

/// Render the sweep as a `BENCH_cluster.json` document (hand-formatted;
/// the workspace has no JSON dependency).
pub fn to_json(seed: u64, rows: u64, points: &[ClusterPoint]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"cluster\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"rows\": {rows},\n"));
    out.push_str(&format!("  \"partition_rows\": {},\n", partition_rows(rows)));
    out.push_str("  \"sharding\": \"range\",\n");
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"scan_wall_ns\": {}, \"rows_per_sec\": {:.1}, \
             \"net_bytes\": {}, \"est_sum_ns\": {}, \"est_filter_ns\": {}, \
             \"bit_identical\": {}}}{}\n",
            p.nodes,
            p.scan_wall_ns,
            p.rows_per_sec,
            p.net_bytes,
            p.est_sum_ns,
            p.est_filter_ns,
            p.bit_identical,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"scatter_win_rate\": {:.3},\n", scatter_win_rate(points)));
    out.push_str(&format!("  \"speedup_2x\": {:.3},\n", speedup_at(points, 2).unwrap_or(0.0)));
    out.push_str(&format!("  \"speedup_4x\": {:.3},\n", speedup_at(points, 4).unwrap_or(0.0)));
    out.push_str(&format!("  \"scaling_gate_2x\": {},\n", scaling_gate_2x(points)));
    out.push_str(&format!("  \"scaling_gate_4x\": {},\n", scaling_gate_4x(points)));
    out.push_str(&format!("  \"bit_identical\": {}\n", all_bit_identical(points)));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrunk_sweep_is_bit_identical_and_scales() {
        // A shrunk geometry of the real sweep: the fixed launch and
        // round-trip overhead keeps the full ≥3× gate out of reach at this
        // size, so we pin the scale-independent facts — bit-identity at
        // every width, a free single-node interconnect, real network
        // traffic and a real win at 4 nodes.
        let points = measure_with(7, 1 << 19, &[1, 4]);
        assert_eq!(points.len(), 2);
        assert!(all_bit_identical(&points), "{points:?}");
        let single = &points[0];
        assert_eq!(single.net_bytes, 0, "coordinator-local scatter moves no bytes");
        let four = &points[1];
        assert!(four.net_bytes > 0, "remote shards must move bytes");
        let s = speedup_at(&points, 4).unwrap();
        assert!(s > 1.5, "4 nodes must meaningfully beat 1 at 512k rows: {s:.2}x {points:?}");
        assert_eq!(scatter_win_rate(&points), 1.0, "{points:?}");
    }

    #[test]
    fn json_document_is_well_formed() {
        let points = vec![
            ClusterPoint {
                nodes: 1,
                scan_wall_ns: 100,
                rows_per_sec: 1e9,
                net_bytes: 0,
                est_sum_ns: 90,
                est_filter_ns: 95,
                bit_identical: true,
            },
            ClusterPoint {
                nodes: 2,
                scan_wall_ns: 55,
                rows_per_sec: 1.8e9,
                net_bytes: 4_096,
                est_sum_ns: 50,
                est_filter_ns: 52,
                bit_identical: true,
            },
        ];
        let json = to_json(1, 1 << 20, &points);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert_eq!(json.matches("\"nodes\"").count(), 2);
        assert!(json.contains("\"scaling_gate_2x\": true"));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"scatter_win_rate\": 1.000"));
    }
}
