//! `ShardedEngine`: N-node partitioned placement over [`SimCluster`]
//! (DESIGN.md §15) — the scale-out half of ES²'s "intentional placement at
//! a certain node".
//!
//! Rows are partitioned at *fragment* granularity: every
//! `partition_rows` consecutive global rows form one placement fragment,
//! and [`Sharding`] maps fragments to nodes (hash or range,
//! deterministically from `HTAPG_SEED`). Analytics scatter-gather: the
//! coordinator (node 0) fans per-shard partial-aggregate requests out over
//! the interconnect, every shard reduces its local fragments on its own
//! simulated device, and the coordinator merges the per-fragment partials
//! *in global fragment order* — which makes the result bit-identical to
//! the single-node oracle ([`crate::physical::volcano`] under fragment
//! segmentation) at every node count, because the partial set is fixed by
//! the fragment geometry alone; the cluster width only decides who
//! computes each one.
//!
//! Costs follow the paper's storage-engine framing: cross-node messages
//! are priced exactly like PCIe (latency + bytes/bandwidth) and charged to
//! the *cluster* ledger under the `net` category. Scatter requests to
//! different nodes fly concurrently, so their flight time is charged
//! overlapped and the wall is settled once at the gather with the `max`
//! over per-shard `exec + round-trip` — the same overlap treatment the
//! device pipeline gives copy/compute.
//!
//! Fault injection ([`FaultSite::ClusterSend`]) is rolled *sequentially*
//! in canonical node order — requests before the parallel shard
//! execution, responses after — so a seeded chaos run replays
//! bit-identically regardless of pool interleaving, and every dropped
//! message is retried (bounded, virtual-time backoff) or fails the whole
//! gather: a partial gather is never returned.

use std::sync::Arc;

use htapg_core::calibrate::CalibrationProfiles;
use htapg_core::engine::StorageEngine;
use htapg_core::obs;
use htapg_core::plan::{
    Aggregate, ColumnEvidence, DeviceCostProfile, QueryOutput, Route, GROUP_PARTIAL_BYTES,
    SCATTER_REQUEST_BYTES, SUM_PARTIAL_BYTES,
};
use htapg_core::prng::env_seed;
use htapg_core::retry::{with_retry, RetryPolicy};
use htapg_core::sync::RwLock as PRwLock;
use htapg_core::{
    AttrId, DataType, Error, Record, RelationId, Result, RowId, Schema, ShardEvidence,
    ShardPlanEvidence, Sharding, ShardingKind, Value,
};
use htapg_device::cluster::{NetSpec, SimCluster};
use htapg_device::faults::FaultPlan;
use htapg_device::kernels;
use htapg_device::{CostLedger, DeviceColumnCache, SimDevice};
use htapg_taxonomy::{
    Classification, DataLocality, DataLocation, FragmentLinearization, FragmentScheme,
    LayoutAdaptability, LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
};

use crate::pool;

/// Default placement-fragment size (rows), matching the reference
/// engine's horizontal chunking.
pub const DEFAULT_PARTITION_ROWS: u64 = 4096;

/// Request/response payload of a routed point operation (key + field).
const POINT_RPC_BYTES: usize = 24;

/// Where one placement fragment lives.
#[derive(Debug, Clone, Copy)]
struct FragInfo {
    shard: u32,
    /// First local row of this fragment within its shard's store.
    local_base: u64,
}

struct ShardRel {
    schema: Schema,
    rows: u64,
    /// Global fragment order → owning shard; the canonical merge order.
    frags: Vec<FragInfo>,
    /// Per-shard row stores, local (arrival) order.
    stores: Vec<Vec<Record>>,
    /// Bumped on every insert/update so device replicas go stale exactly
    /// when the base data moves underneath them.
    version: u64,
}

impl ShardRel {
    fn locate(&self, part: u64, row: RowId) -> Result<(u32, usize)> {
        if row >= self.rows {
            return Err(Error::UnknownRow(row));
        }
        let f = (row / part) as usize;
        let frag = self.frags[f];
        Ok((frag.shard, (frag.local_base + row % part) as usize))
    }
}

/// Per-node observability handles (resolved once; names live forever in
/// the metrics registry, so the dashboard can render per-node columns).
struct NodeStats {
    rows: Arc<obs::Gauge>,
    net_bytes: Arc<obs::Counter>,
    op_ns: Arc<obs::Histogram>,
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// The sharded scale-out engine.
pub struct ShardedEngine {
    sharding: Sharding,
    cluster: PRwLock<SimCluster>,
    /// Stable handle on the cluster ledger (the engine's trace clock).
    ledger: Arc<CostLedger>,
    devices: Vec<Arc<SimDevice>>,
    caches: Vec<DeviceColumnCache>,
    rels: PRwLock<Vec<ShardRel>>,
    calibration: Arc<CalibrationProfiles>,
    retry: RetryPolicy,
    nodes: Vec<NodeStats>,
}

impl ShardedEngine {
    pub fn new(kind: ShardingKind, nodes: u32) -> Self {
        Self::with_config(kind, nodes, DEFAULT_PARTITION_ROWS, NetSpec::default())
    }

    /// Full-control constructor. The placement seed honors `HTAPG_SEED`.
    pub fn with_config(kind: ShardingKind, nodes: u32, partition_rows: u64, net: NetSpec) -> Self {
        let sharding = Sharding::new(kind, nodes, partition_rows, env_seed(0x5AAD));
        let cluster = SimCluster::new(nodes as usize, net);
        let ledger = Arc::clone(cluster.ledger());
        let devices: Vec<Arc<SimDevice>> =
            (0..nodes).map(|_| Arc::new(SimDevice::with_defaults())).collect();
        let caches = devices.iter().map(|d| DeviceColumnCache::new(d.clone())).collect();
        let m = obs::metrics();
        let node_stats = (0..nodes)
            .map(|n| NodeStats {
                rows: m.gauge(leak(format!("cluster.node{n}.rows"))),
                net_bytes: m.counter(leak(format!("cluster.node{n}.net_bytes"))),
                op_ns: m.histogram(leak(format!("cluster.node{n}.op_ns"))),
            })
            .collect();
        ShardedEngine {
            sharding,
            cluster: PRwLock::new(cluster),
            ledger,
            devices,
            caches,
            rels: PRwLock::new(Vec::new()),
            calibration: Arc::new(CalibrationProfiles::new()),
            retry: RetryPolicy::default(),
            nodes: node_stats,
        }
    }

    pub fn sharding(&self) -> Sharding {
        self.sharding
    }

    /// The cluster-wide cost ledger (also the engine's trace clock).
    pub fn cluster_ledger(&self) -> Arc<CostLedger> {
        self.ledger.clone()
    }

    /// Install a fault plan on the interconnect (chaos testing).
    pub fn set_fault_plan(&self, fault_plan: Arc<FaultPlan>) {
        self.cluster.write().set_fault_plan(fault_plan);
    }

    /// Rendered fault-injection history, for replay-identity assertions.
    pub fn fault_history(&self) -> String {
        self.cluster.read().fault_plan().history_string()
    }

    /// Rows currently stored at each node.
    pub fn shard_rows(&self, rel: RelationId) -> Result<Vec<u64>> {
        self.with_rel(rel, |r| Ok(r.stores.iter().map(|s| s.len() as u64).collect()))
    }

    fn with_rel<R>(&self, rel: RelationId, f: impl FnOnce(&ShardRel) -> Result<R>) -> Result<R> {
        let rels = self.rels.read();
        f(rels.get(rel as usize).ok_or(Error::UnknownRelation(rel))?)
    }

    /// One routed point-op round trip: coordinator → owning shard → back.
    /// Wall-advancing (a point op is synchronous), fault-covered, retried.
    fn point_rpc(&self, shard: u32) -> Result<()> {
        if shard == 0 {
            return Ok(());
        }
        let mut span = obs::span("net", "rpc.point");
        if span.is_recording() {
            span.arg("node", shard);
        }
        let cluster = self.cluster.read();
        let there = with_retry(&self.retry, &self.ledger, || {
            cluster.send_overlapped(0, shard, POINT_RPC_BYTES)
        })?;
        let back = with_retry(&self.retry, &self.ledger, || {
            cluster.send_overlapped(shard, 0, POINT_RPC_BYTES)
        })?;
        self.ledger.advance_wall(there + back);
        self.nodes[shard as usize].net_bytes.add(2 * POINT_RPC_BYTES as u64);
        self.nodes[shard as usize].op_ns.record(there + back);
        Ok(())
    }

    /// Pack shard-local values of `attr` as little-endian f64 and place
    /// them on the shard's device (cached per relation version).
    fn shard_replica(
        &self,
        rel: RelationId,
        r: &ShardRel,
        shard: usize,
        attr: AttrId,
    ) -> Result<htapg_device::BufferId> {
        let store = &r.stores[shard];
        let mut bytes = Vec::with_capacity(store.len() * 8);
        for rec in store {
            bytes.extend_from_slice(&rec[attr as usize].as_f64()?.to_le_bytes());
        }
        let device = &self.devices[shard];
        let col = self.caches[shard].get_or_insert_with(
            rel,
            attr,
            r.version,
            store.len() as u64,
            true,
            || with_retry(&self.retry, device.ledger(), || device.upload(&bytes)),
        )?;
        Ok(col.buf)
    }

    /// One shard's partials (one per local fragment, local order): place
    /// the shard's slice of `attr` on its device and run `kernel` over it,
    /// retrying transient launch faults. Returns the partials and the
    /// shard's device wall time.
    fn shard_partials<T>(
        &self,
        rel: RelationId,
        r: &ShardRel,
        shard: usize,
        attr: AttrId,
        kernel: impl Fn(&SimDevice, htapg_device::BufferId) -> Result<Vec<T>>,
    ) -> Result<(Vec<T>, u64)> {
        if r.stores[shard].is_empty() {
            return Ok((Vec::new(), 0));
        }
        let device = &self.devices[shard];
        let t0 = device.ledger().snapshot().wall_ns;
        let buf = self.shard_replica(rel, r, shard, attr)?;
        let partials = with_retry(&self.retry, device.ledger(), || kernel(device, buf))?;
        let exec = device.ledger().snapshot().wall_ns.saturating_sub(t0);
        self.nodes[shard].op_ns.record(exec);
        Ok((partials, exec))
    }

    /// Roll one send per node sequentially in canonical node order — the
    /// scatter's requests out of the coordinator (`outbound`), or the
    /// shards' responses back to it — so the fault sequence is
    /// deterministic under concurrent pool execution. Sends are
    /// overlapped-charged and retried; an exhausted retry fails the whole
    /// scatter, so no shard is silently skipped. Returns each node's
    /// flight time.
    fn roll_sends(
        &self,
        cluster: &SimCluster,
        k: usize,
        outbound: bool,
        bytes: impl Fn(usize) -> u64,
    ) -> Result<Vec<u64>> {
        (0..k)
            .map(|node| {
                let payload = bytes(node);
                let (from, to) = if outbound { (0, node as u32) } else { (node as u32, 0) };
                let ns = with_retry(&self.retry, &self.ledger, || {
                    cluster.send_overlapped(from, to, payload as usize)
                })?;
                if node != 0 {
                    self.nodes[node].net_bytes.add(payload);
                }
                Ok(ns)
            })
            .collect()
    }

    /// Run `task` for every shard on the executor pool, collecting its
    /// per-shard results. Shard execution is parallel; the fault plan is
    /// never rolled in here (device faults are per-shard plans), so the
    /// interleaving cannot perturb the seeded cluster fault sequence.
    fn run_shards<T: Send>(
        &self,
        k: usize,
        task: impl Fn(usize) -> Result<(T, u64)> + Sync,
    ) -> Result<(Vec<T>, Vec<u64>)> {
        type Slot<T> = htapg_core::sync::Mutex<Option<Result<(T, u64)>>>;
        let slots: Vec<Slot<T>> = (0..k).map(|_| htapg_core::sync::Mutex::new(None)).collect();
        pool::run_tasks(k as u64, k, |w| {
            let shard = w as usize;
            *slots[shard].lock() = Some(task(shard));
        });
        let mut outs = Vec::with_capacity(k);
        let mut exec = Vec::with_capacity(k);
        for slot in slots {
            let (out, ns) = slot
                .into_inner()
                .ok_or_else(|| Error::Internal("shard task did not run".into()))??;
            outs.push(out);
            exec.push(ns);
        }
        Ok((outs, exec))
    }

    /// The scatter path every offloaded aggregate takes: roll the requests,
    /// run `task` (one partial per local fragment) on every shard, roll the
    /// responses (`partial_bytes` per partial), settle the cluster wall at
    /// the slowest shard's `exec + round trip`, and return the partials in
    /// global fragment order.
    fn scatter<T: Send>(
        &self,
        r: &ShardRel,
        task: impl Fn(usize) -> Result<(Vec<T>, u64)> + Sync,
        partial_bytes: impl Fn(&T) -> u64,
    ) -> Result<Vec<T>> {
        let k = self.sharding.nodes as usize;
        let cluster = self.cluster.read();
        let requests = self.roll_sends(&cluster, k, true, |_| SCATTER_REQUEST_BYTES)?;
        let (per_shard, exec) = self.run_shards(k, task)?;
        let responses = self.roll_sends(&cluster, k, false, |node| {
            per_shard[node].iter().map(&partial_bytes).sum()
        })?;
        let settle = (0..k).map(|i| exec[i] + requests[i] + responses[i]).max().unwrap_or(0);
        self.ledger.advance_wall(settle);
        let mut per_shard: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
        r.frags
            .iter()
            .map(|f| {
                per_shard[f.shard as usize]
                    .next()
                    .ok_or_else(|| Error::Internal("shard returned too few partials".into()))
            })
            .collect()
    }

    fn numeric_ty(&self, r: &ShardRel, attr: AttrId) -> Result<DataType> {
        let ty = r.schema.ty(attr)?;
        if !ty.is_numeric() {
            return Err(Error::NonNumericAggregate { attr, got: ty.name() });
        }
        Ok(ty)
    }
}

impl StorageEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        "SHARDED"
    }

    fn classification(&self) -> Classification {
        Classification {
            name: "SHARDED",
            layout_handling: LayoutHandling::MultiBuiltIn,
            layout_flexibility: LayoutFlexibility::StrongFlexible { constrained: true },
            layout_adaptability: LayoutAdaptability::Responsive,
            data_location: DataLocation::Mixed,
            data_locality: DataLocality::Distributed,
            fragment_linearization: FragmentLinearization::FatDsmFixed,
            fragment_scheme: FragmentScheme::DelegationBased,
            processor_support: ProcessorSupport::CpuGpu,
            workload_support: WorkloadSupport::Htap,
            year: 2017,
        }
    }

    fn trace_clock(&self) -> Option<Arc<dyn obs::VirtualClock>> {
        Some(self.ledger.clone())
    }

    fn calibration(&self) -> Option<Arc<CalibrationProfiles>> {
        Some(self.calibration.clone())
    }

    fn device_cost_profile(&self) -> Option<DeviceCostProfile> {
        Some(self.devices[0].spec().cost_profile())
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let mut rels = self.rels.write();
        let rel = rels.len() as RelationId;
        rels.push(ShardRel {
            schema,
            rows: 0,
            frags: Vec::new(),
            stores: vec![Vec::new(); self.sharding.nodes as usize],
            version: 0,
        });
        Ok(rel)
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.with_rel(rel, |r| Ok(r.schema.clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        let mut rels = self.rels.write();
        let r = rels.get_mut(rel as usize).ok_or(Error::UnknownRelation(rel))?;
        if record.len() != r.schema.arity() {
            return Err(Error::Internal(format!(
                "arity mismatch: {} values for {} attributes",
                record.len(),
                r.schema.arity()
            )));
        }
        for (a, v) in record.iter().enumerate() {
            let ty = r.schema.ty(a as AttrId)?;
            if !v.matches(ty) {
                return Err(Error::TypeMismatch { expected: ty.name(), got: v.type_name() });
            }
        }
        let row = r.rows;
        let f = self.sharding.fragment_of_row(row) as usize;
        if f == r.frags.len() {
            let shard = self.sharding.shard_of_fragment(f as u64);
            let local_base = r.stores[shard as usize].len() as u64;
            r.frags.push(FragInfo { shard, local_base });
        }
        let shard = r.frags[f].shard as usize;
        r.stores[shard].push(record.clone());
        self.nodes[shard].rows.set(r.stores[shard].len() as i64);
        r.rows += 1;
        r.version += 1;
        Ok(row)
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        let (shard, rec) = self.with_rel(rel, |r| {
            let (shard, local) = r.locate(self.sharding.partition_rows, row)?;
            Ok((shard, r.stores[shard as usize][local].clone()))
        })?;
        self.point_rpc(shard)?;
        Ok(rec)
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        let (shard, v) = self.with_rel(rel, |r| {
            r.schema.attr(attr)?;
            let (shard, local) = r.locate(self.sharding.partition_rows, row)?;
            Ok((shard, r.stores[shard as usize][local][attr as usize].clone()))
        })?;
        self.point_rpc(shard)?;
        Ok(v)
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        let shard = {
            let mut rels = self.rels.write();
            let r = rels.get_mut(rel as usize).ok_or(Error::UnknownRelation(rel))?;
            let ty = r.schema.ty(attr)?;
            if !value.matches(ty) {
                return Err(Error::TypeMismatch { expected: ty.name(), got: value.type_name() });
            }
            let (shard, local) = r.locate(self.sharding.partition_rows, row)?;
            r.stores[shard as usize][local][attr as usize] = value.clone();
            r.version += 1;
            shard
        };
        self.point_rpc(shard)
    }

    /// Global-row-order scan, served from the coordinator's merge view
    /// (the executor's host fallback path — correctness net, not the
    /// priced route).
    fn scan_column(
        &self,
        rel: RelationId,
        attr: AttrId,
        visit: &mut dyn FnMut(RowId, &Value),
    ) -> Result<()> {
        self.with_rel(rel, |r| {
            r.schema.attr(attr)?;
            let part = self.sharding.partition_rows;
            for row in 0..r.rows {
                let (shard, local) = r.locate(part, row)?;
                visit(row, &r.stores[shard as usize][local][attr as usize]);
            }
            Ok(())
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.with_rel(rel, |r| Ok(r.rows))
    }

    /// Coordinator-view evidence: the column is *not* contiguous here
    /// (its rows live on the shards) — the flat lowering would pay the
    /// tuple-strided price. Shard evidence below is what actually routes.
    fn column_evidence(&self, rel: RelationId, attr: AttrId) -> Result<ColumnEvidence> {
        self.with_rel(rel, |r| {
            let ty = r.schema.ty(attr)?;
            Ok(ColumnEvidence {
                rows: r.rows,
                ty,
                scan_stride: r.schema.tuple_width() as u64,
                contiguous: false,
                device_warm: false,
                stale_rows: 0,
            })
        })
    }

    fn shard_evidence(&self, rel: RelationId, attr: AttrId) -> Result<Option<ShardPlanEvidence>> {
        self.with_rel(rel, |r| {
            let ty = r.schema.ty(attr)?;
            if !ty.is_numeric() || r.rows == 0 {
                return Ok(None);
            }
            let k = self.sharding.nodes as usize;
            let mut frag_count = vec![0u64; k];
            for f in &r.frags {
                frag_count[f.shard as usize] += 1;
            }
            let shards = (0..k)
                .map(|n| ShardEvidence {
                    node: n as u32,
                    fragments: frag_count[n],
                    evidence: ColumnEvidence {
                        rows: r.stores[n].len() as u64,
                        ty,
                        scan_stride: ty.width() as u64,
                        contiguous: true,
                        device_warm: self.caches[n].contains(rel, attr, r.version),
                        stale_rows: 0,
                    },
                })
                .collect();
            Ok(Some(ShardPlanEvidence {
                partition_rows: self.sharding.partition_rows,
                net: self.cluster.read().net_cost_profile(),
                shards,
            }))
        })
    }

    /// Scatter-gather: fan the aggregate out to the owning shards and
    /// gather the per-fragment partials in canonical fragment order.
    fn offload_aggregate(
        &self,
        rel: RelationId,
        attr: AttrId,
        agg: &Aggregate,
        route: Route,
    ) -> Result<QueryOutput> {
        if !matches!(route, Route::Scatter { .. }) {
            return Err(Error::Internal(format!("no {} offload", route.label())));
        }
        let group = matches!(agg, Aggregate::GroupSum { .. });
        let mut span = obs::span("net", if group { "scatter.group_sum" } else { "scatter.sum" });
        let rels = self.rels.read();
        let r = rels.get(rel as usize).ok_or(Error::UnknownRelation(rel))?;
        self.numeric_ty(r, attr)?;
        if let Aggregate::GroupSum { key_attr } = *agg {
            let key_ty = r.schema.ty(key_attr)?;
            if !key_ty.is_integer() {
                return Err(Error::NonNumericAggregate { attr: key_attr, got: key_ty.name() });
            }
        }
        if span.is_recording() {
            span.arg("shards", self.sharding.nodes as u64);
        }
        let part = self.sharding.partition_rows as usize;
        match *agg {
            Aggregate::GroupSum { key_attr } => {
                let task = |shard: usize| {
                    let keys: Vec<i64> = r.stores[shard]
                        .iter()
                        .map(|rec| rec[key_attr as usize].as_i64())
                        .collect::<Result<_>>()?;
                    self.shard_partials(rel, r, shard, attr, |device, buf| {
                        kernels::keyed_fragment_partials_f64(device, buf, &keys, part)
                    })
                };
                let frags =
                    self.scatter(r, task, |groups| groups.len() as u64 * GROUP_PARTIAL_BYTES)?;
                // Per-key partial lists accumulate in global fragment
                // order, then reduce canonically per key.
                Ok(QueryOutput::Groups(kernels::merge_keyed_partials(&frags)))
            }
            _ => {
                let keep = agg.pred().map(|p| move |v: f64| p.matches(v));
                let task = |shard: usize| {
                    self.shard_partials(rel, r, shard, attr, |device, buf| {
                        kernels::fragment_partials_f64(device, buf, part, keep)
                    })
                };
                let frags = self.scatter(r, task, |_| SUM_PARTIAL_BYTES)?;
                // One partial per fragment, merged in global fragment
                // order — the shard-invariant canonical reduction.
                Ok(QueryOutput::Sum(kernels::tree_sum(&frags)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{execute, volcano, Segmentation};
    use crate::threading::ThreadingPolicy;
    use htapg_core::plan::{LogicalPlan, PhysicalOp, Predicate, Route};
    use htapg_core::prng::Prng;

    fn loaded(kind: ShardingKind, nodes: u32, rows: u64, part: u64) -> (ShardedEngine, RelationId) {
        let e = ShardedEngine::with_config(kind, nodes, part, NetSpec::default());
        let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)]);
        let rel = e.create_relation(schema).unwrap();
        let mut rng = Prng::seed_from_u64(0x51);
        for _ in 0..rows {
            e.insert(
                rel,
                &vec![
                    Value::Int64(rng.gen_range(0..16) as i64),
                    Value::Float64(rng.gen_range(0..100_000) as f64 / 3.0),
                ],
            )
            .unwrap();
        }
        (e, rel)
    }

    #[test]
    fn placement_covers_all_rows_exactly_once() {
        let (e, rel) = loaded(ShardingKind::Hash, 4, 10_000, 256);
        let per_node = e.shard_rows(rel).unwrap();
        assert_eq!(per_node.iter().sum::<u64>(), 10_000);
        assert!(per_node.iter().all(|&n| n > 0), "skewed placement: {per_node:?}");
        // Every row reads back its own value through the routed point op.
        for row in [0u64, 255, 256, 9_999] {
            assert!(matches!(e.read_field(rel, row, 1).unwrap(), Value::Float64(_)));
        }
        assert!(e.read_field(rel, 10_000, 1).is_err());
    }

    #[test]
    fn plans_lower_to_scatter_and_execute_bit_identically() {
        for &kind in &[ShardingKind::Hash, ShardingKind::Range] {
            let (e, rel) = loaded(kind, 4, 5_000, 256);
            let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
            assert_eq!(plan.root.route, Route::Scatter { shards: 4 });
            assert!(matches!(plan.root.children[0].op, PhysicalOp::Gather { shards: 4 }));
            let got = execute(&e, &plan, ThreadingPolicy::Single).unwrap();
            let want = volcano(&e, rel, 1, &Aggregate::Sum, Segmentation::Fragments(256))
                .unwrap()
                .as_sum()
                .unwrap();
            assert_eq!(got.as_sum().unwrap().to_bits(), want.to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn filtered_and_grouped_scatter_match_oracles() {
        let (e, rel) = loaded(ShardingKind::Hash, 3, 4_000, 128);
        let pred = Predicate::Ge(10_000.0);
        let fplan = e.plan(&LogicalPlan::filter_sum(rel, 1, pred)).unwrap();
        assert_eq!(fplan.root.route, Route::Scatter { shards: 3 });
        let got = execute(&e, &fplan, ThreadingPolicy::Single).unwrap();
        let frags = Segmentation::Fragments(128);
        let want =
            volcano(&e, rel, 1, &Aggregate::FilterSum(pred), frags).unwrap().as_sum().unwrap();
        assert_eq!(got.as_sum().unwrap().to_bits(), want.to_bits());

        let gplan = e.plan(&LogicalPlan::group_sum(rel, 0, 1)).unwrap();
        assert_eq!(gplan.root.route, Route::Scatter { shards: 3 });
        let got = execute(&e, &gplan, ThreadingPolicy::Single).unwrap();
        let want = volcano(&e, rel, 1, &Aggregate::GroupSum { key_attr: 0 }, frags).unwrap();
        let want = want.as_groups().unwrap().to_vec();
        let got = got.as_groups().unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }

    #[test]
    fn node_count_does_not_change_a_single_bit() {
        let mut sums = Vec::new();
        for nodes in [1u32, 2, 4, 8] {
            let (e, rel) = loaded(ShardingKind::Hash, nodes, 6_000, 512);
            let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
            let got = execute(&e, &plan, ThreadingPolicy::Single).unwrap();
            sums.push(got.as_sum().unwrap().to_bits());
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
    }

    #[test]
    fn scatter_charges_network_and_advances_cluster_wall() {
        let (e, rel) = loaded(ShardingKind::Range, 4, 8_000, 256);
        let base = e.cluster_ledger().snapshot();
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let d = e.cluster_ledger().snapshot().since(&base);
        assert!(d.network_ns > 0, "scatter RPCs must be priced");
        assert!(d.network_bytes > 0, "payload bytes must be counted");
        assert!(d.wall_ns > 0, "the gather settles the wall");
        // Requests + responses for the three remote shards, nothing more:
        // the wall is the max round trip + exec, not the sum.
        assert!(d.wall_ns < d.network_ns + 1_000_000_000);
    }

    #[test]
    fn single_node_cluster_pays_no_network() {
        let (e, rel) = loaded(ShardingKind::Hash, 1, 3_000, 256);
        let base = e.cluster_ledger().snapshot();
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        assert_eq!(plan.root.route, Route::Scatter { shards: 1 });
        execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let d = e.cluster_ledger().snapshot().since(&base);
        assert_eq!(d.network_ns, 0, "coordinator-local scatter is free");
        assert_eq!(d.network_bytes, 0);
    }

    #[test]
    fn updates_invalidate_replicas_and_stay_visible() {
        let (e, rel) = loaded(ShardingKind::Hash, 2, 2_000, 128);
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        let before = execute(&e, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap();
        e.update_field(rel, 7, 1, &Value::Float64(0.0)).unwrap();
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        let after = execute(&e, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap();
        assert_ne!(before.to_bits(), after.to_bits());
        let want = volcano(&e, rel, 1, &Aggregate::Sum, Segmentation::Fragments(128))
            .unwrap()
            .as_sum()
            .unwrap();
        assert_eq!(after.to_bits(), want.to_bits());
        assert_eq!(e.read_field(rel, 7, 1).unwrap(), Value::Float64(0.0));
    }
}
