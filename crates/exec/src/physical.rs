//! Physical-plan interpreter: executes a routed [`PhysicalPlan`] against
//! any [`StorageEngine`], using the persistent morsel pool for host routes
//! and the engine's offload hook for device and scatter routes.
//!
//! **Bit-identity across routes** is the module's invariant and what the
//! planner property tests pin. It holds by construction: every route —
//! the device kernels, the host [`reduce`], the [`volcano`] oracle — cuts
//! its input with the one segment-partial reduction
//! ([`kernels::segment_partials`]: segment, optional predicate, per-segment
//! [`kernels::tree_sum`]) and tree-sums the partials. Only the segment
//! geometry varies with the plan ([`Segmentation`]); the pooled host route
//! folds per-segment partials in morsel order, so thread count cannot
//! perturb the result either. A query may therefore bounce between host
//! and device from one execution to the next (cache warmth, relation
//! growth) without ever changing a single result bit.
//!
//! Every executed node opens a `plan.*` span carrying the route, the
//! planner's estimate, and the input rows, so PR 4's `TraceReport` renders
//! estimated-vs-actual virtual ns per plan node (DESIGN.md §12).

use htapg_core::engine::StorageEngine;
use htapg_core::plan::{
    Aggregate, LogicalPlan, PhysicalNode, PhysicalOp, PhysicalPlan, Route, ScanStrategy,
};
use htapg_core::{obs, AttrId, DataType, Error, RelationId, Result, Value};
use htapg_device::kernels;

pub use htapg_core::plan::QueryOutput;

use crate::threading::{run_blocks, ThreadingPolicy};

/// How a reduction cuts its input into segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segmentation {
    /// The device's pass-1 geometry: [`kernels::reduce_seg_len`] rows per
    /// segment, fixed by the total row count (a group-sum applies it to
    /// each group's values).
    Canonical,
    /// Placement fragments of this many consecutive global rows — the
    /// geometry of a plan node with `partition_rows > 0`. Fragments, not
    /// nodes, are the reduction unit, so the result is invariant under
    /// node count and placement policy.
    Fragments(usize),
}

/// The host reduction every host route and oracle runs: `values` (and, for
/// a group-sum, the `keys` of the same rows) reduced as `agg` under `seg`.
/// With a `pool` policy the segments — or a canonical group-sum's groups —
/// are reduced on the morsel pool and folded in order, bit-identical to
/// the serial pass for every pool size.
pub fn reduce(
    agg: &Aggregate,
    values: &[f64],
    keys: &[i64],
    seg: Segmentation,
    pool: Option<ThreadingPolicy>,
) -> QueryOutput {
    let n = values.len();
    match (agg, seg) {
        (Aggregate::GroupSum { .. }, Segmentation::Fragments(part)) => QueryOutput::Groups(
            kernels::merge_keyed_partials(&kernels::keyed_segment_partials(keys, values, part)),
        ),
        (Aggregate::GroupSum { .. }, Segmentation::Canonical) => {
            let groups = kernels::group_by_key(keys, values);
            QueryOutput::Groups(fold(groups.len(), pool, |lo, hi| {
                groups[lo..hi].iter().map(|(k, vs)| (*k, kernels::reduce_values_f64(vs))).collect()
            }))
        }
        (_, seg) => {
            let seg_len = match seg {
                Segmentation::Canonical => kernels::reduce_seg_len(n),
                Segmentation::Fragments(part) => part.max(1),
            };
            let pred = agg.pred().map(|p| move |v: f64| p.matches(v));
            let partials = fold(n.div_ceil(seg_len), pool, |lo, hi| {
                kernels::segment_partials(
                    &values[lo * seg_len..(hi * seg_len).min(n)],
                    seg_len,
                    pred,
                )
            });
            QueryOutput::Sum(kernels::tree_sum(&partials))
        }
    }
}

/// `work(0, n)` on the calling thread, or `work` over morsels of `[0, n)`
/// on the pool with the results concatenated in morsel order.
fn fold<T: Send>(
    n: usize,
    pool: Option<ThreadingPolicy>,
    work: impl Fn(usize, usize) -> Vec<T> + Sync,
) -> Vec<T> {
    match pool {
        None => work(0, n),
        Some(policy) => run_blocks(
            n as u64,
            policy,
            |lo, hi| work(lo as usize, hi as usize),
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
            Vec::new(),
        ),
    }
}

/// The naive volcano oracle: tuple-at-a-time `read_field` per row, fed
/// through [`reduce`]. Every planner route must be bit-identical to this
/// under the plan's [`Segmentation`] (the property the planner and
/// scatter-gather tests check).
pub fn volcano(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    agg: &Aggregate,
    seg: Segmentation,
) -> Result<QueryOutput> {
    let ty = engine.schema(rel)?.ty(attr)?;
    if !ty.is_numeric() {
        return Err(Error::NonNumericAggregate { attr, got: ty.name() });
    }
    let rows = engine.row_count(rel)?;
    let mut keys = Vec::new();
    let mut values = Vec::with_capacity(rows as usize);
    for row in 0..rows {
        if let Aggregate::GroupSum { key_attr } = *agg {
            keys.push(engine.read_field(rel, row, key_attr)?.as_i64()?);
        }
        values.push(engine.read_field(rel, row, attr)?.as_f64()?);
    }
    Ok(reduce(agg, &values, &keys, seg, None))
}

fn decoder(ty: DataType) -> Result<fn(&[u8]) -> f64> {
    Ok(match ty {
        DataType::Float64 => |b: &[u8]| f64::from_le_bytes(b.try_into().unwrap()),
        DataType::Int64 => |b: &[u8]| i64::from_le_bytes(b.try_into().unwrap()) as f64,
        DataType::Int32 | DataType::Date => {
            |b: &[u8]| i32::from_le_bytes(b.try_into().unwrap()) as f64
        }
        DataType::Bool | DataType::Text(_) => {
            return Err(Error::NonNumericAggregate { attr: u16::MAX, got: ty.name() })
        }
    })
}

/// Materialize a numeric column as `Vec<f64>` in row order, preferring the
/// contiguous fast path when the plan says it is available (falling back
/// to the value visit if the engine declines at run time — the overlay
/// may have filled since planning).
pub fn collect_f64(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
) -> Result<Vec<f64>> {
    let ty = engine.schema(rel)?.ty(attr)?;
    if !ty.is_numeric() {
        return Err(Error::NonNumericAggregate { attr, got: ty.name() });
    }
    let rows = engine.row_count(rel)? as usize;
    let mut out = Vec::with_capacity(rows);
    if strategy == ScanStrategy::ContiguousBytes {
        let read = decoder(ty)?;
        let width = ty.width();
        let used = engine.with_column_bytes(rel, attr, &mut |block| {
            for chunk in block.chunks_exact(width) {
                out.push(read(chunk));
            }
        })?;
        if used {
            return Ok(out);
        }
        out.clear();
    }
    engine.scan_column(rel, attr, &mut |_, v| {
        out.push(v.as_f64().expect("column type checked numeric above"));
    })?;
    Ok(out)
}

/// Collect an integer key column in row order.
fn collect_keys(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> Result<Vec<i64>> {
    let ty = engine.schema(rel)?.ty(attr)?;
    if !ty.is_integer() {
        return Err(Error::NonNumericAggregate { attr, got: ty.name() });
    }
    let mut keys = Vec::with_capacity(engine.row_count(rel)? as usize);
    engine.scan_column(rel, attr, &mut |_, v| {
        keys.push(v.as_i64().expect("key type checked integer above"));
    })?;
    Ok(keys)
}

fn node_span(node: &PhysicalNode) -> obs::SpanGuard {
    let mut span = obs::span("plan", node.op.span_name());
    if span.is_recording() {
        span.arg("route", node.route.label());
        span.arg("est_ns", node.estimated_ns);
        span.arg("raw_est_ns", node.raw_estimated_ns);
        span.arg("rows", node.rows);
        span.arg("scan", node.strategy.label());
        if node.bytes_to_device > 0 {
            span.arg("bytes_to_device", node.bytes_to_device);
        }
        if node.partition_rows > 0 {
            span.arg("part_rows", node.partition_rows);
        }
        if let Some(m) = node.mirror {
            span.arg("mirror", m);
        }
    }
    span
}

/// Execute a routed plan. `policy` is the host pool policy used when a
/// node is routed `HostPooledMorsel` (inline routes always run
/// single-threaded on the issuing thread).
pub fn execute(
    engine: &dyn StorageEngine,
    plan: &PhysicalPlan,
    policy: ThreadingPolicy,
) -> Result<QueryOutput> {
    let mut executed = plan.root.route;
    exec_node(engine, &plan.root, policy, &mut executed)
}

/// What [`execute_observed`] learned from one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    pub output: QueryOutput,
    /// The route that actually ran: the planned root route, unless a
    /// device fault/stale replica degraded the node to the host fallback.
    pub executed_route: Route,
    /// Virtual ns the execution charged to the engine's trace clock
    /// (zero for host-only engines, whose work advances no virtual time).
    pub actual_ns: u64,
    /// The root node's observed cost fell outside the calibrated
    /// tolerance band — the replanning trigger.
    pub diverged: bool,
}

/// Execute a plan and feed the root's estimated-vs-actual residual back
/// into the engine's [`calibration
/// profiles`](htapg_core::calibrate::CalibrationProfiles), keyed by the
/// route that *actually executed* (a failed-then-degraded device node is
/// attributed to the host fallback, never to the device). Engines without
/// calibration behave exactly like [`execute`].
pub fn execute_observed(
    engine: &dyn StorageEngine,
    plan: &PhysicalPlan,
    policy: ThreadingPolicy,
) -> Result<ExecOutcome> {
    let clock = engine.trace_clock();
    let t0 = clock.as_ref().map_or(0, |c| c.now_ns());
    let mut executed = plan.root.route;
    let output = exec_node(engine, &plan.root, policy, &mut executed)?;
    let actual_ns = clock.as_ref().map_or(0, |c| c.now_ns()).saturating_sub(t0);
    let mut diverged = false;
    if let Some(cal) = engine.calibration() {
        let op = plan.root.op.span_name();
        cal.observe(op, executed.label(), plan.root.raw_estimated_ns, actual_ns);
        // Only a node that ran its planned route can diverge from its own
        // estimate; a fallback's residual belongs to the fallback route.
        diverged = executed == plan.root.route
            && cal.diverged(op, executed.label(), plan.root.estimated_ns, actual_ns);
    }
    Ok(ExecOutcome { output, executed_route: executed, actual_ns, diverged })
}

/// What [`execute_adaptive`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    pub output: QueryOutput,
    pub diverged: bool,
    /// The route a post-divergence replan chose, when one happened. The
    /// result is *not* re-executed — routes are bit-identical by the
    /// module invariant — so the fresh route simply serves the next
    /// execution of the same shape.
    pub replanned: Option<Route>,
}

/// Plan → execute with residual feedback → replan on divergence. The
/// workload driver's adaptivity loop: calibration happens live under
/// mixed load, and a diverged estimate triggers an immediate replan
/// (counted on the `plan.replans` metric).
pub fn execute_adaptive(
    engine: &dyn StorageEngine,
    logical: &LogicalPlan,
    policy: ThreadingPolicy,
) -> Result<AdaptiveOutcome> {
    let plan = engine.plan(logical)?;
    let outcome = execute_observed(engine, &plan, policy)?;
    let mut replanned = None;
    if outcome.diverged {
        obs::metrics().counter("plan.replans").inc();
        replanned = Some(engine.plan(logical)?.route());
    }
    Ok(AdaptiveOutcome { output: outcome.output, diverged: outcome.diverged, replanned })
}

fn exec_node(
    engine: &dyn StorageEngine,
    node: &PhysicalNode,
    policy: ThreadingPolicy,
    executed: &mut Route,
) -> Result<QueryOutput> {
    let mut span = node_span(node);
    match &node.op {
        PhysicalOp::Materialize { rel, rows } => {
            Ok(QueryOutput::Records(engine.materialize_rows(*rel, rows)?))
        }
        PhysicalOp::PointRead { rel, row } => {
            Ok(QueryOutput::Record(engine.read_record(*rel, *row)?))
        }
        PhysicalOp::Update { rel, row, attr, value } => {
            engine.update_field(*rel, *row, *attr, value)?;
            Ok(QueryOutput::Updated)
        }
        PhysicalOp::Project { attrs } => {
            let child = node
                .children
                .first()
                .ok_or_else(|| Error::Internal("project without input".into()))?;
            let out = exec_node(engine, child, policy, executed)?;
            match out {
                QueryOutput::Records(recs) => Ok(QueryOutput::Records(
                    recs.into_iter()
                        .map(|r| attrs.iter().map(|&a| r[a as usize].clone()).collect())
                        .collect(),
                )),
                QueryOutput::Record(r) => {
                    Ok(QueryOutput::Record(attrs.iter().map(|&a| r[a as usize].clone()).collect()))
                }
                other => Ok(other),
            }
        }
        PhysicalOp::AggregateSum | PhysicalOp::AggregateGroupSum { .. } => {
            exec_aggregate(engine, node, policy, &mut span, executed)
        }
        PhysicalOp::Scan { rel, attr } => {
            // A bare scan materializes the column as records of one value
            // (rarely used directly; aggregates inline their scans).
            let values = collect_f64(engine, *rel, *attr, node.strategy)?;
            Ok(QueryOutput::Records(values.into_iter().map(|v| vec![Value::Float64(v)]).collect()))
        }
        PhysicalOp::Filter { .. } => {
            Err(Error::Internal("filter outside an aggregate is not executable".into()))
        }
        PhysicalOp::Gather { .. } => {
            Err(Error::Internal("gather is executed by the engine's offload hook".into()))
        }
    }
}

/// Pull `(rel, value attr, aggregate)` out of an aggregate node. A
/// scatter root's only child is the `Gather` node; all per-shard subtrees
/// aggregate the same input, so the first subtree stands in for them. A
/// group-sum's children are the key scan then the value scan.
fn aggregate_input(node: &PhysicalNode) -> Result<(RelationId, AttrId, Aggregate)> {
    let mut holder = node;
    if let Some(first) = node.children.first() {
        if matches!(first.op, PhysicalOp::Gather { .. }) {
            holder = first
                .children
                .first()
                .ok_or_else(|| Error::Internal("gather without per-shard subtree".into()))?;
        }
    }
    let input = holder
        .children
        .last()
        .ok_or_else(|| Error::Internal("aggregate without scan input".into()))?;
    match (&node.op, &input.op) {
        (PhysicalOp::AggregateGroupSum { key_attr }, PhysicalOp::Scan { rel, attr }) => {
            Ok((*rel, *attr, Aggregate::GroupSum { key_attr: *key_attr }))
        }
        (PhysicalOp::AggregateSum, PhysicalOp::Scan { rel, attr }) => {
            Ok((*rel, *attr, Aggregate::Sum))
        }
        (PhysicalOp::AggregateSum, PhysicalOp::Filter { pred }) => {
            match input.children.first().map(|c| &c.op) {
                Some(PhysicalOp::Scan { rel, attr }) => {
                    Ok((*rel, *attr, Aggregate::FilterSum(*pred)))
                }
                _ => Err(Error::Internal("filter without scan input".into())),
            }
        }
        _ => Err(Error::Internal("aggregate without scan input".into())),
    }
}

/// Run an aggregate node: offload it to the engine when the plan routes it
/// to the device or the shards, otherwise — or when the offload fails
/// (stale replica, device fault, exhausted retries, no hook) — reduce it
/// on the host under the node's own geometry, which is bit-identical.
fn exec_aggregate(
    engine: &dyn StorageEngine,
    node: &PhysicalNode,
    policy: ThreadingPolicy,
    span: &mut obs::SpanGuard,
    executed: &mut Route,
) -> Result<QueryOutput> {
    let (rel, attr, agg) = aggregate_input(node)?;
    if matches!(node.route, Route::DevicePipelined | Route::Scatter { .. }) {
        match engine.offload_aggregate(rel, attr, &agg, node.route) {
            Ok(out) => return Ok(out),
            Err(e @ Error::NonNumericAggregate { .. }) => return Err(e),
            // Recorded on the span so EXPLAIN shows the miss, and on
            // `executed` so calibration attributes the residual to the
            // route that actually ran.
            Err(_) => {
                if span.is_recording() {
                    span.arg("fallback", "host");
                }
                *executed = Route::InlineVolcano;
            }
        }
    }
    let keys = match agg {
        Aggregate::GroupSum { key_attr } => collect_keys(engine, rel, key_attr)?,
        _ => Vec::new(),
    };
    let values = collect_f64(engine, rel, attr, node.strategy)?;
    if matches!(agg, Aggregate::GroupSum { .. }) && keys.len() != values.len() {
        return Err(Error::Internal(format!(
            "group-sum column length mismatch: {} keys vs {} values",
            keys.len(),
            values.len()
        )));
    }
    let seg = match node.partition_rows {
        0 => Segmentation::Canonical,
        rows => Segmentation::Fragments(rows as usize),
    };
    let pool = (node.route == Route::HostPooledMorsel).then_some(policy);
    Ok(reduce(&agg, &values, &keys, seg, pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::plan::{LogicalPlan, Predicate};
    use htapg_core::prng::Prng;
    use htapg_core::sync::RwLock;
    use htapg_core::{LayoutTemplate, Record, Relation, RowId, Schema};
    use htapg_taxonomy::{
        Classification, DataLocality, DataLocation, FragmentLinearization, FragmentScheme,
        LayoutAdaptability, LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
    };

    // A minimal NSM engine (mirrors the Toy engine in core's tests).
    struct Toy {
        rel: RwLock<Option<Relation>>,
    }

    impl StorageEngine for Toy {
        fn name(&self) -> &'static str {
            "TOY-EXEC"
        }

        fn classification(&self) -> Classification {
            Classification {
                name: "TOY-EXEC",
                layout_handling: LayoutHandling::Single,
                layout_flexibility: LayoutFlexibility::Inflexible,
                layout_adaptability: LayoutAdaptability::Static,
                data_location: DataLocation::host_only(),
                data_locality: DataLocality::Centralized,
                fragment_linearization: FragmentLinearization::FatNsmFixed,
                fragment_scheme: FragmentScheme::None,
                processor_support: ProcessorSupport::Cpu,
                workload_support: WorkloadSupport::Htap,
                year: 2017,
            }
        }

        fn create_relation(&self, schema: Schema) -> Result<RelationId> {
            *self.rel.write() = Some(Relation::new(schema.clone(), LayoutTemplate::nsm(&schema))?);
            Ok(0)
        }

        fn schema(&self, _rel: RelationId) -> Result<Schema> {
            Ok(self.rel.read().as_ref().unwrap().schema().clone())
        }

        fn insert(&self, _rel: RelationId, record: &Record) -> Result<RowId> {
            self.rel.write().as_mut().unwrap().insert(record)
        }

        fn read_record(&self, _rel: RelationId, row: RowId) -> Result<Record> {
            self.rel.read().as_ref().unwrap().read_record(row)
        }

        fn read_field(&self, _rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
            self.rel.read().as_ref().unwrap().read_value(
                row,
                attr,
                htapg_core::AccessHint::RecordCentric,
            )
        }

        fn update_field(
            &self,
            _rel: RelationId,
            row: RowId,
            attr: AttrId,
            value: &Value,
        ) -> Result<()> {
            self.rel.write().as_mut().unwrap().update_field(row, attr, value)
        }

        fn scan_column(
            &self,
            _rel: RelationId,
            attr: AttrId,
            visit: &mut dyn FnMut(RowId, &Value),
        ) -> Result<()> {
            let guard = self.rel.read();
            let rel = guard.as_ref().unwrap();
            let ty = rel.schema().ty(attr)?;
            rel.for_each_field(attr, |row, bytes| visit(row, &Value::decode(ty, bytes)))
        }

        fn row_count(&self, _rel: RelationId) -> Result<u64> {
            Ok(self.rel.read().as_ref().unwrap().row_count())
        }
    }

    /// [`reduce`] of a (filtered) sum, unwrapped.
    fn sum_of(
        values: &[f64],
        pred: Option<Predicate>,
        seg: Segmentation,
        pool: Option<ThreadingPolicy>,
    ) -> f64 {
        let agg = pred.map_or(Aggregate::Sum, Aggregate::FilterSum);
        reduce(&agg, values, &[], seg, pool).as_sum().unwrap()
    }

    fn toy_with_rows(n: usize, rng: &mut Prng) -> Toy {
        let e = Toy { rel: RwLock::new(None) };
        let s = Schema::of(&[("d", DataType::Int32), ("price", DataType::Float64)]);
        e.create_relation(s).unwrap();
        for _ in 0..n {
            e.insert(
                0,
                &vec![
                    Value::Int32(rng.gen_range(0..8)),
                    Value::Float64(rng.gen_range(0..100_000) as f64 / 7.0),
                ],
            )
            .unwrap();
        }
        e
    }

    #[test]
    fn canonical_sum_matches_device_reduction_shape() {
        // Mirror of the device kernels' bit-identity test, host-side.
        let values: Vec<f64> = (0..123_457).map(|i| (i as f64) * 0.3125).collect();
        let serial = sum_of(&values, None, Segmentation::Canonical, None);
        for policy in [ThreadingPolicy::Single, ThreadingPolicy::multi8()] {
            assert_eq!(
                serial.to_bits(),
                sum_of(&values, None, Segmentation::Canonical, Some(policy)).to_bits()
            );
        }
        // And against the actual device kernel.
        let device = htapg_device::SimDevice::with_defaults();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = device.alloc(bytes.len()).unwrap();
        device.write(buf, 0, &bytes).unwrap();
        let dev = kernels::reduce_sum_f64(&device, buf).unwrap();
        assert_eq!(serial.to_bits(), dev.to_bits());
    }

    #[test]
    fn filter_sum_is_bit_identical_to_device_fused_kernel() {
        let values: Vec<f64> = (0..50_000).map(|i| (i as f64) * 0.5 - 1000.0).collect();
        let pred = Predicate::Ge(0.0);
        let host = sum_of(&values, Some(pred), Segmentation::Canonical, None);
        for policy in [ThreadingPolicy::Single, ThreadingPolicy::multi8()] {
            assert_eq!(
                host.to_bits(),
                sum_of(&values, Some(pred), Segmentation::Canonical, Some(policy)).to_bits()
            );
        }
        let device = htapg_device::SimDevice::with_defaults();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = device.alloc(bytes.len()).unwrap();
        device.write(buf, 0, &bytes).unwrap();
        let dev = kernels::filter_sum_f64(&device, buf, |v| pred.matches(v)).unwrap();
        assert_eq!(host.to_bits(), dev.to_bits());
    }

    #[test]
    fn sharded_reduction_is_invariant_to_placement() {
        // The fragment partials are fixed by partition_rows alone, so any
        // split of the fragments across nodes gathers to the same bits.
        let values: Vec<f64> = (0..40_000).map(|i| (i as f64) * 0.7 - 3000.0).collect();
        let part = 1024usize;
        let whole = sum_of(&values, None, Segmentation::Fragments(part), None);
        // Simulate a 3-node round-robin placement: per-fragment partials
        // computed shard-locally, merged in global fragment order.
        let frags: Vec<&[f64]> = values.chunks(part).collect();
        let mut partials = vec![0.0f64; frags.len()];
        for node in 0..3 {
            for (f, chunk) in frags.iter().enumerate() {
                if f % 3 == node {
                    partials[f] = kernels::tree_sum(chunk);
                }
            }
        }
        assert_eq!(whole.to_bits(), kernels::tree_sum(&partials).to_bits());
        // When a fragment is exactly a device reduce segment, the sharded
        // geometry coincides with the flat canonical reduction.
        let aligned: Vec<f64> = (0..1024 * 64).map(|i| (i as f64) * 0.3).collect();
        let seg = kernels::reduce_seg_len(aligned.len());
        assert_eq!(
            sum_of(&aligned, None, Segmentation::Fragments(seg), None).to_bits(),
            sum_of(&aligned, None, Segmentation::Canonical, None).to_bits()
        );
    }

    #[test]
    fn sharded_group_sum_merges_fragment_partials_per_key() {
        let keys = vec![7i64, 3, 7, 3, 9, 3];
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let got = reduce(
            &Aggregate::GroupSum { key_attr: 0 },
            &values,
            &keys,
            Segmentation::Fragments(3),
            None,
        );
        let got = got.as_groups().unwrap();
        // Fragment 0: {3: [2.0], 7: [1.0, 3.0]}; fragment 1: {3: [4.0, 6.0], 9: [5.0]}.
        assert_eq!(got, vec![(3, 12.0), (7, 4.0), (9, 5.0)]);
        // Filter variant keeps fragment geometry too.
        let pred = Predicate::Ge(3.0);
        let fs = sum_of(&values, Some(pred), Segmentation::Fragments(3), None);
        let frag0 = kernels::tree_sum(&[3.0]);
        let frag1 = kernels::tree_sum(&[4.0, 5.0, 6.0]);
        assert_eq!(fs.to_bits(), kernels::tree_sum(&[frag0, frag1]).to_bits());
    }

    #[test]
    fn plan_threshold_matches_pool_morsel_size() {
        assert_eq!(htapg_core::plan::INLINE_MORSEL_ROWS, crate::pool::MORSEL_ROWS);
    }

    #[test]
    fn executed_plan_matches_volcano_oracle() {
        let mut rng = Prng::seed_from_u64(0xA1);
        for &n in &[0usize, 1, 7, 1000, 70_000] {
            let e = toy_with_rows(n, &mut rng);
            let plan = e.plan(&LogicalPlan::sum(0, 1)).unwrap();
            let got = execute(&e, &plan, ThreadingPolicy::multi8()).unwrap();
            let want = volcano(&e, 0, 1, &Aggregate::Sum, Segmentation::Canonical).unwrap();
            let want = want.as_sum().unwrap();
            assert_eq!(got.as_sum().unwrap().to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn group_sum_matches_volcano_oracle() {
        let mut rng = Prng::seed_from_u64(0xA2);
        let e = toy_with_rows(5000, &mut rng);
        let plan = e.plan(&LogicalPlan::group_sum(0, 0, 1)).unwrap();
        let got = execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let want = volcano(&e, 0, 1, &Aggregate::GroupSum { key_attr: 0 }, Segmentation::Canonical)
            .unwrap();
        let want = want.as_groups().unwrap().to_vec();
        assert_eq!(got.as_groups().unwrap(), &want[..]);
        // Keys are sorted and cover the inserted domain.
        let keys: Vec<i64> = want.iter().map(|&(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn update_and_point_read_execute_through_plans() {
        let mut rng = Prng::seed_from_u64(0xA3);
        let e = toy_with_rows(100, &mut rng);
        let upd = e
            .plan(&LogicalPlan::Update { rel: 0, row: 5, attr: 1, value: Value::Float64(42.0) })
            .unwrap();
        assert_eq!(upd.route(), Route::InlineVolcano);
        assert_eq!(execute(&e, &upd, ThreadingPolicy::Single).unwrap(), QueryOutput::Updated);
        let read = e.plan(&LogicalPlan::PointRead { rel: 0, row: 5 }).unwrap();
        match execute(&e, &read, ThreadingPolicy::Single).unwrap() {
            QueryOutput::Record(r) => assert_eq!(r[1], Value::Float64(42.0)),
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn materialize_and_project_execute_through_plans() {
        let mut rng = Prng::seed_from_u64(0xA4);
        let e = toy_with_rows(50, &mut rng);
        let mat = e.plan(&LogicalPlan::Materialize { rel: 0, rows: vec![3, 1, 4] }).unwrap();
        match execute(&e, &mat, ThreadingPolicy::Single).unwrap() {
            QueryOutput::Records(recs) => {
                assert_eq!(recs.len(), 3);
                assert_eq!(recs[0], e.read_record(0, 3).unwrap());
            }
            other => panic!("expected records, got {other:?}"),
        }
        let proj = e
            .plan(&LogicalPlan::Project {
                input: Box::new(LogicalPlan::Materialize { rel: 0, rows: vec![2] }),
                attrs: vec![1],
            })
            .unwrap();
        match execute(&e, &proj, ThreadingPolicy::Single).unwrap() {
            QueryOutput::Records(recs) => {
                assert_eq!(recs[0].len(), 1);
                assert_eq!(recs[0][0], e.read_field(0, 2, 1).unwrap());
            }
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn observed_execution_calibrates_and_triggers_one_replan() {
        use htapg_core::calibrate::Calibrated;
        let mut rng = Prng::seed_from_u64(0xA6);
        let engine = Calibrated::new(Box::new(toy_with_rows(1000, &mut rng)));
        let profiles = engine.profiles();
        let logical = LogicalPlan::sum(0, 1);
        let want = volcano(&engine, 0, 1, &Aggregate::Sum, Segmentation::Canonical).unwrap();
        let want = want.as_sum().unwrap();
        let mut replans = 0;
        for round in 0..6 {
            let out = execute_adaptive(&engine, &logical, ThreadingPolicy::Single).unwrap();
            assert_eq!(out.output.as_sum().unwrap().to_bits(), want.to_bits(), "round {round}");
            if out.diverged {
                replans += 1;
                assert_eq!(out.replanned, Some(Route::InlineVolcano));
            }
        }
        // The Toy engine is host-only: its work advances no virtual time,
        // so every actual is 0 against a positive cache-model estimate.
        // The run that crosses the warm-up threshold flags the stale
        // estimate once; afterwards the calibrated estimate is ~0 and the
        // loop is quiet again.
        assert_eq!(replans, 1, "exactly the warm-up-crossing run diverges");
        assert_eq!(profiles.observations("plan.aggregate.sum", "inline-volcano"), 6);
        let plan = engine.plan(&logical).unwrap();
        assert!(plan.root.raw_estimated_ns > 0, "raw estimate is untouched");
        assert_eq!(plan.estimated_ns(), 0, "calibrated estimate tracks the observed zero");
    }

    #[test]
    fn filtered_sum_plan_matches_oracle() {
        let mut rng = Prng::seed_from_u64(0xA5);
        let e = toy_with_rows(3000, &mut rng);
        let pred = Predicate::Ge(5000.0);
        let plan = e.plan(&LogicalPlan::filter_sum(0, 1, pred)).unwrap();
        let got = execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let want = volcano(&e, 0, 1, &Aggregate::FilterSum(pred), Segmentation::Canonical).unwrap();
        let want = want.as_sum().unwrap();
        assert_eq!(got.as_sum().unwrap().to_bits(), want.to_bits());
    }
}
