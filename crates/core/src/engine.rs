//! The common storage-engine API.
//!
//! All ten surveyed archetypes in `htapg-engines`, plus the Section IV-C
//! reference engine, implement [`StorageEngine`]. The execution layer
//! (`htapg-exec`), the workload driver (`htapg-workload`), and every
//! benchmark run against this trait, so engines are compared on identical
//! terms — the methodological point of the paper's Table 1.

use std::sync::Arc;

use htapg_taxonomy::Classification;

use crate::costmodel::CacheSpec;
use crate::error::{Error, Result};
use crate::obs;
use crate::plan::{
    self, Aggregate, ColumnEvidence, DeviceCostProfile, EngineCapabilities, LogicalPlan,
    PhysicalPlan, QueryOutput, Route, TableEvidence,
};
use crate::schema::{AttrId, Record, RelationId, RowId, Schema};
use crate::types::Value;

/// Report returned by [`StorageEngine::maintain`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Layouts rewritten by responsive adaptation.
    pub layouts_reorganized: usize,
    /// Tail/base merges performed (L-Store), chunks compacted (HyPer), …
    pub merges: usize,
    /// Versions / tombstones garbage-collected.
    pub versions_pruned: usize,
    /// Fragments moved between locations (device placement etc.).
    pub fragments_moved: usize,
}

impl MaintenanceReport {
    pub fn did_anything(&self) -> bool {
        self.layouts_reorganized + self.merges + self.versions_pruned + self.fragments_moved > 0
    }
}

/// The uniform storage-engine interface.
///
/// Access-pattern vocabulary follows Section II: [`read_record`] is the
/// record-centric extreme (Q1), [`scan_column`] the attribute-centric
/// extreme (Q2).
///
/// [`read_record`]: StorageEngine::read_record
/// [`scan_column`]: StorageEngine::scan_column
pub trait StorageEngine: Send + Sync {
    /// Engine name (matches Table 1 where applicable).
    fn name(&self) -> &'static str;

    /// Taxonomy classification — the engine's Table 1 row, derived from its
    /// actual configuration.
    fn classification(&self) -> Classification;

    /// Create a relation; returns its id.
    fn create_relation(&self, schema: Schema) -> Result<RelationId>;

    /// Schema of a relation.
    fn schema(&self, rel: RelationId) -> Result<Schema>;

    /// Append a record; returns the assigned row id (dense, insertion
    /// order).
    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId>;

    /// Record-centric read: materialize all fields of one row.
    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record>;

    /// Read one field.
    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value>;

    /// Update one field in place (engines with versioning append a new
    /// version instead).
    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()>;

    /// Attribute-centric scan: visit every value of `attr` in row order.
    fn scan_column(
        &self,
        rel: RelationId,
        attr: AttrId,
        visit: &mut dyn FnMut(RowId, &Value),
    ) -> Result<()>;

    /// Fast path: invoke `visit` once per *contiguous* raw block of the
    /// column's fixed-width little-endian values, in row order. Returns
    /// `Ok(false)` (without calling `visit`) when the engine cannot provide
    /// contiguous blocks (e.g. NSM storage) — callers fall back to
    /// [`scan_column`](StorageEngine::scan_column).
    fn with_column_bytes(
        &self,
        rel: RelationId,
        attr: AttrId,
        visit: &mut dyn FnMut(&[u8]),
    ) -> Result<bool> {
        let _ = (rel, attr, visit);
        Ok(false)
    }

    /// Sum a numeric column (the paper's "sum prices" operation). The
    /// default scans on the host, preferring the contiguous fast path;
    /// device-backed engines override it to answer from a fresh device
    /// replica (charging virtual kernel time) when one exists.
    ///
    /// Summing a non-numeric column is a typed error
    /// ([`Error::NonNumericAggregate`]), never a silent `0.0` — the type
    /// is checked up front, so both the fast path and the fallback reject
    /// it before touching any data.
    fn sum_column_f64(&self, rel: RelationId, attr: AttrId) -> Result<f64> {
        let ty = self.schema(rel)?.ty(attr)?;
        if !ty.is_numeric() {
            return Err(Error::NonNumericAggregate { attr, got: ty.name() });
        }
        let width = ty.width();
        let mut sum = 0.0f64;
        let used_fast = self.with_column_bytes(rel, attr, &mut |block| {
            for chunk in block.chunks_exact(width) {
                let x =
                    Value::decode(ty, chunk).as_f64().expect("column type checked numeric above");
                sum += x;
            }
        })?;
        if used_fast {
            return Ok(sum);
        }
        sum = 0.0;
        self.scan_column(rel, attr, &mut |_, v| {
            sum += v.as_f64().expect("column type checked numeric above");
        })?;
        Ok(sum)
    }

    /// Materialize several rows in one call (the paper's "materialize 150
    /// customers" operation). The default is the per-row tuple loop;
    /// engines with contiguous NSM rows override it to serve a *sorted*
    /// position list in one sequential pass under a single lock/snapshot.
    /// Results are always in the order of `rows`.
    fn materialize_rows(&self, rel: RelationId, rows: &[RowId]) -> Result<Vec<Record>> {
        rows.iter().map(|&r| self.read_record(rel, r)).collect()
    }

    /// Number of rows in a relation.
    fn row_count(&self, rel: RelationId) -> Result<u64>;

    /// Run background maintenance (adaptation, merges, compaction,
    /// placement). Engines with nothing to do return a default report.
    fn maintain(&self) -> Result<MaintenanceReport> {
        Ok(MaintenanceReport::default())
    }

    // --- Query planning (DESIGN.md §12) -------------------------------

    /// What this engine can do, derived from its Table 1 classification.
    /// Engines whose abilities differ from their taxonomy row (they
    /// shouldn't) may override.
    fn capabilities(&self) -> EngineCapabilities {
        EngineCapabilities::from_classification(&self.classification())
    }

    /// Cost parameters of the engine's simulated device, if it has one.
    /// `None` (the default) disables every device route in the planner.
    fn device_cost_profile(&self) -> Option<DeviceCostProfile> {
        None
    }

    /// Evidence the planner prices a column scan from. The default derives
    /// everything statically from capabilities and schema and reports a
    /// cold device cache; device-backed engines override it to report live
    /// replica warmth (a peek — no counters, no virtual cost), and engines
    /// with version overlays report whether the contiguous fast path is
    /// currently available.
    fn column_evidence(&self, rel: RelationId, attr: AttrId) -> Result<ColumnEvidence> {
        let schema = self.schema(rel)?;
        let ty = schema.ty(attr)?;
        let rows = self.row_count(rel)?;
        let contiguous = self.capabilities().contiguous_scan;
        let scan_stride = if contiguous { ty.width() as u64 } else { schema.tuple_width() as u64 };
        Ok(ColumnEvidence { rows, ty, scan_stride, contiguous, device_warm: false, stale_rows: 0 })
    }

    /// Evidence for record-centric nodes (materialize, point reads).
    fn table_evidence(&self, rel: RelationId) -> Result<TableEvidence> {
        let schema = self.schema(rel)?;
        let rows = self.row_count(rel)?;
        let lin = self.classification().fragment_linearization;
        let contiguous_nsm = matches!(lin, htapg_taxonomy::FragmentLinearization::FatNsmFixed)
            || lin.covers_nsm_and_dsm();
        Ok(TableEvidence { rows, record_width: schema.tuple_width() as u64, contiguous_nsm })
    }

    /// Per-node evidence for a partitioned column (DESIGN.md §15). `None`
    /// (the default, for every single-node engine) keeps the planner on
    /// the flat lowering; sharded engines return the placement geometry,
    /// the interconnect price list, and one [`plan::ShardEvidence`] per
    /// node so aggregates lower to scatter-gather.
    fn shard_evidence(
        &self,
        rel: RelationId,
        attr: AttrId,
    ) -> Result<Option<plan::ShardPlanEvidence>> {
        let _ = (rel, attr);
        Ok(None)
    }

    /// Build a routed physical plan for `logical`. The default runs the
    /// shared cost-based router over this engine's capabilities, device
    /// profile, and live column (and shard) evidence; engines with their
    /// own scheduler may override (and still fall back to the default for
    /// shapes they don't special-case).
    fn plan(&self, logical: &LogicalPlan) -> Result<PhysicalPlan> {
        let caps = self.capabilities();
        let device = self.device_cost_profile();
        let cache = CacheSpec::default();
        let cal = self.calibration();
        plan::build_plan_sharded(
            logical,
            &plan::PlannerContext {
                caps: &caps,
                device: device.as_ref(),
                cache: &cache,
                calibration: cal.as_deref(),
            },
            &mut |rel, attr| self.column_evidence(rel, attr),
            &mut |rel| self.table_evidence(rel),
            &mut |rel, attr| self.shard_evidence(rel, attr),
        )
    }

    /// The engine's online cost-calibration profiles, if it keeps any.
    /// `None` (the default) leaves the planner on its static estimates
    /// and disables the executor's residual feedback for this engine.
    fn calibration(&self) -> Option<Arc<crate::calibrate::CalibrationProfiles>> {
        None
    }

    /// Run an aggregate over `attr` on the engine's own device or shards
    /// (`route` is [`Route::DevicePipelined`] or [`Route::Scatter`]),
    /// charging virtual transfer/kernel/network time to the engine's
    /// ledger. The default has neither. On any error but
    /// [`Error::NonNumericAggregate`] the physical executor falls back to
    /// the host reduction of the same geometry, so a stale replica or a
    /// failed gather degrades gracefully — and bit-identically.
    fn offload_aggregate(
        &self,
        rel: RelationId,
        attr: AttrId,
        agg: &Aggregate,
        route: Route,
    ) -> Result<QueryOutput> {
        let _ = (rel, attr, agg);
        Err(Error::Internal(format!("engine has no {} offload", route.label())))
    }

    /// The virtual clock this engine's work is charged against, for span
    /// tracing: engines backed by a simulated device return their
    /// `CostLedger`. Host-only engines return `None` — callers fall back
    /// to a [`obs::ManualClock`], so spans still carry structure and
    /// counts, just zero virtual duration.
    fn trace_clock(&self) -> Option<Arc<dyn obs::VirtualClock>> {
        None
    }

    /// EXPLAIN-style cost breakdown of a traced run against this engine:
    /// the span tree with inclusive/exclusive virtual nanoseconds and
    /// per-ledger-category attribution. All engines render through the
    /// same [`obs::TraceReport`], so breakdowns are directly comparable
    /// across the surveyed archetypes.
    fn explain(&self, report: &obs::TraceReport) -> String {
        report.render(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutTemplate;
    use crate::relation::Relation;
    use crate::sync::RwLock;
    use crate::types::DataType;
    use htapg_taxonomy::{
        DataLocality, DataLocation, FragmentLinearization, FragmentScheme, LayoutAdaptability,
        LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
    };

    /// Minimal engine over a single relation, used to test the blanket
    /// helpers and as the simplest possible reference implementation.
    struct Toy {
        rel: RwLock<Option<Relation>>,
    }

    impl Toy {
        fn new() -> Self {
            Toy { rel: RwLock::new(None) }
        }
    }

    impl StorageEngine for Toy {
        fn name(&self) -> &'static str {
            "TOY"
        }

        fn classification(&self) -> Classification {
            Classification {
                name: "TOY",
                layout_handling: LayoutHandling::Single,
                layout_flexibility: LayoutFlexibility::Inflexible,
                layout_adaptability: LayoutAdaptability::Static,
                data_location: DataLocation::host_only(),
                data_locality: DataLocality::Centralized,
                fragment_linearization: FragmentLinearization::FatNsmFixed,
                fragment_scheme: FragmentScheme::None,
                processor_support: ProcessorSupport::Cpu,
                workload_support: WorkloadSupport::Oltp,
                year: 2017,
            }
        }

        fn create_relation(&self, schema: Schema) -> Result<RelationId> {
            let template = LayoutTemplate::nsm(&schema);
            *self.rel.write() = Some(Relation::new(schema, template)?);
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
                crate::scheme::AccessHint::RecordCentric,
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

    #[test]
    fn blanket_helpers_work() {
        let e = Toy::new();
        let s = Schema::of(&[("k", DataType::Int64), ("price", DataType::Float64)]);
        let rel = e.create_relation(s).unwrap();
        for i in 0..100 {
            e.insert(rel, &vec![Value::Int64(i), Value::Float64(i as f64 * 0.5)]).unwrap();
        }
        let sum = e.sum_column_f64(rel, 1).unwrap();
        assert_eq!(sum, (0..100).map(|i| i as f64 * 0.5).sum::<f64>());
        let recs = e.materialize_rows(rel, &[3, 7]).unwrap();
        assert_eq!(recs[0][0], Value::Int64(3));
        assert_eq!(recs[1][1], Value::Float64(3.5));
        assert_eq!(e.row_count(rel).unwrap(), 100);
        assert!(!e.maintain().unwrap().did_anything());
    }

    #[test]
    fn trait_objects_are_usable() {
        let e: Box<dyn StorageEngine> = Box::new(Toy::new());
        let s = Schema::of(&[("x", DataType::Int64)]);
        let rel = e.create_relation(s).unwrap();
        e.insert(rel, &vec![Value::Int64(9)]).unwrap();
        assert_eq!(e.read_field(rel, 0, 0).unwrap(), Value::Int64(9));
        assert_eq!(e.classification().name, "TOY");
    }

    /// DSM variant of [`Toy`] that serves the contiguous fast path, to
    /// exercise `sum_column_f64`'s `with_column_bytes` branch.
    struct ToyDsm {
        inner: Toy,
    }

    impl StorageEngine for ToyDsm {
        fn name(&self) -> &'static str {
            "TOY-DSM"
        }

        fn classification(&self) -> Classification {
            Classification {
                fragment_linearization: FragmentLinearization::FatDsmFixed,
                ..self.inner.classification()
            }
        }

        fn create_relation(&self, schema: Schema) -> Result<RelationId> {
            let template = LayoutTemplate::dsm(&schema);
            *self.inner.rel.write() = Some(Relation::new(schema, template)?);
            Ok(0)
        }

        fn schema(&self, rel: RelationId) -> Result<Schema> {
            self.inner.schema(rel)
        }

        fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
            self.inner.insert(rel, record)
        }

        fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
            self.inner.read_record(rel, row)
        }

        fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
            self.inner.read_field(rel, row, attr)
        }

        fn update_field(
            &self,
            rel: RelationId,
            row: RowId,
            attr: AttrId,
            value: &Value,
        ) -> Result<()> {
            self.inner.update_field(rel, row, attr, value)
        }

        fn scan_column(
            &self,
            rel: RelationId,
            attr: AttrId,
            visit: &mut dyn FnMut(RowId, &Value),
        ) -> Result<()> {
            self.inner.scan_column(rel, attr, visit)
        }

        fn with_column_bytes(
            &self,
            _rel: RelationId,
            attr: AttrId,
            visit: &mut dyn FnMut(&[u8]),
        ) -> Result<bool> {
            self.inner.rel.read().as_ref().unwrap().with_column_bytes(attr, visit)
        }

        fn row_count(&self, rel: RelationId) -> Result<u64> {
            self.inner.row_count(rel)
        }
    }

    #[test]
    fn non_numeric_sum_is_typed_error_on_fallback_path() {
        // Toy is NSM: `with_column_bytes` declines, so the sum goes down
        // the `scan_column` fallback — which must also reject up front.
        let e = Toy::new();
        let s = Schema::of(&[("name", DataType::Text(8)), ("price", DataType::Float64)]);
        let rel = e.create_relation(s).unwrap();
        e.insert(rel, &vec![Value::Text("x".into()), Value::Float64(1.5)]).unwrap();
        let err = e.sum_column_f64(rel, 0).unwrap_err();
        assert_eq!(err, crate::error::Error::NonNumericAggregate { attr: 0, got: "text" });
        // The numeric column still sums.
        assert_eq!(e.sum_column_f64(rel, 1).unwrap(), 1.5);
    }

    #[test]
    fn non_numeric_sum_is_typed_error_on_fast_path() {
        let e = ToyDsm { inner: Toy::new() };
        let s = Schema::of(&[("flag", DataType::Bool), ("price", DataType::Float64)]);
        let rel = e.create_relation(s).unwrap();
        for i in 0..10 {
            e.insert(rel, &vec![Value::Bool(i % 2 == 0), Value::Float64(i as f64)]).unwrap();
        }
        // Sanity: the fast path is actually taken for the numeric column.
        let mut blocks = 0;
        assert!(e.with_column_bytes(rel, 1, &mut |_| blocks += 1).unwrap());
        assert!(blocks > 0);
        let err = e.sum_column_f64(rel, 0).unwrap_err();
        assert_eq!(err, crate::error::Error::NonNumericAggregate { attr: 0, got: "bool" });
        assert_eq!(e.sum_column_f64(rel, 1).unwrap(), (0..10).sum::<i32>() as f64);
    }

    #[test]
    fn default_plan_routes_tiny_host_relation_inline() {
        let e = Toy::new();
        let s = Schema::of(&[("k", DataType::Int64), ("price", DataType::Float64)]);
        let rel = e.create_relation(s).unwrap();
        for i in 0..50 {
            e.insert(rel, &vec![Value::Int64(i), Value::Float64(i as f64)]).unwrap();
        }
        let plan = e.plan(&LogicalPlan::sum(rel, 1)).unwrap();
        assert_eq!(plan.route(), crate::plan::Route::InlineVolcano);
        // NSM-only engine: the planner pins the value-visit strategy.
        assert_eq!(plan.root.strategy, crate::plan::ScanStrategy::ValueVisit);
        assert_eq!(plan.bytes_to_device(), 0);
        // Toy has no device, so estimates are pure cache-model host costs.
        assert!(plan.estimated_ns() > 0);
    }

    #[test]
    fn materialize_rows_default_matches_read_record_loop() {
        let e = Toy::new();
        let s = Schema::of(&[("k", DataType::Int64)]);
        let rel = e.create_relation(s).unwrap();
        for i in 0..20 {
            e.insert(rel, &vec![Value::Int64(i)]).unwrap();
        }
        let recs = e.materialize_rows(rel, &[7, 3, 19]).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0][0], Value::Int64(7));
        assert_eq!(recs[1][0], Value::Int64(3));
        assert_eq!(recs[2][0], Value::Int64(19));
    }
}
