//! The four workloads: table and device sizes, deterministic op streams,
//! and set-up (load, WAL attach, warm-up to quiescence).

use std::sync::Arc;
use std::time::{Duration, Instant};

use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::plan::{LogicalPlan, Predicate};
use htapg_core::prng::Prng;
use htapg_core::wal::{MemStorage, Wal};
use htapg_core::{AttrId, RelationId, RowId, Value};
use htapg_device::{DeviceSpec, SimDevice};
use htapg_engines::ReferenceEngine;
use htapg_workload::queries::sorted_positions;
use htapg_workload::tpcc::{customer_attr as ca, customer_schema, Generator};

use crate::oracle::Oracle;

/// Customers in the primary table, on every workload.
pub const ROWS: u64 = 200_000;
/// Rows of the side table that carries the op types a workload's primary
/// stream does not issue (see `README.md`, "Why every workload reports
/// every metric"). One 4,096-row NSM chunk: small enough that its ops
/// never leave the host and barely touch the primary table's caches.
pub const SIDE_ROWS: u64 = 4096;
/// Positions per `materialize` (Fig. 2 Q1).
pub const MATERIALIZE_ROWS: usize = 150;
/// The `filter_sum` predicate: `c_balance >= 0`.
pub const FILTER: Predicate = Predicate::Ge(0.0);
/// Columns the `sum` rotation cycles through.
pub const SUM_ATTRS: [AttrId; 4] =
    [ca::C_BALANCE, ca::C_CREDIT_LIM, ca::C_DISCOUNT, ca::C_PAYMENT_CNT];
/// Warm-up gives up (and the benchmark fails) after this many rounds
/// without a quiescent `maintain()`.
const WARMUP_MAX_ROUNDS: u32 = 16;
/// Stream ids for `Prng::fork`, so warm-up and timed ops never share draws.
const STREAM_TIMED: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const SIDE_SEED_SALT: u64 = 0x5EED_51DE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpPoint,
    OlapScan,
    OlapSpill,
    HtapMixed,
}

/// Sizes and schedules of one workload. Maintenance runs on op counts,
/// never on timers, so the op stream a seed produces is fixed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Device global memory in bytes; `None` keeps the default 4 GB device.
    pub device_mem: Option<usize>,
    /// Attach an in-memory WAL after the load.
    pub wal: bool,
    /// Ops between two `maintain()` calls in the timed stream.
    pub maintain_every: u64,
    /// Read-only ops per warm-up round (each round ends in `maintain()`).
    pub warmup_round: u64,
    /// Ops of the count window that opens the timed stream: every layer
    /// count over it must repeat exactly at a fixed seed.
    pub count_window: u64,
}

/// One `olap_*` rotation on the primary table: two sums of each
/// `SUM_ATTRS` column, `filter_sum`, `group_sum` and `materialize` (as
/// `Stream::analytic` slots). Two scans per column against the one point
/// read a `materialize` records keep every summed column clearly
/// scan-dominated; at one scan each, the advisor's 50% delegation
/// threshold decided per seed whether three of them were delegated, and
/// sum p50 was 1.7 ms or 7.6 ms.
const OLAP_ANALYTIC: [u64; 11] = [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 6];
/// Side-table point ops that end each rotation. The point op right after
/// a scan runs on cold caches; at 200 per rotation those ops are 0.5% of
/// the point ops, beyond p99, so the p99 does not straddle the two groups.
const OLAP_SIDE_OPS: u64 = 200;
const OLAP_ROTATION: u64 = OLAP_ANALYTIC.len() as u64 + OLAP_SIDE_OPS;

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::OltpPoint, Workload::OlapScan, Workload::OlapSpill, Workload::HtapMixed];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpPoint => "oltp_point",
            Workload::OlapScan => "olap_scan",
            Workload::OlapSpill => "olap_spill",
            Workload::HtapMixed => "htap_mixed",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::OltpPoint => Spec {
                device_mem: None,
                wal: true,
                maintain_every: 20_000,
                warmup_round: 2_000,
                count_window: 40_000,
            },
            Workload::OlapScan | Workload::OlapSpill => Spec {
                // 1 MiB: smaller than one scanned column (200k f64 values,
                // 1.6 MB), so the working set exceeds the device cache.
                // With room for one column, whether `maintain()` placed
                // one (and its sums ran on the device) depended on the
                // seed.
                device_mem: (self == Workload::OlapSpill).then_some(1 << 20),
                wal: false,
                maintain_every: 20 * OLAP_ROTATION,
                warmup_round: OLAP_ROTATION,
                count_window: 20 * OLAP_ROTATION,
            },
            Workload::HtapMixed => Spec {
                device_mem: None,
                wal: true,
                maintain_every: 20_000,
                warmup_round: 2_000,
                count_window: 20_000,
            },
        }
    }
}

/// The six op types; every end-to-end latency metric is per type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Update,
    Materialize,
    Sum,
    FilterSum,
    GroupSum,
}

impl Kind {
    pub const ALL: [Kind; 6] =
        [Kind::Read, Kind::Update, Kind::Materialize, Kind::Sum, Kind::FilterSum, Kind::GroupSum];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Update => "update",
            Kind::Materialize => "materialize",
            Kind::Sum => "sum",
            Kind::FilterSum => "filter_sum",
            Kind::GroupSum => "group_sum",
        }
    }
}

#[derive(Debug, Clone)]
pub enum Op {
    Read { rel: RelationId, row: RowId },
    Update { rel: RelationId, row: RowId, value: f64 },
    Materialize { rel: RelationId, rows: Vec<RowId> },
    Sum { rel: RelationId, attr: AttrId },
    FilterSum { rel: RelationId },
    GroupSum { rel: RelationId },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Read { .. } => Kind::Read,
            Op::Update { .. } => Kind::Update,
            Op::Materialize { .. } => Kind::Materialize,
            Op::Sum { .. } => Kind::Sum,
            Op::FilterSum { .. } => Kind::FilterSum,
            Op::GroupSum { .. } => Kind::GroupSum,
        }
    }

    pub fn logical(&self) -> LogicalPlan {
        match self {
            Op::Read { rel, row } => LogicalPlan::PointRead { rel: *rel, row: *row },
            Op::Update { rel, row, value } => LogicalPlan::Update {
                rel: *rel,
                row: *row,
                attr: ca::C_BALANCE,
                value: Value::Float64(*value),
            },
            Op::Materialize { rel, rows } => {
                LogicalPlan::Materialize { rel: *rel, rows: rows.clone() }
            }
            Op::Sum { rel, attr } => LogicalPlan::sum(*rel, *attr),
            Op::FilterSum { rel } => LogicalPlan::filter_sum(*rel, ca::C_BALANCE, FILTER),
            Op::GroupSum { rel } => LogicalPlan::group_sum(*rel, ca::C_D_ID, ca::C_BALANCE),
        }
    }
}

/// Deterministic op stream of one workload. `read_only` (warm-up) skips
/// the updates, so `maintain()` can reach quiescence.
pub struct Stream {
    workload: Workload,
    rng: Prng,
    gen: Generator,
    primary: RelationId,
    side: RelationId,
    rows: u64,
    read_only: bool,
    i: u64,
}

impl Stream {
    fn oltp(&mut self, rel: RelationId, rows: u64) -> Op {
        let row = self.gen.skewed_row(&mut self.rng, rows);
        if self.rng.gen_bool(0.5) {
            Op::Read { rel, row }
        } else {
            Op::Update { rel, row, value: self.rng.gen_range(-1_000.0..10_000.0) }
        }
    }

    fn analytic(&mut self, rel: RelationId, rows: u64, slot: u64) -> Op {
        match slot {
            0..=3 => Op::Sum { rel, attr: SUM_ATTRS[slot as usize] },
            4 => Op::FilterSum { rel },
            5 => Op::GroupSum { rel },
            _ => Op::Materialize {
                rel,
                rows: sorted_positions(&mut self.rng, rows, MATERIALIZE_ROWS),
            },
        }
    }

    fn generate(&mut self) -> Op {
        let i = self.i;
        self.i += 1;
        let (primary, side, rows) = (self.primary, self.side, self.rows);
        match self.workload {
            // NURand 50/50 point reads and c_balance updates; every 1,000th
            // op a Q1 materialize, every 500th a side-table analytic op.
            Workload::OltpPoint => {
                if i % 500 == 499 {
                    const SIDE: [u64; 6] = [0, 4, 1, 5, 2, 3];
                    self.analytic(side, SIDE_ROWS, SIDE[(i / 500 % 6) as usize])
                } else if i % 1000 == 998 {
                    self.analytic(primary, rows, 6)
                } else {
                    self.oltp(primary, rows)
                }
            }
            // Fixed analytic rotation on the primary table, then side-table
            // point reads and updates.
            Workload::OlapScan | Workload::OlapSpill => {
                match OLAP_ANALYTIC.get((i % OLAP_ROTATION) as usize) {
                    Some(&slot) => self.analytic(primary, rows, slot),
                    None => self.oltp(side, SIDE_ROWS),
                }
            }
            // Every 200th op an analytic op on c_balance, the column the
            // updates write: sum, filter_sum, group_sum, materialize. The
            // point ops right after them (0.5%) lie beyond p99.
            Workload::HtapMixed => {
                if i % 200 == 199 {
                    const SLOTS: [u64; 4] = [0, 4, 5, 6];
                    self.analytic(primary, rows, SLOTS[(i / 200 % 4) as usize])
                } else {
                    self.oltp(primary, rows)
                }
            }
        }
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        loop {
            let op = self.generate();
            if !(self.read_only && op.kind() == Kind::Update) {
                return Some(op);
            }
        }
    }
}

/// A loaded, warmed-up engine and the oracle that shadows it.
pub struct Bench {
    pub workload: Workload,
    pub spec: Spec,
    pub seed: u64,
    pub engine: ReferenceEngine,
    pub primary: RelationId,
    pub side: RelationId,
    pub wal: Option<Arc<Wal<MemStorage>>>,
    pub oracle: Oracle,
}

/// What set-up did and how long it took.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    /// Set-up time without the oracle's work (shadow building, output
    /// checks), which the timed stream excludes too.
    pub secs: f64,
    pub load_ns: u64,
    pub rows_loaded: u64,
    pub warmup_rounds: u32,
    /// `maintain()` totals over the warm-up rounds.
    pub warmup: MaintenanceReport,
    /// The last warm-up `maintain()` did nothing (else it repeated the
    /// round before).
    pub quiescent: bool,
}

impl Bench {
    /// The timed op stream of this seed.
    pub fn stream(&self) -> Stream {
        self.stream_of(STREAM_TIMED, false)
    }

    fn stream_of(&self, id: u64, read_only: bool) -> Stream {
        Stream {
            workload: self.workload,
            rng: Prng::seed_from_u64(self.seed).fork(id),
            gen: Generator::new(self.seed),
            primary: self.primary,
            side: self.side,
            rows: ROWS,
            read_only,
            i: 0,
        }
    }

    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.storage().lock().len() as u64)
    }
}

pub fn add_maintenance(total: &mut MaintenanceReport, r: &MaintenanceReport) {
    total.layouts_reorganized += r.layouts_reorganized;
    total.merges += r.merges;
    total.versions_pruned += r.versions_pruned;
    total.fragments_moved += r.fragments_moved;
}

/// Load both tables, attach the WAL, and warm up until `maintain()`
/// reports no work. Warm-up rounds run the read-only part of the
/// workload's own stream, so caches, delegation and layouts settle where
/// the timed stream will find them.
pub fn setup(workload: Workload, seed: u64) -> Result<(Bench, SetupReport), String> {
    let spec = workload.spec();
    let start = Instant::now();
    let device = match spec.device_mem {
        None => SimDevice::with_defaults(),
        Some(bytes) => {
            SimDevice::new(0, DeviceSpec { global_mem_bytes: bytes, ..DeviceSpec::default() })
        }
    };
    let engine = ReferenceEngine::with_device(Arc::new(device));
    let load = |gen: &Generator, rows: u64| -> Result<RelationId, String> {
        let rel = engine.create_relation(customer_schema()).map_err(|e| e.to_string())?;
        for i in 0..rows {
            engine.insert(rel, &gen.customer(i)).map_err(|e| format!("load row {i}: {e}"))?;
        }
        Ok(rel)
    };
    let tables = [(Generator::new(seed), ROWS), (Generator::new(seed ^ SIDE_SEED_SALT), SIDE_ROWS)];
    let primary = load(&tables[0].0, ROWS)?;
    let side = load(&tables[1].0, SIDE_ROWS)?;
    let load_ns = start.elapsed().as_nanos() as u64;
    // The shadow tables, from the same generators; not part of set-up.
    let shadow = Instant::now();
    let mut oracle = Oracle::default();
    for ((gen, rows), rel) in tables.iter().zip([primary, side]) {
        let table = oracle.add_table(rel, *rows);
        for i in 0..*rows {
            table.load(&gen.customer(i));
        }
    }
    let mut oracle_ns = shadow.elapsed().as_nanos() as u64;
    let wal = spec.wal.then(|| {
        // In-memory log, no fsync: the benchmark measures the engine, not
        // the disk (`FileStorage` syncs on every append).
        let wal = Arc::new(Wal::new(MemStorage::new()));
        engine.attach_wal(wal.clone());
        wal
    });
    let mut bench = Bench { workload, spec, seed, engine, primary, side, wal, oracle };
    let mut report =
        SetupReport { load_ns, rows_loaded: ROWS + SIDE_ROWS, ..SetupReport::default() };
    let policy = crate::policy();
    let mut warm = bench.stream_of(STREAM_WARMUP, true);
    let mut previous: Option<MaintenanceReport> = None;
    loop {
        if report.warmup_rounds == WARMUP_MAX_ROUNDS {
            return Err(format!(
                "maintain() still changing after {WARMUP_MAX_ROUNDS} warm-up rounds"
            ));
        }
        report.warmup_rounds += 1;
        for op in warm.by_ref().take(spec.warmup_round as usize) {
            let out = crate::layers::execute(&bench.engine, &op, policy)
                .map_err(|e| format!("warm-up {op:?}: {e}"))?;
            let check = Instant::now();
            if !bench.oracle.check(&op, &out) {
                return Err(format!("warm-up {:?} returned a wrong result", op.kind()));
            }
            oracle_ns += check.elapsed().as_nanos() as u64;
        }
        let r = bench.engine.maintain().map_err(|e| format!("warm-up maintain: {e}"))?;
        add_maintenance(&mut report.warmup, &r);
        // Quiescent, or settled into a cycle that repeats every round
        // (e.g. a query-driven replica uploaded by the round's scans and
        // evicted again by `maintain()` because its column is not
        // delegated).
        if !r.did_anything() || previous.as_ref() == Some(&r) {
            report.quiescent = !r.did_anything();
            break;
        }
        previous = Some(r);
    }
    report.secs = start.elapsed().saturating_sub(Duration::from_nanos(oracle_ns)).as_secs_f64();
    Ok((bench, report))
}
