//! Calls into the engine's layers, timed from the benchmark's own files,
//! and the per-layer counts read from the program's public counters
//! (`CostLedger::snapshot()`, `obs::metrics()`, `MaintenanceReport`,
//! `ExecOutcome`).

use std::collections::BTreeMap;
use std::time::Instant;

use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::obs::{self, MetricsSnapshot};
use htapg_core::plan::Route;
use htapg_core::Result;
use htapg_device::ledger::CostSnapshot;
use htapg_engines::ReferenceEngine;
use htapg_exec::physical::{self, QueryOutput};
use htapg_exec::ThreadingPolicy;

use crate::workload::{Bench, Kind, Op};

/// Routes counted per planned root; the reference engine plans no others.
pub const ROUTES: [Route; 3] =
    [Route::DevicePipelined, Route::HostPooledMorsel, Route::InlineVolcano];

/// Program counters that must repeat exactly at a fixed seed.
const DETERMINISTIC_COUNTERS: [&str; 7] = [
    "txn.begins",
    "txn.commits",
    "txn.aborts",
    "txn.conflicts",
    "wal.appends",
    "plan.replans",
    "adapt.recommendations",
];

/// What one op did, as the planner and executor report it.
pub struct Executed {
    pub output: QueryOutput,
    pub route: Route,
    pub executed_route: Route,
    pub estimated_ns: u64,
    pub actual_ns: u64,
}

/// Real time spent in each layer call of one op (traced runs only).
#[derive(Default)]
pub struct CallTimes {
    pub plan_ns: u64,
    pub exec_ns: u64,
}

/// Run one op through the program's own `physical::execute_adaptive`: the
/// path of set-up, the timed run and the untraced window of a traced run.
pub fn execute(engine: &ReferenceEngine, op: &Op, policy: ThreadingPolicy) -> Result<QueryOutput> {
    Ok(physical::execute_adaptive(engine, &op.logical(), policy)?.output)
}

/// Plan, execute with residual feedback, and replan on divergence: the
/// steps of `physical::execute_adaptive`, called one by one so each layer
/// can be timed and the plan's route and costs read. Traced runs only;
/// their count check compares this copy with the program's path.
pub fn execute_traced(
    engine: &ReferenceEngine,
    op: &Op,
    policy: ThreadingPolicy,
    times: &mut CallTimes,
) -> Result<Executed> {
    let logical = op.logical();
    let clock = Instant::now();
    let plan = engine.plan(&logical)?;
    let planned = clock.elapsed();
    let outcome = physical::execute_observed(engine, &plan, policy)?;
    let executed = clock.elapsed();
    if outcome.diverged {
        obs::metrics().counter("plan.replans").inc();
        engine.plan(&logical)?;
    }
    let end = clock.elapsed();
    times.plan_ns += (planned + (end - executed)).as_nanos() as u64;
    times.exec_ns += (executed - planned).as_nanos() as u64;
    Ok(Executed {
        output: outcome.output,
        route: plan.route(),
        executed_route: outcome.executed_route,
        estimated_ns: plan.estimated_ns(),
        actual_ns: outcome.actual_ns,
    })
}

/// Counts and (when traced) layer times over one window of the timed
/// stream. Route, estimate and virtual-ns counts come from the traced
/// copy of `execute_adaptive` and stay zero in an untraced window.
pub struct Window {
    traced: bool,
    ledger0: CostSnapshot,
    metrics0: MetricsSnapshot,
    wal0: u64,
    pub ops: u64,
    pub calls: [u64; 6],
    pub routes: [u64; 3],
    pub est_vns: u64,
    pub vns: [u64; 6],
    pub fallbacks: u64,
    pub maintain: MaintenanceReport,
    pub maintain_ns: Vec<u64>,
    /// Sum of per-op and `maintain()` real time: the timed wall.
    pub timed_ns: u64,
    pub plan_ns: u64,
    pub exec_ns: [u64; 6],
}

/// A finished window: deterministic counts plus layer timings.
pub struct Closed {
    /// Counts the program's own counters give, in any window.
    pub counts: BTreeMap<String, u64>,
    /// Counts only the traced copy of `execute_adaptive` sees.
    pub traced_counts: BTreeMap<String, u64>,
    pub ledger: CostSnapshot,
    pub metrics: MetricsSnapshot,
    pub wal_bytes: u64,
}

impl Window {
    pub fn open(bench: &Bench, traced: bool) -> Window {
        Window {
            traced,
            ledger0: bench.engine.device().ledger().snapshot(),
            metrics0: obs::metrics().snapshot(),
            wal0: bench.wal_bytes(),
            ops: 0,
            calls: [0; 6],
            routes: [0; 3],
            est_vns: 0,
            vns: [0; 6],
            fallbacks: 0,
            maintain: MaintenanceReport::default(),
            maintain_ns: Vec::new(),
            timed_ns: 0,
            plan_ns: 0,
            exec_ns: [0; 6],
        }
    }

    /// Run one op; returns its output and its real latency in ns.
    pub fn run(
        &mut self,
        bench: &Bench,
        op: &Op,
        policy: ThreadingPolicy,
    ) -> Result<(QueryOutput, u64)> {
        let kind = op.kind() as usize;
        self.ops += 1;
        self.calls[kind] += 1;
        if !self.traced {
            let start = Instant::now();
            let result = execute(&bench.engine, op, policy);
            let ns = start.elapsed().as_nanos() as u64;
            self.timed_ns += ns;
            return Ok((result?, ns));
        }
        let mut times = CallTimes::default();
        let start = Instant::now();
        let result = execute_traced(&bench.engine, op, policy, &mut times);
        let ns = start.elapsed().as_nanos() as u64;
        self.timed_ns += ns;
        let done = result?;
        self.plan_ns += times.plan_ns;
        self.exec_ns[kind] += times.exec_ns;
        if let Some(i) = ROUTES.iter().position(|r| *r == done.route) {
            self.routes[i] += 1;
        }
        self.est_vns += done.estimated_ns;
        self.vns[kind] += done.actual_ns;
        self.fallbacks += u64::from(done.executed_route != done.route);
        Ok((done.output, ns))
    }

    pub fn maintain(&mut self, bench: &Bench) -> Result<()> {
        let start = Instant::now();
        let report = bench.engine.maintain();
        let ns = start.elapsed().as_nanos() as u64;
        crate::workload::add_maintenance(&mut self.maintain, &report?);
        self.maintain_ns.push(ns);
        self.timed_ns += ns;
        Ok(())
    }

    pub fn close(&self, bench: &Bench) -> Closed {
        let ledger = bench.engine.device().ledger().snapshot().since(&self.ledger0);
        let metrics = obs::metrics().snapshot().since(&self.metrics0);
        let wal_bytes = bench.wal_bytes() - self.wal0;
        let mut counts = BTreeMap::new();
        let mut put = |k: &str, v: u64| {
            counts.insert(k.to_string(), v);
        };
        put("ops", self.ops);
        for kind in Kind::ALL {
            put(&format!("calls.{}", kind.name()), self.calls[kind as usize]);
        }
        put_maintenance(&mut put, "maintain", &self.maintain);
        put("maintain.calls", self.maintain_ns.len() as u64);
        put_ledger(&mut put, "ledger", &ledger);
        for name in DETERMINISTIC_COUNTERS {
            put(&format!("counter.{name}"), metrics.counter(name));
        }
        put("wal.bytes", wal_bytes);
        let mut traced_counts = BTreeMap::new();
        if self.traced {
            let mut put = |k: String, v: u64| {
                traced_counts.insert(k, v);
            };
            for kind in Kind::ALL {
                put(format!("vns.{}", kind.name()), self.vns[kind as usize]);
            }
            for (route, n) in ROUTES.iter().zip(self.routes) {
                put(format!("route.{}", route.label()), n);
            }
            put("est_vns".into(), self.est_vns);
            put("fallbacks".into(), self.fallbacks);
        }
        Closed { counts, traced_counts, ledger, metrics, wal_bytes }
    }
}

pub fn put_maintenance(put: &mut impl FnMut(&str, u64), prefix: &str, r: &MaintenanceReport) {
    put(&format!("{prefix}.layouts_reorganized"), r.layouts_reorganized as u64);
    put(&format!("{prefix}.merges"), r.merges as u64);
    put(&format!("{prefix}.versions_pruned"), r.versions_pruned as u64);
    put(&format!("{prefix}.fragments_moved"), r.fragments_moved as u64);
}

pub fn put_ledger(put: &mut impl FnMut(&str, u64), prefix: &str, s: &CostSnapshot) {
    let fields = [
        ("transfer_ns", s.transfer_ns),
        ("kernel_ns", s.kernel_ns),
        ("disk_ns", s.disk_ns),
        ("network_ns", s.network_ns),
        ("backoff_ns", s.backoff_ns),
        ("wall_ns", s.wall_ns),
        ("transfers", s.transfers),
        ("kernel_launches", s.kernel_launches),
        ("bytes_to_device", s.bytes_to_device),
        ("bytes_from_device", s.bytes_from_device),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
        ("cache_evictions", s.cache_evictions),
        ("delta_bytes", s.delta_bytes),
        ("delta_merges", s.delta_merges),
        ("network_bytes", s.network_bytes),
    ];
    for (name, v) in fields {
        put(&format!("{prefix}.{name}"), v);
    }
}
