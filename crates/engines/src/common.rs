//! Shared plumbing for engine implementations.

use htapg_core::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

use htapg_core::engine::StorageEngine;
use htapg_core::plan::Aggregate;
use htapg_core::{Error, RelationId, Result};

/// For a group-sum, the row positions of every key of its integer key
/// column, keys ascending and rows in row order: the host-side grouping a
/// device group-sum gathers its per-group value runs by. Empty for the
/// other aggregates. A non-integer key column is a typed error, as on the
/// host route.
pub fn group_positions(
    engine: &dyn StorageEngine,
    rel: RelationId,
    agg: &Aggregate,
) -> Result<BTreeMap<i64, Vec<u64>>> {
    let mut positions: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
    let Aggregate::GroupSum { key_attr } = *agg else { return Ok(positions) };
    let ty = engine.schema(rel)?.ty(key_attr)?;
    if !ty.is_integer() {
        return Err(Error::NonNumericAggregate { attr: key_attr, got: ty.name() });
    }
    engine.scan_column(rel, key_attr, &mut |row, v| {
        let key = v.as_i64().expect("key type checked integer above");
        positions.entry(key).or_default().push(row);
    })?;
    Ok(positions)
}

/// A concurrent registry of per-relation states.
///
/// Engines keep one `Registry<TheirRelationState>`; relation ids are dense
/// handles. Each relation carries its own lock so operations on different
/// relations never contend.
#[derive(Debug, Default)]
pub struct Registry<T> {
    items: RwLock<Vec<Arc<RwLock<T>>>>,
}

impl<T> Registry<T> {
    pub fn new() -> Self {
        Registry { items: RwLock::new(Vec::new()) }
    }

    /// Register a new relation state; returns its id.
    pub fn add(&self, state: T) -> RelationId {
        let mut items = self.items.write();
        items.push(Arc::new(RwLock::new(state)));
        (items.len() - 1) as RelationId
    }

    /// Clone the handle for a relation.
    pub fn get(&self, rel: RelationId) -> Result<Arc<RwLock<T>>> {
        self.items.read().get(rel as usize).cloned().ok_or(Error::UnknownRelation(rel))
    }

    /// Run `f` with shared access to the relation state.
    pub fn read<R>(&self, rel: RelationId, f: impl FnOnce(&T) -> Result<R>) -> Result<R> {
        let handle = self.get(rel)?;
        let guard = handle.read();
        f(&guard)
    }

    /// Run `f` with exclusive access to the relation state.
    pub fn write<R>(&self, rel: RelationId, f: impl FnOnce(&mut T) -> Result<R>) -> Result<R> {
        let handle = self.get(rel)?;
        let mut guard = handle.write();
        f(&mut guard)
    }

    pub fn len(&self) -> usize {
        self.items.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Handles of all relations (for maintenance sweeps).
    pub fn all(&self) -> Vec<Arc<RwLock<T>>> {
        self.items.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_read_write() {
        let r: Registry<i32> = Registry::new();
        let a = r.add(1);
        let b = r.add(2);
        assert_ne!(a, b);
        assert_eq!(r.read(a, |v| Ok(*v)).unwrap(), 1);
        r.write(b, |v| {
            *v = 20;
            Ok(())
        })
        .unwrap();
        assert_eq!(r.read(b, |v| Ok(*v)).unwrap(), 20);
        assert!(matches!(r.read(9, |_| Ok(())), Err(Error::UnknownRelation(9))));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn all_returns_handles() {
        let r: Registry<String> = Registry::new();
        r.add("x".into());
        r.add("y".into());
        let handles = r.all();
        assert_eq!(handles.len(), 2);
        assert_eq!(*handles[1].read(), "y");
    }
}
