//! Output oracle: a shadow model of every written column, built from the
//! generator and the op stream, against which every result is checked
//! outside the timed interval.

use htapg_core::{Record, RelationId, RowId, Value};
use htapg_exec::physical::QueryOutput;
use htapg_workload::tpcc::customer_attr as ca;

use crate::workload::{Op, FILTER, SUM_ATTRS};

/// Device and host reductions differ in the last ulp (reduction order).
const REL_TOL: f64 = 1e-6;
/// `c_d_id` is `row % 10 + 1`.
const DISTRICTS: usize = 10;

/// Shadow of one customer table. Only `c_balance` is ever written; every
/// other field is pinned by a per-row hash of the generated record.
#[derive(Debug, Default)]
pub struct Table {
    rel: RelationId,
    /// Hash of each generated record with `c_balance` left out.
    hashes: Vec<u64>,
    balance: Vec<f64>,
    /// Sums of the never-written `SUM_ATTRS` columns, by position.
    static_sums: [f64; 4],
    /// (sum, filter_sum, per-district sums) of `c_balance`, recomputed
    /// after an update.
    balance_sums: Option<(f64, f64, [f64; DISTRICTS])>,
}

/// FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a hash.
pub fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn record_hash(record: &Record) -> u64 {
    let mut h = FNV_OFFSET;
    for (attr, v) in record.iter().enumerate() {
        if attr == ca::C_BALANCE as usize {
            continue;
        }
        match v {
            Value::Bool(b) => fnv(&mut h, &[0, *b as u8]),
            Value::Int32(x) => {
                fnv(&mut h, &[1]);
                fnv(&mut h, &x.to_le_bytes());
            }
            Value::Int64(x) => {
                fnv(&mut h, &[2]);
                fnv(&mut h, &x.to_le_bytes());
            }
            Value::Float64(x) => {
                fnv(&mut h, &[3]);
                fnv(&mut h, &x.to_le_bytes());
            }
            Value::Date(x) => {
                fnv(&mut h, &[4]);
                fnv(&mut h, &x.to_le_bytes());
            }
            Value::Text(s) => {
                fnv(&mut h, &[5, s.len() as u8]);
                fnv(&mut h, s.as_bytes());
            }
        }
    }
    h
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

impl Table {
    /// Shadow one generated record (rows arrive in order).
    pub fn load(&mut self, record: &Record) {
        self.hashes.push(record_hash(record));
        self.balance.push(record[ca::C_BALANCE as usize].as_f64().expect("c_balance is numeric"));
        for (sum, attr) in self.static_sums.iter_mut().zip(SUM_ATTRS) {
            *sum += record[attr as usize].as_f64().expect("summed columns are numeric");
        }
        self.balance_sums = None;
    }

    fn balance_sums(&mut self) -> (f64, f64, [f64; DISTRICTS]) {
        *self.balance_sums.get_or_insert_with(|| {
            let (mut sum, mut filtered, mut groups) = (0.0, 0.0, [0.0; DISTRICTS]);
            for (row, &b) in self.balance.iter().enumerate() {
                sum += b;
                if FILTER.matches(b) {
                    filtered += b;
                }
                groups[row % DISTRICTS] += b;
            }
            (sum, filtered, groups)
        })
    }

    fn record_ok(&self, row: RowId, record: &Record) -> bool {
        let row = row as usize;
        row < self.hashes.len()
            && record.len() > ca::C_BALANCE as usize
            && record[ca::C_BALANCE as usize] == Value::Float64(self.balance[row])
            && record_hash(record) == self.hashes[row]
    }

    fn check(&mut self, op: &Op, out: &QueryOutput) -> bool {
        match (op, out) {
            (Op::Read { row, .. }, QueryOutput::Record(r)) => self.record_ok(*row, r),
            (Op::Materialize { rows, .. }, QueryOutput::Records(recs)) => {
                rows.len() == recs.len()
                    && rows.iter().zip(recs).all(|(&row, r)| self.record_ok(row, r))
            }
            (Op::Update { row, value, .. }, QueryOutput::Updated) => {
                self.balance[*row as usize] = *value;
                self.balance_sums = None;
                true
            }
            (Op::Sum { attr, .. }, QueryOutput::Sum(got)) => {
                let want = match SUM_ATTRS.iter().position(|a| a == attr) {
                    Some(0) => self.balance_sums().0,
                    Some(i) => self.static_sums[i],
                    None => return false,
                };
                close(*got, want)
            }
            (Op::FilterSum { .. }, QueryOutput::Sum(got)) => close(*got, self.balance_sums().1),
            (Op::GroupSum { .. }, QueryOutput::Groups(groups)) => {
                let want = self.balance_sums().2;
                groups.len() == DISTRICTS
                    && groups
                        .iter()
                        .zip(want)
                        .enumerate()
                        .all(|(i, (&(key, got), want))| key == i as i64 + 1 && close(got, want))
            }
            _ => false,
        }
    }
}

/// Shadows of every table the benchmark loads.
#[derive(Debug, Default)]
pub struct Oracle {
    tables: Vec<Table>,
}

impl Oracle {
    pub fn add_table(&mut self, rel: RelationId, rows: u64) -> &mut Table {
        self.tables.push(Table {
            rel,
            hashes: Vec::with_capacity(rows as usize),
            balance: Vec::with_capacity(rows as usize),
            ..Table::default()
        });
        self.tables.last_mut().expect("just pushed")
    }

    /// Check one op's output and apply its write to the shadow. `false`
    /// is a wrong answer, which counts as a failed op.
    pub fn check(&mut self, op: &Op, out: &QueryOutput) -> bool {
        let rel = match op {
            Op::Read { rel, .. }
            | Op::Update { rel, .. }
            | Op::Materialize { rel, .. }
            | Op::Sum { rel, .. }
            | Op::FilterSum { rel }
            | Op::GroupSum { rel } => *rel,
        };
        self.tables.iter_mut().find(|t| t.rel == rel).is_some_and(|t| t.check(op, out))
    }
}
