//! Device kernels: real computation, modeled time.
//!
//! [`reduce_sum_f64`] reproduces the paper's experiment kernel: "an
//! optimized parallel reduction kernel to calculate the sum of price fields
//! ... configured to run with at least 1024 blocks (each having 512
//! threads). The final reduction was performed with 1 block and 1024
//! threads" (Section II-B, after Mark Harris' classic reduction).
//!
//! Reductions use a fixed pairwise tree order, so results are
//! bit-deterministic and independent of the launch geometry — the property
//! tests rely on this.

use std::collections::BTreeMap;

use htapg_core::plan::{Aggregate, QueryOutput};
use htapg_core::retry::{with_retry, RetryPolicy};
use htapg_core::{Error, Result};

use crate::memory::{BufferId, SimDevice};
use crate::simt::{Executor, KernelCost, LaunchConfig};
use crate::stream::SimStream;

/// The paper's reduction geometry.
pub const REDUCE_GRID: u32 = 1024;
pub const REDUCE_BLOCK: u32 = 512;
pub const FINAL_BLOCK: u32 = 1024;

/// Rows per segment of the canonical `REDUCE_GRID`-way segmentation of an
/// `n`-row column. Fixed by the *total* row count — chunked pipelines reuse
/// it so their partials are bit-identical to the single-shot reduction.
pub fn reduce_seg_len(n: usize) -> usize {
    n.div_ceil(REDUCE_GRID as usize).max(1)
}

/// Number of (non-empty) segments in the canonical segmentation of `n`.
pub fn reduce_segments(n: usize) -> usize {
    n.div_ceil(reduce_seg_len(n))
}

/// Pairwise (tree) summation of a slice — the deterministic order a
/// shared-memory tree reduction produces: the sum of the first `n / 2`
/// values plus the sum of the rest, recursively. The two- and three-value
/// leaves are spelled out (same order) to save most of the calls.
pub fn tree_sum(values: &[f64]) -> f64 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        2 => values[0] + values[1],
        3 => values[0] + (values[1] + values[2]),
        n => {
            let mid = n / 2;
            tree_sum(&values[..mid]) + tree_sum(&values[mid..])
        }
    }
}

/// No predicate: every value of a segment enters its partial.
pub const UNFILTERED: Option<fn(f64) -> bool> = None;

/// The segment-partial reduction every sum in the system is built on: cut
/// `values` into `seg_len`-row segments, keep the values `pred` accepts
/// (all of them without one), and tree-sum each segment's survivors. A
/// sum is [`tree_sum`] of these partials; the device kernels, the host
/// routes and the oracles all call this, so their results agree bit for
/// bit by construction. Segments without survivors yield `0.0`.
pub fn segment_partials<F: Fn(f64) -> bool>(
    values: &[f64],
    seg_len: usize,
    pred: Option<F>,
) -> Vec<f64> {
    let seg_len = seg_len.max(1);
    let mut kept = Vec::new();
    values
        .chunks(seg_len)
        .map(|seg| match &pred {
            None => tree_sum(seg),
            Some(keep) => {
                kept.clear();
                kept.extend(seg.iter().copied().filter(|&v| keep(v)));
                tree_sum(&kept)
            }
        })
        .collect()
}

/// The canonical sum of host-resident values: [`reduce_seg_len`]
/// segments, then a tree sum of their partials — bit-identical to
/// [`reduce_sum_f64`] over the same values, without a launch.
pub fn reduce_values_f64(values: &[f64]) -> f64 {
    tree_sum(&segment_partials(values, reduce_seg_len(values.len()), UNFILTERED))
}

/// `values` grouped by the key of the same row: groups ordered by key,
/// values in row order within a group.
pub fn group_by_key(keys: &[i64], values: &[f64]) -> Vec<(i64, Vec<f64>)> {
    let mut groups: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for (&k, &v) in keys.iter().zip(values) {
        groups.entry(k).or_default().push(v);
    }
    groups.into_iter().collect()
}

/// Keyed segment partials: each `seg_len`-row segment groups its values by
/// key in row order and tree-sums each group; inner vectors are sorted by
/// key.
pub fn keyed_segment_partials(
    keys: &[i64],
    values: &[f64],
    seg_len: usize,
) -> Vec<Vec<(i64, f64)>> {
    let seg_len = seg_len.max(1);
    keys.chunks(seg_len)
        .zip(values.chunks(seg_len))
        .map(|(k, v)| group_by_key(k, v).into_iter().map(|(k, vs)| (k, tree_sum(&vs))).collect())
        .collect()
}

/// Merge keyed segment partials given in global segment order: each key's
/// sum is the tree sum of its partials in that order. Returns `(key, sum)`
/// ordered by key.
pub fn merge_keyed_partials(segments: &[Vec<(i64, f64)>]) -> Vec<(i64, f64)> {
    let mut acc: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for &(key, partial) in segments.iter().flatten() {
        acc.entry(key).or_default().push(partial);
    }
    acc.into_iter().map(|(key, ps)| (key, tree_sum(&ps))).collect()
}

fn as_f64s(bytes: &[u8]) -> Result<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(Error::Internal("buffer is not a packed f64 column".into()));
    }
    Ok(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
}

/// Sum a device-resident packed `f64` column with the two-pass Harris-style
/// reduction. Returns the sum; charges two kernel launches (partials +
/// final) to the device ledger.
pub fn reduce_sum_f64(device: &SimDevice, buf: BufferId) -> Result<f64> {
    let ex = Executor::new(device);
    let values = device.with_buffer(buf, as_f64s)??;
    let n = values.len();
    if n == 0 {
        // Even an empty reduction launches.
        ex.charge_launch(
            LaunchConfig::new(1, FINAL_BLOCK),
            KernelCost { work_items: 1, cycles_per_item: 1.0, bytes: 0 },
        )?;
        return Ok(0.0);
    }
    // Pass 1: REDUCE_GRID blocks × REDUCE_BLOCK threads; each block reduces
    // a contiguous segment into one partial.
    let partials = segment_partials(&values, reduce_seg_len(n), UNFILTERED);
    ex.charge_launch(
        LaunchConfig::new(REDUCE_GRID, REDUCE_BLOCK),
        KernelCost { work_items: n as u64, cycles_per_item: 4.0, bytes: (n * 8) as u64 },
    )?;
    // Pass 2: final reduction with 1 block × FINAL_BLOCK threads.
    let total = tree_sum(&partials);
    ex.charge_launch(
        LaunchConfig::new(1, FINAL_BLOCK),
        KernelCost {
            work_items: partials.len() as u64,
            cycles_per_item: 4.0,
            bytes: (partials.len() * 8) as u64,
        },
    )?;
    Ok(total)
}

/// Pass-1 partials for segments `[seg_lo, seg_hi)` of the canonical
/// segmentation of a `total_rows` column, read from the (possibly still
/// filling) buffer `buf` and charged as one launch on `stream`. With a
/// `pred`, each partial sums only the values satisfying it — selection and
/// aggregation fused in a single launch.
///
/// Because segment boundaries depend only on `total_rows`, a pipeline that
/// covers `[0, reduce_segments(n))` in any chunking produces exactly the
/// partials of [`reduce_sum_f64`]'s first pass — the bit-identity the
/// property tests assert.
pub fn reduce_partials_f64<F: Fn(f64) -> bool>(
    stream: &mut SimStream<'_>,
    buf: BufferId,
    total_rows: usize,
    seg_lo: usize,
    seg_hi: usize,
    pred: Option<F>,
) -> Result<Vec<f64>> {
    let device = stream.device();
    let seg_len = reduce_seg_len(total_rows);
    let lo_row = seg_lo * seg_len;
    let hi_row = (seg_hi * seg_len).min(total_rows);
    if seg_hi <= seg_lo {
        return Ok(Vec::new());
    }
    let values = device.with_buffer(buf, |bytes| {
        if lo_row > hi_row || hi_row * 8 > bytes.len() {
            return Err(Error::Internal("segment range beyond device buffer".into()));
        }
        as_f64s(&bytes[lo_row * 8..hi_row * 8])
    })??;
    // `lo_row` starts a canonical segment, so these are its partials.
    let partials = segment_partials(&values, seg_len, pred.as_ref());
    let rows = (hi_row - lo_row) as u64;
    stream.charge_launch(
        LaunchConfig::new((seg_hi - seg_lo).max(1) as u32, REDUCE_BLOCK),
        KernelCost {
            work_items: rows.max(1),
            cycles_per_item: if pred.is_some() { 5.0 } else { 4.0 },
            bytes: rows * 8,
        },
    )?;
    Ok(partials)
}

/// Pass-2 final combine of pass-1 partials (1 block × [`FINAL_BLOCK`]
/// threads), charged on `stream`. Same tree order as [`reduce_sum_f64`]'s
/// final pass.
pub fn reduce_final_f64(stream: &mut SimStream<'_>, partials: &[f64]) -> Result<f64> {
    let total = tree_sum(partials);
    stream.charge_launch(
        LaunchConfig::new(1, FINAL_BLOCK),
        KernelCost {
            work_items: partials.len().max(1) as u64,
            cycles_per_item: 4.0,
            bytes: (partials.len() * 8) as u64,
        },
    )?;
    Ok(total)
}

/// Fused filter+sum over a device-resident packed `f64` column: one data
/// pass (selection folded into the partial reduction) plus the small final
/// combine — two launches, versus four for the unfused
/// filter → gather → reduce chain.
pub fn filter_sum_f64(
    device: &SimDevice,
    buf: BufferId,
    pred: impl Fn(f64) -> bool,
) -> Result<f64> {
    let n = device.buffer_len(buf)? / 8;
    let mut stream = SimStream::new(device);
    let partials = reduce_partials_f64(&mut stream, buf, n, 0, reduce_segments(n), Some(pred))?;
    let total = reduce_final_f64(&mut stream, &partials)?;
    // Single-stream use: the whole span is serial wall time.
    device.ledger().advance_wall(stream.cursor_ns());
    Ok(total)
}

/// Per-fragment pass-1 partials for a shard's device-resident slice: the
/// buffer holds the shard's fragments back to back (`frag_rows` rows each,
/// the last possibly short), and each fragment reduces to one tree-ordered
/// partial — of only its values satisfying `pred`, when given (one extra
/// cycle per item, like a fused [`reduce_partials_f64`]). One launch over
/// the whole slice. A gather that concatenates these per-fragment partials
/// in *global* fragment order and tree-reduces them is bit-identical for
/// every node count and placement — the scatter-gather analogue of
/// [`reduce_partials_f64`]'s segment property.
pub fn fragment_partials_f64<F: Fn(f64) -> bool>(
    device: &SimDevice,
    buf: BufferId,
    frag_rows: usize,
    pred: Option<F>,
) -> Result<Vec<f64>> {
    if frag_rows == 0 {
        return Err(Error::Internal("fragment size must be positive".into()));
    }
    let ex = Executor::new(device);
    let values = device.with_buffer(buf, as_f64s)??;
    let n = values.len();
    let out = segment_partials(&values, frag_rows, pred.as_ref());
    ex.charge_launch(
        LaunchConfig::new(REDUCE_GRID.min(out.len().max(1) as u32), REDUCE_BLOCK),
        KernelCost {
            work_items: n.max(1) as u64,
            cycles_per_item: if pred.is_some() { 5.0 } else { 4.0 },
            bytes: (n * 8) as u64,
        },
    )?;
    Ok(out)
}

/// Per-fragment keyed partials for a scattered group-sum: `keys` holds the
/// (host-resident) group key of every row in the slice, `buf` the packed
/// values. Each fragment groups its values by key in row order and reduces
/// each group's values in tree order; inner vectors are sorted by key.
/// A gather that, per key, tree-reduces the key's per-fragment partials
/// concatenated in global fragment order is bit-identical for every
/// placement. One launch (values + key traffic).
pub fn keyed_fragment_partials_f64(
    device: &SimDevice,
    buf: BufferId,
    keys: &[i64],
    frag_rows: usize,
) -> Result<Vec<Vec<(i64, f64)>>> {
    if frag_rows == 0 {
        return Err(Error::Internal("fragment size must be positive".into()));
    }
    let ex = Executor::new(device);
    let values = device.with_buffer(buf, as_f64s)??;
    let n = values.len();
    if keys.len() != n {
        return Err(Error::Internal(format!(
            "key column has {} rows but value slice has {n}",
            keys.len()
        )));
    }
    // Row order within the fragment, as a shared-memory grouping pass
    // would see it.
    let out = keyed_segment_partials(keys, &values, frag_rows);
    ex.charge_launch(
        LaunchConfig::new(REDUCE_GRID.min(out.len().max(1) as u32), REDUCE_BLOCK),
        KernelCost { work_items: n.max(1) as u64, cycles_per_item: 8.0, bytes: (n * 16) as u64 },
    )?;
    Ok(out)
}

/// Gather fixed-width elements at `positions` from a device column into a
/// fresh device buffer (late materialization on the device).
pub fn gather(
    device: &SimDevice,
    buf: BufferId,
    width: usize,
    positions: &[u64],
) -> Result<BufferId> {
    let ex = Executor::new(device);
    let out_len = positions.len() * width;
    let mut out = vec![0u8; out_len];
    device.with_buffer(buf, |bytes| {
        for (i, &p) in positions.iter().enumerate() {
            let off = p as usize * width;
            if off + width > bytes.len() {
                return Err(Error::UnknownRow(p));
            }
            out[i * width..(i + 1) * width].copy_from_slice(&bytes[off..off + width]);
        }
        Ok(())
    })??;
    ex.charge_launch(
        LaunchConfig::new(REDUCE_GRID.min(positions.len().max(1) as u32), REDUCE_BLOCK),
        KernelCost {
            work_items: positions.len() as u64,
            cycles_per_item: 8.0,
            bytes: (out_len * 2) as u64,
        },
    )?;
    let result = device.alloc(out_len)?;
    // Device-to-device copy: charged as kernel memory traffic, not PCIe.
    device.with_buffer_mut(result, |b| b.copy_from_slice(&out))?;
    Ok(result)
}

/// Run `agg` over a device-resident packed `f64` column — the device side
/// of every offloaded aggregate: [`reduce_sum_f64`] for a sum,
/// [`filter_sum_f64`] for a filtered sum, and for a group-sum, per key of
/// `groups` (the row positions of each key, from the host), a [`gather`]
/// of the group's values into a scratch buffer reduced with
/// [`reduce_sum_f64`] and freed — so every group's sum is the canonical
/// reduction of its values in row order. `retry`, when given, retries each
/// reduction's transient launch faults with backoff charged to the device
/// ledger.
pub fn aggregate_f64(
    device: &SimDevice,
    buf: BufferId,
    agg: &Aggregate,
    groups: &BTreeMap<i64, Vec<u64>>,
    retry: Option<&RetryPolicy>,
) -> Result<QueryOutput> {
    let reduce = |f: &dyn Fn() -> Result<f64>| match retry {
        Some(policy) => with_retry(policy, device.ledger(), f),
        None => f(),
    };
    Ok(match *agg {
        Aggregate::Sum => QueryOutput::Sum(reduce(&|| reduce_sum_f64(device, buf))?),
        Aggregate::FilterSum(p) => {
            QueryOutput::Sum(reduce(&|| filter_sum_f64(device, buf, |v| p.matches(v)))?)
        }
        Aggregate::GroupSum { .. } => {
            let mut out = Vec::with_capacity(groups.len());
            for (&key, positions) in groups {
                let gathered = gather(device, buf, 8, positions)?;
                let sum = reduce(&|| reduce_sum_f64(device, gathered));
                device.free(gathered)?;
                out.push((key, sum?));
            }
            QueryOutput::Groups(out)
        }
    })
}

/// Byte width of one shipped delta pair: `(u64 row, f64 value)`.
pub const DELTA_PAIR_BYTES: usize = 16;

/// Scatter a staged batch of delta pairs into a device-resident packed
/// `f64` column. `staging` holds `pairs` packed little-endian
/// `(u64 row, f64 value)` records ([`DELTA_PAIR_BYTES`] each); each value
/// is written at `row * 8` in `replica`. One launch on `stream`; rows
/// beyond the replica are [`Error::UnknownRow`] and leave the ledger
/// uncharged. The scatter is idempotent: replaying the same pairs after a
/// partial failure converges to the same bytes.
pub fn merge_deltas_f64(
    stream: &mut SimStream<'_>,
    replica: BufferId,
    staging: BufferId,
    pairs: usize,
) -> Result<()> {
    let device = stream.device();
    let decoded = device.with_buffer(staging, |bytes| {
        if bytes.len() < pairs * DELTA_PAIR_BYTES {
            return Err(Error::Internal("staging buffer smaller than the delta batch".into()));
        }
        let mut out = Vec::with_capacity(pairs);
        for rec in bytes[..pairs * DELTA_PAIR_BYTES].chunks_exact(DELTA_PAIR_BYTES) {
            let row = u64::from_le_bytes(rec[..8].try_into().unwrap());
            let value = f64::from_le_bytes(rec[8..].try_into().unwrap());
            out.push((row, value));
        }
        Ok(out)
    })??;
    scatter_decoded(stream, replica, &decoded)
}

/// Scatter host-resident delta pairs directly into a device column —
/// the device-local transport for engines whose authoritative store is
/// already on the device (no PCIe staging write, kernel charge only).
pub fn scatter_deltas_f64(
    stream: &mut SimStream<'_>,
    replica: BufferId,
    pairs: &[(u64, f64)],
) -> Result<()> {
    scatter_decoded(stream, replica, pairs)
}

fn scatter_decoded(
    stream: &mut SimStream<'_>,
    replica: BufferId,
    pairs: &[(u64, f64)],
) -> Result<()> {
    let device = stream.device();
    device.with_buffer_mut(replica, |bytes| {
        for &(row, value) in pairs {
            let off = row as usize * 8;
            if off + 8 > bytes.len() {
                return Err(Error::UnknownRow(row));
            }
            bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        }
        Ok(())
    })??;
    let n = pairs.len();
    stream.charge_launch(
        LaunchConfig::new(REDUCE_GRID.min(n.max(1) as u32), REDUCE_BLOCK),
        KernelCost {
            work_items: n.max(1) as u64,
            cycles_per_item: 8.0,
            bytes: (n * (DELTA_PAIR_BYTES + 8)) as u64,
        },
    )?;
    Ok(())
}

/// Filter a packed `f64` column by a predicate, returning the qualifying
/// positions (selection kernel with a host-side position list result).
pub fn filter_f64(
    device: &SimDevice,
    buf: BufferId,
    pred: impl Fn(f64) -> bool,
) -> Result<Vec<u64>> {
    let ex = Executor::new(device);
    let positions = device.with_buffer(buf, |bytes| {
        let mut out = Vec::new();
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            if pred(f64::from_le_bytes(chunk.try_into().unwrap())) {
                out.push(i as u64);
            }
        }
        out
    })?;
    let n = device.buffer_len(buf)? / 8;
    ex.charge_launch(
        LaunchConfig::new(REDUCE_GRID, REDUCE_BLOCK),
        KernelCost { work_items: n as u64, cycles_per_item: 5.0, bytes: (n * 8) as u64 },
    )?;
    Ok(positions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload_f64(device: &SimDevice, values: &[f64]) -> BufferId {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        device.upload(&bytes).unwrap()
    }

    #[test]
    fn tree_sum_matches_sequential_for_ints() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        assert_eq!(tree_sum(&values), values.iter().sum::<f64>());
    }

    #[test]
    fn tree_sum_leaves_keep_the_pairwise_order() {
        fn pairwise(v: &[f64]) -> f64 {
            match v.len() {
                0 => 0.0,
                1 => v[0],
                n => pairwise(&v[..n / 2]) + pairwise(&v[n / 2..]),
            }
        }
        let values: Vec<f64> = (0..5_000).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        for n in (0..300).chain([4_999, 5_000]) {
            assert_eq!(tree_sum(&values[..n]).to_bits(), pairwise(&values[..n]).to_bits(), "n={n}");
        }
    }

    #[test]
    fn tree_sum_is_deterministic() {
        let values: Vec<f64> = (0..997).map(|i| (i as f64).sin()).collect();
        assert_eq!(tree_sum(&values).to_bits(), tree_sum(&values).to_bits());
    }

    #[test]
    fn reduce_matches_tree_order_regardless_of_geometry() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..100_000).map(|i| (i % 1000) as f64 * 0.01).collect();
        let buf = upload_f64(&d, &values);
        let got = reduce_sum_f64(&d, buf).unwrap();
        let expect: f64 = values.iter().sum();
        assert!((got - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }

    #[test]
    fn reduce_charges_two_launches() {
        let d = SimDevice::with_defaults();
        let buf = upload_f64(&d, &[1.0, 2.0, 3.0]);
        let before = d.ledger().snapshot();
        let sum = reduce_sum_f64(&d, buf).unwrap();
        assert_eq!(sum, 6.0);
        let delta = d.ledger().snapshot().since(&before);
        assert_eq!(delta.kernel_launches, 2);
        assert!(delta.kernel_ns >= 2 * d.spec().kernel_launch_ns);
        assert_eq!(delta.transfer_ns, 0, "reduction must not touch PCIe");
    }

    #[test]
    fn reduce_empty_is_zero() {
        let d = SimDevice::with_defaults();
        let buf = d.alloc(0).unwrap();
        assert_eq!(reduce_sum_f64(&d, buf).unwrap(), 0.0);
    }

    #[test]
    fn gather_collects_positions() {
        let d = SimDevice::with_defaults();
        let buf = upload_f64(&d, &[10.0, 20.0, 30.0, 40.0]);
        let out = gather(&d, buf, 8, &[3, 1]).unwrap();
        let bytes = d.download(out).unwrap();
        let vals: Vec<f64> =
            bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(vals, vec![40.0, 20.0]);
        assert!(gather(&d, buf, 8, &[9]).is_err());
    }

    #[test]
    fn filter_returns_positions() {
        let d = SimDevice::with_defaults();
        let buf = upload_f64(&d, &[5.0, -1.0, 7.0, 0.0]);
        let pos = filter_f64(&d, buf, |v| v > 0.0).unwrap();
        assert_eq!(pos, vec![0, 2]);
    }

    #[test]
    fn split_partials_are_bit_identical_to_single_shot() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..50_000).map(|i| (i as f64).sin()).collect();
        let buf = upload_f64(&d, &values);
        let n = values.len();
        let segs = reduce_segments(n);
        let mut one = SimStream::new(&d);
        let whole = reduce_partials_f64(&mut one, buf, n, 0, segs, UNFILTERED).unwrap();
        let single_shot = reduce_final_f64(&mut one, &whole).unwrap();
        // Same segments computed across three arbitrary splits.
        let mut many = SimStream::new(&d);
        let mut pieced = Vec::new();
        for (lo, hi) in [(0, 7), (7, 700), (700, segs)] {
            pieced.extend(reduce_partials_f64(&mut many, buf, n, lo, hi, UNFILTERED).unwrap());
        }
        assert_eq!(
            whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            pieced.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let pieced_total = reduce_final_f64(&mut many, &pieced).unwrap();
        assert_eq!(single_shot.to_bits(), pieced_total.to_bits());
        assert_eq!(single_shot.to_bits(), reduce_sum_f64(&d, buf).unwrap().to_bits());
    }

    #[test]
    fn fused_filter_sum_matches_host_and_saves_launches() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64) - 5_000.0).collect();
        let buf = upload_f64(&d, &values);
        let before = d.ledger().snapshot();
        let fused = filter_sum_f64(&d, buf, |v| v > 0.0).unwrap();
        let fused_delta = d.ledger().snapshot().since(&before);
        // Integers below 2^53: the tree order can't change the answer.
        let expect: f64 = values.iter().filter(|&&v| v > 0.0).sum();
        assert_eq!(fused, expect);
        assert_eq!(fused_delta.kernel_launches, 2, "fused path is one pass + final");
        assert_eq!(fused_delta.wall_ns, fused_delta.kernel_ns);
        // The unfused chain: filter + gather + two-pass reduce = 4 launches.
        let before = d.ledger().snapshot();
        let pos = filter_f64(&d, buf, |v| v > 0.0).unwrap();
        let gathered = gather(&d, buf, 8, &pos).unwrap();
        let unfused = reduce_sum_f64(&d, gathered).unwrap();
        let unfused_delta = d.ledger().snapshot().since(&before);
        assert_eq!(unfused, expect);
        assert_eq!(unfused_delta.kernel_launches, 4);
        assert!(fused_delta.kernel_ns < unfused_delta.kernel_ns);
    }

    #[test]
    fn merge_scatter_applies_pairs_and_charges_one_launch() {
        let d = SimDevice::with_defaults();
        let buf = upload_f64(&d, &[1.0, 2.0, 3.0, 4.0]);
        let pairs = [(1u64, 20.0f64), (3, 40.0)];
        let encoded: Vec<u8> = pairs
            .iter()
            .flat_map(|(r, v)| r.to_le_bytes().into_iter().chain(v.to_le_bytes()))
            .collect();
        let staging = d.upload(&encoded).unwrap();
        let before = d.ledger().snapshot();
        let mut stream = SimStream::new(&d);
        merge_deltas_f64(&mut stream, buf, staging, pairs.len()).unwrap();
        let delta = d.ledger().snapshot().since(&before);
        assert_eq!(delta.kernel_launches, 1);
        assert_eq!(delta.transfer_ns, 0, "scatter itself must not touch PCIe");
        assert_eq!(reduce_sum_f64(&d, buf).unwrap(), 1.0 + 20.0 + 3.0 + 40.0);
        // Replaying the same batch is idempotent.
        merge_deltas_f64(&mut stream, buf, staging, pairs.len()).unwrap();
        assert_eq!(reduce_sum_f64(&d, buf).unwrap(), 64.0);
        // Out-of-bounds rows are surfaced and charge nothing.
        let before = d.ledger().snapshot();
        let err = scatter_deltas_f64(&mut stream, buf, &[(9, 1.0)]).unwrap_err();
        assert!(matches!(err, Error::UnknownRow(9)));
        assert_eq!(d.ledger().snapshot().since(&before).kernel_launches, 0);
        d.free(staging).unwrap();
    }

    #[test]
    fn fragment_partials_merge_bit_identically_across_placements() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..20_000).map(|i| (i as f64).cos() * 3.7).collect();
        let frag_rows = 1024;
        // Single "node" holding every fragment.
        let whole = upload_f64(&d, &values);
        let single = fragment_partials_f64(&d, whole, frag_rows, UNFILTERED).unwrap();
        // Two nodes, fragments dealt round-robin; merging the per-node
        // partials back into global fragment order must reproduce the
        // single-node partials exactly.
        let frags: Vec<&[f64]> = values.chunks(frag_rows).collect();
        let mut merged = vec![0.0f64; frags.len()];
        for node in 0..2 {
            let slice: Vec<f64> = frags
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == node)
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            let buf = upload_f64(&d, &slice);
            let partials = fragment_partials_f64(&d, buf, frag_rows, UNFILTERED).unwrap();
            for (local, p) in partials.into_iter().enumerate() {
                merged[local * 2 + node] = p;
            }
        }
        assert_eq!(
            single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            merged.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // With frag_rows = reduce_seg_len(n), the fragment partials ARE the
        // canonical pass-1 segments, so the merged tree equals the flat
        // two-pass reduction bit-for-bit.
        let n = values.len();
        let seg = reduce_seg_len(n);
        let canon = fragment_partials_f64(&d, whole, seg, UNFILTERED).unwrap();
        assert_eq!(tree_sum(&canon).to_bits(), reduce_sum_f64(&d, whole).unwrap().to_bits());
    }

    #[test]
    fn keyed_fragment_partials_group_in_row_order() {
        let d = SimDevice::with_defaults();
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let keys = vec![7i64, 3, 7, 3, 9];
        let buf = upload_f64(&d, &values);
        let before = d.ledger().snapshot();
        let partials = keyed_fragment_partials_f64(&d, buf, &keys, 3).unwrap();
        assert_eq!(d.ledger().snapshot().since(&before).kernel_launches, 1);
        assert_eq!(partials.len(), 2);
        assert_eq!(partials[0], vec![(3, 2.0), (7, 4.0)]);
        assert_eq!(partials[1], vec![(3, 4.0), (9, 5.0)]);
        assert!(keyed_fragment_partials_f64(&d, buf, &keys[..3], 3).is_err());
    }

    #[test]
    fn fused_filter_sum_none_qualify_and_empty() {
        let d = SimDevice::with_defaults();
        let buf = upload_f64(&d, &[1.0, 2.0, 3.0]);
        assert_eq!(filter_sum_f64(&d, buf, |_| false).unwrap(), 0.0);
        let empty = d.alloc(0).unwrap();
        assert_eq!(filter_sum_f64(&d, empty, |_| true).unwrap(), 0.0);
    }
}
