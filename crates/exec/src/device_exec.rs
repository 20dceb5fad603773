//! Device offload: the "column-store / device" series of Figure 2.
//!
//! A column is uploaded to the simulated GPU (charging PCIe transfer time),
//! optionally cached as *resident*, and summed with the paper's
//! reduction-kernel geometry. The cost ledger separates transfer from
//! kernel time, so panel 3 ("transfer included") and panel 4 ("transfer
//! costs to device excluded" — the column already lives in device memory)
//! are both reportable from one run.
//!
//! Three offload strategies share one bit-identical result:
//!
//! * [`offload_sum`] — the naive serial shape: whole-column upload, then
//!   the two-pass reduction; wall = `transfer + kernel`.
//! * [`pipelined_offload_sum`] — double-buffered: the column is split into
//!   chunks, chunk N uploads on a copy [`SimStream`] while chunk N−1's
//!   partial-reduction kernel runs on a compute stream; wall = the
//!   overlapped critical path (`max` of the two timelines). Partials
//!   follow the canonical segmentation of the *total* row count
//!   ([`kernels::reduce_seg_len`]), so the result is bit-identical to the
//!   serial path for every chunk size.
//! * [`cached_offload_sum`] — consults a [`DeviceColumnCache`]: a warm
//!   column reduces with zero `bytes_to_device`; a miss takes the
//!   pipelined path and leaves the column resident for the next query.

use std::sync::Arc;

use htapg_core::retry::{with_retry, RetryPolicy};
use htapg_core::{obs, DataType, Error, Layout, RelationId, Result};
use htapg_device::kernels;
use htapg_device::{
    sync_streams, BufferId, DeltaTransport, DeviceColumnCache, SimDevice, SimStream,
};

/// A device-resident copy of one column.
#[derive(Debug)]
pub struct DeviceColumn {
    device: Arc<SimDevice>,
    buf: BufferId,
    rows: u64,
    ty: DataType,
}

impl DeviceColumn {
    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn device(&self) -> &Arc<SimDevice> {
        &self.device
    }

    /// Bytes occupied in device memory.
    pub fn bytes(&self) -> Result<usize> {
        self.device.buffer_len(self.buf)
    }

    /// Release the device memory.
    pub fn release(self) -> Result<()> {
        self.device.free(self.buf)
    }
}

/// Serialize a layout's column into packed little-endian f64, widening
/// narrower numeric types (device kernels operate on f64 columns).
///
/// Contiguous views stream through `chunks_exact` blocks with the type
/// dispatch hoisted out of the loop (the scan-kernel idiom); only strided
/// (NSM) views fall back to per-row `field(i)` access.
fn pack_f64(layout: &Layout, attr: u16, ty: DataType) -> Result<(Vec<u8>, u64)> {
    match ty {
        DataType::Text(_) | DataType::Bool => {
            return Err(Error::TypeMismatch { expected: "numeric", got: ty.name() })
        }
        _ => {}
    }
    let views = layout.column_views(attr)?;
    let rows: u64 = views.iter().map(|v| v.rows).sum();
    let mut out = Vec::with_capacity(rows as usize * 8);
    for v in &views {
        match (ty, v.contiguous_bytes()) {
            (DataType::Float64, Some(block)) => out.extend_from_slice(block),
            (DataType::Int64, Some(block)) => {
                for chunk in block.chunks_exact(v.width) {
                    let x = i64::from_le_bytes(chunk.try_into().unwrap()) as f64;
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            (DataType::Int32 | DataType::Date, Some(block)) => {
                for chunk in block.chunks_exact(v.width) {
                    let x = i32::from_le_bytes(chunk.try_into().unwrap()) as f64;
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            _ => {
                for i in 0..v.rows as usize {
                    let bytes = v.field(i);
                    let x = match ty {
                        DataType::Float64 => f64::from_le_bytes(bytes.try_into().unwrap()),
                        DataType::Int64 => i64::from_le_bytes(bytes.try_into().unwrap()) as f64,
                        DataType::Int32 | DataType::Date => {
                            i32::from_le_bytes(bytes.try_into().unwrap()) as f64
                        }
                        _ => unreachable!("checked above"),
                    };
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }
    Ok((out, rows))
}

/// Upload one column to the device ("all or nothing": fails with
/// [`Error::DeviceOutOfMemory`] if it does not fit, and nothing is placed).
///
/// Transient transfer faults are retried with virtual backoff charged to
/// the device ledger; a failed upload frees its allocation, so nothing is
/// ever left behind.
pub fn upload_column(
    device: &Arc<SimDevice>,
    layout: &Layout,
    attr: u16,
    ty: DataType,
) -> Result<DeviceColumn> {
    let (bytes, rows) = pack_f64(layout, attr, ty)?;
    let policy = RetryPolicy::default();
    let buf = device.alloc(bytes.len())?;
    match with_retry(&policy, device.ledger(), || device.write(buf, 0, &bytes)) {
        Ok(()) => Ok(DeviceColumn { device: device.clone(), buf, rows, ty: DataType::Float64 }),
        Err(e) => {
            let _ = device.free(buf);
            Err(e)
        }
    }
}

/// Sum a device-resident column with the paper's reduction kernel.
/// Charges only kernel time (the column is already resident). Transient
/// launch faults are retried (the kernels allocate nothing before
/// charging, so a retried reduction is safe).
pub fn device_sum(col: &DeviceColumn) -> Result<f64> {
    debug_assert_eq!(col.ty, DataType::Float64);
    with_retry(&RetryPolicy::default(), col.device.ledger(), || {
        kernels::reduce_sum_f64(&col.device, col.buf)
    })
}

/// One-shot offload: upload, sum, free. Returns
/// `(sum, transfer_ns, kernel_ns)` — panel 3 reports `transfer + kernel`,
/// panel 4 reports `kernel` alone.
pub fn offload_sum(
    device: &Arc<SimDevice>,
    layout: &Layout,
    attr: u16,
    ty: DataType,
) -> Result<(f64, u64, u64)> {
    let before = device.ledger().snapshot();
    let col = upload_column(device, layout, attr, ty)?;
    let sum = device_sum(&col)?;
    col.release()?;
    let delta = device.ledger().snapshot().since(&before);
    Ok((sum, delta.transfer_ns, delta.kernel_ns))
}

/// Tuning knobs for the double-buffered transfer pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Rows per upload chunk. The default (256 Ki rows = 2 MB of f64) is
    /// large enough to amortize per-transfer latency and small enough to
    /// keep both streams busy on every modeled device.
    pub chunk_rows: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { chunk_rows: 1 << 18 }
    }
}

/// Double-buffered upload + reduce on two streams (see the core routine
/// [`pipelined_sum_into`] for the overlap structure). The column buffer is
/// freed before returning. Returns `(sum, wall_ns)` where `wall_ns` is the
/// overlapped critical path of the whole operation — compare with the
/// serial path's `transfer_ns + kernel_ns`.
pub fn pipelined_offload_sum(
    device: &Arc<SimDevice>,
    layout: &Layout,
    attr: u16,
    ty: DataType,
    cfg: PipelineConfig,
) -> Result<(f64, u64)> {
    pipelined_offload(device, layout, attr, ty, cfg, None)
}

/// Pipelined predicated aggregation: same overlap structure, but each
/// chunk's pass-1 launch is the *fused* filter+sum kernel — one data pass,
/// no separate selection launch.
pub fn pipelined_offload_filter_sum(
    device: &Arc<SimDevice>,
    layout: &Layout,
    attr: u16,
    ty: DataType,
    cfg: PipelineConfig,
    pred: &dyn Fn(f64) -> bool,
) -> Result<(f64, u64)> {
    pipelined_offload(device, layout, attr, ty, cfg, Some(pred))
}

/// Fused filter+sum over a one-shot (serial) upload — the unpipelined
/// counterpart of [`pipelined_offload_filter_sum`]; still saves the
/// separate selection pass.
pub fn offload_filter_sum(
    device: &Arc<SimDevice>,
    layout: &Layout,
    attr: u16,
    ty: DataType,
    pred: impl Fn(f64) -> bool,
) -> Result<f64> {
    let col = upload_column(device, layout, attr, ty)?;
    let sum = with_retry(&RetryPolicy::default(), device.ledger(), || {
        kernels::filter_sum_f64(device, col.buf, &pred)
    });
    col.release()?;
    sum
}

fn pipelined_offload(
    device: &Arc<SimDevice>,
    layout: &Layout,
    attr: u16,
    ty: DataType,
    cfg: PipelineConfig,
    pred: Option<&dyn Fn(f64) -> bool>,
) -> Result<(f64, u64)> {
    let (bytes, rows) = pack_f64(layout, attr, ty)?;
    let buf = device.alloc(bytes.len())?;
    let result = pipelined_sum_into(device, buf, &bytes, rows as usize, cfg, pred);
    device.free(buf)?;
    result
}

/// The pipeline core: fill `buf` with `bytes` chunk by chunk on a copy
/// stream while a compute stream reduces every segment the uploaded prefix
/// already covers, then combine. Cross-stream ordering is by recorded
/// events (a partial kernel waits for the copy covering its rows), so the
/// wall settled at the final sync is the overlapped critical path.
///
/// Transient transfer/launch faults are retried per-chunk with virtual
/// backoff. On terminal failure the caller frees `buf` — nothing else was
/// allocated.
fn pipelined_sum_into(
    device: &SimDevice,
    buf: BufferId,
    bytes: &[u8],
    total_rows: usize,
    cfg: PipelineConfig,
    pred: Option<&dyn Fn(f64) -> bool>,
) -> Result<(f64, u64)> {
    let policy = RetryPolicy::default();
    let mut copy = SimStream::new(device);
    let mut compute = SimStream::new(device);
    let seg_len = kernels::reduce_seg_len(total_rows);
    let total_segs = kernels::reduce_segments(total_rows);
    let chunk_rows = cfg.chunk_rows.max(1);
    let mut partials = Vec::with_capacity(total_segs);
    let mut segs_done = 0usize;
    // Stream lanes share the pipeline epoch (stream creation); anchoring
    // it at the tracer's current virtual time places copy/compute spans on
    // the trace timeline as two parallel tracks.
    let trace_epoch = obs::current().map(|t| t.now_ns());
    let mut reduce_to = |compute: &mut SimStream<'_>, lo: usize, hi: usize| -> Result<()> {
        let k0 = compute.cursor_ns();
        let part = with_retry(&policy, device.ledger(), || {
            kernels::reduce_partials_f64(compute, buf, total_rows, lo, hi, pred)
        })?;
        if let Some(epoch) = trace_epoch {
            obs::span_at(
                "stream",
                "stream.reduce.partials",
                "stream.compute",
                epoch + k0,
                epoch + compute.cursor_ns(),
            );
        }
        partials.extend(part);
        Ok(())
    };
    let mut uploaded = 0usize;
    while uploaded < total_rows {
        let hi = (uploaded + chunk_rows).min(total_rows);
        let c0 = copy.cursor_ns();
        with_retry(&policy, device.ledger(), || {
            copy.write(buf, uploaded * 8, &bytes[uploaded * 8..hi * 8])
        })?;
        if let Some(epoch) = trace_epoch {
            obs::span_at(
                "stream",
                "stream.copy.chunk",
                "stream.copy",
                epoch + c0,
                epoch + copy.cursor_ns(),
            );
        }
        uploaded = hi;
        // Reduce every segment the uploaded prefix now fully covers; the
        // kernel orders after the copy it depends on, nothing more — the
        // next chunk's copy overlaps it.
        let covered = (uploaded / seg_len).min(total_segs);
        if covered > segs_done {
            compute.wait(copy.record());
            reduce_to(&mut compute, segs_done, covered)?;
            segs_done = covered;
        }
    }
    if total_segs > segs_done {
        // Straggler: the last segment is only full once the tail chunk
        // landed.
        compute.wait(copy.record());
        reduce_to(&mut compute, segs_done, total_segs)?;
    }
    let f0 = compute.cursor_ns();
    let total = with_retry(&policy, device.ledger(), || {
        kernels::reduce_final_f64(&mut compute, &partials)
    })?;
    if let Some(epoch) = trace_epoch {
        obs::span_at(
            "stream",
            "stream.reduce.final",
            "stream.compute",
            epoch + f0,
            epoch + compute.cursor_ns(),
        );
    }
    let wall = sync_streams(device, &[&copy, &compute]);
    Ok((total, wall))
}

/// Cache-aware offload. A warm `(rel, attr, version)` entry answers with
/// kernel time only (zero `bytes_to_device`); a resident-but-stale entry
/// with a small delta log takes the delta-merge route — shipping 16-byte
/// `(row, value)` pairs over the copy stream instead of re-packing the
/// whole column; any other miss runs the pipelined upload+reduce and
/// leaves the column resident, evicting LRU entries under memory pressure
/// (`may_evict` is on — this is the query-driven path, not maintain-time
/// placement).
pub fn cached_offload_sum(
    cache: &DeviceColumnCache,
    layout: &Layout,
    attr: u16,
    ty: DataType,
    rel: RelationId,
    version: u64,
    cfg: PipelineConfig,
) -> Result<f64> {
    let device = cache.device().clone();
    if let Some(info) = cache.stale_info(rel, attr, version) {
        if info.stale_rows > 0 && info.stale_rows * 2 <= info.rows {
            // A faulted merge leaves the replica at its old version;
            // falling through re-packs and re-uploads from scratch.
            if let Ok(col) = cache.merge_deltas(rel, attr, version, DeltaTransport::Pcie) {
                return with_retry(&RetryPolicy::default(), device.ledger(), || {
                    kernels::reduce_sum_f64(&device, col.buf)
                });
            }
        }
    }
    let (bytes, rows) = pack_f64(layout, attr, ty)?;
    let mut pipelined: Option<f64> = None;
    let col = cache.get_or_insert_with(rel, attr, version, rows, true, || {
        let buf = device.alloc(bytes.len())?;
        match pipelined_sum_into(&device, buf, &bytes, rows as usize, cfg, None) {
            Ok((sum, _wall)) => {
                pipelined = Some(sum);
                Ok(buf)
            }
            Err(e) => {
                let _ = device.free(buf);
                Err(e)
            }
        }
    })?;
    match pipelined {
        Some(sum) => Ok(sum),
        // Warm hit: the reduction alone, same canonical order — bit-equal.
        None => with_retry(&RetryPolicy::default(), device.ledger(), || {
            kernels::reduce_sum_f64(&device, col.buf)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::{LayoutTemplate, Schema, Value};
    use htapg_device::DeviceSpec;

    fn setup(n: i64) -> (Schema, Layout) {
        let s = Schema::of(&[("k", DataType::Int64), ("price", DataType::Float64)]);
        let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
        for i in 0..n {
            l.append(&s, &vec![Value::Int64(i), Value::Float64(i as f64 * 0.5)]).unwrap();
        }
        (s, l)
    }

    #[test]
    fn offload_matches_host_sum() {
        let (_, l) = setup(10_000);
        let device = Arc::new(SimDevice::with_defaults());
        let (sum, transfer_ns, kernel_ns) = offload_sum(&device, &l, 1, DataType::Float64).unwrap();
        let expect: f64 = (0..10_000).map(|i| i as f64 * 0.5).sum();
        assert!((sum - expect).abs() < 1e-6 * expect);
        assert!(transfer_ns > 0);
        assert!(kernel_ns > 0);
        // PCIe (6 GB/s) is slower than device memory (80 GB/s): transfers
        // dominate one-shot offload — the panel 3 vs panel 4 gap.
        assert!(transfer_ns > kernel_ns);
        assert_eq!(device.used_bytes(), 0, "offload released its buffer");
    }

    #[test]
    fn resident_column_avoids_transfer() {
        let (_, l) = setup(5_000);
        let device = Arc::new(SimDevice::with_defaults());
        let col = upload_column(&device, &l, 1, DataType::Float64).unwrap();
        let before = device.ledger().snapshot();
        let s1 = device_sum(&col).unwrap();
        let s2 = device_sum(&col).unwrap();
        assert_eq!(s1, s2);
        let delta = device.ledger().snapshot().since(&before);
        assert_eq!(delta.transfer_ns, 0, "resident sums must not touch PCIe");
        assert_eq!(delta.kernel_launches, 4); // two launches per reduction
        col.release().unwrap();
    }

    #[test]
    fn int_columns_widen() {
        let s = Schema::of(&[("v", DataType::Int32)]);
        let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
        for i in 0..100 {
            l.append(&s, &vec![Value::Int32(i)]).unwrap();
        }
        let device = Arc::new(SimDevice::with_defaults());
        let (sum, _, _) = offload_sum(&device, &l, 0, DataType::Int32).unwrap();
        assert_eq!(sum, (0..100).sum::<i32>() as f64);
    }

    #[test]
    fn all_or_nothing_placement() {
        let (_, l) = setup(200_000); // 1.6 MB of f64 > 1 MB tiny device
        let device = Arc::new(SimDevice::new(0, DeviceSpec::tiny()));
        let err = upload_column(&device, &l, 1, DataType::Float64).unwrap_err();
        assert!(matches!(err, Error::DeviceOutOfMemory { .. }));
        assert_eq!(device.used_bytes(), 0, "failed placement leaves nothing behind");
    }

    #[test]
    fn text_column_rejected() {
        let s = Schema::of(&[("t", DataType::Text(4))]);
        let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
        l.append(&s, &vec![Value::Text("x".into())]).unwrap();
        let device = Arc::new(SimDevice::with_defaults());
        assert!(upload_column(&device, &l, 0, DataType::Text(4)).is_err());
    }

    #[test]
    fn nsm_layout_can_offload_too() {
        // Strided source: pack gathers fields, result identical.
        let s = Schema::of(&[("k", DataType::Int64), ("price", DataType::Float64)]);
        let mut l = Layout::new(&s, LayoutTemplate::nsm(&s)).unwrap();
        for i in 0..1000 {
            l.append(&s, &vec![Value::Int64(i), Value::Float64(i as f64)]).unwrap();
        }
        let device = Arc::new(SimDevice::with_defaults());
        let (sum, _, _) = offload_sum(&device, &l, 1, DataType::Float64).unwrap();
        assert_eq!(sum, (0..1000).sum::<i64>() as f64);
    }

    #[test]
    fn pipelined_is_bit_identical_to_serial() {
        let (_, l) = setup(123_457); // not a multiple of anything convenient
        let device = Arc::new(SimDevice::with_defaults());
        let (serial, _, _) = offload_sum(&device, &l, 1, DataType::Float64).unwrap();
        for chunk_rows in [1usize << 18, 1000, 777, 123_457, 1_000_000] {
            let (pipelined, _) = pipelined_offload_sum(
                &device,
                &l,
                1,
                DataType::Float64,
                PipelineConfig { chunk_rows },
            )
            .unwrap();
            assert_eq!(serial.to_bits(), pipelined.to_bits(), "chunk_rows={chunk_rows}");
        }
        assert_eq!(device.used_bytes(), 0, "pipelined offload released its buffer");
    }

    #[test]
    fn pipelined_wall_never_exceeds_serial_and_overlaps() {
        let (_, l) = setup(2_000_000);
        let device = Arc::new(SimDevice::with_defaults());
        let before = device.ledger().snapshot();
        let (_, _, _) = offload_sum(&device, &l, 1, DataType::Float64).unwrap();
        let serial = device.ledger().snapshot().since(&before);
        let serial_wall = serial.transfer_ns + serial.kernel_ns;
        assert_eq!(serial.wall_ns, serial_wall, "serial path: wall is the straight sum");
        let before = device.ledger().snapshot();
        let (_, wall) =
            pipelined_offload_sum(&device, &l, 1, DataType::Float64, PipelineConfig::default())
                .unwrap();
        let delta = device.ledger().snapshot().since(&before);
        assert_eq!(delta.wall_ns, wall);
        assert!(wall <= serial_wall, "overlap can only help: {wall} vs {serial_wall}");
        assert!(
            delta.transfer_ns + delta.kernel_ns > wall,
            "some transfer hid behind kernels (categorized work exceeds wall)"
        );
    }

    #[test]
    fn pipelined_int_widening_matches_serial() {
        let s = Schema::of(&[("v", DataType::Int32)]);
        let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
        for i in 0..50_000 {
            l.append(&s, &vec![Value::Int32(i - 25_000)]).unwrap();
        }
        let device = Arc::new(SimDevice::with_defaults());
        let (serial, _, _) = offload_sum(&device, &l, 0, DataType::Int32).unwrap();
        let (pipelined, _) = pipelined_offload_sum(
            &device,
            &l,
            0,
            DataType::Int32,
            PipelineConfig { chunk_rows: 4096 },
        )
        .unwrap();
        assert_eq!(serial.to_bits(), pipelined.to_bits());
    }

    #[test]
    fn fused_filter_sum_serial_and_pipelined_agree() {
        let (_, l) = setup(80_000);
        let device = Arc::new(SimDevice::with_defaults());
        let pred = |v: f64| v >= 1000.0;
        let fused = offload_filter_sum(&device, &l, 1, DataType::Float64, pred).unwrap();
        let (pipelined, _) = pipelined_offload_filter_sum(
            &device,
            &l,
            1,
            DataType::Float64,
            PipelineConfig { chunk_rows: 7000 },
            &pred,
        )
        .unwrap();
        assert_eq!(fused.to_bits(), pipelined.to_bits());
        let expect: f64 = (0..80_000).map(|i| i as f64 * 0.5).filter(|&v| v >= 1000.0).sum();
        assert!((fused - expect).abs() < 1e-6 * expect);
        assert_eq!(device.used_bytes(), 0);
    }

    #[test]
    fn cached_offload_hits_skip_pcie() {
        let (_, l) = setup(30_000);
        let cache = DeviceColumnCache::new(Arc::new(SimDevice::with_defaults()));
        let cold =
            cached_offload_sum(&cache, &l, 1, DataType::Float64, 7, 1, PipelineConfig::default())
                .unwrap();
        let before = cache.device().ledger().snapshot();
        let warm =
            cached_offload_sum(&cache, &l, 1, DataType::Float64, 7, 1, PipelineConfig::default())
                .unwrap();
        assert_eq!(cold.to_bits(), warm.to_bits());
        let delta = cache.device().ledger().snapshot().since(&before);
        assert_eq!(delta.bytes_to_device, 0, "warm query must not touch PCIe");
        assert_eq!(delta.cache_hits, 1);
        // A version bump (a write) forces a re-upload.
        let before = cache.device().ledger().snapshot();
        let fresh =
            cached_offload_sum(&cache, &l, 1, DataType::Float64, 7, 2, PipelineConfig::default())
                .unwrap();
        assert_eq!(fresh.to_bits(), cold.to_bits());
        let delta = cache.device().ledger().snapshot().since(&before);
        assert!(delta.bytes_to_device > 0, "stale entry re-uploaded");
        assert_eq!(delta.cache_misses, 1);
    }

    #[test]
    fn cached_offload_merges_shipped_deltas_instead_of_reuploading() {
        let (s, mut l) = setup(30_000);
        let cache = DeviceColumnCache::new(Arc::new(SimDevice::with_defaults()));
        cached_offload_sum(&cache, &l, 1, DataType::Float64, 7, 1, PipelineConfig::default())
            .unwrap();
        // An engine write lands on the host column and ships to the replica.
        l.write_value(&s, 10, 1, &Value::Float64(9_999.5)).unwrap();
        cache.append_delta(7, 1, 10, 9_999.5, 2).unwrap();
        let before = cache.device().ledger().snapshot();
        let merged =
            cached_offload_sum(&cache, &l, 1, DataType::Float64, 7, 2, PipelineConfig::default())
                .unwrap();
        let delta = cache.device().ledger().snapshot().since(&before);
        assert_eq!(delta.delta_bytes, 16, "one shipped pair");
        assert_eq!(delta.bytes_to_device, 16, "delta route never re-uploads the column");
        assert_eq!(delta.delta_merges, 1);
        assert_eq!(delta.cache_misses, 0, "the replica never left the device");
        // Bit-identical to a from-scratch upload of the updated column.
        let fresh_cache = DeviceColumnCache::new(Arc::new(SimDevice::with_defaults()));
        let fresh = cached_offload_sum(
            &fresh_cache,
            &l,
            1,
            DataType::Float64,
            7,
            2,
            PipelineConfig::default(),
        )
        .unwrap();
        assert_eq!(merged.to_bits(), fresh.to_bits());
    }
}
