//! Block-parallel exclusive prefix sum.

use fdbscan_device::{Device, DeviceError, SharedMut};

/// Below this size a sequential scan beats the two-pass parallel scheme.
const PARALLEL_THRESHOLD: usize = 1 << 14;

/// In-place exclusive prefix sum. Returns the total (the inclusive sum of
/// the original contents).
///
/// `[3, 1, 7, 0, 4]` becomes `[0, 3, 4, 11, 11]` and `15` is returned.
///
/// Small inputs are scanned sequentially; larger ones use the classic
/// two-pass scheme (per-block sums, sequential scan of block sums,
/// parallel down-sweep), one launch per pass.
///
/// # Errors
/// Propagates [`DeviceError`] from the two launches; `data` is then
/// partly scanned.
pub fn exclusive_scan(device: &Device, data: &mut [u64]) -> Result<u64, DeviceError> {
    let n = data.len();
    if n < PARALLEL_THRESHOLD {
        return Ok(sequential_exclusive_scan(data));
    }

    let block = device.block_size().max(1);
    let num_blocks = n.div_ceil(block);

    // Pass 1: per-block inclusive scans plus a per-block total.
    let mut block_sums = vec![0u64; num_blocks];
    {
        let data_view = SharedMut::new(&mut *data);
        let sums_view = SharedMut::new(&mut block_sums);
        device.try_launch_named("scan.block_sums", num_blocks, |b| {
            let start = b * block;
            let end = (start + block).min(n);
            let mut acc = 0u64;
            for i in start..end {
                // SAFETY: each block owns its disjoint range of `data`,
                // and slot `b` of the block sums.
                unsafe {
                    let value = data_view.read(i);
                    data_view.write(i, acc);
                    acc += value;
                }
            }
            unsafe { sums_view.write(b, acc) };
        })?;
    }

    // Pass 2: scan the (small) block totals sequentially.
    let total = sequential_exclusive_scan(&mut block_sums);

    // Pass 3: add each block's offset to its elements.
    {
        let data_view = SharedMut::new(&mut *data);
        let sums = &block_sums;
        device.try_launch_named("scan.downsweep", num_blocks, |b| {
            let offset = sums[b];
            if offset == 0 {
                return;
            }
            let start = b * block;
            let end = (start + block).min(n);
            for i in start..end {
                // SAFETY: disjoint per-block ranges.
                unsafe { data_view.write(i, data_view.read(i) + offset) };
            }
        })?;
    }
    Ok(total)
}

/// Sequential exclusive scan; returns the total.
pub fn sequential_exclusive_scan(data: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for value in data.iter_mut() {
        let v = *value;
        *value = acc;
        acc += v;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::DeviceConfig;

    fn reference(data: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(data.len());
        let mut acc = 0u64;
        for &v in data {
            out.push(acc);
            acc += v;
        }
        (out, acc)
    }

    #[test]
    fn sequential_basic() {
        let mut data = vec![3, 1, 7, 0, 4];
        let total = sequential_exclusive_scan(&mut data);
        assert_eq!(data, vec![0, 3, 4, 11, 11]);
        assert_eq!(total, 15);
    }

    #[test]
    fn empty_scan() {
        let device = Device::with_defaults();
        let mut data: Vec<u64> = vec![];
        assert_eq!(exclusive_scan(&device, &mut data).unwrap(), 0);
    }

    #[test]
    fn single_element() {
        let device = Device::with_defaults();
        let mut data = vec![42u64];
        assert_eq!(exclusive_scan(&device, &mut data).unwrap(), 42);
        assert_eq!(data, vec![0]);
    }

    #[test]
    fn parallel_path_matches_reference() {
        let device = Device::new(DeviceConfig::default().with_workers(3).with_block_size(64));
        let n = (1 << 14) + 123; // force the parallel path
        let data: Vec<u64> = (0..n).map(|i| (i as u64 * 2654435761) % 1000).collect();
        let (expected, expected_total) = reference(&data);
        let mut got = data.clone();
        let total = exclusive_scan(&device, &mut got).unwrap();
        assert_eq!(total, expected_total);
        assert_eq!(got, expected);
    }

    #[test]
    fn all_zeros() {
        let device = Device::with_defaults();
        let mut data = vec![0u64; 100_000];
        assert_eq!(exclusive_scan(&device, &mut data).unwrap(), 0);
        assert!(data.iter().all(|&v| v == 0));
    }

    #[test]
    fn block_boundary_sizes() {
        for extra in [0usize, 1, 255, 256, 257] {
            let device = Device::new(DeviceConfig::default().with_workers(2).with_block_size(256));
            let n = (1 << 14) + extra;
            let data: Vec<u64> = (0..n).map(|i| (i % 7) as u64).collect();
            let (expected, expected_total) = reference(&data);
            let mut got = data.clone();
            let total = exclusive_scan(&device, &mut got).unwrap();
            assert_eq!(total, expected_total, "n = {n}");
            assert_eq!(got, expected, "n = {n}");
        }
    }
}
