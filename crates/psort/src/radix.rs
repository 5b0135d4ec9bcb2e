//! Parallel LSD radix sort for `(u64 key, u32 payload)` pairs.
//!
//! Classic GPU formulation (one histogram/scan/scatter triple per 8-bit
//! digit), submitted as a *single batched launch*
//! ([`Device::try_batch_named`]): every pass of the pipeline is enqueued
//! up front and the host synchronises once, the way a real GPU stream
//! replays a captured graph.
//!
//! 1. **histogram** — each block counts digit occurrences in its segment
//!    into a 256-entry table on the worker's stack,
//! 2. **scan** — a digit-major exclusive scan over the `256 × blocks`
//!    count matrix turns counts into global scatter bases (a single-index
//!    stage inside the batch — the matrix holds 256 entries per
//!    16,384-key block, so a sequential scan is exact and cheap),
//! 3. **scatter** — each block re-reads its segment in order and places
//!    every element at its digit's next slot.
//!
//! Per-block sequential placement keeps the sort *stable*, which the BVH
//! relies on to break Morton-code ties by original index.
//!
//! The digit is 8 bits wide, so a block's count and cursor tables (256
//! entries each) are far smaller than the 16,384-key segment they serve
//! and fit on the worker's stack. Full 64-bit keys take 8 passes; passes
//! above the highest set key bit are skipped. Callers that know their key width
//! analytically (Morton codes, grid cell keys) use [`sort_by_key_fused`],
//! which also skips the max-key reduction and *generates keys on the fly*:
//! the first histogram evaluates `keygen` once per element and parks the
//! key in scratch, so no materialised key array is ever uploaded.
//!
//! Scratch (the ping-pong key/payload arrays) is checked out of the
//! device's [`fdbscan_device::BufferArena`] and charged against the
//! device budget only while the sort runs. The fused sort returns the
//! key buffer its last pass wrote, so a caller that needs the sorted
//! keys holds no array of its own. The count matrix is untracked
//! scratch, the analogue of GPU shared memory: 2 KB per block, under
//! 64 KB at 500k keys.

use fdbscan_device::{ArenaBuf, BatchStage, Device, DeviceError, SharedMut};

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
/// Elements per sorting block. Larger than the device block size: the
/// histogram/scatter kernels are launched over *sort blocks*, and each
/// index of the launch handles one contiguous segment.
const SORT_BLOCK: usize = 1 << 14;
/// Below this size, a sequential comparison sort wins.
const SEQUENTIAL_THRESHOLD: usize = 1 << 10;

/// Stable sort of `keys` with `values` permuted alongside.
///
/// # Panics
/// Panics if `keys.len() != values.len()`, or where [`sort_pairs_in`]
/// would return an error. Budgeted callers should use [`sort_pairs_in`].
pub fn sort_pairs(device: &Device, keys: &mut [u64], values: &mut [u32]) {
    if let Err(error) = sort_pairs_in(device, keys, values) {
        panic!("sort failed: {error}");
    }
}

/// Stable sort of `keys` with `values` permuted alongside; scratch is
/// checked out of the device's buffer arena and released when the sort
/// completes.
///
/// Costs one `sort.max_key` reduction plus one batched launch (all
/// histogram/scan/scatter passes submitted together).
///
/// # Errors
/// Propagates [`DeviceError`] from scratch allocation (budget exhaustion
/// or injected faults) and from both launches.
///
/// # Panics
/// Panics if `keys.len() != values.len()`.
pub fn sort_pairs_in(
    device: &Device,
    keys: &mut [u64],
    values: &mut [u32],
) -> Result<(), DeviceError> {
    assert_eq!(keys.len(), values.len(), "keys and values must pair up");
    let n = keys.len();
    if n <= 1 {
        return Ok(());
    }
    if n < SEQUENTIAL_THRESHOLD {
        // Stable comparison sort of index pairs.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&i| keys[i as usize]);
        let sorted_keys: Vec<u64> = perm.iter().map(|&i| keys[i as usize]).collect();
        let sorted_values: Vec<u32> = perm.iter().map(|&i| values[i as usize]).collect();
        keys.copy_from_slice(&sorted_keys);
        values.copy_from_slice(&sorted_values);
        return Ok(());
    }

    let max_key = device.try_reduce_named("sort.max_key", n, 0u64, |i| keys[i], |a, b| a.max(b))?;
    let key_bits = (64 - max_key.leading_zeros()).max(1);

    let mut values_sorted = device.arena().take::<u32>(n)?;
    let keys_sorted = {
        let values_view = SharedMut::new(&mut values_sorted[..]);
        let keys_in: &[u64] = keys;
        let values_in: &[u32] = values;
        sort_by_key_fused(
            device,
            n,
            key_bits,
            |i| keys_in[i],
            |dest, payload| {
                // SAFETY: `dest` ranks are globally unique — the scatter
                // emits each output slot exactly once.
                unsafe { values_view.write(dest, values_in[payload as usize]) };
            },
        )?
    };
    keys.copy_from_slice(&keys_sorted);
    values.copy_from_slice(&values_sorted);
    Ok(())
}

/// Peak bytes of device scratch [`sort_by_key_fused`] holds for `n`
/// elements: two `u64` key and two `u32` value buffers, of which it
/// hands back one key buffer holding the sorted keys. Below the
/// sequential threshold it takes only the returned key buffer.
pub fn fused_scratch_bytes(n: usize) -> usize {
    let key = std::mem::size_of::<u64>();
    if n < SEQUENTIAL_THRESHOLD {
        n * key
    } else {
        2 * n * (key + std::mem::size_of::<u32>())
    }
}

/// Stable radix sort over *virtual* pairs `(keygen(i), i)` for `i` in
/// `0..n`, delivered through `emit` instead of materialised arrays.
///
/// `keygen` is called exactly once per element, from the workers of the
/// first histogram (or from the host below the sequential threshold);
/// later stages read the key it returned from scratch. `key_bits` bounds
/// the significant key width and fixes the pass count analytically, so
/// no max-key reduction is launched.
///
/// When the sort completes, `emit(rank, i)` has been called exactly once
/// per element: element `i` (with key `keygen(i)`) landed at sorted
/// position `rank`. Ties preserve index order (stability). `emit` runs
/// inside the final scatter kernel; destination ranks are unique, so
/// writes indexed by `rank` need no synchronisation.
///
/// Returns the sorted keys, in the ping-pong key buffer the final pass
/// wrote: the caller holds no key array of its own, and the buffer's
/// reservation lasts until the caller drops it. The other three buffers
/// are released on return ([`fused_scratch_bytes`]).
///
/// Above the sequential threshold this costs exactly **one** batched
/// launch regardless of pass count; below it, zero launches.
///
/// # Errors
/// Propagates [`DeviceError`] from arena scratch allocation and from the
/// batched launch.
pub fn sort_by_key_fused<K, E>(
    device: &Device,
    n: usize,
    key_bits: u32,
    keygen: K,
    emit: E,
) -> Result<ArenaBuf<u64>, DeviceError>
where
    K: Fn(usize) -> u64 + Sync,
    E: Fn(usize, u32) + Sync,
{
    let arena = device.arena();
    if n == 0 {
        return Ok(arena.take_untracked(0));
    }
    if n < SEQUENTIAL_THRESHOLD {
        let mut sorted = arena.take::<u64>(n)?;
        let keys: Vec<u64> = (0..n).map(&keygen).collect();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&i| keys[i as usize]);
        for (rank, &orig) in perm.iter().enumerate() {
            sorted[rank] = keys[orig as usize];
            emit(rank, orig);
        }
        return Ok(sorted);
    }

    let passes = (key_bits.div_ceil(RADIX_BITS)).max(1) as usize;
    let num_blocks = n.div_ceil(SORT_BLOCK);

    // Ping-pong scratch: pass 0 scatters into A, later passes alternate
    // A -> B -> A. B first holds the generated keys: pass 0's histogram
    // stores them there and its scatter reads them back, before pass 1
    // scatters into B. The final pass's key buffer is returned to the
    // caller. Tracked against the memory budget — this is data-sized
    // device-global scratch.
    let mut keys_a = arena.take::<u64>(n)?;
    let mut keys_b = arena.take::<u64>(n)?;
    let mut vals_a = arena.take::<u32>(n)?;
    let mut vals_b = arena.take::<u32>(n)?;
    // Digit-major count matrix (counts[digit * num_blocks + block]):
    // 2 KB per block, under 64 KB at 500k keys. Untracked: the GPU
    // analogue lives in shared memory / a fixed-size side table, not in
    // the data-sized device heap, and a reservation would shift the OOM
    // ordinals that fault plans address.
    let mut counts = arena.take_untracked::<u64>(BUCKETS * num_blocks);

    let ka = SharedMut::new(&mut keys_a[..]);
    let kb = SharedMut::new(&mut keys_b[..]);
    let va = SharedMut::new(&mut vals_a[..]);
    let vb = SharedMut::new(&mut vals_b[..]);
    let counts_view = SharedMut::new(&mut counts[..]);
    let counts_view = &counts_view;
    let (ka, kb, va, vb) = (&ka, &kb, &va, &vb);
    let keygen = &keygen;
    let emit = &emit;

    let mut stages: Vec<BatchStage<'_>> = Vec::with_capacity(passes * 3);
    for pass in 0..passes {
        let shift = pass as u32 * RADIX_BITS;
        let last = pass + 1 == passes;
        // Pass 0 reads the keys its histogram stored in B, paired with
        // their own indices (`None`); later passes read the pairs the
        // previous scatter wrote.
        let (src_keys, src_vals) = match pass {
            0 => (kb, None),
            p if p % 2 == 1 => (ka, Some(va)),
            _ => (kb, Some(vb)),
        };
        let (dst_keys, dst_vals) = if pass % 2 == 0 { (ka, va) } else { (kb, vb) };

        stages.push(BatchStage::new("sort.histogram", num_blocks, move |b| {
            let start = b * SORT_BLOCK;
            let end = (start + SORT_BLOCK).min(n);
            let mut local = [0u32; BUCKETS];
            for i in start..end {
                let key = if pass == 0 {
                    // The only keygen call for element `i`: the key is
                    // parked in B for this pass's scatter.
                    let key = keygen(i);
                    // SAFETY: block `b` alone touches slots start..end of
                    // B in this stage; nothing else touches B until this
                    // pass's scatter, behind the batch barrier.
                    unsafe { kb.write(i, key) };
                    key
                } else {
                    // SAFETY: the previous scatter stage fully wrote this
                    // buffer; the batch barrier ordered it before us.
                    unsafe { src_keys.read(i) }
                };
                local[((key >> shift) as usize) & (BUCKETS - 1)] += 1;
            }
            for (digit, &count) in local.iter().enumerate() {
                // SAFETY: slot (digit, b) is owned by this block. Every
                // slot is (re)written, so the matrix needs no zeroing
                // between passes.
                unsafe { counts_view.write(digit * num_blocks + b, count as u64) };
            }
        }));

        // Exclusive scan of the count matrix into scatter bases. A
        // single-index stage: the matrix holds 256 entries per block, so
        // one thread scanning it sequentially is exact and cheap, and
        // keeping it inside the batch avoids a host synchronisation.
        stages.push(BatchStage::new("sort.scan", 1, move |_| {
            let mut acc = 0u64;
            for slot in 0..BUCKETS * num_blocks {
                // SAFETY: this stage is the sole toucher; the batch
                // barrier ordered the histogram before us.
                unsafe {
                    let value = counts_view.read(slot);
                    counts_view.write(slot, acc);
                    acc += value;
                }
            }
        }));

        stages.push(BatchStage::new("sort.scatter", num_blocks, move |b| {
            let start = b * SORT_BLOCK;
            let end = (start + SORT_BLOCK).min(n);
            let mut cursors = [0usize; BUCKETS];
            for (digit, cursor) in cursors.iter_mut().enumerate() {
                // SAFETY: read-only view of the scanned bases.
                *cursor = unsafe { counts_view.read(digit * num_blocks + b) } as usize;
            }
            for i in start..end {
                // SAFETY: written by this pass's histogram (pass 0) or by
                // the scatter two stages back; a batch barrier lies
                // between, and nothing writes the source in this stage.
                let (key, payload) = unsafe {
                    match src_vals {
                        None => (src_keys.read(i), i as u32),
                        Some(vv) => (src_keys.read(i), vv.read(i)),
                    }
                };
                let digit = ((key >> shift) as usize) & (BUCKETS - 1);
                let dest = cursors[digit];
                cursors[digit] += 1;
                // SAFETY: scatter destinations are globally unique — the
                // scanned bases partition the output index space by
                // (digit, block), and cursors stay within each partition.
                unsafe { dst_keys.write(dest, key) };
                if last {
                    // The final pass's payloads go only to the caller's
                    // epilogue: nothing reads the value buffers after it.
                    emit(dest, payload);
                } else {
                    // SAFETY: as for the key.
                    unsafe { dst_vals.write(dest, payload) };
                }
            }
        }));
    }

    device.try_batch_named("sort.pipeline", stages)?;
    Ok(if passes % 2 == 1 { keys_a } else { keys_b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::DeviceConfig;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check_sorted_pairs(keys: &[u64], values: &[u32], original: &[(u64, u32)]) {
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
        // Same multiset of pairs.
        let mut got: Vec<(u64, u32)> = keys.iter().copied().zip(values.iter().copied()).collect();
        let mut expected = original.to_vec();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_single() {
        let device = Device::with_defaults();
        let mut keys: Vec<u64> = vec![];
        let mut values: Vec<u32> = vec![];
        sort_pairs(&device, &mut keys, &mut values);
        assert!(keys.is_empty());

        let mut keys = vec![9u64];
        let mut values = vec![3u32];
        sort_pairs(&device, &mut keys, &mut values);
        assert_eq!(keys, vec![9]);
        assert_eq!(values, vec![3]);
    }

    #[test]
    fn small_input_sequential_path() {
        let device = Device::with_defaults();
        let mut keys = vec![5u64, 3, 8, 3, 1];
        let mut values = vec![0u32, 1, 2, 3, 4];
        sort_pairs(&device, &mut keys, &mut values);
        assert_eq!(keys, vec![1, 3, 3, 5, 8]);
        // Stability: the two 3-keys keep original order (values 1 then 3).
        assert_eq!(values, vec![4, 1, 3, 0, 2]);
    }

    #[test]
    fn large_random_matches_std_sort() {
        let device = Device::new(DeviceConfig::default().with_workers(3));
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let original: Vec<(u64, u32)> = (0..n).map(|i| (rng.gen::<u64>(), i as u32)).collect();
        let mut keys: Vec<u64> = original.iter().map(|p| p.0).collect();
        let mut values: Vec<u32> = original.iter().map(|p| p.1).collect();
        sort_pairs(&device, &mut keys, &mut values);
        check_sorted_pairs(&keys, &values, &original);
    }

    #[test]
    fn stability_on_large_input() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        // Few distinct keys => many ties.
        let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..16)).collect();
        let mut values: Vec<u32> = (0..n as u32).collect();
        let original = keys.clone();
        sort_pairs(&device, &mut keys, &mut values);
        // Within each tie group, payload (original index) must increase.
        for w in keys.iter().zip(&values).collect::<Vec<_>>().windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
        // And every payload must map back to its key.
        for (k, &v) in keys.iter().zip(&values) {
            assert_eq!(*k, original[v as usize]);
        }
    }

    #[test]
    fn small_keys_skip_passes() {
        // Keys below 2^8 need exactly one pass; the whole pipeline is
        // one max-key reduce plus one batched launch.
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let before = device.counters().snapshot();
        let n = 20_000;
        let mut keys: Vec<u64> = (0..n).map(|i| (i * 37 % 251) as u64).collect();
        let mut values: Vec<u32> = (0..n as u32).collect();
        let original: Vec<(u64, u32)> = keys.iter().copied().zip(values.iter().copied()).collect();
        sort_pairs(&device, &mut keys, &mut values);
        check_sorted_pairs(&keys, &values, &original);
        let delta = device.counters().snapshot().since(&before);
        // 1 reduce + 1 batch.
        assert_eq!(delta.kernel_launches, 2);
        // One pass => histogram + scan + scatter stages.
        assert_eq!(delta.batched_stages, 3);
    }

    #[test]
    fn full_width_keys_use_eight_passes() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let before = device.counters().snapshot();
        let n = 20_000;
        let mut rng = StdRng::seed_from_u64(3);
        let mut keys: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() | (1 << 63)).collect();
        let mut values: Vec<u32> = (0..n as u32).collect();
        sort_pairs(&device, &mut keys, &mut values);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let delta = device.counters().snapshot().since(&before);
        // Still 1 reduce + 1 batch; the extra passes are extra *stages*.
        assert_eq!(delta.kernel_launches, 2);
        // 8 passes x (histogram + scan + scatter).
        assert_eq!(delta.batched_stages, 24);
    }

    #[test]
    fn repeated_sorts_release_their_scratch() {
        // Every sort leaves nothing reserved, and repeats reach the same
        // peak: the value buffer plus the fused sort's scratch.
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let n = 20_000;
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..3 {
            device.memory().reset_peak();
            let mut keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut values: Vec<u32> = (0..n as u32).collect();
            sort_pairs(&device, &mut keys, &mut values);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(device.memory().in_use(), 0);
            assert_eq!(device.memory().peak(), 4 * n + fused_scratch_bytes(n));
        }
    }

    #[test]
    fn fused_sort_emits_each_rank_once() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let n = 30_000usize;
        // Deterministic pseudo-random keys generated on the fly.
        let key_of = |i: usize| (i as u64).wrapping_mul(2654435761) % (1 << 20);
        let mut out_src = vec![u32::MAX; n];
        let out_keys = {
            let os = SharedMut::new(&mut out_src[..]);
            sort_by_key_fused(&device, n, 20, key_of, |rank, i| {
                // SAFETY: ranks are unique per the emit contract.
                unsafe { os.write(rank, i) };
            })
            .unwrap()
        };
        assert!(out_keys.windows(2).all(|w| w[0] <= w[1]));
        // Every source index appears exactly once and maps to its key.
        let mut seen = vec![false; n];
        for (rank, &src) in out_src.iter().enumerate() {
            let src = src as usize;
            assert!(!seen[src], "source {src} emitted twice");
            seen[src] = true;
            assert_eq!(out_keys[rank], key_of(src));
        }
        // Stability: equal keys keep source order.
        for w in out_keys.iter().zip(&out_src).collect::<Vec<_>>().windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "fused sort must stay stable");
            }
        }
    }

    #[test]
    fn fused_keygen_runs_once_per_element() {
        // Three full sort blocks and a 7-key tail, two passes.
        let n = 3 * SORT_BLOCK + 7;
        for workers in [1, 3] {
            let device = Device::new(DeviceConfig::default().with_workers(workers));
            let calls = AtomicUsize::new(0);
            let key_of = |i: usize| (i as u64).wrapping_mul(2654435761) % (1 << 16);
            let mut out = vec![u32::MAX; n];
            {
                let view = SharedMut::new(&mut out[..]);
                let keygen = |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    key_of(i)
                };
                sort_by_key_fused(&device, n, 16, keygen, |rank, i| {
                    // SAFETY: unique ranks.
                    unsafe { view.write(rank, i) };
                })
                .unwrap();
            }
            assert_eq!(calls.load(Ordering::Relaxed), n, "{workers} workers");
            assert!(out.windows(2).all(|w| key_of(w[0] as usize) <= key_of(w[1] as usize)));
        }
    }

    #[test]
    fn stable_across_block_boundaries() {
        // Four distinct keys, so every tie group spans sort blocks; a
        // block's scatter must land after every earlier block's ties.
        // The keys differ in three digits, so ties pass through three
        // scatters.
        const KEYS: [u64; 4] = [0x3_0001, 0x100, 0x1_0000, 0x1];
        for workers in [1, 3] {
            let device = Device::new(DeviceConfig::default().with_workers(workers));
            for n in [SORT_BLOCK - 1, SORT_BLOCK, SORT_BLOCK + 1, 3 * SORT_BLOCK + 7] {
                let original: Vec<u64> = (0..n).map(|i| KEYS[(i * 7 + i / 5) % 4]).collect();
                let mut keys = original.clone();
                let mut values: Vec<u32> = (0..n as u32).collect();
                sort_pairs(&device, &mut keys, &mut values);
                assert!(keys.windows(2).all(|w| w[0] <= w[1]), "n = {n}");
                for (w, k) in values.windows(2).zip(keys.windows(2)) {
                    if k[0] == k[1] {
                        assert!(w[0] < w[1], "stability violated at n = {n}, {workers} workers");
                    }
                }
                for (&k, &v) in keys.iter().zip(&values) {
                    assert_eq!(k, original[v as usize]);
                }
            }
        }
    }

    #[test]
    fn fused_sort_sequential_path_emits() {
        let device = Device::with_defaults();
        let before = device.counters().snapshot().kernel_launches;
        let n = 100usize;
        let key_of = |i: usize| (n - i) as u64;
        let mut out = vec![0u32; n];
        {
            let view = SharedMut::new(&mut out[..]);
            sort_by_key_fused(&device, n, 8, key_of, |rank, i| {
                // SAFETY: unique ranks.
                unsafe { view.write(rank, i) };
            })
            .unwrap();
        }
        // Reversed keys: rank r holds source n-1-r.
        for (rank, &src) in out.iter().enumerate() {
            assert_eq!(src as usize, n - 1 - rank);
        }
        assert_eq!(device.counters().snapshot().kernel_launches - before, 0);
    }

    #[test]
    fn returned_keys_are_the_stable_sort_of_keygen() {
        // Below and above the sequential threshold, with 1-pass and
        // 8-pass key widths: the returned buffer holds the sorted keys,
        // it is one of the sort's own buffers (the sort's peak is
        // `fused_scratch_bytes`, and the returned keys stay reserved until
        // dropped), and emit ranks agree with it.
        let device = Device::new(DeviceConfig::default().with_workers(2));
        for n in [1usize, 100, SEQUENTIAL_THRESHOLD - 1, SEQUENTIAL_THRESHOLD, 3 * SORT_BLOCK + 7] {
            for key_bits in [8u32, 64] {
                let mask = if key_bits == 64 { u64::MAX } else { (1 << key_bits) - 1 };
                let key_of = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
                let mut expected: Vec<u64> = (0..n).map(key_of).collect();
                expected.sort();
                device.memory().reset_peak();
                let mut src = vec![u32::MAX; n];
                let keys = {
                    let view = SharedMut::new(&mut src[..]);
                    // SAFETY: unique ranks.
                    sort_by_key_fused(&device, n, key_bits, key_of, |rank, i| unsafe {
                        view.write(rank, i)
                    })
                    .unwrap()
                };
                assert_eq!(keys[..], expected[..], "n = {n}, {key_bits} bits");
                for (rank, &i) in src.iter().enumerate() {
                    assert_eq!(keys[rank], key_of(i as usize), "n = {n}, rank {rank}");
                }
                assert_eq!(device.memory().peak(), fused_scratch_bytes(n), "n = {n}");
                assert_eq!(device.memory().in_use(), 8 * n, "n = {n}: the returned keys");
                drop(keys);
                assert_eq!(device.memory().in_use(), 0, "n = {n}");
            }
        }
    }

    #[test]
    fn already_sorted_and_reversed() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let n = 30_000u64;
        for input in [
            (0..n).collect::<Vec<u64>>(),
            (0..n).rev().collect::<Vec<u64>>(),
            vec![7u64; n as usize],
        ] {
            let mut keys = input.clone();
            let mut values: Vec<u32> = (0..n as u32).collect();
            sort_pairs(&device, &mut keys, &mut values);
            let mut expected = input.clone();
            expected.sort_unstable();
            assert_eq!(keys, expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn radix_matches_std_sort(
            seed in any::<u64>(),
            n in 1usize..5000,
            bits in 1u32..64
        ) {
            let device = Device::new(DeviceConfig::default().with_workers(2));
            let mut rng = StdRng::seed_from_u64(seed);
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let original: Vec<(u64, u32)> =
                (0..n).map(|i| (rng.gen::<u64>() & mask, i as u32)).collect();
            let mut keys: Vec<u64> = original.iter().map(|p| p.0).collect();
            let mut values: Vec<u32> = original.iter().map(|p| p.1).collect();
            sort_pairs(&device, &mut keys, &mut values);
            check_sorted_pairs(&keys, &values, &original);
        }
    }
}
