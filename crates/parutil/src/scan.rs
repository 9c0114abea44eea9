//! Prefix sums.
//!
//! CSR construction and edge compaction reduce to prefix sums over
//! `u64`/`usize` slices.

use rayon::prelude::*;

/// In-place exclusive prefix sum; returns the total.
///
/// `[3, 1, 4]` becomes `[0, 3, 4]` and `8` is returned.
pub fn exclusive_prefix_sum(values: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for v in values.iter_mut() {
        let next = acc + *v;
        *v = acc;
        acc = next;
    }
    acc
}

/// In-place inclusive prefix sum; returns the total (last element).
pub fn inclusive_prefix_sum(values: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for v in values.iter_mut() {
        acc += *v;
        *v = acc;
    }
    acc
}

/// Parallel in-place exclusive prefix sum (two-pass chunked scan); returns
/// the total. Falls back to the sequential scan for small inputs where the
/// fork-join overhead dominates.
pub fn par_exclusive_prefix_sum(values: &mut [u64]) -> u64 {
    const SEQ_CUTOFF: usize = 1 << 14;
    if values.len() <= SEQ_CUTOFF {
        return exclusive_prefix_sum(values);
    }
    let chunk = values
        .len()
        .div_ceil(rayon::current_num_threads().max(1) * 4);
    // Pass 1: per-chunk totals.
    let mut chunk_totals: Vec<u64> = values.par_chunks(chunk).map(|c| c.iter().sum()).collect();
    let total = exclusive_prefix_sum(&mut chunk_totals);
    // Pass 2: scan each chunk seeded with its chunk offset.
    values
        .par_chunks_mut(chunk)
        .zip(chunk_totals.par_iter())
        .for_each(|(c, &seed)| {
            let mut acc = seed;
            for v in c.iter_mut() {
                let next = acc + *v;
                *v = acc;
                acc = next;
            }
        });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exclusive_basic() {
        let mut v = vec![3, 1, 4, 1, 5];
        let total = exclusive_prefix_sum(&mut v);
        assert_eq!(v, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn inclusive_basic() {
        let mut v = vec![3, 1, 4];
        let total = inclusive_prefix_sum(&mut v);
        assert_eq!(v, vec![3, 4, 8]);
        assert_eq!(total, 8);
    }

    #[test]
    fn empty_slices() {
        let mut v: Vec<u64> = vec![];
        assert_eq!(exclusive_prefix_sum(&mut v), 0);
        assert_eq!(par_exclusive_prefix_sum(&mut v), 0);
        assert_eq!(inclusive_prefix_sum(&mut v), 0);
        assert!(v.is_empty());
    }

    #[test]
    fn length_one_slices() {
        // Exclusive: the single slot becomes the 0 seed, total is its value.
        let mut v = vec![9u64];
        assert_eq!(exclusive_prefix_sum(&mut v), 9);
        assert_eq!(v, vec![0]);

        let mut v = vec![9u64];
        assert_eq!(par_exclusive_prefix_sum(&mut v), 9);
        assert_eq!(v, vec![0]);

        // Inclusive: a singleton is its own running total.
        let mut v = vec![9u64];
        assert_eq!(inclusive_prefix_sum(&mut v), 9);
        assert_eq!(v, vec![9]);
    }

    #[test]
    fn par_matches_seq_large() {
        let n = 100_000;
        let vals: Vec<u64> = (0..n).map(|i| (i * 7 + 3) % 11).collect();
        let mut a = vals.clone();
        let mut b = vals;
        let ta = exclusive_prefix_sum(&mut a);
        let tb = par_exclusive_prefix_sum(&mut b);
        assert_eq!(ta, tb);
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn par_matches_seq_prop(vals in proptest::collection::vec(0u64..1000, 0..5000)) {
            let mut a = vals.clone();
            let mut b = vals;
            let ta = exclusive_prefix_sum(&mut a);
            let tb = par_exclusive_prefix_sum(&mut b);
            prop_assert_eq!(ta, tb);
            prop_assert_eq!(a, b);
        }
    }
}
