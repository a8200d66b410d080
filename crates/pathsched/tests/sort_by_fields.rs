//! `sort_by_fields` against the plain tuple sort it stands for,
//! `sort_unstable_by_key(|&i| (fields(i), i))`, for one to four fields:
//! zero-width fields, ties, an index at a power of two, bounds that are
//! exact or loose, and widths that add up to more than 64 bits (the tuple
//! path).

use std::collections::HashMap;

use proptest::prelude::*;

use cpg_path_sched::sort_by_fields;

/// SplitMix64: the field values of a case, from its seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The values below `2^width`.
fn low_bits(width: u32) -> u64 {
    u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

/// Sorts `indices` with `sort_by_fields` on fields of the given widths
/// and compares the order with the tuple sort. `ties` draws every field
/// from four values; `exact` passes the largest value of each field as its
/// bound instead of `2^width - 1`.
fn check<const N: usize>(
    indices: &[u64],
    widths: [u32; N],
    seed: u64,
    ties: bool,
    exact: bool,
) -> Result<(), TestCaseError> {
    let values: HashMap<u64, [u64; N]> = indices
        .iter()
        .enumerate()
        .map(|(position, &index)| {
            let fields = std::array::from_fn(|f| {
                let raw = mix(seed ^ (position * N + f) as u64);
                (if ties { raw & 3 } else { raw }) & low_bits(widths[f])
            });
            (index, fields)
        })
        .collect();
    let bounds: [u64; N] = if exact {
        std::array::from_fn(|f| values.values().map(|v| v[f]).max().unwrap_or(0))
    } else {
        widths.map(low_bits)
    };
    let fields = |i: usize| values[&(i as u64)];

    let mut expected = indices.to_vec();
    expected.sort_unstable_by_key(|&i| (fields(i as usize), i));
    let mut order = indices.to_vec();
    let mask = sort_by_fields(&mut order, bounds, fields);
    let sorted: Vec<u64> = order.iter().map(|&key| key & mask).collect();
    prop_assert_eq!(sorted, expected);

    let width = |word: u64| 64 - word.leading_zeros();
    let index_bits = width(indices.iter().fold(0, |all, &i| all | i));
    let total = index_bits + bounds.iter().map(|&b| width(b)).sum::<u32>();
    prop_assert_eq!(mask == u64::MAX, total > 64 || index_bits == 64);
    Ok(())
}

/// The indices of a case: `0..len` spread by `stride`, with `2^power`
/// added when it is not among them yet.
fn indices(len: u64, stride: u64, power: u32) -> Vec<u64> {
    let mut indices: Vec<u64> = (0..len).map(|i| i * stride).collect();
    if !indices.contains(&(1 << power)) {
        indices.push(1 << power);
    }
    // Not in index order: the sort must not rely on it.
    indices.reverse();
    indices
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]
    #[test]
    fn sort_by_fields_matches_the_tuple_sort(
        len in 0u64..48,
        stride in 1u64..5,
        power in 0u32..64,
        widths in proptest::collection::vec(0u32..=64, 4),
        narrow in proptest::collection::vec(0u32..=12, 4),
        wide in any::<bool>(),
        seed in any::<u64>(),
        ties in any::<bool>(),
        exact in any::<bool>(),
    ) {
        // Narrow widths mostly fit one key; wide ones mostly do not.
        let w = if wide { widths } else { narrow };
        let indices = indices(len, stride, power);
        check(&indices, [w[0]], seed, ties, exact)?;
        check(&indices, [w[0], w[1]], seed, ties, exact)?;
        check(&indices, [w[0], w[1], w[2]], seed, ties, exact)?;
        check(&indices, [w[0], w[1], w[2], w[3]], seed, ties, exact)?;
        // A zero-width field between two others.
        check(&indices, [w[0], 0, w[2]], seed, ties, exact)?;
    }
}

#[test]
fn sort_by_fields_packs_what_fits_and_sorts_tuples_otherwise() {
    let starts = [5u64, 1 << 40, 5, 0];
    let order_of = |order: &[u64], mask: u64| order.iter().map(|&k| k & mask).collect::<Vec<_>>();

    // 41 + 0 + 2 bits: one packed key, the index in the low 2 bits.
    let mut order: Vec<u64> = vec![0, 1, 2, 3];
    let mask = sort_by_fields(&mut order, [1 << 40, 0], |i| [starts[i], 0]);
    assert_eq!(mask, 0b11);
    assert_eq!(order_of(&order, mask), [3, 0, 2, 1]);

    // 41 + 41 + 2 bits do not fit: a tuple sort of the bare indices, the
    // second field breaking the tie at 5.
    let mut order: Vec<u64> = vec![0, 1, 2, 3];
    let mask = sort_by_fields(&mut order, [1 << 40; 2], |i| [starts[i], 3 - i as u64]);
    assert_eq!(mask, u64::MAX);
    assert_eq!(order, [3, 2, 0, 1]);

    // One index 0 takes no bits at all.
    let mut order = vec![0];
    assert_eq!(sort_by_fields(&mut order, [u64::MAX], |_| [u64::MAX]), 0);
    assert_eq!(order, [u64::MAX]);

    // An empty list.
    let mut order: Vec<u64> = Vec::new();
    assert_eq!(sort_by_fields(&mut order, [7], |_| [0]), 0);
}
