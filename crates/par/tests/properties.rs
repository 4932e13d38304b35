//! Property tests for the uniq-par pool: parallel map must be
//! indistinguishable from sequential map for any input length, chunk
//! size, and thread count — also when maps nest on one pool — and a
//! panicking worker must not poison the pool.

use proptest::prelude::*;

fn work(x: &i64) -> i64 {
    // Non-commutative with index so ordering bugs can't cancel out.
    x.wrapping_mul(31).wrapping_add(7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_matches_sequential_map(
        items in prop::collection::vec(-1_000_000i64..1_000_000, 0..300),
        threads in 1usize..9,
        chunk in 1usize..40,
    ) {
        let pool = uniq_par::pool(threads);
        let parallel = pool.par_map_chunked(&items, chunk, work);
        let sequential: Vec<i64> = items.iter().map(work).collect();
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn par_map_default_chunking_matches(
        items in prop::collection::vec(-1_000_000i64..1_000_000, 0..300),
        threads in 1usize..9,
    ) {
        let pool = uniq_par::pool(threads);
        let parallel = pool.par_map(&items, work);
        let sequential: Vec<i64> = items.iter().map(work).collect();
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn try_par_map_reports_first_error_in_index_order(
        items in prop::collection::vec(0i64..100, 1..200),
        threads in 1usize..9,
    ) {
        let pool = uniq_par::pool(threads);
        let fallible = |x: &i64| -> Result<i64, i64> {
            if *x >= 90 { Err(*x) } else { Ok(work(x)) }
        };
        let parallel = pool.try_par_map(&items, fallible);
        let sequential: Result<Vec<i64>, i64> = items.iter().map(fallible).collect();
        prop_assert_eq!(parallel, sequential);
    }

    /// A map whose items each run a map on the same pool — a session's
    /// stops each deconvolving two ears — equals the sequential nested map.
    /// With `depth` 3 every inner item runs a third map of its own.
    #[test]
    fn nested_par_map_matches_sequential_nested_map(
        rows in prop::collection::vec(prop::collection::vec(-1_000_000i64..1_000_000, 0..24), 0..24),
        threads in 1usize..9,
        chunk in 1usize..5,
        depth in 2usize..4,
    ) {
        let pool = uniq_par::pool(threads);
        let pair = |x: &i64| [*x, x.wrapping_add(1)];
        let leaf = |x: &i64| match depth {
            3 => pool.par_map_chunked(&pair(x), 1, work).iter().fold(0, |a, b| a ^ b),
            _ => work(x),
        };
        let sequential_leaf = |x: &i64| match depth {
            3 => pair(x).iter().map(work).fold(0, |a, b| a ^ b),
            _ => work(x),
        };
        let parallel = pool.par_map_chunked(&rows, chunk, |row| pool.par_map_chunked(row, 1, leaf));
        let sequential: Vec<Vec<i64>> =
            rows.iter().map(|row| row.iter().map(sequential_leaf).collect()).collect();
        prop_assert_eq!(parallel, sequential);
    }
}

#[test]
fn empty_input_yields_empty_output() {
    let pool = uniq_par::pool(4);
    let out = pool.par_map(&[] as &[i64], work);
    assert!(out.is_empty());
    let out = pool.par_map_chunked(&[] as &[i64], 1, work);
    assert!(out.is_empty());
}

#[test]
fn fewer_items_than_threads() {
    let pool = uniq_par::pool(8);
    for len in 1..8 {
        let items: Vec<i64> = (0..len).collect();
        let expected: Vec<i64> = items.iter().map(work).collect();
        assert_eq!(pool.par_map_chunked(&items, 1, work), expected);
    }
}

#[test]
fn panicking_worker_propagates_and_pool_stays_usable() {
    let pool = uniq_par::pool(4);
    let items: Vec<i64> = (0..64).collect();
    for round in 0..3 {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map_chunked(&items, 2, |&x| {
                if x == 33 {
                    panic!("injected failure in round {round}");
                }
                work(&x)
            })
        }));
        let payload = caught.expect_err("the panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic payload should be the formatted message");
        assert!(msg.contains("injected failure"));
        // The same pool must keep producing correct results afterwards.
        let expected: Vec<i64> = items.iter().map(work).collect();
        assert_eq!(pool.par_map_chunked(&items, 3, work), expected);
    }
}

#[test]
fn panic_in_a_nested_map_propagates_and_pool_stays_usable() {
    let rows: Vec<Vec<i64>> = (0..8)
        .map(|r| (0..6).map(|c| r * 6 + c).collect())
        .collect();
    let expected: Vec<Vec<i64>> = rows
        .iter()
        .map(|row| row.iter().map(work).collect())
        .collect();
    for threads in 1..9 {
        let pool = uniq_par::pool(threads);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map_chunked(&rows, 1, |row| {
                pool.par_map_chunked(row, 1, |&x| {
                    if x == 29 {
                        panic!("inner failure on {threads} threads");
                    }
                    work(&x)
                })
            })
        }));
        let payload = caught.expect_err("the inner panic must reach the outer caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic payload should be the formatted message");
        assert!(msg.contains("inner failure"), "payload: {msg}");
        let nested = pool.par_map_chunked(&rows, 1, |row| pool.par_map_chunked(row, 1, work));
        assert_eq!(nested, expected);
    }
}
