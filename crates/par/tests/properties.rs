//! Property tests for the uniq-par pool: parallel map must be
//! indistinguishable from sequential map for any input length, chunk
//! size, and thread count, and a panicking worker must not poison the
//! pool.

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

/// A caller helping to run queued jobs while it waits on its own scope
/// may pick up a job from another thread's scope. That job must not
/// record into the helper's sink: a single-lane pool has no workers, so
/// the helper deterministically runs the foreign job queued ahead of its
/// own.
#[test]
fn helped_foreign_job_stays_out_of_the_helpers_sink() {
    use std::sync::mpsc;
    use std::sync::Arc;
    use uniq_obs::names::{SERVE_REQUESTS, SPAN_STORE_PUT};
    use uniq_obs::sink::MemorySink;

    let pool = Arc::new(uniq_par::ThreadPool::new(1));
    let (queued_tx, queued_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let foreign = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            pool.scope(|s| {
                s.spawn(|| {
                    let _span = uniq_obs::span(SPAN_STORE_PUT);
                    uniq_obs::counter(SERVE_REQUESTS, 1);
                });
                queued_tx.send(()).unwrap();
                // Hold the scope open until the helper has drained it.
                done_rx.recv().unwrap();
            });
        })
    };
    queued_rx.recv().unwrap();
    let sink = Arc::new(MemorySink::new());
    uniq_obs::with_sink(sink.clone(), || {
        let _span = uniq_obs::span(uniq_obs::names::SPAN_FUSION);
        pool.scope(|s| s.spawn(|| {}));
    });
    done_tx.send(()).unwrap();
    foreign.join().unwrap();
    assert_eq!(
        sink.counter_total(SERVE_REQUESTS),
        0,
        "foreign counter leaked"
    );
    let leaked_span = sink
        .events()
        .iter()
        .any(|e| matches!(e, uniq_obs::Event::SpanStart { name, .. } if *name == SPAN_STORE_PUT));
    assert!(!leaked_span, "foreign span leaked into the helper's sink");
}
