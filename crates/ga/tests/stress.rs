//! Concurrency stress for the Global Arrays substrate: many ranks
//! hammering the same arrays, hashmap shards, and task queues.

use ga::{DistHashMap, GlobalArray, TaskQueue};
use spmd::Runtime;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn concurrent_accumulates_sum_exactly() {
    let rt = Runtime::for_testing();
    let res = rt.run(8, |ctx| {
        let a = GlobalArray::<u64>::create(ctx, 257);
        let mut seed = 11 + ctx.rank() as u64;
        // Each rank performs 200 random-range accumulates of +1.
        let mut expected = vec![0u64; 257];
        for _ in 0..200 {
            let lo = (xorshift(&mut seed) % 200) as usize;
            let len = 1 + (xorshift(&mut seed) % 57) as usize;
            let ones = vec![1u64; len];
            a.acc(ctx, lo, &ones);
            for e in expected.iter_mut().skip(lo).take(len) {
                *e += 1;
            }
        }
        // Global expectation: sum of everyone's local expectations.
        let expected_total = ctx.allreduce(expected, spmd::ReduceOp::Sum);
        ctx.barrier();
        (a.get(ctx, 0..257), expected_total)
    });
    for (got, expected) in res.results {
        assert_eq!(got, expected);
    }
}

#[test]
fn interleaved_read_inc_and_puts_stay_consistent() {
    let rt = Runtime::for_testing();
    let res = rt.run(6, |ctx| {
        let cursors = GlobalArray::<i64>::create(ctx, 32);
        let slots = GlobalArray::<u64>::create(ctx, 32 * 6 * 20);
        // Every rank reserves 20 slots in each of the 32 regions and
        // writes its rank there; regions must end up exactly filled.
        for region in 0..32usize {
            for _ in 0..20 {
                let off = cursors.read_inc(ctx, region, 1);
                slots.put(ctx, region * 120 + off as usize, &[ctx.rank() as u64 + 1]);
            }
        }
        ctx.barrier();
        slots.get(ctx, 0..32 * 120)
    });
    for v in res.results {
        // Every slot written exactly once (no zeros anywhere).
        assert!(v.iter().all(|&x| (1..=6).contains(&x)));
        // Each region holds exactly 20 entries from each rank.
        for region in 0..32 {
            let mut counts = [0usize; 6];
            for &x in &v[region * 120..(region + 1) * 120] {
                counts[(x - 1) as usize] += 1;
            }
            assert!(
                counts.iter().all(|&c| c == 20),
                "region {region}: {counts:?}"
            );
        }
    }
}

#[test]
fn hashmap_sustains_heavy_shared_vocabulary() {
    let rt = Runtime::for_testing();
    let res = rt.run(8, |ctx| {
        let m = DistHashMap::create(ctx);
        let mut ids = Vec::new();
        // All ranks insert the same 2000 terms in different orders.
        let mut seed = 3 + ctx.rank() as u64;
        let mut order: Vec<usize> = (0..2000).collect();
        for i in (1..order.len()).rev() {
            let j = (xorshift(&mut seed) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for t in order {
            ids.push((t, m.insert_or_get(ctx, &format!("term{t}"))));
        }
        ctx.barrier();
        assert_eq!(m.len(), 2000);
        ids.sort_unstable();
        ids
    });
    for r in 1..res.results.len() {
        assert_eq!(res.results[r], res.results[0], "rank {r} saw different ids");
    }
}

#[test]
fn task_queue_exactly_once_under_uneven_loads() {
    let rt = Runtime::for_testing();
    for trial in 0..5u64 {
        let res = rt.run(7, move |ctx| {
            // Wildly uneven ownership, varying by trial.
            let mine = ((ctx.rank() as u64 * 13 + trial * 7) % 40) as usize;
            let q = TaskQueue::create(ctx, mine);
            let mut got = Vec::new();
            while let Some(t) = q.pop(ctx) {
                got.push(q.global_index(t));
            }
            ctx.barrier();
            (q.total(), got)
        });
        let total = res.results[0].0;
        let mut all: Vec<usize> = res
            .results
            .iter()
            .flat_map(|(_, g)| g.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), total, "trial {trial}");
        for (i, &g) in all.iter().enumerate() {
            assert_eq!(i, g, "trial {trial}: task {g} duplicated or missing");
        }
    }
}

#[test]
fn matrix_rows_survive_concurrent_block_writes() {
    let rt = Runtime::for_testing();
    let res = rt.run(5, |ctx| {
        let m = GlobalArray::<u64>::create_rows(ctx, 100, 7);
        // Ranks write disjoint row stripes concurrently (row = owner*20 + i).
        let base = ctx.rank() * 20;
        let mut rows = Vec::new();
        for i in 0..20 {
            let row: Vec<u64> = (0..7).map(|c| (base + i) as u64 * 10 + c).collect();
            rows.extend_from_slice(&row);
        }
        m.put(ctx, base * 7, &rows);
        ctx.barrier();
        m.to_vec_collective(ctx)
    });
    for v in res.results {
        for row in 0..100 {
            for c in 0..7 {
                assert_eq!(v[row * 7 + c], row as u64 * 10 + c as u64);
            }
        }
    }
}

#[test]
fn interleaved_batches_match_scalar_ops_on_shared_destinations() {
    // Every rank alternates acc_batch and put_batch rounds whose spans
    // land in every rank's block (and straddle block boundaries), so the
    // per-destination locks are contended throughout. Accumulates
    // commute; puts go to stripes of 5 elements dealt round-robin to
    // ranks, so no two ranks write one element. The batched arrays must
    // equal the ones built with scalar acc/put.
    const LEN: usize = 1031;
    const STRIPE: usize = 5;
    let rt = Runtime::for_testing();
    let res = rt.run(8, |ctx| {
        let p = ctx.nprocs();
        let acc_batched = GlobalArray::<u64>::create(ctx, LEN);
        let acc_scalar = GlobalArray::<u64>::create(ctx, LEN);
        let put_batched = GlobalArray::<u64>::create(ctx, LEN);
        let put_scalar = GlobalArray::<u64>::create(ctx, LEN);
        let mut seed = 0x51ed + ctx.rank() as u64;
        let my_stripes: Vec<usize> = (0..LEN / STRIPE).filter(|s| s % p == ctx.rank()).collect();
        for round in 0..40u64 {
            let accs: Vec<(usize, Vec<u64>)> = (0..12)
                .map(|_| {
                    let lo = (xorshift(&mut seed) % (LEN as u64 - 300)) as usize;
                    let len = 1 + (xorshift(&mut seed) % 300) as usize;
                    (lo, vec![1 + xorshift(&mut seed) % 9; len])
                })
                .collect();
            acc_batched.acc_batch(ctx, accs.iter().map(|(s, d)| (*s, d.as_slice())));
            for (s, d) in &accs {
                acc_scalar.acc(ctx, *s, d);
            }
            let puts: Vec<(usize, Vec<u64>)> = (0..12)
                .map(|_| {
                    let stripe =
                        my_stripes[(xorshift(&mut seed) % my_stripes.len() as u64) as usize];
                    let off = (xorshift(&mut seed) % STRIPE as u64) as usize;
                    let len = 1 + (xorshift(&mut seed) % (STRIPE - off) as u64) as usize;
                    (
                        stripe * STRIPE + off,
                        vec![round * 100 + ctx.rank() as u64; len],
                    )
                })
                .collect();
            put_batched.put_batch(ctx, puts.iter().map(|(s, d)| (*s, d.as_slice())));
            for (s, d) in &puts {
                put_scalar.put(ctx, *s, d);
            }
        }
        ctx.barrier();
        (
            acc_batched.get(ctx, 0..LEN),
            acc_scalar.get(ctx, 0..LEN),
            put_batched.get(ctx, 0..LEN),
            put_scalar.get(ctx, 0..LEN),
        )
    });
    for (acc_batched, acc_scalar, put_batched, put_scalar) in res.results {
        assert_eq!(acc_batched, acc_scalar);
        assert!(acc_scalar.iter().any(|&v| v > 0));
        assert_eq!(put_batched, put_scalar);
        assert!(put_scalar.iter().any(|&v| v > 0));
    }
}
