//! How often the tiled search streams the cost matrix. Step 4 runs on
//! the resident zero lists; an iteration streams (one `step4.sweepinit`
//! plus one `step4.scan[b]` per block) only when the lists cannot decide
//! it, so no scenario streams more than once per Step 4 iteration, and
//! a search with no dual update and no truncated-list miss streams only
//! in its three set-up sweeps. Both prime schedules are checked.

mod tiled;

use hunipu::PrimeMode;
use tiled::executions;

const PRIMES: [PrimeMode; 2] = [PrimeMode::ThreePhase, PrimeMode::Batched];

#[test]
fn the_search_streams_at_most_once_per_iteration() {
    for (s, prime) in tiled::scenarios()
        .iter()
        .flat_map(|s| PRIMES.map(|p| (s, p)))
    {
        let (report, engine) = tiled::solve(s, prime);
        let stats = engine.stats();
        let iterations = executions(stats, "step4.status");
        let sweeps = executions(stats, "step4.sweepinit");
        let blocks = stats
            .per_compute_set
            .iter()
            .filter(|c| c.name.starts_with("step4.scan["))
            .count();
        assert!(blocks > 0, "{}: the sweep streams in blocks", s.name);
        for b in 0..blocks {
            let name = format!("step4.scan[{b}]");
            assert_eq!(executions(stats, &name), sweeps, "{}: {name}", s.name);
        }
        assert!(
            sweeps <= iterations,
            "{}: {sweeps} streamed sweeps in {iterations} Step 4 iterations",
            s.name
        );
        // Step 6's δ is the minimum over a sweep of its own iteration.
        assert!(sweeps >= report.stats.dual_updates, "{}", s.name);
    }
}

/// `diag_dominant(1024, 3, 8)`: at most two zeros per row, so no list of
/// eight overflows, and Step 2 plus priming finish without a dual
/// update. The search must run entirely on the resident lists.
#[test]
fn a_search_without_dual_updates_or_list_misses_streams_nothing() {
    let s = tiled::scenarios()
        .into_iter()
        .find(|s| s.name == "diag-n1024")
        .unwrap();
    for prime in PRIMES {
        streams_nothing(&s, prime);
    }
}

fn streams_nothing(s: &tiled::Scenario, prime: PrimeMode) {
    let (report, engine) = tiled::solve(s, prime);
    let stats = engine.stats();
    assert_eq!(report.stats.dual_updates, 0);
    assert!(executions(stats, "step4.status") > 1, "the search iterates");
    assert_eq!(executions(stats, "step4.sweepinit"), 0);
    // Exchange traffic is the three set-up streams of the matrix plus the
    // resident traffic (cover mirrors, arg-max keys, the column-minimum
    // reduction), which stays below what one more stream would move.
    let stream = (s.matrix.n() * s.matrix.n() * 4) as u64;
    let resident = stats
        .exchange_bytes
        .checked_sub(3 * stream)
        .expect("the set-up streams the matrix three times");
    assert!(
        resident < stream,
        "{resident} bytes beyond the set-up sweeps; one stream is {stream}"
    );
}
