//! Golden fingerprints of the tiled program: for every shared tiled
//! scenario, the assignment, the f32 bits of both dual vectors and the
//! search's step counters, under the paper's single-row prime and under
//! the default batched prime. Any change to how the tiled search finds
//! its zeros must leave all of them bit-identical.

mod tiled;

use hunipu::PrimeMode;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn dual_bits(xs: &[f64]) -> impl Iterator<Item = u8> + '_ {
    xs.iter().flat_map(|&x| (x as f32).to_bits().to_le_bytes())
}

/// `name step4=… aug=… dual=… assign=… u=… v=…`: counters in clear, the
/// assignment and the dual bits as digests.
fn fingerprint(s: &tiled::Scenario, prime: PrimeMode) -> String {
    let (report, engine) = tiled::solve(s, prime);
    let pairs = report
        .assignment
        .pairs()
        .flat_map(|(i, j)| [(i as u32).to_le_bytes(), (j as u32).to_le_bytes()])
        .flatten();
    format!(
        "{} step4={} aug={} dual={} assign={:016x} u={:016x} v={:016x}",
        s.name,
        tiled::executions(engine.stats(), "step4.status"),
        report.stats.augmentations,
        report.stats.dual_updates,
        fnv1a(pairs),
        fnv1a(dual_bits(&report.certificate.u)),
        fnv1a(dual_bits(&report.certificate.v)),
    )
}

/// [`PrimeMode::ThreePhase`]: one prime per Step 4 iteration.
const GOLDEN: &[&str] = &[
    "ties23-n16 step4=24 aug=4 dual=6 assign=f4045581ee85a745 u=7e684983cc8c105b v=7ab3851e57c8798b",
    "ties23-n48 step4=7 aug=1 dual=2 assign=0346931a9bedf645 u=be3b7cc503c272f5 v=2091d85d9cc78135",
    "ties23-n96 step4=90 aug=3 dual=6 assign=5bbf5e148e2bc9a5 u=0eef5be36a85de25 v=e3fc09cf33a96aa5",
    "uniform-n64 step4=146 aug=16 dual=3 assign=2204ef9a12144c05 u=d2cce54efb6f2ee8 v=d8ecb80c1dcdec35",
    "diag-n1024 step4=9 aug=1 dual=0 assign=297f2a643d7e8fcd u=552b519dd836c325 v=b93a0c83ce3b6325",
];

/// [`PrimeMode::Batched`]: every ready row primed per iteration.
const BATCHED_GOLDEN: &[&str] = &[
    "ties23-n16 step4=16 aug=4 dual=6 assign=f4045581ee85a745 u=7e684983cc8c105b v=7ab3851e57c8798b",
    "ties23-n48 step4=5 aug=1 dual=2 assign=0346931a9bedf645 u=be3b7cc503c272f5 v=2091d85d9cc78135",
    "ties23-n96 step4=15 aug=3 dual=6 assign=5bbf5e148e2bc9a5 u=0eef5be36a85de25 v=e3fc09cf33a96aa5",
    "uniform-n64 step4=49 aug=16 dual=3 assign=ee34ee21cb24cf25 u=d2cce54efb6f2ee8 v=d8ecb80c1dcdec35",
    "diag-n1024 step4=9 aug=1 dual=0 assign=297f2a643d7e8fcd u=552b519dd836c325 v=b93a0c83ce3b6325",
];

fn fingerprints(prime: PrimeMode) -> Vec<String> {
    let got: Vec<String> = tiled::scenarios()
        .iter()
        .map(|s| fingerprint(s, prime))
        .collect();
    for line in &got {
        println!("{line}");
    }
    got
}

#[test]
fn tiled_solves_match_their_golden_fingerprints() {
    assert_eq!(fingerprints(PrimeMode::ThreePhase), GOLDEN);
}

#[test]
fn batched_tiled_solves_match_their_golden_fingerprints() {
    assert_eq!(fingerprints(PrimeMode::Batched), BATCHED_GOLDEN);
}
