//! Quantile-sketch accuracy against `SortedSamples` ground truth on the
//! four production latency fits (Table 3): LNKD-SSD, LNKD-DISK, YMMR, and
//! WAN (LNKD-DISK legs shifted by the 75 ms one-way penalty).
//!
//! The sketch's contract is *rank* error (∝ 1/compression, tightest at the
//! tails), so each percentile check accepts any value between the
//! ground-truth quantiles a small rank band away — plus a tiny relative
//! slack for interpolation between sorted samples. The contract must hold
//! after merges too (how the `pbs-mc` runner combines shards), so every
//! fit is checked as one stream and as 4 and 64 merged shards.

use pbs_dist::production as fits;
use pbs_dist::stats::SortedSamples;
use pbs_dist::LatencyDistribution;
use pbs_mc::{Mergeable, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TRIALS: usize = 200_000;

/// Shard counts each fit is checked at; each divides `TRIALS`.
const SHARDS: [usize; 3] = [1, 4, 64];

/// Record `TRIALS` draws as `shards` contiguous chunks, each into its own
/// default-compression sketch, merge them in shard order, and assert the
/// sketch percentile sits inside the ground-truth rank band
/// `pct ± band_pct` (widened by 1% relative slack for interpolation).
fn check_fit(name: &str, dist: &dyn LatencyDistribution, seed: u64, shards: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw: Vec<f64> = (0..TRIALS).map(|_| dist.sample(&mut rng)).collect();
    let mut summary = Summary::default();
    for chunk in raw.chunks(TRIALS / shards) {
        let mut shard = Summary::default();
        for &x in chunk {
            shard.record(x);
        }
        summary.merge(shard);
    }
    summary.seal();
    let truth = SortedSamples::new(raw);
    let name = format!("{name} ({shards} shards)");

    assert_eq!(summary.count() as usize, TRIALS);
    assert_eq!(summary.min(), truth.min(), "{name}: exact min");
    assert_eq!(summary.max(), truth.max(), "{name}: exact max");
    assert!(
        (summary.mean() - truth.mean()).abs() < 1e-9 * truth.mean().abs().max(1.0),
        "{name}: exact mean {} vs {}",
        summary.mean(),
        truth.mean()
    );

    // (percentile, allowed rank band in percentage points)
    for &(pct, band) in &[(50.0, 0.5), (99.0, 0.1), (99.9, 0.05)] {
        let approx = summary.percentile(pct);
        let lo = truth.percentile((pct - band).max(0.0));
        let hi = truth.percentile((pct + band).min(100.0));
        let slack = 0.01 * hi.abs().max(1e-3);
        assert!(
            approx >= lo - slack && approx <= hi + slack,
            "{name} p{pct}: sketch {approx} outside ground-truth band [{lo}, {hi}]"
        );
    }

    // CDF agreement at the ground-truth quartiles.
    for &pct in &[25.0, 50.0, 75.0, 95.0] {
        let x = truth.percentile(pct);
        let (a, b) = (summary.cdf(x), truth.ecdf(x));
        assert!((a - b).abs() < 0.01, "{name} cdf({x}): sketch {a} vs exact {b}");
    }
}

/// The WAN one-way "fit": LNKD-DISK base legs plus the fixed 75 ms
/// inter-datacenter penalty of §5.5.
struct WanShifted(Box<dyn LatencyDistribution>);

impl LatencyDistribution for WanShifted {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        fits::WAN_ONE_WAY_DELAY_MS + self.0.sample(rng)
    }
    fn cdf(&self, x: f64) -> f64 {
        self.0.cdf(x - fits::WAN_ONE_WAY_DELAY_MS)
    }
    fn mean(&self) -> f64 {
        fits::WAN_ONE_WAY_DELAY_MS + self.0.mean()
    }
    fn describe(&self) -> String {
        format!("75ms + {}", self.0.describe())
    }
}

#[test]
fn lnkd_ssd_percentiles() {
    for shards in SHARDS {
        check_fit("LNKD-SSD", &fits::lnkd_ssd(), 101, shards);
    }
}

#[test]
fn lnkd_disk_percentiles() {
    // The heavy-tailed write mixture — the adversarial case for p99.9.
    for shards in SHARDS {
        check_fit("LNKD-DISK W", &fits::lnkd_disk_write(), 102, shards);
        check_fit("LNKD-DISK A=R=S", &fits::lnkd_disk_ars(), 103, shards);
    }
}

#[test]
fn ymmr_percentiles() {
    for shards in SHARDS {
        check_fit("YMMR W", &fits::ymmr_write(), 104, shards);
        check_fit("YMMR A=R=S", &fits::ymmr_ars(), 105, shards);
    }
}

#[test]
fn wan_percentiles() {
    for shards in SHARDS {
        check_fit("WAN remote leg", &WanShifted(Box::new(fits::lnkd_disk_write())), 106, shards);
    }
}
