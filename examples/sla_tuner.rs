//! SLA tuner — §6's "Latency/Staleness SLAs" and "Variable configurations":
//! automatically choose `(N, R, W)` under staleness + durability
//! constraints, then react to latency drift with the adaptive controller.
//!
//! ```text
//! cargo run --release --example sla_tuner
//! ```

use pbs::dist::{Exponential, LatencyDistribution};
use pbs::predictor::adaptive::AdaptiveController;
use pbs::predictor::sla::{optimize, SlaSpec};
use pbs::wars::production::ProductionProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let trials = 50_000;
    // Monte-Carlo shards per search: results repeat per `(seed, threads)`
    // pair, so the example prints the same digits on every host.
    let threads = 2;

    // ---- One-shot optimization against production profiles -----------------
    println!("SLA: ≥99.9% consistent reads within 15 ms, minimum W=1, N=3\n");
    let spec = SlaSpec::consistency(0.999, 15.0);
    for profile in ProductionProfile::ALL {
        let report = optimize(&|cfg| profile.model(cfg), &[3], &spec, trials, 1, threads);
        match report.best_config() {
            Some(best) => println!(
                "  {:<10} → {}  (Lr+Lw p99.9 = {:.2} ms, P(consistent@15ms) = {:.3}%)",
                profile.name(),
                best.cfg,
                best.combined_latency(),
                best.consistency * 100.0
            ),
            None => println!("  {:<10} → no configuration meets the SLA", profile.name()),
        }
    }
    println!("\n→ fast SSDs let R=W=1 qualify; heavy write tails force read or");
    println!("  write quorum growth — the knob the paper urges operators to reason about.");

    // ---- Durability floor ---------------------------------------------------
    println!("\nSame SLA plus durability floor W ≥ 2 (LNKD-DISK), N ∈ {{3, 5}}:");
    let mut durable = SlaSpec::consistency(0.999, 15.0);
    durable.min_write_quorum = 2;
    for n in [3u32, 5] {
        let disk = |cfg| ProductionProfile::LnkdDisk.model(cfg);
        let report = optimize(&disk, &[n], &durable, trials, 2, threads);
        match report.best_config() {
            Some(best) => println!(
                "  N={n} → {}  (Lr+Lw p99.9 = {:.2} ms)",
                best.cfg,
                best.combined_latency()
            ),
            None => println!("  N={n} → no configuration meets the SLA"),
        }
    }

    // ---- Adaptive reconfiguration under drift ------------------------------
    println!("\nAdaptive controller: watch one-way latencies, refit, re-optimize.");
    let sla = SlaSpec::consistency(0.99, 5.0);
    let mut controller =
        AdaptiveController::new(sla, vec![3], 5_000, 20_000, 3).with_threads(threads);
    let mut rng = StdRng::seed_from_u64(4);
    let ars = Exponential::from_mean(0.5);

    for (phase, write_mean) in [("healthy disks (mean W = 2 ms)", 2.0), ("degraded disks (mean W = 25 ms)", 25.0)] {
        let w = Exponential::from_mean(write_mean);
        for _ in 0..5_000 {
            controller.observe(
                w.sample(&mut rng),
                ars.sample(&mut rng),
                ars.sample(&mut rng),
                ars.sample(&mut rng),
            );
        }
        let report = controller.reoptimize().expect("window was just filled");
        match report.best_config() {
            Some(best) => println!(
                "  {phase:<32} → {}  ({} window samples)",
                best.cfg,
                controller.window_len()
            ),
            None => println!("  {phase:<32} → SLA unsatisfiable; alert the operator"),
        }
    }
    println!("\n→ §6's 'variable configurations': the same SLA maps to different");
    println!("  replication settings as the latency distributions drift.");
}
