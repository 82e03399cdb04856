//! `TVisibility::simulate_grid` against the loop it replaced.
//!
//! The reference below is the per-configuration simulation as it stood
//! before the grid: one `pbs_mc::Runner` run per `(N, R, W)`, each trial
//! sampled, evaluated by `run_trial` and recorded into three summaries of
//! its own. The grid samples one stream per `N` and reads every `(R, W)`
//! off it; every summary must come out `==` — the same values recorded in
//! the same order into sketches with the same compress cadence, merged in
//! the same shard order.

use pbs::math::ReplicaConfig;
use pbs::mc::{Mergeable, Runner, Summary};
use pbs::wars::model::WithReadDelay;
use pbs::wars::production::{lnkd_disk_model, wan_model};
use pbs::wars::trial::{run_trial, TrialScratch};
use pbs::wars::{LatencyModel, TVisibility, WarsSample};

const TRIALS: usize = 3_000;
const SEED: u64 = 0x5eed;

type Factory = dyn Fn(ReplicaConfig) -> Box<dyn LatencyModel>;

#[derive(Default)]
struct Reference {
    thresholds: Summary,
    read: Summary,
    write: Summary,
    consistent_at_zero: u64,
}

impl Mergeable for Reference {
    fn merge(&mut self, other: Self) {
        self.thresholds.merge(other.thresholds);
        self.read.merge(other.read);
        self.write.merge(other.write);
        self.consistent_at_zero += other.consistent_at_zero;
    }
}

/// One configuration simulated on its own.
fn reference(model: &dyn LatencyModel, threads: usize) -> Reference {
    let cfg = model.config();
    Runner::new(TRIALS, SEED, threads).run(|rng, info| {
        let mut acc = Reference::default();
        let mut sample = WarsSample::default();
        let mut scratch = TrialScratch::default();
        for _ in 0..info.trials {
            model.sample_trial(rng, &mut sample);
            let res = run_trial(cfg, &sample, &mut scratch);
            acc.thresholds.record(res.staleness_threshold);
            acc.read.record(res.read_latency);
            acc.write.record(res.write_latency);
            if res.staleness_threshold <= 0.0 {
                acc.consistent_at_zero += 1;
            }
        }
        acc.thresholds.seal();
        acc.read.seal();
        acc.write.seal();
        acc
    })
}

/// Every `(R, W)` of `n`, both ways, under `threads` shards.
fn check(name: &str, factory: &Factory, n: u32, threads: usize) {
    let cfgs: Vec<ReplicaConfig> = ReplicaConfig::all_for_n(n).collect();
    let pairs: Vec<(u32, u32)> = cfgs.iter().map(|c| (c.r(), c.w())).collect();
    assert_eq!(pairs.len(), (n * n) as usize);
    // The grid's model carries the *last* (R, W): its own pair is not consulted.
    let grid_model = factory(*cfgs.last().unwrap());
    let grid = TVisibility::simulate_grid(grid_model.as_ref(), &pairs, TRIALS, SEED, threads);
    assert_eq!(grid.len(), pairs.len());

    for (tv, &cfg) in grid.iter().zip(&cfgs) {
        let at = format!("{name} {cfg} threads={threads}");
        let want = reference(factory(cfg).as_ref(), threads);
        assert_eq!(tv.config(), cfg, "{at}");
        assert_eq!(tv.trials(), TRIALS, "{at}");
        assert_eq!(tv.thresholds(), &want.thresholds, "{at}: thresholds");
        assert_eq!(tv.read_latencies(), &want.read, "{at}: read latencies");
        assert_eq!(tv.write_latencies(), &want.write, "{at}: write latencies");
        assert_eq!(
            tv.prob_consistent(0.0).to_bits(),
            (want.consistent_at_zero as f64 / TRIALS as f64).to_bits(),
            "{at}: exact P(consistent at t = 0)"
        );
        // The one-pair entry point is the same kernel.
        let single = TVisibility::simulate_parallel(factory(cfg).as_ref(), TRIALS, SEED, threads);
        assert_eq!(single.thresholds(), tv.thresholds(), "{at}: simulate_parallel");
        assert_eq!(single.read_latencies(), tv.read_latencies(), "{at}: simulate_parallel");
        assert_eq!(single.write_latencies(), tv.write_latencies(), "{at}: simulate_parallel");
    }
}

fn check_all(name: &str, factory: &Factory) {
    for n in [3, 5] {
        for threads in [1, 3] {
            check(name, factory, n, threads);
        }
    }
}

#[test]
fn iid_grid_equals_per_config_simulation() {
    check_all("LNKD-DISK", &|cfg| Box::new(lnkd_disk_model(cfg)));
}

#[test]
fn wan_grid_equals_per_config_simulation() {
    check_all("WAN", &|cfg| Box::new(wan_model(cfg)));
}

#[test]
fn read_delay_grid_equals_per_config_simulation() {
    check_all("LNKD-DISK + 2.5 ms", &|cfg| Box::new(WithReadDelay::new(lnkd_disk_model(cfg), 2.5)));
}

/// Pairs may repeat, skip values and come in any order; results follow them.
#[test]
fn results_follow_the_pairs_given() {
    let model = lnkd_disk_model(ReplicaConfig::new(5, 1, 1).unwrap());
    let pairs = [(4, 2), (1, 5), (4, 2), (2, 2)];
    let grid = TVisibility::simulate_grid(&model, &pairs, TRIALS, SEED, 2);
    for (tv, (r, w)) in grid.iter().zip(pairs) {
        let cfg = ReplicaConfig::new(5, r, w).unwrap();
        let want = reference(&lnkd_disk_model(cfg), 2);
        assert_eq!(tv.config(), cfg);
        assert_eq!(tv.thresholds(), &want.thresholds, "{cfg}");
        assert_eq!(tv.read_latencies(), &want.read, "{cfg}");
        assert_eq!(tv.write_latencies(), &want.write, "{cfg}");
    }
    assert!(TVisibility::simulate_grid(&model, &[], TRIALS, SEED, 2).is_empty());
}

#[test]
#[should_panic(expected = "valid (R, W) for the model's N")]
fn out_of_range_pair_panics() {
    let model = lnkd_disk_model(ReplicaConfig::new(3, 1, 1).unwrap());
    let _ = TVisibility::simulate_grid(&model, &[(1, 1), (4, 1)], 10, 1, 1);
}
