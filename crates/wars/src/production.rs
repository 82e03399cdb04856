//! Ready-made WARS models for the paper's four production latency profiles
//! (Table 3) and the synthetic exponential models of §5.2–5.3.

use crate::model::{IidModel, LatencyModel, WanModel};
use pbs_core::ReplicaConfig;
use pbs_dist::production as fits;
use pbs_dist::Exponential;
use std::sync::Arc;

/// LNKD-SSD: LinkedIn Voldemort on SSDs — `W = A = R = S`, all fast and
/// short-tailed.
pub fn lnkd_ssd_model(cfg: ReplicaConfig) -> IidModel {
    let d = Arc::new(fits::lnkd_ssd());
    IidModel::new(cfg, "LNKD-SSD", d.clone(), d.clone(), d.clone(), d)
}

/// LNKD-DISK: LinkedIn Voldemort on 15k RPM disks — heavy-tailed `W`,
/// SSD-like `A = R = S`.
pub fn lnkd_disk_model(cfg: ReplicaConfig) -> IidModel {
    IidModel::w_ars(
        cfg,
        "LNKD-DISK",
        Arc::new(fits::lnkd_disk_write()),
        Arc::new(fits::lnkd_disk_ars()),
    )
}

/// YMMR: Yammer Riak — fsync-bound writes with a seconds-scale exponential
/// tail.
pub fn ymmr_model(cfg: ReplicaConfig) -> IidModel {
    IidModel::w_ars(cfg, "YMMR", Arc::new(fits::ymmr_write()), Arc::new(fits::ymmr_ars()))
}

/// WAN: multi-datacenter replication — one local replica per operation,
/// 75 ms one-way penalty to the rest, LNKD-DISK base latencies (§5.5).
pub fn wan_model(cfg: ReplicaConfig) -> WanModel {
    WanModel::new(
        cfg,
        "WAN",
        Arc::new(fits::lnkd_disk_write()),
        Arc::new(fits::lnkd_disk_ars()),
        Arc::new(fits::lnkd_disk_ars()),
        Arc::new(fits::lnkd_disk_ars()),
        fits::WAN_ONE_WAY_DELAY_MS,
    )
}

/// Synthetic model of §5.2/§5.3: exponential `W` with rate `w_rate` and
/// exponential `A = R = S` with rate `ars_rate`.
pub fn exponential_model(cfg: ReplicaConfig, w_rate: f64, ars_rate: f64) -> IidModel {
    IidModel::w_ars(
        cfg,
        format!("Exp W λ={w_rate}, ARS λ={ars_rate}"),
        Arc::new(Exponential::from_rate(w_rate)),
        Arc::new(Exponential::from_rate(ars_rate)),
    )
}

/// The four named production profiles of §5.4–5.8, for iteration in bench
/// harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductionProfile {
    /// LinkedIn Voldemort, SSD-backed.
    LnkdSsd,
    /// LinkedIn Voldemort, spinning disks.
    LnkdDisk,
    /// Yammer Riak.
    Ymmr,
    /// Multi-datacenter WAN.
    Wan,
}

impl ProductionProfile {
    /// All four profiles in the paper's presentation order.
    pub const ALL: [ProductionProfile; 4] = [
        ProductionProfile::LnkdSsd,
        ProductionProfile::LnkdDisk,
        ProductionProfile::Ymmr,
        ProductionProfile::Wan,
    ];

    /// The paper's name for this profile.
    pub fn name(&self) -> &'static str {
        match self {
            ProductionProfile::LnkdSsd => "LNKD-SSD",
            ProductionProfile::LnkdDisk => "LNKD-DISK",
            ProductionProfile::Ymmr => "YMMR",
            ProductionProfile::Wan => "WAN",
        }
    }

    /// Build the WARS model for a configuration.
    pub fn model(&self, cfg: ReplicaConfig) -> Box<dyn LatencyModel> {
        match self {
            ProductionProfile::LnkdSsd => Box::new(lnkd_ssd_model(cfg)),
            ProductionProfile::LnkdDisk => Box::new(lnkd_disk_model(cfg)),
            ProductionProfile::Ymmr => Box::new(ymmr_model(cfg)),
            ProductionProfile::Wan => Box::new(wan_model(cfg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvisibility::TVisibility;

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    /// §5.6: LNKD-SSD has ≈97.4% immediate consistency and ≥99.999% at 5 ms.
    #[test]
    fn lnkd_ssd_immediate_consistency_matches_paper() {
        let tv = TVisibility::simulate(&lnkd_ssd_model(cfg(3, 1, 1)), 100_000, 42);
        let p0 = tv.prob_consistent(0.0);
        assert!((p0 - 0.974).abs() < 0.02, "paper: 97.4%, got {p0}");
        assert!(tv.prob_consistent(5.0) > 0.9995, "paper: ~five nines at 5ms");
    }

    /// §5.6: LNKD-DISK has only ≈43.9% immediate consistency and ≈92.5% at
    /// 10 ms.
    #[test]
    fn lnkd_disk_immediate_consistency_matches_paper() {
        let tv = TVisibility::simulate(&lnkd_disk_model(cfg(3, 1, 1)), 100_000, 42);
        let p0 = tv.prob_consistent(0.0);
        assert!((p0 - 0.439).abs() < 0.03, "paper: 43.9%, got {p0}");
        let p10 = tv.prob_consistent(10.0);
        assert!((p10 - 0.925).abs() < 0.03, "paper: 92.5%, got {p10}");
    }

    /// Figure 7 (§5.7): with R=W=1 on LNKD-DISK, growing N lowers the
    /// probability of consistency immediately after commit.
    #[test]
    fn more_replicas_lower_immediate_consistency() {
        let p0: Vec<f64> = [2, 3, 5, 10]
            .iter()
            .map(|&n| {
                let model = lnkd_disk_model(cfg(n, 1, 1));
                TVisibility::simulate_parallel(&model, 30_000, 5, 2).prob_consistent(0.0)
            })
            .collect();
        for w in p0.windows(2) {
            assert!(w[1] < w[0] + 0.02, "immediate consistency should fall with N: {p0:?}");
        }
    }

    /// §5.6: YMMR has ≈89.3% immediate consistency; its heavy tail delays
    /// 99.9% consistency to ≈1.4 s.
    #[test]
    fn ymmr_matches_paper() {
        let tv = TVisibility::simulate(&ymmr_model(cfg(3, 1, 1)), 200_000, 42);
        let p0 = tv.prob_consistent(0.0);
        assert!((p0 - 0.893).abs() < 0.03, "paper: 89.3%, got {p0}");
        let t999 = tv.t_at_probability(0.999);
        assert!(
            (500.0..2500.0).contains(&t999),
            "paper: 1364ms for 99.9%, got {t999}"
        );
    }

    /// §5.6: WAN has ≈33% immediate consistency (reads co-located with the
    /// write's datacenter), recovering after ≈75 ms.
    #[test]
    fn wan_matches_paper() {
        let tv = TVisibility::simulate(&wan_model(cfg(3, 1, 1)), 100_000, 42);
        let p0 = tv.prob_consistent(0.0);
        assert!((p0 - 0.33).abs() < 0.05, "paper: ~33%, got {p0}");
        // After the 75ms one-way penalty has elapsed, consistency recovers
        // rapidly.
        assert!(tv.prob_consistent(95.0) > 0.9);
    }

    /// §5.6: LNKD-SSD operation latency — "median .489 ms" combined
    /// read/write, p99.9 ≈ .657 ms for R=W=1.
    #[test]
    fn lnkd_ssd_operation_latencies_match_paper() {
        let tv = TVisibility::simulate(&lnkd_ssd_model(cfg(3, 1, 1)), 200_000, 7);
        let med_r = tv.read_latency_percentile(50.0);
        let med_w = tv.write_latency_percentile(50.0);
        assert!((med_r - 0.489).abs() < 0.05, "read median {med_r}");
        assert!((med_w - 0.489).abs() < 0.05, "write median {med_w}");
        let p999 = tv.write_latency_percentile(99.9);
        assert!((p999 - 0.657).abs() < 0.1, "p99.9 {p999}");
    }

    /// §5.6: LNKD-DISK W=1 write operation latency — median 1.50 ms,
    /// p99.9 ≈ 10.47 ms.
    #[test]
    fn lnkd_disk_operation_latencies_match_paper() {
        let tv = TVisibility::simulate(&lnkd_disk_model(cfg(3, 1, 1)), 200_000, 7);
        let med = tv.write_latency_percentile(50.0);
        assert!((med - 1.5).abs() < 0.2, "write median {med}");
        let p999 = tv.write_latency_percentile(99.9);
        assert!((p999 - 10.47).abs() < 1.5, "write p99.9 {p999}");
    }

    #[test]
    fn all_profiles_build_and_run() {
        for p in ProductionProfile::ALL {
            let tv = TVisibility::simulate(p.model(cfg(3, 2, 1)).as_ref(), 2_000, 1);
            assert!(tv.prob_consistent(10_000.0) > 0.99, "{}", p.name());
        }
    }
}
