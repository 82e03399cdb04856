//! What more than one of the reference tests needs.

use pbs::dist::Pareto;
use pbs::kvs::{ClientOptions, Cluster, ClusterOptions, FaultProfile, NetworkModel, OpHistory};
use pbs::math::ReplicaConfig;
use pbs::sim::SimTime;
use pbs::workload::{OpMix, OpStream, Poisson, UniformKeys};
use std::sync::Arc;

/// One history of the benchmark's `storm_audit` shape: 8 nodes at N=3
/// R=W=1 on Pareto legs under `FaultProfile::storm` with one crash, 64
/// clients × 31.25 ops/s over 256 keys, half writes, 10 s, then settled.
pub fn storm_history(seed: u64) -> OpHistory {
    let mut opts = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), seed);
    opts.nodes = 8;
    opts.op_timeout_ms = 2_000.0;
    opts.read_repair = true;
    opts.hinted_handoff = true;
    let net = NetworkModel::w_ars(Arc::new(Pareto::new(1.5, 1.2)), Arc::new(Pareto::new(0.8, 2.0)));
    let mut cluster = Cluster::new(opts, net);
    cluster.enable_history();
    cluster.network().set_fault_profile(FaultProfile::storm(seed)).unwrap();
    cluster.crash_node_at((seed % 8) as usize, SimTime::from_ms(4_000.0), 1_500.0);
    for _ in 0..64 {
        cluster.add_client(
            Box::new(OpStream::new(
                Poisson::per_second(31.25),
                UniformKeys::new(256),
                OpMix::new(0.5),
                1,
            )),
            ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
        );
    }
    cluster.start_clients();
    cluster.drain_window(SimTime::from_ms(10_000.0));
    cluster.stop_clients();
    cluster.drain_window(SimTime::from_ms(12_500.0));
    cluster.take_history()
}
