//! Priced micro-loops: the per-layer costs no workload span can isolate.
//!
//! They run in the traced binary only, after the workload, each inside its
//! own span, and call nothing but public functions of the layer they price.
//! Their readings are raw nanoseconds (the host's, not calibrated): they
//! exist to *explain* an end-to-end number — `events × hold_ns ÷ drain time`
//! is the scheduler's share of a window — never to gate one.
//!
//! Every probe is workload-independent, so all four traced runs report all
//! of them; only `sim.queue.hold_ns` looks at the run (it sizes its queue to
//! the run's own peak).

use crate::harness::Harness;
use crate::workloads::storm_audit;
use pbs_core::ReplicaConfig;
use pbs_dist::{production as fits, Empirical, Exponential, LatencyDistribution, Pareto};
use pbs_kvs::network::Leg;
use pbs_kvs::staleness::GroundTruth;
use pbs_kvs::{Cluster, EngineKind, FaultProfile, NetworkModel, WindowDrain};
use pbs_mc::QuantileSketch;
use pbs_scenario::{run_scenario, Scenario};
use pbs_sim::{Actor, Context, Event, EventQueue, SimTime, Simulation, WheelQueue};
use pbs_wars::{production, TVisibility};
use pbs_workload::{
    OpMix, OpSource, OpStream, Poisson, SharedOpSource, SharedStream, UniformKeys, Zipf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Iterations of each nanosecond-scale loop.
const LOOP: u32 = 400_000;

/// Time `iters` calls of `f`; returns ns per call.
fn ns_per(iters: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `WheelQueue` hold model at `size` pending events: pop the earliest,
/// schedule a successor an exponential gap later — one push + one pop.
fn queue_hold_ns(size: usize, iters: u32) -> f64 {
    let mut rng = StdRng::seed_from_u64(1);
    let gap = Exponential::from_mean(5.0);
    let mut q: WheelQueue<u64> = WheelQueue::new();
    let mut lane = 0u64;
    for _ in 0..size.max(1) {
        lane += 1;
        q.schedule(SimTime::from_ms(gap.sample(&mut rng)), lane, lane);
    }
    ns_per(iters, || {
        let (at, item) = q.pop().expect("hold model never drains");
        lane += 1;
        q.schedule(
            SimTime::from_ms(at.as_ms() + gap.sample(&mut rng)),
            lane,
            black_box(item),
        );
    })
}

/// A no-op actor that bounces every message back to its peer.
struct Bouncer {
    peer: usize,
}

impl Actor for Bouncer {
    type Msg = u32;
    fn on_event(&mut self, ctx: &mut Context<'_, u32>, event: Event<u32>) {
        if let Event::Message { msg, .. } = event {
            ctx.send(self.peer, 1.0, msg.wrapping_add(1));
        }
    }
}

/// Cost of one dispatched event on the serial engine with handlers that do
/// nothing: queue + context + dynamic dispatch, no protocol work.
fn engine_dispatch_ns(events: u32) -> f64 {
    let mut sim: Simulation<Bouncer> = Simulation::new();
    let a = sim.add_actor(Bouncer { peer: 1 });
    sim.add_actor(Bouncer { peer: 0 });
    sim.inject(a, 0.0, 0);
    let start = Instant::now();
    sim.run_until(SimTime::from_ms(events as f64));
    start.elapsed().as_nanos() as f64 / sim.events_processed().max(1) as f64
}

fn sample_ns(d: &dyn LatencyDistribution) -> f64 {
    let mut rng = StdRng::seed_from_u64(2);
    ns_per(LOOP, || {
        black_box(d.sample(&mut rng));
    })
}

fn transmit_ns(net: &NetworkModel, buggified: bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(3);
    let legs = [Leg::W, Leg::A, Leg::R, Leg::S];
    let mut i = 0usize;
    ns_per(LOOP, || {
        i += 1;
        let (leg, from, to) = (legs[i & 3], i % 8, (i + 3) % 8);
        if buggified {
            black_box(net.transmit_buggified(leg, from, to, i as f64, &mut rng));
        } else {
            black_box(net.transmit(leg, from, to, &mut rng));
        }
    })
}

/// `GroundTruth` fed the shape of an open-loop window: 1,000 commits and
/// 1,000 reads over 256 keys per 100 ms, watermark advanced per window, GC
/// on. Returns ns per operation (commit ingested or read labelled).
fn ingest_label_ns(windows: u32) -> f64 {
    const PER_WINDOW: u64 = 1_000;
    let mut rng = StdRng::seed_from_u64(4);
    let mut gt = GroundTruth::new();
    gt.enable_gc(2_000.0);
    let mut seq = vec![0u64; 256];
    let start = Instant::now();
    for w in 0..windows as u64 {
        let base_ms = 100.0 * w as f64;
        for i in 0..PER_WINDOW {
            let key = rng.gen_range(0..256u64);
            seq[key as usize] += 1;
            let at = base_ms + 100.0 * (i as f64 + 0.5) / PER_WINDOW as f64;
            gt.ingest_commit(key, seq[key as usize], SimTime::from_ms(at));
        }
        gt.advance_watermark(SimTime::from_ms(base_ms + 100.0));
        for i in 0..PER_WINDOW {
            let key = rng.gen_range(0..256u64);
            let at = base_ms + 100.0 * (i as f64 + 0.25) / PER_WINDOW as f64;
            let returned = seq[key as usize].saturating_sub(rng.gen_range(0..2u64));
            black_box(gt.label_read(key, SimTime::from_ms(at), Some(returned)));
        }
    }
    start.elapsed().as_nanos() as f64 / (windows as u64 * 2 * PER_WINDOW) as f64
}

/// Result of running the storm shape, faults off, on one engine.
struct EngineRun {
    seconds: f64,
    cluster: Cluster,
}

/// `storm_audit`'s network and clients without the storm: 2.5 simulated
/// seconds on `kind`, timed around the drains only.
fn storm_shape_on(kind: EngineKind, seed: u64) -> Result<EngineRun, String> {
    let mut cluster = Cluster::with_engine(
        storm_audit::cluster_options(seed),
        storm_audit::network(),
        kind,
    )
    .map_err(|e| format!("{kind:?}: {e}"))?;
    storm_audit::add_clients(&mut cluster);
    cluster.start_clients();
    let mut drain = WindowDrain::default();
    let start = Instant::now();
    for w in 1..=5 {
        cluster.drain_window_into(SimTime::from_ms(500.0 * w as f64), &mut drain);
    }
    Ok(EngineRun {
        seconds: start.elapsed().as_secs_f64(),
        cluster,
    })
}

/// Serial vs `Parallel{1}` vs `Parallel{2}` on the same shape, alternated
/// so that host drift hits all three alike. Ratios are parallel ÷ serial
/// time: below 1 means the parallel engine is faster.
fn pdes_probe(h: &mut Harness) -> Result<(), String> {
    const REPS: u64 = 3;
    let (mut serial, mut w1, mut w2) = (0.0, 0.0, 0.0);
    let mut last_w2 = None;
    for rep in 0..REPS {
        let seed = h.seed().wrapping_add(rep);
        serial += storm_shape_on(EngineKind::Serial, seed)?.seconds;
        w1 += storm_shape_on(EngineKind::Parallel { workers: 1 }, seed)?.seconds;
        let run = storm_shape_on(EngineKind::Parallel { workers: 2 }, seed)?;
        w2 += run.seconds;
        last_w2 = Some(run.cluster);
    }
    h.set_layer("sim.pdes.w1_ratio", w1 / serial);
    h.set_layer("sim.pdes.w2_ratio", w2 / serial);
    let stats = last_w2
        .and_then(|c| c.pdes_stats())
        .ok_or("a parallel cluster must report PDES stats")?;
    let sent: u64 = stats.workers.iter().map(|w| w.sent_remote).sum();
    h.set_layer("sim.pdes.windows", stats.windows() as f64);
    h.set_layer("sim.pdes.sent_remote", sent as f64);
    h.set_layer(
        "sim.pdes.events_per_window",
        stats.total_events() as f64 / stats.windows().max(1) as f64,
    );
    Ok(())
}

/// Run every probe and record its reading.
pub fn run_all(h: &mut Harness) -> Result<(), String> {
    let seed = h.seed();
    let root = h.tr.begin("probes");

    // pbs-sim
    let peak = h
        .layer("sim.queue.peak_pending")
        .filter(|&p| p >= 1.0)
        .unwrap_or(1_024.0);
    let v =
        h.tr.span("probe.sim.queue", || queue_hold_ns(peak as usize, LOOP));
    h.set_layer("sim.queue.hold_ns", v);
    let v = h.tr.span("probe.sim.engine", || engine_dispatch_ns(LOOP));
    h.set_layer("sim.engine.dispatch_ns", v);
    let open = h.tr.begin("probe.sim.pdes");
    let pdes = pdes_probe(h);
    h.tr.end(open);
    pdes?;

    // pbs-dist
    let empirical = {
        let mut rng = StdRng::seed_from_u64(seed);
        let disk = fits::lnkd_disk_write();
        Empirical::from_samples((0..1_000).map(|_| disk.sample(&mut rng)).collect())
    };
    for (name, d) in [
        (
            "dist.exp_sample_ns",
            &Exponential::from_rate(0.1) as &dyn LatencyDistribution,
        ),
        ("dist.pareto_sample_ns", &Pareto::new(1.5, 1.2)),
        ("dist.lnkd_disk_sample_ns", &fits::lnkd_disk_write()),
        ("dist.empirical_sample_ns", &empirical),
    ] {
        let v = h.tr.span("probe.dist", || sample_ns(d));
        h.set_layer(name, v);
    }

    // pbs-mc
    let (record, quantile) = h.tr.span("probe.mc.sketch", || {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sketch = QuantileSketch::new(200.0);
        let record = ns_per(LOOP, || sketch.record(rng.gen::<f64>()));
        sketch.seal();
        let mut q = 0.0f64;
        let quantile = ns_per(LOOP / 8, || {
            q = (q + 0.137) % 1.0;
            black_box(sketch.quantile(q));
        });
        (record, quantile)
    });
    h.set_layer("mc.sketch_record_ns", record);
    h.set_layer("mc.sketch_quantile_ns", quantile);
    let speedup = h.tr.span("probe.mc.runner", || {
        let cfg = ReplicaConfig::new(3, 1, 1).expect("valid config");
        let model = production::lnkd_disk_model(cfg);
        let (mut one, mut two) = (0.0, 0.0);
        for rep in 0..3 {
            let start = Instant::now();
            black_box(TVisibility::simulate(
                &model,
                100_000,
                seed.wrapping_add(rep),
            ));
            one += start.elapsed().as_secs_f64();
            let start = Instant::now();
            black_box(TVisibility::simulate_parallel(
                &model,
                100_000,
                seed.wrapping_add(rep),
                2,
            ));
            two += start.elapsed().as_secs_f64();
        }
        one / two
    });
    h.set_layer("mc.runner_2t_speedup", speedup);

    // pbs-workload
    let (boxed, shared) = h.tr.span("probe.workload", || {
        let mut rng = StdRng::seed_from_u64(6);
        let arrivals = Poisson::per_second(78.125);
        let mut stream: Box<dyn OpSource> = Box::new(OpStream::new(
            arrivals,
            UniformKeys::new(64),
            OpMix::linkedin(),
            1,
        ));
        let boxed = ns_per(LOOP, || {
            black_box(stream.next_op(&mut rng));
        });
        let source: Arc<dyn SharedOpSource> = Arc::new(SharedStream::new(
            Poisson::per_second(1.0),
            Zipf::new(1_000_000, 0.99),
            OpMix::linkedin(),
        ));
        let mut now_ms = 0.0;
        let shared = ns_per(LOOP, || {
            now_ms = black_box(source.next_op_after(now_ms, &mut rng)).at_ms;
        });
        (boxed, shared)
    });
    h.set_layer("workload.opstream_next_ns", boxed);
    h.set_layer("workload.shared_zipf_next_ns", shared);

    // pbs-kvs
    let (clean, storm) = h.tr.span("probe.kvs.network", || {
        let net = storm_audit::network();
        let clean = transmit_ns(&net, false);
        net.set_fault_profile(FaultProfile::storm(seed))
            .expect("the storm preset is valid");
        (clean, transmit_ns(&net, true))
    });
    h.set_layer("kvs.network.transmit_ns", clean);
    h.set_layer("kvs.network.transmit_storm_ns", storm);
    let v = h.tr.span("probe.kvs.staleness", || ingest_label_ns(200));
    h.set_layer("kvs.staleness.ingest_label_ns", v);

    // pbs-scenario: kvs + predictor together, the §6 loop end to end
    let open = h.tr.begin("probe.scenario");
    let scenario = Scenario::latency_spike(seed);
    let start = Instant::now();
    let run = run_scenario(&scenario, seed);
    h.set_layer("scenario.latency_spike_s", start.elapsed().as_secs_f64());
    h.tr.end(open);
    let track_err = run
        .stationary_tracking_error(&scenario)
        .ok_or("latency-spike produced no stationary window with both series")?;
    h.set_layer("scenario.track_err", track_err);

    h.tr.end(root);
    Ok(())
}
