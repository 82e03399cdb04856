//! Host calibration: two frozen, std-only kernels and the burst bookkeeping
//! that turns wall-clock into *calibrated* time.
//!
//! The sandbox this benchmark runs on is a small shared VM whose effective
//! speed drifts by tens of percent between (and within) runs — SMT siblings,
//! cache pressure from neighbours, frequency changes. A raw ops/s figure
//! therefore says more about the minute it was measured in than about the
//! code. The fix is to measure the host *while* measuring the code: one short
//! burst of a frozen kernel before every timed slice and one after the last.
//! The kernel never changes, so its cost per step is a pure reading of the
//! host; dividing a slice's wall time by `observed ns/step ÷ reference
//! ns/step` gives the time the slice would have taken on the reference host.
//!
//! **Frozen** means: no call into any repo crate, no dependence on anything
//! but `std`, and a pinned checksum per kernel (see the tests). Changing a
//! kernel, a burst length, or a reference constant is a benchmark change and
//! resets every baseline.
//!
//! Two kernels, because a calibration only tracks a phase whose bottleneck it
//! shares — under SMT contention, latency-bound, throughput-bound and
//! memory-bound code slow down by different amounts (sizing runs on WARS: the
//! heap/hash kernel left 18–21% spread; a bare `ln`/`powf` chain 8%; the
//! trial-shaped kernel below 4–6%):
//!
//! * [`Kernel::Mem`] — the profile of the event simulator and the checkers:
//!   a hold model on a binary heap, a hash-map update, one heap allocation
//!   and one `ln` per step.
//! * [`Kernel::Fp`] — the profile of the WARS Monte-Carlo and the predictor:
//!   per step, twelve Pareto/exponential mixture draws by inversion (`powf`
//!   or `ln` behind a data-dependent branch), two three-element sorts, a
//!   histogram increment and a push into a 512-sample buffer that is sorted
//!   when full — one N=3 trial and its sketch record, written against `std`
//!   alone.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Pending entries in the `mem` kernel's hold-model heap.
pub const MEM_HEAP_ENTRIES: usize = 2_048;
/// Distinct keys in the `mem` kernel's hash map (each a boxed 64-byte row).
pub const MEM_MAP_KEYS: u64 = 4_096;
/// Steps per `mem` burst (~1–2 ms).
pub const MEM_BURST_STEPS: u64 = 20_000;
/// Steps per `fp` burst (~1–2 ms).
pub const FP_BURST_STEPS: u64 = 4_000;
/// Bins of the `fp` kernel's threshold histogram.
pub const FP_HIST_BINS: usize = 512;
/// Thresholds the `fp` kernel buffers before sorting them, as a quantile
/// sketch buffers samples before merging them.
pub const FP_BUFFER: usize = 512;
/// Reference cost of one `mem` step (ns) — the host on which calibrated
/// time equals wall time. Frozen.
pub const MEM_REFERENCE_NS_PER_STEP: f64 = 125.0;
/// Reference cost of one `fp` step (ns). Frozen.
pub const FP_REFERENCE_NS_PER_STEP: f64 = 300.0;

#[inline(always)]
fn xorshift64(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Map a PRNG word to the open interval (0, 1).
#[inline(always)]
fn unit(x: u64) -> f64 {
    ((x >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// Which frozen kernel calibrates a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Heap + hash map + allocator + one `ln`: simulator- and checker-like.
    Mem,
    /// Mixture draws (`ln` / `powf`) + tiny sorts + histogram: one
    /// Monte-Carlo trial's worth of arithmetic.
    Fp,
}

impl Kernel {
    /// Steps in one burst of this kernel.
    pub fn burst_steps(self) -> u64 {
        match self {
            Kernel::Mem => MEM_BURST_STEPS,
            Kernel::Fp => FP_BURST_STEPS,
        }
    }

    /// The frozen reference cost per step (ns).
    pub fn reference_ns_per_step(self) -> f64 {
        match self {
            Kernel::Mem => MEM_REFERENCE_NS_PER_STEP,
            Kernel::Fp => FP_REFERENCE_NS_PER_STEP,
        }
    }
}

type FixedState = BuildHasherDefault<DefaultHasher>;

/// State of the `mem` kernel. Persistent across bursts, so every burst after
/// the first runs on a warm heap and a fully populated map.
#[derive(Debug)]
pub struct MemKernel {
    rng: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    map: HashMap<u64, Box<[u64; 8]>, FixedState>,
    acc: u64,
}

impl Default for MemKernel {
    fn default() -> Self {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut heap = BinaryHeap::with_capacity(MEM_HEAP_ENTRIES + 1);
        for id in 0..MEM_HEAP_ENTRIES as u64 {
            heap.push(Reverse((xorshift64(&mut rng) >> 44, id)));
        }
        // A fixed-key hasher: the kernel's work must not depend on the
        // per-process random SipHash keys of `RandomState`.
        let map = HashMap::with_capacity_and_hasher(MEM_MAP_KEYS as usize, FixedState::default());
        Self {
            rng,
            heap,
            map,
            acc: 0,
        }
    }
}

impl MemKernel {
    /// Run `steps` steps: pop the earliest timer, re-arm it an exponential
    /// gap later, fold it into a map row, and round-trip one allocation.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            let x = xorshift64(&mut self.rng);
            let Reverse((at, id)) = self.heap.pop().expect("hold model never drains");
            let gap = (-unit(x).ln() * 4_096.0) as u64 + 1;
            self.heap.push(Reverse((at + gap, id)));
            let row = self
                .map
                .entry(x % MEM_MAP_KEYS)
                .or_insert_with(|| Box::new([0; 8]));
            row[(id & 7) as usize] = row[(id & 7) as usize].wrapping_add(at);
            let scratch = black_box(Box::new([x, at, id, gap]));
            self.acc = self.acc.rotate_left(5) ^ scratch[3] ^ row[(x >> 60) as usize & 7];
        }
    }

    /// Order-independent digest of the whole state — pins the kernel's work.
    pub fn checksum(&self) -> u64 {
        let heap: u64 = self.heap.iter().fold(0u64, |h, Reverse((at, id))| {
            h.wrapping_add(at.wrapping_mul(2 * id + 1))
        });
        let map: u64 = (0..MEM_MAP_KEYS)
            .filter_map(|k| self.map.get(&k).map(|row| (k, row)))
            .fold(0u64, |h, (k, row)| {
                row.iter().fold(h, |h, v| {
                    h.wrapping_mul(0x100_0000_01b3).wrapping_add(v ^ k)
                })
            });
        self.acc ^ heap ^ map
    }
}

/// State of the `fp` kernel: a frozen, std-only copy of what one WARS trial
/// does — it shares no code with `pbs-wars`, only the shape of the work.
#[derive(Debug)]
pub struct FpKernel {
    rng: u64,
    /// Histogram of per-trial staleness thresholds…
    hist: Vec<u32>,
    /// …and the unsorted buffer they pass through first, sorted and folded
    /// every [`FP_BUFFER`] trials: together the stand-in for the quantile
    /// sketch the real Monte-Carlo records into.
    buffer: Vec<f64>,
    sum: f64,
}

impl Default for FpKernel {
    fn default() -> Self {
        Self {
            rng: 0xd1b5_4a32_d192_ed03,
            hist: vec![0; FP_HIST_BINS],
            buffer: Vec::with_capacity(FP_BUFFER),
            sum: 0.0,
        }
    }
}

impl FpKernel {
    /// One latency from a Pareto/exponential mixture by inversion: two PRNG
    /// words, then a `powf` or an `ln`.
    #[inline(always)]
    fn draw(&mut self, pareto_weight: f64, xm: f64, inv_alpha: f64, exp_mean: f64) -> f64 {
        let pick = unit(xorshift64(&mut self.rng));
        let u = unit(xorshift64(&mut self.rng));
        if pick < pareto_weight {
            xm * u.powf(-inv_alpha)
        } else {
            -u.ln() * exp_mean
        }
    }

    /// Run `steps` steps. One step is one N=3, R=W=1 trial: twelve mixture
    /// draws, two three-element sorts, the threshold arithmetic, one
    /// histogram increment, and one push into the sample buffer (sorted and
    /// folded whenever it fills).
    pub fn run(&mut self, steps: u64) {
        let (mut w, mut a, mut r, mut s) = ([0.0f64; 3], [0.0f64; 3], [0.0f64; 3], [0.0f64; 3]);
        let mut wa: Vec<f64> = Vec::with_capacity(3);
        let mut order: Vec<usize> = Vec::with_capacity(3);
        for _ in 0..steps {
            for i in 0..3 {
                w[i] = self.draw(0.38, 1.05, 1.0 / 1.51, 1.0 / 0.183);
                a[i] = self.draw(0.91, 0.235, 0.1, 1.0 / 1.66);
                r[i] = self.draw(0.91, 0.235, 0.1, 1.0 / 1.66);
                s[i] = self.draw(0.91, 0.235, 0.1, 1.0 / 1.66);
            }
            wa.clear();
            wa.extend(w.iter().zip(&a).map(|(w, a)| w + a));
            wa.sort_unstable_by(f64::total_cmp);
            let commit = wa[0];
            order.clear();
            order.extend(0..3);
            order.sort_unstable_by(|&i, &j| (r[i] + s[i]).total_cmp(&(r[j] + s[j])));
            let first = black_box(order[0]);
            let threshold = w[first] - commit - r[first];
            let bin = ((threshold + 16.0) * 8.0).clamp(0.0, (FP_HIST_BINS - 1) as f64) as usize;
            self.hist[bin] += 1;
            self.sum += r[first] + s[first];
            self.buffer.push(threshold);
            if self.buffer.len() == FP_BUFFER {
                self.buffer.sort_unstable_by(f64::total_cmp);
                self.sum += self.buffer[FP_BUFFER / 2];
                self.buffer.clear();
            }
        }
    }

    /// Digest of the PRNG state and the histogram — pins the kernel's work.
    /// The running sum is left out: its last bits follow the platform's
    /// `ln`/`powf`, which are not specified to the ulp.
    pub fn checksum(&self) -> u64 {
        let hist = self.hist.iter().enumerate().fold(0u64, |h, (bin, &count)| {
            h.wrapping_mul(0x100_0000_01b3)
                .wrapping_add(count as u64 ^ bin as u64)
        });
        self.rng ^ hist
    }
}

/// The running state of whichever kernel a run calibrates against.
#[derive(Debug)]
enum KernelState {
    Mem(MemKernel),
    Fp(FpKernel),
}

/// The burst ledger of one run: which kernel, and every burst's cost.
///
/// `burst()` is called before every timed slice and once after the last, so
/// a slice sits between two consecutive entries of the ledger.
#[derive(Debug)]
pub struct Calibrator {
    state: KernelState,
    /// Wall nanoseconds of each burst, in order.
    bursts: Vec<u64>,
}

impl Calibrator {
    /// A calibrator for `kernel`, its state built but cold.
    pub fn new(kernel: Kernel) -> Self {
        let state = match kernel {
            Kernel::Mem => KernelState::Mem(MemKernel::default()),
            Kernel::Fp => KernelState::Fp(FpKernel::default()),
        };
        Self {
            state,
            bursts: Vec::new(),
        }
    }

    fn kernel(&self) -> Kernel {
        match self.state {
            KernelState::Mem(_) => Kernel::Mem,
            KernelState::Fp(_) => Kernel::Fp,
        }
    }

    /// Run bursts without recording them: warms the kernel's own state and
    /// lets the host's clock frequency settle before anything is measured.
    pub fn warm_up(&mut self, bursts: usize) {
        for _ in 0..bursts {
            self.run_kernel();
        }
    }

    fn run_kernel(&mut self) {
        match &mut self.state {
            KernelState::Mem(k) => k.run(MEM_BURST_STEPS),
            KernelState::Fp(k) => k.run(FP_BURST_STEPS),
        }
    }

    /// Run and record one burst; returns its index.
    pub fn burst(&mut self) -> usize {
        let start = Instant::now();
        self.run_kernel();
        self.bursts.push(start.elapsed().as_nanos() as u64);
        self.bursts.len() - 1
    }

    /// Recorded bursts so far.
    pub fn burst_count(&self) -> usize {
        self.bursts.len()
    }

    /// `host_factor` over bursts `first..=last`: (Σ burst time ÷ Σ steps) ÷
    /// reference ns/step — a ratio of sums. 1.0 on the reference host, 2.0
    /// on a host running the kernel at half its speed.
    pub fn host_factor(&self, first: usize, last: usize) -> f64 {
        let window = &self.bursts[first..=last];
        let kernel = self.kernel();
        let steps = window.len() as f64 * kernel.burst_steps() as f64;
        window.iter().sum::<u64>() as f64 / steps / kernel.reference_ns_per_step()
    }

    /// Inter-quartile range of the per-burst cost over its median — how
    /// unsteady the host was during the run.
    pub fn spread(&self) -> f64 {
        let mut sorted = self.bursts.clone();
        sorted.sort_unstable();
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize] as f64;
        (q(0.75) - q(0.25)) / q(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned checksums below ARE the freeze: if one moves, the kernel's
    // work changed and every calibrated number ever recorded is void.

    #[test]
    fn mem_kernel_checksum_is_pinned() {
        let mut k = MemKernel::default();
        k.run(3 * MEM_BURST_STEPS);
        assert_eq!(
            k.checksum(),
            MEM_PINNED,
            "mem kernel drifted: {:#x}",
            k.checksum()
        );
        assert_eq!(k.heap.len(), MEM_HEAP_ENTRIES);
        assert_eq!(
            k.map.len() as u64,
            MEM_MAP_KEYS,
            "3 bursts touch every map key"
        );
    }

    #[test]
    fn fp_kernel_checksum_is_pinned() {
        let mut k = FpKernel::default();
        k.run(3 * FP_BURST_STEPS);
        assert_eq!(
            k.checksum(),
            FP_PINNED,
            "fp kernel drifted: {:#x}",
            k.checksum()
        );
        assert!(
            (k.sum / FP_PINNED_SUM - 1.0).abs() < 1e-9,
            "fp kernel sum drifted: {}",
            k.sum
        );
        assert_eq!(
            k.hist.iter().map(|&c| c as u64).sum::<u64>(),
            3 * FP_BURST_STEPS
        );
        // The thresholds spread over the histogram instead of piling into
        // one clamped edge bin.
        assert!(k.hist.iter().filter(|&&c| c > 0).count() > 50);
    }

    const MEM_PINNED: u64 = 0xd54e_dacd_269a_fc77;
    const FP_PINNED: u64 = 0x2cfc_1c50_7f0f_ec19;
    const FP_PINNED_SUM: f64 = 5_718.575_850_127;

    #[test]
    fn host_factor_is_ratio_of_sums() {
        let mut c = Calibrator::new(Kernel::Fp);
        let unit = (FP_BURST_STEPS as f64 * FP_REFERENCE_NS_PER_STEP) as u64;
        c.bursts = vec![unit, 2 * unit, 6 * unit];
        // Bursts costing 1×, 2× and 6× the reference.
        assert!((c.host_factor(0, 0) - 1.0).abs() < 1e-9);
        assert!((c.host_factor(0, 1) - 1.5).abs() < 1e-9);
        assert!((c.host_factor(0, 2) - 3.0).abs() < 1e-9);
        assert!((c.host_factor(2, 2) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn bursts_are_recorded_in_order_and_warm_up_is_not() {
        for kernel in [Kernel::Mem, Kernel::Fp] {
            let mut c = Calibrator::new(kernel);
            c.warm_up(2);
            assert_eq!(c.burst_count(), 0);
            assert_eq!((c.burst(), c.burst()), (0, 1));
            assert!(c.host_factor(0, 1) > 0.0 && c.spread() >= 0.0);
        }
    }
}
