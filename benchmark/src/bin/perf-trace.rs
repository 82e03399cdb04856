//! The traced binary: the same workload code as `perf-record`, plus a
//! counting global allocator and in-memory spans. Every per-layer number
//! comes from here; none of its timings are end-to-end metrics.

#[global_allocator]
static COUNTING: pbs_perf::alloc::Counting = pbs_perf::alloc::Counting;

fn main() {
    std::process::exit(pbs_perf::main_with(true));
}
