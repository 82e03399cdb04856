//! The uninstrumented binary: plain system allocator, inert tracer. Every
//! end-to-end number comes from here.

fn main() {
    std::process::exit(pbs_perf::main_with(false));
}
