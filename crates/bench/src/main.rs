//! `elink-bench [--check] [GATE...]`: the one driver over every bench
//! gate (see the `elink_bench` crate docs).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(elink_bench::cli(&args));
}
