//! `perfbench --workload <solo|corun|predict|fleet> --seed <n> --seconds <s> --trace <0|1>`

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::main_with(&args));
}
