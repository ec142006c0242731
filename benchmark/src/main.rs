//! The `qem-benchmark` command; see the library for what it does.

fn main() -> std::process::ExitCode {
    qem_benchmark::main()
}
