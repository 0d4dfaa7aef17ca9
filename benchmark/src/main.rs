fn main() -> std::process::ExitCode {
    gpufs_benchmark::cli::main(std::env::args().skip(1).collect())
}
