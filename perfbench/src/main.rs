fn main() -> std::process::ExitCode {
    lkp_perfbench::cli::main()
}
