//! The `cqc` binary: a thin wrapper around [`cqc_cli::run`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = cqc_cli::run(&argv);
    match &result {
        Ok(output) => print!("{output}"),
        // Only a malformed command line gets the usage text; any other
        // error is the one line that explains it.
        Err(err @ cqc_cli::CliError::Usage(_)) => {
            eprintln!("error: {err}");
            eprintln!();
            eprintln!("{}", cqc_cli::USAGE);
        }
        Err(err) => eprintln!("error: {err}"),
    }
    std::process::exit(cqc_cli::exit_code(&result));
}
