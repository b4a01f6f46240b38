//! `owql-lint` — lint NS–SPARQL pattern files from the command line.
//!
//! ```text
//! owql-lint [--deny error|warn|info|never] [--format text|json] FILE...
//! ```
//!
//! Each file holds one pattern (leading/trailing whitespace ignored;
//! multi-line patterns are fine — diagnostics report line:column).
//! Exit status: 2 on I/O or parse errors, 1 if any diagnostic reaches
//! the `--deny` threshold (default `error`), 0 otherwise.

use owql_lint::{analyze_source, Severity};
use owql_obs::json;
use owql_parser::line_col;
use std::process::ExitCode;

enum Deny {
    Never,
    AtLeast(Severity),
}

enum Format {
    Text,
    Json,
}

fn usage() -> &'static str {
    "usage: owql-lint [--deny error|warn|info|never] [--format text|json] FILE..."
}

/// `?x, ?y` — the binding-lattice footer rendering.
fn join_vars(vars: &std::collections::BTreeSet<owql_algebra::Variable>) -> String {
    let rendered: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
    rendered.join(", ")
}

fn main() -> ExitCode {
    let mut deny = Deny::AtLeast(Severity::Error);
    let mut format = Format::Text;
    let mut files = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => {
                let value = match args.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("owql-lint: --deny requires a value\n{}", usage());
                        return ExitCode::from(2);
                    }
                };
                deny = if value == "never" {
                    Deny::Never
                } else {
                    match value.parse::<Severity>() {
                        Ok(s) => Deny::AtLeast(s),
                        Err(e) => {
                            eprintln!("owql-lint: {e}\n{}", usage());
                            return ExitCode::from(2);
                        }
                    }
                };
            }
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "owql-lint: --format expects text or json, got {:?}\n{}",
                        other,
                        usage()
                    );
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with("--") => {
                eprintln!("owql-lint: unknown flag {arg}\n{}", usage());
                return ExitCode::from(2);
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("owql-lint: no input files\n{}", usage());
        return ExitCode::from(2);
    }

    let mut denied = false;
    let mut failed = false;
    let mut json_entries = Vec::new();

    for file in &files {
        let raw = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("owql-lint: {file}: {e}");
                failed = true;
                continue;
            }
        };
        // Diagnostics carry offsets into the untrimmed file contents,
        // so line:column stay honest for multi-line inputs.
        let leading = raw.len() - raw.trim_start().len();
        let input = raw.trim();
        let analysis = match analyze_source(input) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("owql-lint: {file}: {e}");
                failed = true;
                continue;
            }
        };

        match format {
            Format::Text => {
                for d in &analysis.diagnostics {
                    let (line, column) = line_col(&raw, d.span.start + leading);
                    println!(
                        "{file}:{line}:{column}: {}[{}] {}",
                        d.severity, d.rule, d.message
                    );
                }
                println!(
                    "{file}: {} -> {} (well-designed: {})",
                    analysis.fragment, analysis.complexity, analysis.well_designed
                );
                println!(
                    "{file}: binds certainly {{{}}} possibly {{{}}}",
                    join_vars(&analysis.bindings.certain),
                    join_vars(&analysis.bindings.possible)
                );
            }
            Format::Json => {
                // The shared analysis object, led by the file name.
                let analysis_json = analysis.to_json(input);
                let body = analysis_json.strip_prefix('{').unwrap_or(&analysis_json);
                json_entries.push(format!("{{\"file\": {}, {body}", json::string(file)));
            }
        }

        if let Deny::AtLeast(threshold) = deny {
            if analysis
                .worst_severity()
                .is_some_and(|worst| worst >= threshold)
            {
                denied = true;
            }
        }
    }

    if let Format::Json = format {
        println!("[{}]", json_entries.join(", "));
    }

    if failed {
        ExitCode::from(2)
    } else if denied {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
