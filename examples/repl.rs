//! An interactive NS–SPARQL shell.
//!
//! ```text
//! cargo run --example repl [graph-file.nt]
//! ```
//!
//! Without an argument, the paper's Figure 1 ∪ Figure 3 data is
//! loaded. Commands:
//!
//! ```text
//! <pattern>              evaluate a graph pattern (paper syntax)
//! CONSTRUCT {...} WHERE  evaluate a CONSTRUCT query
//! :load <file>           replace the graph with an N-Triples file
//! :add <s> <p> <o>       insert a triple
//! :stats                 graph statistics
//! :audit <pattern>       classify + bounded monotonicity checks
//! :explain <pattern>     show the engine's query plan
//! :quit                  exit
//! ```

use owql::lint::classify;
use owql::prelude::*;
use owql::rdf::{ntriples, stats::GraphStats};
use owql::theory::checks::{monotone, subsumption_free, weakly_monotone, CheckOptions};
use std::io::{self, BufRead, Write};

fn default_graph() -> Graph {
    owql::rdf::datasets::figure_1().union(&owql::rdf::datasets::figure_3())
}

fn load(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ntriples::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn audit(text: &str) {
    let Ok(p) = parse_pattern(text) else {
        println!("parse error in pattern");
        return;
    };
    let opts = CheckOptions {
        universe_size: 7,
        random_graphs: 10,
        random_graph_size: 10,
        ..CheckOptions::default()
    };
    println!("language: {}", classify(&p));
    let verdict = |holds: bool| if holds { "holds (bounded)" } else { "REFUTED" };
    println!(
        "monotone:          {}",
        verdict(monotone(&p, &opts).holds())
    );
    println!(
        "weakly monotone:   {}",
        verdict(weakly_monotone(&p, &opts).holds())
    );
    println!(
        "subsumption-free:  {}",
        verdict(subsumption_free(&p, &opts).holds())
    );
}

fn handle(line: &str, graph: &mut Graph) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return true;
    }
    if line == ":quit" || line == ":q" {
        return false;
    }
    if let Some(path) = line.strip_prefix(":load ") {
        match load(path.trim()) {
            Ok(g) => {
                println!("loaded {} triples", g.len());
                *graph = g;
            }
            Err(e) => println!("{e}"),
        }
        return true;
    }
    if let Some(rest) = line.strip_prefix(":add ") {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        if parts.len() == 3 {
            graph.insert(Triple::new(parts[0], parts[1], parts[2]));
            println!("ok ({} triples)", graph.len());
        } else {
            println!("usage: :add <s> <p> <o>");
        }
        return true;
    }
    if line == ":stats" {
        print!("{}", GraphStats::of(graph));
        return true;
    }
    if let Some(p) = line.strip_prefix(":audit ") {
        audit(p);
        return true;
    }
    if let Some(text) = line.strip_prefix(":explain ") {
        match parse_pattern(text) {
            Ok(p) => match Engine::new(graph).explain(&p) {
                Ok(plan) => print!("{plan}"),
                Err(e) => println!("{e}"),
            },
            Err(e) => println!("{e}"),
        }
        return true;
    }
    if line.starts_with("CONSTRUCT") || line.starts_with("(CONSTRUCT") {
        match parse_construct(line) {
            Ok(q) => {
                let out = construct(&q, graph);
                print!("{}", ntriples::write(&out));
                println!("-- {} triples", out.len());
            }
            Err(e) => println!("{e}"),
        }
        return true;
    }
    match parse_pattern(line) {
        Ok(p) => {
            let answers = Engine::new(graph)
                .run(&p, &ExecOpts::seq().optimized(), &Pool::sequential())
                .expect("unlimited budget cannot time out")
                .mappings;
            for m in answers.iter_sorted() {
                println!("{m}");
            }
            println!("-- {} answers", answers.len());
        }
        Err(e) => println!("{e}"),
    }
    true
}

fn main() {
    let mut graph = match std::env::args().nth(1) {
        Some(path) => load(&path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1)
        }),
        None => default_graph(),
    };
    println!(
        "owql shell — {} triples loaded. Type a pattern, :stats, :audit <p>, :explain <p>, or :quit.",
        graph.len()
    );
    let stdin = io::stdin();
    loop {
        print!("owql> ");
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !handle(&line, &mut graph) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    println!("bye");
}
