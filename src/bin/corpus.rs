//! `halotis-corpus` — runs the standard benchmark corpus and emits the
//! machine-readable statistics and timing documents the CI gates consume.
//!
//! ```text
//! halotis-corpus [--out CORPUS_stats.json] [--timing PATH] [--threads N]
//!                [--repeats N] [--deterministic] [--list] [--check GOLDEN]
//!                [--power-report N] [--export DIR] [--import PATH]
//!                [--format net|verilog]
//! ```
//!
//! * `--out PATH` — write the statistics JSON.  Stats are only written when
//!   this flag is given explicitly: an implicit default of
//!   `CORPUS_stats.json` once let a plain `--timing` capture run silently
//!   clobber the committed golden with wall-clock values,
//! * `--timing PATH` — write a criterion-style timing capture that
//!   `scripts/bench_to_json.py` can convert to JSON,
//! * `--threads N` — worker threads for the batch runner (default: all),
//! * `--repeats N` — timing samples per entry (default 3 when `--timing`
//!   is given, else 1 — repeats only matter for timing),
//! * `--deterministic` — strip wall-clock fields so the output is bit-exact
//!   reproducible (the mode the committed golden uses),
//! * `--list` — print the corpus entries and scenario counts, run nothing,
//! * `--check GOLDEN` — run, strip timing and compare against `GOLDEN`
//!   with [`golden::check`]: exit non-zero unless the rendering is
//!   byte-identical, printing every differing field by path,
//! * `--power-report N` — print the `N` most energetic nets of the whole
//!   corpus run (energy summed per net across every scenario; ordering is
//!   deterministic, ties break on entry and net names),
//! * `--export DIR` — write every corpus circuit to `DIR` in the chosen
//!   interchange format (`<entry>.net` or `<entry>.v`), run nothing else,
//! * `--import PATH` — parse one netlist file, compile it against the
//!   default library and print its vital signs (gates, nets, depth, STA
//!   critical path) — the smoke test for externally produced netlists,
//! * `--format net|verilog` — interchange format for `--export`/`--import`
//!   (default: `net`, or inferred from the `--import` file extension;
//!   see `FORMATS.md`).

use std::env;
use std::fs;
use std::process::ExitCode;

use halotis::corpus::{golden, standard_corpus, CorpusRunner};
use halotis::netlist::{parser, technology, verilog, writer, Netlist};
use halotis::sim::{sta, CompiledCircuit};

const USAGE: &str = "usage: halotis-corpus [--out PATH] [--timing PATH] [--threads N] \
                     [--repeats N] [--deterministic] [--list] [--check GOLDEN] \
                     [--power-report N] [--export DIR] [--import PATH] \
                     [--format net|verilog]";

/// The two interchange formats of `FORMATS.md`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Net,
    Verilog,
}

impl Format {
    fn parse(value: &str) -> Result<Format, String> {
        match value {
            "net" => Ok(Format::Net),
            "verilog" => Ok(Format::Verilog),
            other => Err(format!("unknown format {other} (expected net or verilog)")),
        }
    }

    fn from_extension(path: &str) -> Option<Format> {
        let extension = path.rsplit('.').next()?;
        match extension {
            "net" => Some(Format::Net),
            "v" | "sv" => Some(Format::Verilog),
            _ => None,
        }
    }

    fn extension(self) -> &'static str {
        match self {
            Format::Net => "net",
            Format::Verilog => "v",
        }
    }

    fn emit(self, netlist: &Netlist) -> String {
        match self {
            Format::Net => writer::to_text(netlist),
            Format::Verilog => verilog::to_verilog(netlist),
        }
    }

    fn parse_text(self, text: &str) -> Result<Netlist, String> {
        match self {
            Format::Net => parser::parse(text).map_err(|err| err.to_string()),
            Format::Verilog => verilog::parse_verilog(text).map_err(|err| err.to_string()),
        }
    }
}

struct Options {
    out: Option<String>,
    timing: Option<String>,
    threads: usize,
    repeats: Option<usize>,
    deterministic: bool,
    list: bool,
    check: Option<String>,
    power_report: Option<usize>,
    export: Option<String>,
    import: Option<String>,
    format: Option<Format>,
}

impl Options {
    /// Timing samples per entry: an explicit `--repeats` wins; otherwise 3
    /// when a timing capture is wanted, 1 for a pure statistics/check run
    /// (the extra repeats would only produce discarded timing samples).
    fn repeats(&self) -> usize {
        self.repeats
            .unwrap_or(if self.timing.is_some() { 3 } else { 1 })
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        out: None,
        timing: None,
        threads: 0,
        repeats: None,
        deterministic: false,
        list: false,
        check: None,
        power_report: None,
        export: None,
        import: None,
        format: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--out" => options.out = Some(value_of("--out")?),
            "--timing" => options.timing = Some(value_of("--timing")?),
            "--threads" => {
                options.threads = value_of("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?
            }
            "--repeats" => {
                options.repeats = Some(
                    value_of("--repeats")?
                        .parse()
                        .map_err(|_| "--repeats needs an integer".to_string())?,
                )
            }
            "--deterministic" => options.deterministic = true,
            "--list" => options.list = true,
            "--check" => options.check = Some(value_of("--check")?),
            "--power-report" => {
                options.power_report = Some(
                    value_of("--power-report")?
                        .parse()
                        .map_err(|_| "--power-report needs an integer".to_string())?,
                )
            }
            "--export" => options.export = Some(value_of("--export")?),
            "--import" => options.import = Some(value_of("--import")?),
            "--format" => options.format = Some(Format::parse(&value_of("--format")?)?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option: {other}")),
        }
    }
    Ok(options)
}

/// `--import`: parse, compile and profile one external netlist — the
/// entry check for files produced by other tools (and the hook
/// `scripts/check_doc_snippets.py` uses to validate documentation
/// examples against the real parsers).
fn import_netlist(path: &str, format: Format) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let netlist = match format.parse_text(&text) {
        Ok(netlist) => netlist,
        Err(message) => {
            eprintln!("{path}: {message}");
            return ExitCode::FAILURE;
        }
    };
    // Canonical re-emission must reconstruct the parsed netlist exactly —
    // the round-trip identity FORMATS.md promises, checked on every import.
    match format.parse_text(&format.emit(&netlist)) {
        Ok(round_tripped) if round_tripped == netlist => {}
        Ok(_) => {
            eprintln!("{path}: round trip is not the identity (emission bug)");
            return ExitCode::FAILURE;
        }
        Err(message) => {
            eprintln!("{path}: canonical re-emission fails to parse: {message}");
            return ExitCode::FAILURE;
        }
    }
    let library = technology::cmos06();
    let circuit = match CompiledCircuit::compile(&netlist, &library) {
        Ok(circuit) => circuit,
        Err(error) => {
            eprintln!("{path}: compiles against no library cell: {error}");
            return ExitCode::FAILURE;
        }
    };
    let report = sta::analyze(&circuit, library.default_input_slew());
    println!(
        "{}: {} gates, {} nets, {} inputs, {} outputs, depth {}",
        netlist.name(),
        netlist.gate_count(),
        netlist.net_count(),
        netlist.primary_inputs().len(),
        netlist.primary_outputs().len(),
        circuit.levels().depth(),
    );
    println!(
        "round trip: identity ok; sta critical path {} arcs, {:.1} ps to {}",
        report.critical_path().len(),
        report.worst_arrival().as_ps(),
        netlist.net(report.worst_net()).name(),
    );
    ExitCode::SUCCESS
}

/// `--export DIR`: write every corpus circuit in the chosen format, ready
/// to feed external tools (or to re-import as a parser stress test).
fn export_corpus(corpus: &[halotis::corpus::CorpusEntry], dir: &str, format: Format) -> ExitCode {
    if let Err(error) = fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {error}");
        return ExitCode::FAILURE;
    }
    let mut written = 0usize;
    for entry in corpus {
        let path = format!("{dir}/{}.{}", entry.name, format.extension());
        if let Err(error) = fs::write(&path, format.emit(&entry.netlist)) {
            eprintln!("cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
        written += 1;
    }
    println!(
        "exported {written} circuits to {dir}/*.{}",
        format.extension()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &options.import {
        let format = options
            .format
            .or_else(|| Format::from_extension(path))
            .unwrap_or(Format::Net);
        return import_netlist(path, format);
    }

    let corpus = standard_corpus();

    if let Some(dir) = &options.export {
        return export_corpus(&corpus, dir, options.format.unwrap_or(Format::Net));
    }

    if options.list {
        let library = technology::cmos06();
        println!("{} corpus entries:", corpus.len());
        let mut total = 0usize;
        for entry in &corpus {
            let scenarios = entry.scenarios(&library).len();
            total += scenarios;
            println!(
                "  {:<14} {:<28} suite {:<9} {:>3} scenarios ({} gates, {} nets)",
                entry.name,
                entry.netlist.name(),
                entry.suite.label(),
                scenarios,
                entry.netlist.gate_count(),
                entry.netlist.net_count(),
            );
        }
        println!("{total} scenarios total (DDM, CDM and MIX model columns)");
        return ExitCode::SUCCESS;
    }

    let runner = CorpusRunner::new()
        .with_threads(options.threads)
        .with_repeats(options.repeats());
    let report = match runner.run(&corpus) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("corpus run failed: {error}");
            return ExitCode::FAILURE;
        }
    };

    // The hotspot table goes to stdout only — it is derived, rank-ordered
    // material and must never land in the golden-gated statistics document.
    if let Some(count) = options.power_report {
        let top = report.top_hotspots(count);
        let corpus_total: f64 = report.hotspots.iter().map(|h| h.energy_joules).sum();
        println!(
            "top {} energy hotspots ({} switching nets corpus-wide):",
            top.len(),
            report.hotspots.len()
        );
        println!("  rank  entry           net                   cap_fF  transitions      energy_J  share");
        for (rank, hotspot) in top.iter().enumerate() {
            let share = if corpus_total > 0.0 {
                hotspot.energy_joules / corpus_total * 100.0
            } else {
                0.0
            };
            println!(
                "  {:>4}  {:<14}  {:<20} {:>7.2} {:>12} {:>13.4e} {:>5.1}%",
                rank + 1,
                hotspot.entry,
                hotspot.net,
                hotspot.capacitance.as_femtofarads(),
                hotspot.transitions,
                hotspot.energy_joules,
                share,
            );
        }
    }

    // The timing capture is written whenever requested — also in --check
    // mode, where the statistics document itself never lands on disk.
    if let Some(timing_path) = &options.timing {
        let mut capture = String::new();
        for timing in &report.timings {
            capture.push_str(&timing.criterion_line());
            capture.push('\n');
        }
        if let Err(error) = fs::write(timing_path, &capture) {
            eprintln!("cannot write {timing_path}: {error}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {timing_path} ({} entries × {} repeats)",
            report.timings.len(),
            runner.repeats()
        );
    }

    let mut stats = report.stats;
    if let Some(golden_path) = &options.check {
        let golden = match fs::read_to_string(golden_path) {
            Ok(golden) => golden,
            Err(error) => {
                eprintln!("cannot read golden {golden_path}: {error}");
                return ExitCode::FAILURE;
            }
        };
        let scenarios = stats.scenario_count();
        return match golden::check(&golden, stats) {
            Ok(()) => {
                println!("corpus golden OK: {scenarios} scenarios match {golden_path} bit-exactly");
                ExitCode::SUCCESS
            }
            Err(mismatch) => {
                eprintln!("corpus golden MISMATCH against {golden_path}:\n{mismatch}");
                eprintln!("regenerate with: halotis-corpus --deterministic --out {golden_path}");
                ExitCode::FAILURE
            }
        };
    }
    if options.deterministic {
        stats.strip_timing();
    }
    let json = stats.to_json();

    // Stats land on disk only when the caller asked for them by path; a
    // timing-only invocation must never touch the committed golden.
    if let Some(out) = &options.out {
        if let Err(error) = fs::write(out, &json) {
            eprintln!("cannot write {out}: {error}");
            return ExitCode::FAILURE;
        }
        let totals = stats.totals();
        println!(
            "wrote {out} ({} entries, {} scenarios; {} events, {} glitches, {:.3e} J{})",
            stats.entries.len(),
            stats.scenario_count(),
            totals.events_processed,
            stats.total_glitches(),
            stats.total_energy_joules(),
            if options.deterministic {
                ", deterministic"
            } else {
                ""
            }
        );
    } else if options.timing.is_none() && options.power_report.is_none() {
        eprintln!(
            "nothing to do: pass --out, --timing, --check, --power-report or --list\n{USAGE}"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
