//! The repo benchmark.  One command per workload prints every metric by
//! name with its unit and checks the outputs; `README.md` next to this
//! package has the glossary, [`contract`] the lists `../BENCHMARK.json` is
//! made from.
//!
//! ```text
//! qem-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//!               [--passes N] [--scale S]
//! qem-benchmark --repeat-check [--seed N] [--seconds S]
//! qem-benchmark --contract
//! ```
//!
//! Every layer is measured from outside, by timing calls into the crates'
//! public functions from this package's own files.

pub mod alloc;
pub mod contract;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use alloc::Counts;
use contract::{END_TO_END, RUN_SECONDS, WORKLOADS};
use stats::Summary;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{
    CensusScan, CensusStream, CloudFleet, NetbenchMix, Params, StoreRead, StoreWrite, Workload,
};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Timed repetitions of set-up, spread over the run; `setup_s` is the
/// fastest.
const SETUP_REPETITIONS: usize = 8;
/// Untraced passes of a traced run, the base of the tracing overhead.
const TRACE_BASELINE_PASSES: usize = 5;

/// A named value with its unit.
pub type Metric = (String, f64, &'static str);

struct Args {
    workload: Option<String>,
    repeat_check: bool,
    contract: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// A fixed number of timed passes (and probe repetitions) instead of
    /// `seconds`; the smoke test's override.
    passes: Option<usize>,
    /// Every workload's universe scale; the smoke test's override.
    scale: Option<f64>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
        let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
    }
    let mut args = Args {
        workload: None,
        repeat_check: false,
        contract: false,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        passes: None,
        scale: None,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, argv.next())?),
            "--seed" => args.seed = value(&flag, argv.next())?,
            "--seconds" => args.seconds = value(&flag, argv.next())?,
            "--passes" => args.passes = Some(value(&flag, argv.next())?),
            "--scale" => args.scale = Some(value(&flag, argv.next())?),
            "--repeat-check" => args.repeat_check = true,
            "--contract" => args.contract = true,
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = argv
                    .next_if(|next| next == "0" || next == "1")
                    .is_none_or(|digit| digit == "1")
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if args.scale.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
        return Err("--scale must be positive".to_string());
    }
    if args.passes == Some(0) {
        return Err("--passes must be at least 1".to_string());
    }
    Ok(args)
}

/// Span files and store directories live under the package's `out/`,
/// inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn params(args: &Args) -> Params {
    Params {
        seed: args.seed,
        scale: args.scale,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch: out_dir().join(format!("tmp-{}", std::process::id())),
    }
}

/// What one run of one workload produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    digest: u64,
}

/// Passes attempted and failed so far.  A failed pass is reported and
/// counted, and the run goes on.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, checked: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(message) = &checked {
            self.failed += 1;
            println!("  pass {} FAILED: {message}", self.attempted);
        }
        checked.is_ok()
    }

    /// Run one pass under a `pass` span, read what it allocated (zeros
    /// unless counting is on), then check it.  The time is the library's
    /// alone, and `None` if the pass failed.
    fn pass<W: Workload>(
        &mut self,
        workload: &mut W,
        tracer: &mut Tracer,
    ) -> (Option<Duration>, Counts) {
        alloc::begin_pass();
        let started = Instant::now();
        let output = tracer.span("pass", |t| workload.run(t));
        let elapsed = started.elapsed();
        let counts = alloc::counts();
        let passed = self.record(output.and_then(|output| workload.check(output)));
        (passed.then_some(elapsed), counts)
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn print_summary(summary: &Summary) {
    let tail = summary.tail.map_or(String::new(), |(label, v)| {
        format!("  pass_ms_{label} {v:.3}")
    });
    println!(
        "  passes {}  pass_ms_min {:.3}  pass_ms_p25 {:.3}  pass_ms_p50 {:.3}  pass_ms_p75 {:.3}{tail}  \
         noise_ratio {:.3}{}",
        summary.n,
        summary.min,
        summary.p25,
        summary.p50,
        summary.p75,
        summary.noise_ratio,
        if summary.noisy() { "  noisy" } else { "" }
    );
}

/// An untraced run: the end-to-end metrics.
fn measure<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let params = params(args);
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();

    // The counted pass: set up with counting on, so that the resident
    // inputs are part of the live bytes; a first pass fixes the reference
    // outputs; the second is the one whose allocations are reported.
    alloc::enable();
    let mut workload = W::setup(&params, &mut tracer)?;
    tally.pass(&mut workload, &mut tracer);
    let (_, counts) = tally.pass(&mut workload, &mut tracer);
    alloc::disable();

    // The timed phase, counting off, in slices: each begins with one timed
    // repetition of set-up (its result dropped) and goes on with timed
    // passes.  Spreading the repetitions over the run keeps a slow phase of
    // the machine from holding all of them.
    let mut setup_s = Vec::new();
    let mut pass_ms = Vec::new();
    let phase = Instant::now();
    let mut attempts = 0;
    let slices = args
        .passes
        .map_or(SETUP_REPETITIONS, |n| n.min(SETUP_REPETITIONS));
    for slice in 1..=slices {
        let started = Instant::now();
        let fresh = W::setup(&params, &mut tracer)?;
        setup_s.push(started.elapsed().as_secs_f64());
        drop(fresh);
        // At least one pass a slice, however long set-up took.
        let share = slice as f64 / slices as f64;
        loop {
            attempts += 1;
            if let (Some(elapsed), _) = tally.pass(&mut workload, &mut tracer) {
                pass_ms.push(ms(elapsed));
            }
            if match args.passes {
                Some(passes) => attempts as f64 >= passes as f64 * share,
                None => phase.elapsed().as_secs_f64() >= args.seconds * share,
            } {
                break;
            }
        }
    }
    if pass_ms.is_empty() {
        return Err(format!("{}: no timed pass succeeded", W::NAME));
    }

    let units = workload.units() as f64;
    let summary = Summary::of(&pass_ms);
    let digest = workload.output_digest().unwrap_or(0);
    println!(
        "  {} {} per pass  output_digest {digest:016x}",
        workload.units(),
        W::UNIT
    );
    let repetitions: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  setup_s repetitions {}", repetitions.join(" "));
    print_summary(&summary);
    // Every repetition does the same work, so the fastest one estimates
    // what the work costs; the slower ones measure the machine.
    let values = [
        Summary::of(&setup_s).min,
        units / (summary.min / 1e3),
        counts.allocs as f64 / units,
        counts.bytes as f64 / 1e3 / units,
        counts.peak_live as f64 / 1e6,
    ];
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, ..), value)| (name.to_string(), value, unit))
            .collect(),
        attempted: tally.attempted,
        failed: tally.failed,
        digest,
    })
}

/// A traced run: one pass under spans with counting on, the span file, the
/// self-time table and the per-layer probes.
fn traced<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let params = params(args);
    let mut tracer = Tracer::new(true);
    let mut tally = Tally::default();

    // Counting is on under the spans, so that each records what was
    // allocated inside it, and off for the untraced passes in between.
    alloc::enable();
    let mut workload = tracer.span("setup", |t| W::setup(&params, t))?;
    alloc::disable();
    tracer.set_enabled(false);
    let baseline: Vec<f64> = (0..args.passes.unwrap_or(TRACE_BASELINE_PASSES))
        .filter_map(|_| tally.pass(&mut workload, &mut tracer).0)
        .map(ms)
        .collect();
    tracer.set_enabled(true);
    tracer.next_pass();
    alloc::enable();
    let (traced_pass, _) = tally.pass(&mut workload, &mut tracer);
    alloc::disable();

    let path = out_dir().join(format!("trace-{}.json", W::NAME));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tracer.to_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "  {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    println!(
        "  {:>4} {:<44} {:>5} {:>12} {:>12} {:>12}",
        "pass", "span", "count", "total_ms", "self_ms", "self_allocs"
    );
    for row in tracer.self_times() {
        println!(
            "  {:>4} {:<44} {:>5} {:>12.3} {:>12.3} {:>12}",
            row.pass,
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.self_allocs
        );
    }
    if let (Some(traced_pass), false) = (traced_pass, baseline.is_empty()) {
        let min = Summary::of(&baseline).min;
        println!(
            "  traced pass {:.3} ms, pass_ms_min {min:.3} of {} untraced passes: \
             tracing overhead (spans and counting) {:+.3} ms",
            ms(traced_pass),
            baseline.len(),
            ms(traced_pass) - min
        );
    }
    let digest = workload.output_digest().unwrap_or(0);
    println!(
        "  {} {} per pass  output_digest {digest:016x}",
        workload.units(),
        W::UNIT
    );
    drop(workload);

    Ok(Outcome {
        metrics: probes::run(&params, args.passes.unwrap_or(probes::REPETITIONS))?,
        attempted: tally.attempted,
        failed: tally.failed,
        digest,
    })
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    fn one<W: Workload>(args: &Args) -> Result<Outcome, String> {
        if args.trace {
            traced::<W>(args)
        } else {
            measure::<W>(args)
        }
    }
    println!(
        "workload {name}  seed {}  {}",
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let outcome = match name {
        CensusScan::NAME => one::<CensusScan>(args),
        CloudFleet::NAME => one::<CloudFleet>(args),
        CensusStream::NAME => one::<CensusStream>(args),
        StoreWrite::NAME => one::<StoreWrite>(args),
        StoreRead::NAME => one::<StoreRead>(args),
        NetbenchMix::NAME => one::<NetbenchMix>(args),
        other => Err(format!("unknown workload {other:?}")),
    };
    // Whatever the store workloads left behind goes with the run.
    let _ = std::fs::remove_dir_all(params(args).scratch);
    outcome
}

fn print_outcome(outcome: &Outcome) {
    println!(
        "  passes attempted {}  failed {}  failed_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

/// Run every workload twice, the second time in reverse order, and report
/// disagreement if a pass failed, an output digest moved, or an end-to-end
/// metric differs between the sets by more than its bound.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let names = WORKLOADS.map(|(name, _)| name);
    let mut sets = Vec::new();
    for reverse in [false, true] {
        let mut set = Vec::new();
        for index in 0..names.len() {
            let index = if reverse {
                names.len() - 1 - index
            } else {
                index
            };
            set.push((index, run_workload(names[index], args)?));
        }
        set.sort_by_key(|&(index, _)| index);
        sets.push(set);
    }
    let mut agree = true;
    for (name, ((_, first), (_, second))) in names.iter().zip(sets[0].iter().zip(&sets[1])) {
        println!("{name}");
        let mut verdicts = Vec::new();
        if first.failed + second.failed > 0 {
            verdicts.push(format!(
                "{} and {} passes failed",
                first.failed, second.failed
            ));
        }
        if first.digest != second.digest {
            verdicts.push("output_digest moved".to_string());
        }
        for ((a, b), &(metric, unit, _, bound)) in
            first.metrics.iter().zip(&second.metrics).zip(&END_TO_END)
        {
            let differ = (a.1 - b.1).abs() / a.1.min(b.1);
            println!(
                "  {metric:<20} {:>16.4} {:>16.4} {unit:<8} differ by {:.2} % (bound {} %)",
                a.1,
                b.1,
                differ * 100.0,
                bound * 100.0
            );
            if differ > bound {
                verdicts.push(format!("{metric} differs by more than its bound"));
            }
        }
        for verdict in &verdicts {
            println!("  DISAGREE: {verdict}");
        }
        agree &= verdicts.is_empty();
    }
    println!(
        "repeat-check: the two sets {}",
        if agree { "agree" } else { "DISAGREE" }
    );
    Ok(agree)
}

/// The command line; the process exit code.
pub fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| {
        if args.contract {
            print!("{}", contract::to_json());
            return Ok(true);
        }
        println!(
            "nproc {}  calib_ns {}",
            params(&args).nproc,
            stats::calib_ns()
        );
        if args.repeat_check {
            return repeat_check(&args);
        }
        let name = args.workload.as_deref().ok_or_else(|| {
            let names = WORKLOADS.map(|(name, _)| name);
            format!("--workload <name>, --repeat-check or --contract; workloads: {names:?}")
        })?;
        print_outcome(&run_workload(name, &args)?);
        Ok(true)
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("qem-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
