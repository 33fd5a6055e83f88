//! SONIC benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <station_day|phone_rx|natsim_day|cluster_day> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints its checks and metrics, then, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! when a correctness check fails. Scratch files (the artifact stores) go
//! to `.perfbench_work/` under the working directory and are removed on
//! exit. See `perfbench/README.md` for the workloads and the layer map.

mod cluster;
mod metrics;
mod natsim;
mod phone;
mod report;
mod station;
mod stats;

use std::path::{Path, PathBuf};

/// Set-ups per run: at least `SETUPS` and at least `SETUP_SECONDS` of
/// them; `setup_s` is their median.
pub const SETUPS: usize = 3;
pub const SETUP_SECONDS: f64 = 2.0;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// `--trace 1`: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <station_day|phone_rx|natsim_day|cluster_day> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds < 0.0 {
        return Err("--seconds must be non-negative".into());
    }
    Ok(args)
}

/// SplitMix64: the benchmark's one source of seeded randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut h = seed;
    for i in (1..xs.len()).rev() {
        h = mix(h);
        xs.swap(i, (h % (i as u64 + 1)) as usize);
    }
}

/// Scratch directory for one run, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> WorkDir {
        let dir = Path::new(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create .perfbench_work");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while a
        // concurrent run still owns a sibling).
        let _ = std::fs::remove_dir(Path::new(".perfbench_work"));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = {
        let work = WorkDir::new(&args.workload);
        match args.workload.as_str() {
            "station_day" => station::run(&args),
            "phone_rx" => phone::run(&args),
            "natsim_day" => natsim::run(&args),
            "cluster_day" => cluster::run(&args, &work.0),
            other => {
                eprintln!("unknown workload {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    };
    print!("{}", outcome.summary(args.trace));
    println!("{}", outcome.json(args.trace));
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload phone_rx --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("phone_rx", 7, 12.0, true)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 9);
        shuffle(&mut b, 9);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 10);
        assert_ne!(a, c);
    }
}
