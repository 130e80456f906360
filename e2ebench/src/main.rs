//! End-to-end benchmark of the 3D-Flow legalizer, from case file to
//! checked legal placement. `run.py` next to this package drives it;
//! each subcommand is one process so that the measured process holds
//! only the program's own work:
//!
//! * `prep` generates a workload's inputs (case, global placement and,
//!   for ECO, the base legalization) and writes them as files;
//! * `oneshot` reads them, legalizes, writes and checks, repeatedly;
//! * `serve` is the resident service (`flow3d serve --threads 1`);
//! * `eco` is the single closed-loop client of that service;
//! * `reference` runs the Abacus baseline on the same inputs.
//!
//! Each measuring subcommand prints one JSON line on stdout:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

#![forbid(unsafe_code)]

mod eco;
mod oneshot;

use flow3d_core::{Flow3dConfig, Flow3dLegalizer, Legalizer};
use flow3d_db::{Design, LegalPlacement, Placement3d};
use flow3d_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: e2ebench <prep|oneshot|serve|eco|reference> [--key value]...")?;
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "prep" => prep(&opts),
        "oneshot" => oneshot::run(&opts),
        "serve" => eco::serve(&opts),
        "eco" => eco::run(&opts),
        "reference" => reference(&opts),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// `--key value` options.
pub(crate) struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    pub(crate) fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    pub(crate) fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.str(key).map(PathBuf::from)
    }

    pub(crate) fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }
}

/// The legalizer configuration every workload measures: the defaults
/// with one worker thread, since the host has two cores and the load
/// comes from one process.
pub(crate) fn config() -> Flow3dConfig {
    Flow3dConfig {
        threads: 1,
        ..Flow3dConfig::default()
    }
}

/// Reads a case file the way `flow3d legalize` does: streamed.
pub(crate) fn read_case(path: &Path) -> Result<Design, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    flow3d_io::parse_case_reader(std::io::BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub(crate) fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

pub(crate) fn read_gp(design: &Design, path: &Path) -> Result<Placement3d, String> {
    flow3d_io::parse_placement3d(design, &read_text(path)?)
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub(crate) fn read_legal(design: &Design, path: &Path) -> Result<LegalPlacement, String> {
    flow3d_io::parse_legal(design, &read_text(path)?)
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub(crate) fn legal_text(design: &Design, placement: &LegalPlacement) -> Result<String, String> {
    let mut text = String::new();
    flow3d_io::write_legal(design, placement, &mut text).map_err(|e| e.to_string())?;
    Ok(text)
}

/// FNV-1a over the bytes: placements are compared by the hash of their
/// written text, so no run keeps more than one placement text alive.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it. Below
/// forty samples that percentile is no tail, and the median stands in.
pub(crate) fn tail(values: &[f64]) -> f64 {
    if values.len() < 40 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() - 11]
}

/// Process high-water mark in MiB (`VmHWM`).
pub(crate) fn peak_rss_mib() -> f64 {
    flow3d_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// What a measuring subcommand prints.
pub(crate) struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub(crate) fn print(&self) {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{line}");
    }
}

/// `prep --case case4 --dir D [--gen-seed N] [--base 1]`: generates the
/// ICCAD-2022-shaped case at full size, places it globally, and writes
/// `case.txt` and `gp.txt` (plus `base.txt`, its 3D-Flow legalization,
/// with `--base 1`) into `D`.
fn prep(o: &Opts) -> Result<(), String> {
    let case = o.str("case")?;
    let dir = o.path("dir")?;
    let mut cfg = flow3d_gen::GeneratorConfig::iccad2022(case)
        .ok_or_else(|| format!("unknown ICCAD-2022 case `{case}`"))?;
    cfg.scale = 1.0;
    if o.0.contains_key("gen-seed") {
        cfg.seed = o.num("gen-seed")?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };

    let generated = cfg.generate_with_threads(1).map_err(|e| e.to_string())?;
    let design = &generated.design;
    let mut text = String::new();
    flow3d_io::write_case(design, &mut text).map_err(|e| e.to_string())?;
    write("case.txt", &text)?;
    let gp = flow3d_gp::GlobalPlacer::new(flow3d_gp::GpConfig::default())
        .place_from(design, &generated.natural);
    let mut text = String::new();
    flow3d_io::write_placement3d(design, &gp, &mut text).map_err(|e| e.to_string())?;
    write("gp.txt", &text)?;

    if o.0.get("base").is_some_and(|v| v == "1") {
        // Legalize the inputs as written, not the in-memory ones: the
        // file keeps four decimals of the global placement, so the base
        // is what `flow3d legalize --threads 1` makes of these files.
        let design = &read_case(&dir.join("case.txt"))?;
        let gp = read_gp(design, &dir.join("gp.txt"))?;
        let base = Flow3dLegalizer::new(config())
            .legalize(design, &gp)
            .map_err(|e| format!("base legalization: {e}"))?
            .placement;
        if !flow3d_metrics::check_legal(design, &base).is_legal() {
            return Err("base legalization is not legal".into());
        }
        write("base.txt", &legal_text(design, &base)?)?;
    }
    eprintln!(
        "e2ebench prep: {} ({} cells, generator seed {:#x}) in {}",
        design.name(),
        design.num_cells(),
        cfg.seed,
        dir.display()
    );
    Ok(())
}

/// Repetitions of the Abacus reference; it reports their median.
const REFERENCE_REPS: usize = 5;

/// `reference --dir D --out F`: the Abacus baseline on the inputs in `D`,
/// timed like `legalize_s` (legalize, write to `F`, check) over
/// [`REFERENCE_REPS`] repetitions, with its quality.
fn reference(o: &Opts) -> Result<(), String> {
    let dir = o.path("dir")?;
    let out = o.path("out")?;
    let design = read_case(&dir.join("case.txt"))?;
    let gp = read_gp(&design, &dir.join("gp.txt"))?;
    let abacus = flow3d_baselines::AbacusLegalizer::default();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..REFERENCE_REPS {
        let t0 = Instant::now();
        let placement = abacus
            .legalize(&design, &gp)
            .map_err(|e| e.to_string())?
            .placement;
        let text = legal_text(&design, &placement)?;
        std::fs::write(&out, &text).map_err(|e| format!("{}: {e}", out.display()))?;
        let legal = flow3d_metrics::check_legal(&design, &placement).is_legal();
        times.push(t0.elapsed().as_secs_f64());
        last = Some((placement, legal));
    }
    let (placement, legal) = last.ok_or("no repetition ran")?;
    let stats = flow3d_metrics::displacement_stats(&design, &gp, &placement);
    println!(
        "abacus: legalize_s {:.4} (median of {}), avg_disp_rows {:.4}, max_disp_rows {:.3}, \
         dhpwl_pct {:.3}, legal {legal}",
        median(&times),
        times.len(),
        stats.avg,
        stats.max,
        flow3d_metrics::delta_hpwl_pct(&design, &gp, &placement),
    );
    Ok(())
}
