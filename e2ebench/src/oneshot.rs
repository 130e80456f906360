//! `oneshot`: read the case and global placement, then repeatedly
//! legalize, write and check, for `--seconds`.
//!
//! Set-up (reading both files) is repeated between the repetitions and
//! reported as its median. Only one copy of the inputs, and no placement
//! from an earlier repetition, is alive at a time, so the process
//! high-water mark after the first repetition is that of one `flow3d
//! legalize`.
//! With `--trace 1`, repetitions alternate between an instrumented
//! (`legalize_observed`) and a plain one: the per-layer figures come from
//! the instrumented ones and their difference is the tracing overhead.

use crate::{fnv1a, median, peak_rss_mib, read_case, read_gp, tail, Opts, Outcome};
use flow3d_core::{Flow3dLegalizer, Legalizer};
use flow3d_db::{Design, LegalPlacement, Placement3d};
use flow3d_metrics::{check_legal, delta_hpwl_pct, displacement_stats};
use flow3d_obs::{keys, Profile};
use std::time::Instant;

/// Before each repetition, and once after the last, the inputs are read
/// again until set-up has taken this share of the run so far. The host's
/// speed changes within seconds, so set-up is timed across the whole run,
/// as the repetitions are, not in one window at its start.
const SETUP_SHARE: f64 = 0.2;
/// Repetitions a run makes at least, however long they take: the
/// median of three is the least that absorbs one slow repetition.
const MIN_REPS: u64 = 3;

/// One repetition's timings (seconds) and, when instrumented, its
/// profile.
struct Rep {
    total: f64,
    write: f64,
    check: f64,
    profile: Option<Profile>,
}

/// Quality of a placement, compared exactly between the in-memory
/// result and the file read back.
#[derive(PartialEq, Debug, Clone, Copy)]
struct Quality {
    avg: f64,
    max: f64,
    dhpwl: f64,
}

fn quality(design: &Design, gp: &Placement3d, placement: &LegalPlacement) -> Quality {
    let stats = displacement_stats(design, gp, placement);
    Quality {
        avg: stats.avg,
        max: stats.max,
        dhpwl: delta_hpwl_pct(design, gp, placement),
    }
}

pub(crate) fn run(o: &Opts) -> Result<(), String> {
    let dir = o.path("dir")?;
    let out = o.path("out")?;
    let seconds: f64 = o.num("seconds")?;
    let trace = o.num::<u8>("trace")? == 1;

    let case_path = dir.join("case.txt");
    let gp_path = dir.join("gp.txt");
    let mut setup = Vec::new();
    let mut read_case_s = Vec::new();
    let mut read_gp_s = Vec::new();
    let mut inputs: Option<(Design, Placement3d)> = None;
    let start = Instant::now();
    let mut top_up_setup = |inputs: &mut Option<(Design, Placement3d)>| -> Result<(), String> {
        while inputs.is_none()
            || setup.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64()
        {
            // Drop the previous copy first: one copy resident at a time.
            drop(inputs.take());
            let t0 = Instant::now();
            let design = read_case(&case_path)?;
            let t1 = Instant::now();
            let gp = read_gp(&design, &gp_path)?;
            let t2 = Instant::now();
            setup.push((t2 - t0).as_secs_f64());
            read_case_s.push((t1 - t0).as_secs_f64());
            read_gp_s.push((t2 - t1).as_secs_f64());
            *inputs = Some((design, gp));
        }
        Ok(())
    };

    let legalizer = Flow3dLegalizer::new(crate::config());
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reps: Vec<Rep> = Vec::new();
    let mut first: Option<(u64, Quality)> = None;
    // The high-water mark once one repetition has run, as one `flow3d
    // legalize` would leave it: later repetitions raise it by up to 7 MiB
    // as the heap fragments, by an amount that grows with the number of
    // repetitions the host's speed allows.
    let mut peak_mib = None;
    // A repetition, with the set-up before it, starts only if one as
    // long as the last still ends within `--seconds`.
    let mut last = 0.0;
    while attempted < MIN_REPS || start.elapsed().as_secs_f64() + last <= seconds {
        let rep_start = Instant::now();
        top_up_setup(&mut inputs)?;
        let (design, gp) = inputs.as_ref().ok_or("no set-up ran")?;
        attempted += 1;
        let traced = trace && attempted % 2 == 1;
        let mut profile = traced.then(Profile::new);

        let t0 = Instant::now();
        let outcome = legalizer.legalize_observed(design, gp, profile.as_mut());
        let t1 = Instant::now();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("e2ebench oneshot: legalize failed: {e}");
                failed += 1;
                last = rep_start.elapsed().as_secs_f64();
                continue;
            }
        };
        let text = crate::legal_text(design, &outcome.placement)?;
        std::fs::write(&out, &text).map_err(|e| format!("{}: {e}", out.display()))?;
        let t2 = Instant::now();
        let report = check_legal(design, &outcome.placement);
        let t3 = Instant::now();

        if !report.is_legal() {
            eprintln!("e2ebench oneshot: placement is not legal:\n{report}");
            correct = false;
        }
        let hash = fnv1a(text.as_bytes());
        drop(text);
        peak_mib.get_or_insert_with(peak_rss_mib);
        match &first {
            None => first = Some((hash, quality(design, gp, &outcome.placement))),
            Some((h, _)) if *h != hash => {
                eprintln!("e2ebench oneshot: repetition {attempted} differs from the first");
                correct = false;
            }
            Some(_) => {}
        }
        last = rep_start.elapsed().as_secs_f64();
        reps.push(Rep {
            total: (t3 - t0).as_secs_f64(),
            write: (t2 - t1).as_secs_f64(),
            check: (t3 - t2).as_secs_f64(),
            profile,
        });
    }

    top_up_setup(&mut inputs)?;
    let (design, gp) = inputs.ok_or("no set-up ran")?;

    // The written file, read back, must be the placement (it writes the
    // same text again) and give the same quality as the in-memory result.
    let (hash, q) = first.ok_or("every repetition failed")?;
    let back = crate::read_legal(&design, &out)?;
    let rewritten = fnv1a(crate::legal_text(&design, &back)?.as_bytes());
    if rewritten != hash || !check_legal(&design, &back).is_legal() {
        eprintln!("e2ebench oneshot: the written placement does not read back");
        correct = false;
    }
    if quality(&design, &gp, &back) != q {
        eprintln!("e2ebench oneshot: quality from the file differs from memory");
        correct = false;
    }

    let plain: Vec<f64> = reps
        .iter()
        .filter(|r| r.profile.is_none())
        .map(|r| r.total)
        .collect();
    let metrics = if trace {
        layer_metrics(&reps, &read_case_s, &read_gp_s, median(&plain))
    } else {
        let legalize_s = median(&plain);
        vec![
            ("setup_s", median(&setup), "s"),
            ("legalize_s", legalize_s, "s"),
            // A one-shot run has no ECO requests: its operation is the
            // legalization, so the latency pair reads that. A run has
            // fewer than forty of them, so its tail is its median.
            ("eco_p50_ms", legalize_s * 1e3, "ms"),
            ("eco_tail_ms", tail(&plain) * 1e3, "ms"),
            ("avg_disp_rows", q.avg, "rows"),
            ("max_disp_rows", q.max, "rows"),
            ("dhpwl_pct", q.dhpwl, "%"),
            ("peak_rss_mib", peak_mib.unwrap_or(f64::NAN), "MiB"),
        ]
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
    .print();
    Ok(())
}

/// Per-layer figures: the benchmark's own spans around the io and
/// metrics calls, and the legalizer's phase tree and counters from the
/// instrumented repetitions.
fn layer_metrics(
    reps: &[Rep],
    read_case_s: &[f64],
    read_gp_s: &[f64],
    plain_legalize_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let traced: Vec<(&Rep, &Profile)> = reps
        .iter()
        .filter_map(|r| r.profile.as_ref().map(|p| (r, p)))
        .collect();
    let med = |f: &dyn Fn(&Rep, &Profile) -> f64| {
        median(&traced.iter().map(|&(r, p)| f(r, p)).collect::<Vec<_>>())
    };
    let phase = |p: &Profile, path: &str| p.phase(path).map_or(0.0, |s| s.total.as_secs_f64());
    // Every phase whose last path component is `leaf`, wherever it
    // nests (the main flow pass and the post-optimization's).
    let leaf_sum = |p: &Profile, leaf: &str| -> f64 {
        p.phases()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .map(|(_, s)| s.total.as_secs_f64())
            .sum()
    };
    let self_time = |p: &Profile, path: &str| -> f64 {
        let prefix = format!("{path}/");
        let children: f64 = p
            .phases()
            .filter(|(c, _)| {
                c.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, s)| s.total.as_secs_f64())
            .sum();
        phase(p, path) - children
    };
    let counter = |name: &str| {
        traced
            .first()
            .map_or(0.0, |(_, p)| p.counters().get(name) as f64)
    };
    let hits = counter(keys::SELECTION_MEMO_HITS);
    let lookups = hits + counter(keys::SELECTION_MEMO_MISSES);
    vec![
        ("io.read_case_s", median(read_case_s), "s"),
        ("io.read_gp_s", median(read_gp_s), "s"),
        ("io.write_legal_s", med(&|r, _| r.write), "s"),
        ("metrics.check_s", med(&|r, _| r.check), "s"),
        (
            "core.soa_build_s",
            med(&|_, p| phase(p, "legalize/soa_build")),
            "s",
        ),
        (
            "core.grid_build_s",
            med(&|_, p| phase(p, "legalize/grid_build")),
            "s",
        ),
        (
            "core.assign_s",
            med(&|_, p| phase(p, "legalize/assign")),
            "s",
        ),
        (
            "core.flow_pass_s",
            med(&|_, p| leaf_sum(p, "flow_pass")),
            "s",
        ),
        (
            "core.search_s",
            med(&|_, p| leaf_sum(p, "search_batch")),
            "s",
        ),
        ("core.apply_s", med(&|_, p| leaf_sum(p, "apply")), "s"),
        ("core.placerow_s", med(&|_, p| leaf_sum(p, "placerow")), "s"),
        (
            "core.post_opt_s",
            med(&|_, p| phase(p, "legalize/post_opt")),
            "s",
        ),
        (
            "core.post_opt.self_s",
            med(&|_, p| self_time(p, "legalize/post_opt")),
            "s",
        ),
        (
            "core.legalize.self_s",
            med(&|_, p| self_time(p, "legalize")),
            "s",
        ),
        (
            "core.nodes_expanded",
            counter(keys::NODES_EXPANDED),
            "count",
        ),
        (
            "core.augmenting_paths",
            counter(keys::AUGMENTING_PATHS),
            "count",
        ),
        (
            "core.search_retries",
            counter(keys::SEARCH_RETRIES),
            "count",
        ),
        (
            "core.ping_pong_tabus",
            counter(keys::PING_PONG_TABUS),
            "count",
        ),
        (
            "core.fallback_moves",
            counter(keys::FALLBACK_MOVES),
            "count",
        ),
        (
            "core.memo_hit_rate",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        ("core.memo_lookups", lookups, "count"),
        (
            "trace.overhead_s",
            med(&|r, _| r.total) - plain_legalize_s,
            "s",
        ),
    ]
}
