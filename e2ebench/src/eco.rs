//! `eco`: the single closed-loop client of a resident `serve` process.
//!
//! Set-up loads the case and its base placement [`SETUP_REPS`] times
//! (unloading in between, so the server never holds two engines) and
//! reports the median. The timed loop then sends whole rounds of
//! [`PLAN`] requests, each only after the previous answer arrived: the
//! first round the repository's own move sets, later rounds batches of
//! the same shapes drawn from the move-stream seed. Every answer is
//! checked after its round trip is timed: legality of the parsed placement,
//! bit-identity of repeated requests, and, on a sample, equality with a cold
//! `legalize_incremental` on the same design, base and moves.

use crate::{fnv1a, median, read_case, read_gp, read_legal, read_text, tail, Opts, Outcome};
use flow3d_core::{CellMove, Flow3dLegalizer};
use flow3d_db::{CellId, Design, DieId, LegalPlacement, Placement3d};
use flow3d_geom::{FPoint, Point};
use flow3d_metrics::{check_legal, delta_hpwl_pct, displacement_stats};
use flow3d_obs::keys;
use flow3d_serve::{Json, Request, Server, ServerConfig};
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 3;
/// Cells of a pull batch: the 32 of repro's `eco_experiment` and the
/// `serve/eco_request` bench row.
const PULL_CELLS: usize = 32;
/// Cells of a pile-up batch, as in the CI serve smoke.
const PILE_CELLS: usize = 10;
/// Whole rounds a run makes at least: 40 round trips, so the tail
/// percentile has ten samples beyond it.
const MIN_ROUNDS: usize = 4;
const CASE: &str = "bench";

/// The two batch shapes the repository's own ECO traffic uses.
#[derive(Clone, Copy)]
enum Shape {
    /// Cells pulled halfway toward the bottom die's centre, as a timing
    /// step relocating buffers would (`examples/eco_incremental.rs`,
    /// repro's `eco_experiment`).
    Pull,
    /// Cells of one die piled onto another cell's position, overflowing
    /// its bin so that the flow search runs (the CI serve smoke).
    Pile,
}

/// One request of a round.
#[derive(Clone, Copy)]
enum Batch {
    /// A batch not sent before.
    New(Shape),
    /// The batch of the given earlier step of this round, against the
    /// same base, so the answer must be identical.
    Of(usize),
}

/// A round is the CI serve smoke's sequence: a pull batch four times, a
/// pile-up batch four times, the pull batch again, and the pull batch
/// once more with `commit`, whose result becomes the new base.
const PLAN: [(Batch, bool); 10] = [
    (Batch::New(Shape::Pull), false),
    (Batch::Of(0), false),
    (Batch::Of(0), false),
    (Batch::Of(0), false),
    (Batch::New(Shape::Pile), false),
    (Batch::Of(4), false),
    (Batch::Of(4), false),
    (Batch::Of(4), false),
    (Batch::Of(0), false),
    (Batch::Of(0), true),
];

/// Requests (0-based, over the whole run) whose answer is compared with
/// a cold `legalize_incremental`: the first pile-up against the loaded
/// base, and the first pull against the first committed base.
const COLD_SAMPLE: [usize; 2] = [4, PLAN.len()];

/// SplitMix64: the move stream depends on nothing but its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn cell(&mut self, design: &Design) -> CellId {
        CellId::new(self.next() as usize % design.num_cells())
    }
}

/// Distinct cells drawn from the move stream that satisfy `keep`.
fn draw(
    rng: &mut Rng,
    design: &Design,
    count: usize,
    keep: impl Fn(CellId) -> bool,
) -> Vec<CellId> {
    let mut cells = std::collections::BTreeSet::new();
    while cells.len() < count {
        let cell = rng.cell(design);
        if keep(cell) {
            cells.insert(cell);
        }
    }
    cells.into_iter().collect()
}

/// A batch of the given shape against the current base. The first round
/// sends the repository's own move sets, the same for every seed, so the
/// quality figures taken from it depend on the legalizer alone; later
/// rounds draw their cells from the move stream.
fn new_batch(
    rng: &mut Rng,
    shape: Shape,
    first_round: bool,
    design: &Design,
    base: &LegalPlacement,
) -> Vec<CellMove> {
    let n = design.num_cells();
    let (cells, anchor) = match (shape, first_round) {
        // repro's `eco_experiment`: every n/32-th cell.
        (Shape::Pull, true) => (
            (0..n)
                .step_by((n / PULL_CELLS).max(1))
                .map(CellId::new)
                .collect(),
            None,
        ),
        // The CI serve smoke: the first ten top-die cells onto the
        // eleventh.
        (Shape::Pile, true) => {
            let mut top = (0..n)
                .map(CellId::new)
                .filter(|&c| base.die(c) == DieId::TOP)
                .take(PILE_CELLS + 1)
                .collect::<Vec<_>>();
            let anchor = top.pop();
            (top, anchor)
        }
        (Shape::Pull, false) => (draw(rng, design, PULL_CELLS, |_| true), None),
        (Shape::Pile, false) => {
            let a = rng.cell(design);
            let cells = draw(rng, design, PILE_CELLS, |c| {
                c != a && base.die(c) == base.die(a)
            });
            (cells, Some(a))
        }
    };
    let center = design.die(DieId::BOTTOM).outline.center();
    cells
        .into_iter()
        .map(|cell| {
            let p = base.pos(cell);
            let target = anchor.map_or(
                Point::new((p.x + center.x) / 2, (p.y + center.y) / 2),
                |a| base.pos(a),
            );
            // A wider cell piled onto a narrow one stays inside the die.
            let die = base.die(cell);
            let x = target
                .x
                .min(design.die(die).outline.xhi - design.cell_width(cell, die));
            CellMove {
                cell,
                target: Point::new(x, target.y),
                die: None,
            }
        })
        .collect()
}

fn eco_request(design: &Design, moves: &[CellMove], commit: bool) -> Json {
    let moves = moves
        .iter()
        .map(|m| {
            Json::Obj(vec![
                (
                    "cell".into(),
                    Json::Str(design.cells()[m.cell.index()].name.clone()),
                ),
                ("x".into(), Json::num(m.target.x as f64)),
                ("y".into(), Json::num(m.target.y as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("cmd".into(), Json::Str("eco".into())),
        ("name".into(), Json::Str(CASE.into())),
        ("moves".into(), Json::Arr(moves)),
        ("commit".into(), Json::Bool(commit)),
    ])
}

/// Where the request asks every cell to be: the base, with the moved
/// cells at their targets.
fn desired(base: &LegalPlacement, moves: &[CellMove]) -> Placement3d {
    let mut pos: Vec<FPoint> = base
        .iter()
        .map(|(_, p, _)| FPoint::new(p.x as f64, p.y as f64))
        .collect();
    let die = base.iter().map(|(_, _, d)| d.index() as f64).collect();
    for m in moves {
        pos[m.cell.index()] = FPoint::new(m.target.x as f64, m.target.y as f64);
    }
    Placement3d::from_parts(pos, die)
}

fn connect(path: &Path) -> Result<UnixStream, String> {
    // The server binds its socket only after set-up; wait for it.
    let deadline = Instant::now() + Duration::from_secs(150);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() > deadline => return Err(format!("{}: {e}", path.display())),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One answer: its JSON without the placement, the placement text, and
/// the frame's size in bytes.
struct Answer {
    json: Json,
    legal: Option<String>,
    bytes: usize,
}

/// Sends one request frame and reads the answer frame's text. The round
/// trip ends here, when the answer's last byte has arrived; `parse`
/// decodes it afterwards.
fn exchange(stream: &mut UnixStream, req: &Json) -> Result<String, String> {
    flow3d_serve::write_frame(stream, req).map_err(|e| format!("request: {e}"))?;
    let mut len = [0u8; 4];
    stream
        .read_exact(&mut len)
        .map_err(|e| format!("answer: {e}"))?;
    let len = u32::from_be_bytes(len) as usize;
    if len > flow3d_serve::MAX_FRAME {
        return Err(format!("answer frame of {len} bytes"));
    }
    let mut buf = vec![0u8; len];
    stream
        .read_exact(&mut buf)
        .map_err(|e| format!("answer: {e}"))?;
    String::from_utf8(buf).map_err(|_| "answer is not UTF-8".into())
}

/// Decodes an answer frame.
///
/// The `legal` string is cut out of the answer by a direct scan and only
/// the rest goes through `Json::parse`, which re-validates the remaining
/// input for every character of a string, so its time grows with the
/// square of the string's length: about ten minutes for a case4 answer
/// (5.5 MB; see `e2ebench/README.md`).
fn parse(text: String) -> Result<Answer, String> {
    let bytes = text.len() + 4;
    const KEY: &str = "\"legal\":\"";
    let (rest, legal) = match text.find(KEY) {
        None => (text, None),
        Some(at) => {
            let start = at + KEY.len();
            let (legal, end) = unescape(&text, start)?;
            (format!("{}{}", &text[..start], &text[end..]), Some(legal))
        }
    };
    let json = Json::parse(&rest).map_err(|e| format!("answer: {e}"))?;
    Ok(Answer { json, legal, bytes })
}

/// Decodes the JSON string body starting at byte `start` of `text`;
/// returns it and the offset of its closing quote.
fn unescape(text: &str, start: usize) -> Result<(String, usize), String> {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() - start);
    let mut i = start;
    loop {
        let run = bytes[i..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string in answer")?;
        out.push_str(&text[i..i + run]);
        i += run;
        if bytes[i] == b'"' {
            return Ok((out, i));
        }
        out.push(match bytes.get(i + 1) {
            Some(b'n') => '\n',
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            _ => return Err("unexpected escape in answer".into()),
        });
        i += 2;
    }
}

fn ok(resp: &Json) -> bool {
    resp.get("ok") == Some(&Json::Bool(true))
}

fn phase_ms(report: &Json, path: &str) -> f64 {
    report
        .get("phases")
        .and_then(Json::as_array)
        .and_then(|ps| {
            ps.iter()
                .find(|p| p.get("path").and_then(Json::as_str) == Some(path))
        })
        .and_then(|p| p.get("seconds"))
        .and_then(Json::as_f64)
        .map_or(0.0, |s| s * 1e3)
}

fn counter(report: &Json, name: &str) -> f64 {
    report
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Per-request figures read from the answer's run report.
#[derive(Default)]
struct Layers {
    seed_ms: Vec<f64>,
    flow_ms: Vec<f64>,
    search_ms: Vec<f64>,
    placerow_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    bytes: Vec<f64>,
    commit_ms: Vec<f64>,
    reseeded: Vec<f64>,
    commit_total: f64,
    memo_hits: f64,
    memo_misses: f64,
}

/// `serve --dir D --socket S --setup-out F`: the serving process. It
/// makes the case resident [`SETUP_REPS`] times through
/// `Server::process` (unloading in between, so it never holds two
/// engines), writes the set-up timings to `F`, then serves `S` as
/// `flow3d serve --threads 1` does until it is stopped.
///
/// The load goes in-process, not over the socket, because parsing a
/// frame that carries the case4 text (15 MB) takes over an hour (see
/// `parse`).
pub(crate) fn serve(o: &Opts) -> Result<(), String> {
    let dir = o.path("dir")?;
    let socket = o.path("socket")?;
    let server = Server::new(ServerConfig {
        default_threads: 1,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting server: {e}"))?;
    let (mut setup_s, mut load_s) = (Vec::new(), Vec::new());
    for i in 0..SETUP_REPS as u64 {
        if i > 0 {
            server.process(i, Request::Unload { name: CASE.into() });
        }
        let t0 = Instant::now();
        let load = Request::Load {
            name: CASE.into(),
            case: read_text(&dir.join("case.txt"))?,
            legal: Some(read_text(&dir.join("base.txt"))?),
            global: None,
            threads: 1,
        };
        let t1 = Instant::now();
        let resp = server.process(i, load);
        let t2 = Instant::now();
        if !ok(&resp) {
            return Err(format!("load refused: {resp}"));
        }
        setup_s.push(Json::num((t2 - t0).as_secs_f64()));
        load_s.push(Json::num((t2 - t1).as_secs_f64()));
    }
    let timings = Json::Obj(vec![
        ("setup_s".into(), Json::Arr(setup_s)),
        ("load_s".into(), Json::Arr(load_s)),
    ]);
    let out = o.path("setup-out")?;
    std::fs::write(&out, timings.to_string()).map_err(|e| format!("{}: {e}", out.display()))?;
    server
        .serve_unix(&socket)
        .map_err(|e| format!("{}: {e}", socket.display()))
}

pub(crate) fn run(o: &Opts) -> Result<(), String> {
    let dir = o.path("dir")?;
    let seconds: f64 = o.num("seconds")?;
    let trace = o.num::<u8>("trace")? == 1;
    let mut rng = Rng(o.num("eco-seed")?);

    // The server listens once its set-up is done; the checker reads its
    // own copy of the inputs only then, so that it does not compete with
    // the timed set-up, and before anything else is timed.
    let mut stream = connect(&o.path("socket")?)?;
    let design = read_case(&dir.join("case.txt"))?;
    let gp = read_gp(&design, &dir.join("gp.txt"))?;
    let mut base = read_legal(&design, &dir.join("base.txt"))?;
    let setup_file = o.path("setup-out")?;
    let timings = Json::parse(&read_text(&setup_file)?).map_err(|e| e.to_string())?;
    let series = |key: &str| -> Vec<f64> {
        timings
            .get(key)
            .and_then(Json::as_array)
            .map_or(Vec::new(), |a| a.iter().filter_map(Json::as_f64).collect())
    };

    let legalizer = Flow3dLegalizer::new(crate::config());
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut latency_ms = Vec::new();
    let mut layers = Layers::default();
    let (mut disp_avg, mut disp_max, mut dhpwl) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    // A round starts only if one as long as the last still ends within
    // `--seconds`.
    let mut last = 0.0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() + last <= seconds {
        let round_start = Instant::now();
        let mut sent: Vec<(Vec<CellMove>, Option<u64>)> = Vec::with_capacity(PLAN.len());
        for (batch, commit) in PLAN {
            let moves = match batch {
                Batch::Of(k) => sent[k].0.clone(),
                Batch::New(shape) => new_batch(&mut rng, shape, round == 0, &design, &base),
            };
            let req = eco_request(&design, &moves, commit);
            let index = attempted as usize;
            attempted += 1;

            let t0 = Instant::now();
            let text = exchange(&mut stream, &req).map_err(|e| format!("request {index}: {e}"))?;
            let rtt = t0.elapsed().as_secs_f64() * 1e3;
            let answer = parse(text).map_err(|e| format!("request {index}: {e}"))?;

            let (true, Some(text), Some(result)) = (
                ok(&answer.json),
                answer.legal.as_deref(),
                answer.json.get("result"),
            ) else {
                eprintln!("e2ebench eco: request {index} refused: {}", answer.json);
                failed += 1;
                sent.push((moves, None));
                continue;
            };
            latency_ms.push(rtt);
            let hash = fnv1a(text.as_bytes());
            let placement = flow3d_io::parse_legal(&design, text)
                .map_err(|e| format!("request {index}: answer does not parse: {e}"))?;

            let report = check_legal(&design, &placement);
            if !report.is_legal() {
                eprintln!("e2ebench eco: request {index} is not legal:\n{report}");
                correct = false;
            }
            if let Batch::Of(k) = batch {
                if sent[k].1.is_some_and(|h| h != hash) {
                    eprintln!("e2ebench eco: request {index} differs from its repeat");
                    correct = false;
                }
            }
            if COLD_SAMPLE.contains(&index) {
                let cold = legalizer
                    .legalize_incremental(&design, &base, &moves)
                    .map_err(|e| format!("cold legalize_incremental: {e}"))?;
                if cold.placement != placement {
                    eprintln!("e2ebench eco: request {index} differs from a cold run");
                    correct = false;
                }
            }
            // Quality comes from the first round's two batches, the same
            // for every seed and every host speed.
            if round == 0 && matches!(batch, Batch::New(_)) {
                let stats = displacement_stats(&design, &desired(&base, &moves), &placement);
                disp_avg.push(stats.avg);
                disp_max.push(stats.max);
                dhpwl.push(delta_hpwl_pct(&design, &gp, &placement));
            }

            if let Some(report) = result.get("report") {
                let eco_ms = phase_ms(report, "eco");
                let commit_ms = phase_ms(report, "commit");
                layers.seed_ms.push(phase_ms(report, "eco/eco_seed"));
                layers.flow_ms.push(phase_ms(report, "eco/flow_pass"));
                layers
                    .search_ms
                    .push(phase_ms(report, "eco/flow_pass/search_batch"));
                layers.placerow_ms.push(phase_ms(report, "eco/placerow"));
                layers.overhead_ms.push(rtt - eco_ms - commit_ms);
                if round == 0 {
                    layers.memo_hits += counter(report, keys::SELECTION_MEMO_HITS);
                    layers.memo_misses += counter(report, keys::SELECTION_MEMO_MISSES);
                }
                if commit {
                    layers.commit_ms.push(commit_ms);
                }
            }
            layers.bytes.push(answer.bytes as f64);
            if commit {
                let field = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                layers.reseeded.push(field("commit_reseeded"));
                layers.commit_total = field("commit_total");
                base = placement;
            }
            sent.push((moves, Some(hash)));
        }
        round += 1;
        last = round_start.elapsed().as_secs_f64();
    }

    // No `shutdown`: the server may exit before its answer is written
    // (see `e2ebench/README.md`), so `run.py` stops it instead.
    let stats = exchange(&mut stream, &command("stats"))
        .and_then(parse)
        .map_err(|e| format!("stats: {e}"))?;
    let peak_rss_mib = stats
        .json
        .get("result")
        .and_then(|r| r.get("peak_rss_bytes"))
        .and_then(Json::as_f64)
        .map_or(0.0, |b| b / (1024.0 * 1024.0));
    drop(stream);

    let metrics = if trace {
        vec![
            ("serve.load_s", median(&series("load_s")), "s"),
            ("serve.overhead_ms", median(&layers.overhead_ms), "ms"),
            ("serve.response_bytes", median(&layers.bytes), "bytes"),
            ("core.eco_seed_ms", median(&layers.seed_ms), "ms"),
            ("core.eco_flow_pass_ms", median(&layers.flow_ms), "ms"),
            ("core.eco_search_ms", median(&layers.search_ms), "ms"),
            ("core.eco_placerow_ms", median(&layers.placerow_ms), "ms"),
            ("core.eco_memo_hits", layers.memo_hits, "count"),
            ("core.eco_memo_misses", layers.memo_misses, "count"),
            ("core.commit_ms", median(&layers.commit_ms), "ms"),
            ("core.commit_reseeded", median(&layers.reseeded), "count"),
            (
                "core.commit_reseeded_share",
                median(&layers.reseeded) / layers.commit_total,
                "ratio",
            ),
        ]
    } else {
        let p50 = median(&latency_ms);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        vec![
            ("setup_s", median(&series("setup_s")), "s"),
            // The ECO workload's legalization is the request.
            ("legalize_s", p50 / 1e3, "s"),
            ("eco_p50_ms", p50, "ms"),
            ("eco_tail_ms", tail(&latency_ms), "ms"),
            ("avg_disp_rows", mean(&disp_avg), "rows"),
            ("max_disp_rows", mean(&disp_max), "rows"),
            ("dhpwl_pct", mean(&dhpwl), "%"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
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

fn command(cmd: &str) -> Json {
    Json::Obj(vec![("cmd".into(), Json::Str(cmd.into()))])
}
