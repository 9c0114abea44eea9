//! Implementation of the `tipdecomp` command-line tool.
//!
//! Lives in a library so the argument parsing and command execution are
//! unit-testable; `main.rs` is a thin shim. Every subcommand declares its
//! arguments once, in the option table `SPECS`; [`parse`] scans a command
//! line against its entry and builds the typed [`Command`], and [`run`]
//! executes it, writing each result once.

#![forbid(unsafe_code)]

use bigraph::{BipartiteCsr, Side};
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::report::{ServeResponse, ServeSessionReport, ServeStats, TopKEntry};
use receipt::{hierarchy, Config};
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::Instant;

/// Parsed command line. `USAGE` gives each subcommand's syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// RECEIPT tip decomposition of one side.
    Tip {
        input: String,
        side: Side,
        config: Config,
        output: Option<String>,
        json: bool,
        stats: bool,
    },
    /// Wing (edge) decomposition: sequential, or RECEIPT-style with `P`
    /// partitions when `partitions > 0`.
    Wing {
        input: String,
        side: Side,
        partitions: usize,
        output: Option<String>,
        json: bool,
    },
    /// Per-vertex butterfly counts of both sides.
    Count {
        input: String,
        output: Option<String>,
        json: bool,
    },
    /// Replays batches of edge updates through a [`StreamEngine`].
    Stream {
        input: String,
        ops: String,
        side: Side,
        options: EngineOptions,
        output: Option<String>,
        json: bool,
    },
    /// Keeps a [`StreamEngine`] resident and answers framed requests.
    Serve {
        input: String,
        options: EngineOptions,
        /// Scripted session: newline-delimited JSON requests; the run
        /// emits one `serve-session` report document instead of framing.
        requests: Option<String>,
        /// Speak the framed protocol over a Unix socket instead of
        /// stdin/stdout.
        socket: Option<String>,
        output: Option<String>,
        /// Durable store directory: applied batches are WAL-logged before
        /// they take effect, and an existing store is recovered (the graph
        /// file is only used to initialize a fresh store).
        wal: Option<String>,
        /// Fold a fresh checkpoint every N durable batches (0 = never).
        checkpoint_every: u64,
    },
    /// Text ↔ `.bgr` conversion; formats follow the extensions unless
    /// `from`/`to` (`"text"` or `"binary"`) say otherwise.
    Convert {
        input: String,
        output: String,
        from: Option<String>,
        to: Option<String>,
        json: bool,
    },
    /// Opens a durable store, repairs a torn WAL tail, replays past the
    /// checkpoint and verifies against the from-scratch oracle.
    Recover {
        dir: String,
        json: bool,
        output: Option<String>,
    },
    /// Named versions over a durable store (`VERSIONING.md`).
    Version {
        /// `"tag"`, `"list"`, `"diff"`, or `"at"`.
        op: String,
        dir: String,
        /// Tag names: one for `tag`/`at`, two for `diff`, none for `list`.
        names: Vec<String>,
        /// `at` only: additionally oracle-verify the materialized state.
        verify: bool,
        /// `at` only: write the materialized graph here (text, or the
        /// `.bgr` binary image by extension) for `derive` to consume.
        dump: Option<String>,
        json: bool,
        output: Option<String>,
    },
    /// Set-algebraic graph construction (`VERSIONING.md` §6).
    Derive {
        /// `"subgraph"`, `"union"`, or `"diff"`.
        op: String,
        a: String,
        /// Second input (`union`/`diff`).
        b: Option<String>,
        /// Primary-side ids to induce on (`subgraph`).
        ids: Vec<u32>,
        side: Side,
        output: String,
        json: bool,
    },
    /// Connected k-tip components.
    KTips {
        input: String,
        side: Side,
        k: u64,
    },
    /// Size, degree, butterfly and wedge statistics.
    Stats {
        input: String,
    },
    /// Emits a dataset analog.
    Generate {
        preset: String,
        output: Option<String>,
    },
    Help,
}

impl Command {
    /// The subcommand keyword, used in run-error context.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Tip { .. } => "tip",
            Command::Wing { .. } => "wing",
            Command::Count { .. } => "count",
            Command::Stream { .. } => "stream",
            Command::Serve { .. } => "serve",
            Command::Convert { .. } => "convert",
            Command::Recover { .. } => "recover",
            Command::Version { .. } => "version",
            Command::Derive { .. } => "derive",
            Command::KTips { .. } => "ktips",
            Command::Stats { .. } => "stats",
            Command::Generate { .. } => "generate",
            Command::Help => "help",
        }
    }
}

/// Argument-parsing failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

pub const USAGE: &str = "\
tipdecomp — tip/wing decomposition of bipartite graphs (RECEIPT, VLDB 2020)

USAGE:
  tipdecomp tip <edges.tsv>   [--side U|V] [--partitions N] [--threads N]
                              [--no-huc] [--no-dgm] [--output FILE] [--json]
                              [--stats]
  tipdecomp wing <edges.tsv>  [--side U|V] [--partitions N] [--output FILE]
                              [--json]
  tipdecomp count <edges.tsv> [--output FILE] [--json]
  tipdecomp stream <edges.tsv> <ops.txt> [--side U|V] [--partitions N]
                              [--threads N] [--dirty-threshold F]
                              [--compact-threshold F] [--verify]
                              [--output FILE] [--json]
  tipdecomp serve <edges.tsv> [--partitions N] [--threads N]
                              [--dirty-threshold F] [--compact-threshold F]
                              [--verify] [--requests FILE] [--socket PATH]
                              [--output FILE] [--wal DIR]
                              [--checkpoint-every N]
  tipdecomp convert <in> <out> [--from text|binary] [--to text|binary]
                              [--json]
  tipdecomp recover <dir>     [--json] [--output FILE]
  tipdecomp version tag  <dir> <name>      [--json] [--output FILE]
  tipdecomp version list <dir>             [--json] [--output FILE]
  tipdecomp version diff <dir> <a> <b>     [--json] [--output FILE]
  tipdecomp version at   <dir> <name>      [--verify] [--dump FILE]
                              [--json] [--output FILE]
  tipdecomp derive subgraph <a> --ids 0,2,5 [--side U|V] --output FILE
                              [--json]
  tipdecomp derive union <a> <b>  --output FILE [--json]
  tipdecomp derive diff  <a> <b>  --output FILE [--json]
  tipdecomp ktips <edges.tsv> -k N [--side U|V]
  tipdecomp stats <edges.tsv>
  tipdecomp generate <It|De|Or|Lj|En|Tr> [--output FILE]

Options may come in any order, before or after the positional arguments.
An option the subcommand does not list, an option missing its value, or a
missing or extra positional argument is a usage error (exit 2).
Input: whitespace-separated `u v` pairs; `%`/`#` comments ignored; a
`% m nu nv` header pins side sizes and 0-based ids, otherwise 1-based
ids are auto-detected (KONECT format).
Stream ops: `+ u v` inserts, `- u v` deletes (sign may be glued to u);
blank lines separate batches. Ops share the graph file's id base (a
1-based graph file means 1-based ops). Each batch updates butterfly
counts incrementally and re-peels per the dirty-fraction policy;
`--verify` additionally checks every batch against a from-scratch
recount + BUP. Without `--output`, stream rows are flushed after every
batch so long-running streams can be tailed (`--json` then emits one
compact row per line followed by the full report document).
Serve: resident epoch-snapshot engine answering point queries (tip,
butterflies, topk, stats, epoch) and `apply` batches. Default speaks
length-prefixed JSON frames (ASCII byte length, newline, payload) on
stdin/stdout, `--socket` the same over a Unix socket; `--requests FILE`
replays newline-delimited JSON requests and emits one `serve-session`
report document. See README, \"Serve mode\".
Durability: `serve --wal DIR` logs every applied batch to a write-ahead
log before it takes effect and folds periodic checkpoints; if DIR
already holds a store the graph file is ignored and the store is
recovered instead. `convert` translates between the KONECT text format
and the checksummed `.bgr` binary image (formats inferred from the
`.bgr` extension unless `--from`/`--to` say otherwise). `recover DIR`
repairs a torn WAL tail, replays committed records past the
checkpoint, and verifies the result against a from-scratch recount +
re-peel. On-disk layouts are pinned in FORMATS.md.
Versioning: `version tag DIR NAME` names the store's current end state
as an immutable version; `list` shows every version; `diff A B` emits
the net `+/-` batch between two versions (stream-compatible lines);
`at NAME` replays to the tagged LSN, checks the state's checksums
against the ref, and (with `--dump`) writes the materialized graph for
`derive` to consume. `derive` builds new graphs set-algebraically:
`subgraph` induces on `--ids` of `--side` (the subset becomes the new
U side), `union`/`diff` merge or subtract edge sets. Contracts and
`versions.meta` bytes are pinned in VERSIONING.md; serve mode speaks
the same `tag`/`at` as request ops.
Output: `--json` emits a versioned report document (see README, \"JSON
output\") instead of TSV; `--out` is an alias for `--output`.
";

/// One entry of the option table: what a subcommand — or one operation
/// of `version`/`derive` — accepts.
struct Spec {
    /// The words that select the entry: `"tip"`, or `"version at"`.
    name: &'static str,
    /// Required positional arguments, in order, as the "needs" error
    /// names them.
    positionals: &'static [&'static str],
    /// Options that take a value. `--out` is accepted wherever
    /// `--output` is.
    values: &'static [&'static str],
    /// Options that take none.
    flags: &'static [&'static str],
}

const fn spec(
    name: &'static str,
    positionals: &'static [&'static str],
    values: &'static [&'static str],
    flags: &'static [&'static str],
) -> Spec {
    Spec {
        name,
        positionals,
        values,
        flags,
    }
}

impl Spec {
    /// The subcommand word and the operation word (empty if none).
    fn words(&self) -> (&'static str, &'static str) {
        self.name.split_once(' ').unwrap_or((self.name, ""))
    }

    fn takes_value(&self, option: &str) -> bool {
        let alias = option == "--out" && self.values.contains(&"--output");
        alias || self.values.contains(&option)
    }

    fn accepts(&self, option: &str) -> bool {
        self.takes_value(option) || self.flags.contains(&option)
    }
}

const INPUT: &[&str] = &["an input file"];
const STORE: &[&str] = &["a store directory"];
const STORE_TAG: &[&str] = &["a store directory", "a tag name"];
const TWO_GRAPHS: &[&str] = &["an input graph", "a second input graph"];
const OUT: &[&str] = &["--output"];
const JSON: &[&str] = &["--json"];

/// The option table: every argument `tipdecomp` accepts, declared once.
/// Columns: name, positionals, options with a value, flags.
const SPECS: &[Spec] = &[
    spec(
        "tip",
        INPUT,
        &["--side", "--partitions", "--threads", "--output"],
        &["--no-huc", "--no-dgm", "--json", "--stats"],
    ),
    spec("wing", INPUT, &["--side", "--partitions", "--output"], JSON),
    spec("count", INPUT, OUT, JSON),
    spec(
        "stream",
        &["a graph file", "an ops file"],
        &[
            "--side",
            "--partitions",
            "--threads",
            "--dirty-threshold",
            "--compact-threshold",
            "--output",
        ],
        &["--verify", "--json"],
    ),
    spec(
        "serve",
        INPUT,
        &[
            "--partitions",
            "--threads",
            "--dirty-threshold",
            "--compact-threshold",
            "--requests",
            "--socket",
            "--output",
            "--wal",
            "--checkpoint-every",
        ],
        &["--verify"],
    ),
    spec(
        "convert",
        &["an input file", "an output file"],
        &["--from", "--to"],
        JSON,
    ),
    spec("recover", STORE, OUT, JSON),
    spec("version tag", STORE_TAG, OUT, JSON),
    spec("version list", STORE, OUT, JSON),
    spec(
        "version diff",
        &["a store directory", "a tag name", "a second tag name"],
        OUT,
        JSON,
    ),
    spec(
        "version at",
        STORE_TAG,
        &["--dump", "--output"],
        &["--verify", "--json"],
    ),
    spec(
        "derive subgraph",
        &["an input graph"],
        &["--ids", "--side", "--output"],
        JSON,
    ),
    spec("derive union", TWO_GRAPHS, OUT, JSON),
    spec("derive diff", TWO_GRAPHS, OUT, JSON),
    spec("ktips", INPUT, &["-k", "--side"], &[]),
    spec("stats", INPUT, &[], &[]),
    spec("generate", &["a preset name"], OUT, &[]),
];

/// A command line scanned against its table entry.
struct Args {
    spec: &'static Spec,
    /// Positional arguments after the `version`/`derive` operation word.
    positionals: Vec<String>,
    /// Options in command-line order; flags carry no value.
    options: Vec<(String, Option<String>)>,
}

impl Args {
    /// Scans `rest` (everything after the subcommand word `cmd`). Options
    /// may come in any position; the first option the entry does not
    /// declare, a value option without a value, and a missing or extra
    /// positional are usage errors.
    fn scan(cmd: &str, rest: &[String]) -> Result<Args, UsageError> {
        let entries: Vec<&'static Spec> = SPECS.iter().filter(|s| s.words().0 == cmd).collect();
        if entries.is_empty() {
            return Err(UsageError(format!("unknown command {cmd:?}")));
        }
        let mut positionals = Vec::new();
        let mut options = Vec::new();
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                positionals.push(arg.clone());
                continue;
            }
            // Whether an option takes a value is the same in every entry
            // of one subcommand, so it is known before the operation is.
            let mut value = None;
            if entries.iter().any(|s| s.takes_value(arg)) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => value = Some(v.clone()),
                    _ => return Err(UsageError(format!("{arg} needs a value"))),
                }
            }
            options.push((arg.clone(), value));
        }
        let spec = match entries.as_slice() {
            [only] => only,
            _ => {
                // `version`/`derive`: the first positional picks the entry.
                let ops: Vec<&str> = entries.iter().map(|s| s.words().1).collect();
                let ops = ops.join(", ");
                if positionals.is_empty() {
                    return Err(UsageError(format!("`{cmd}` needs an operation: {ops}")));
                }
                let op = positionals.remove(0);
                entries
                    .iter()
                    .find(|s| s.words().1 == op)
                    .ok_or_else(|| UsageError(format!("unknown {cmd} operation {op:?} ({ops})")))?
            }
        };
        if let Some((option, _)) = options.iter().find(|(o, _)| !spec.accepts(o)) {
            return Err(UsageError(format!(
                "unknown option {option} for `{}`",
                spec.name
            )));
        }
        let want = spec.positionals;
        if let Some(missing) = want.get(positionals.len()..).filter(|m| !m.is_empty()) {
            return Err(UsageError(format!(
                "`{}` needs {}",
                spec.name,
                missing.join(" and ")
            )));
        }
        if let Some(extra) = positionals.get(want.len()) {
            return Err(UsageError(format!(
                "unexpected argument {extra:?} for `{}`",
                spec.name
            )));
        }
        Ok(Args {
            spec,
            positionals,
            options,
        })
    }

    fn positional(&self, i: usize) -> String {
        self.positionals[i].clone()
    }

    fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(o, _)| o == name)
    }

    /// The first value given for `name`; `--out` stands in for a missing
    /// `--output`.
    fn value(&self, name: &str) -> Option<String> {
        let first = |n: &str| {
            let (_, value) = self.options.iter().find(|(o, _)| o == n)?;
            value.clone()
        };
        match first(name) {
            None if name == "--output" => first("--out"),
            given => given,
        }
    }

    /// The value of `name` parsed as a `T`, if given.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        let parse = |s: String| {
            s.parse()
                .map_err(|_| UsageError(format!("invalid value {s:?} for {name}")))
        };
        self.value(name).map(parse).transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, UsageError> {
        self.parsed(name)?
            .ok_or_else(|| UsageError(format!("`{}` needs {name}", self.spec.name)))
    }

    fn side(&self) -> Result<Side, UsageError> {
        match self
            .value("--side")
            .map(|s| s.to_ascii_uppercase())
            .as_deref()
        {
            None | Some("U") => Ok(Side::U),
            Some("V") => Ok(Side::V),
            Some(s) => Err(UsageError(format!("--side expects U or V, got {s:?}"))),
        }
    }

    /// `--from`/`--to` of `convert`: `text` or `binary`, any case.
    fn format(&self, name: &str) -> Result<Option<String>, UsageError> {
        match self.value(name).map(|s| s.to_ascii_lowercase()) {
            Some(s) if s != "text" && s != "binary" => Err(UsageError(format!(
                "{name} expects text or binary, got {s:?}"
            ))),
            format => Ok(format),
        }
    }

    /// The decomposition knobs: `--partitions`, `--threads`, and the
    /// `--no-huc`/`--no-dgm` ablations where the entry declares them.
    fn config(&self) -> Result<Config, UsageError> {
        let mut config = Config::default();
        config.partitions = self.parsed("--partitions")?.unwrap_or(config.partitions);
        config.threads = self.parsed("--threads")?.unwrap_or(config.threads);
        config.huc = !self.flag("--no-huc");
        config.dgm = !self.flag("--no-dgm");
        Ok(config)
    }

    /// The engine settings of `stream` and `serve`.
    fn engine_options(&self) -> Result<EngineOptions, UsageError> {
        let defaults = EngineOptions::default();
        Ok(EngineOptions {
            config: self.config()?,
            dirty_threshold: self
                .parsed("--dirty-threshold")?
                .unwrap_or(defaults.dirty_threshold),
            compact_threshold: self
                .parsed("--compact-threshold")?
                .unwrap_or(defaults.compact_threshold),
            verify: self.flag("--verify"),
        })
    }
}

/// Parses `args` (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let a = Args::scan(cmd, rest)?;
    Ok(match a.spec.name {
        "tip" => Command::Tip {
            input: a.positional(0),
            side: a.side()?,
            config: a.config()?,
            output: a.value("--output"),
            json: a.flag("--json"),
            stats: a.flag("--stats"),
        },
        "wing" => Command::Wing {
            input: a.positional(0),
            side: a.side()?,
            partitions: a.parsed("--partitions")?.unwrap_or(0),
            output: a.value("--output"),
            json: a.flag("--json"),
        },
        "count" => Command::Count {
            input: a.positional(0),
            output: a.value("--output"),
            json: a.flag("--json"),
        },
        "stream" => Command::Stream {
            input: a.positional(0),
            ops: a.positional(1),
            side: a.side()?,
            options: a.engine_options()?,
            output: a.value("--output"),
            json: a.flag("--json"),
        },
        "serve" => Command::Serve {
            input: a.positional(0),
            options: a.engine_options()?,
            requests: a.value("--requests"),
            socket: a.value("--socket"),
            output: a.value("--output"),
            wal: a.value("--wal"),
            checkpoint_every: a
                .parsed("--checkpoint-every")?
                .unwrap_or(receipt::wal::DEFAULT_CHECKPOINT_EVERY),
        },
        "convert" => Command::Convert {
            input: a.positional(0),
            output: a.positional(1),
            from: a.format("--from")?,
            to: a.format("--to")?,
            json: a.flag("--json"),
        },
        "recover" => Command::Recover {
            dir: a.positional(0),
            json: a.flag("--json"),
            output: a.value("--output"),
        },
        "ktips" => Command::KTips {
            input: a.positional(0),
            side: a.side()?,
            k: a.required("-k")?,
        },
        "stats" => Command::Stats {
            input: a.positional(0),
        },
        "generate" => Command::Generate {
            preset: a.positional(0),
            output: a.value("--output"),
        },
        name if name.starts_with("version ") => Command::Version {
            op: a.spec.words().1.to_string(),
            dir: a.positional(0),
            names: a.positionals[1..].to_vec(),
            verify: a.flag("--verify"),
            dump: a.value("--dump"),
            json: a.flag("--json"),
            output: a.value("--output"),
        },
        // The three `derive` operations.
        name => Command::Derive {
            op: a.spec.words().1.to_string(),
            a: a.positional(0),
            b: a.positionals.get(1).cloned(),
            ids: match name {
                "derive subgraph" => a
                    .required::<String>("--ids")?
                    .split(',')
                    .map(|s| {
                        s.trim().parse().map_err(|_| {
                            UsageError(format!("--ids expects comma-separated ids, got {s:?}"))
                        })
                    })
                    .collect::<Result<_, _>>()?,
                _ => Vec::new(),
            },
            side: a.side()?,
            output: a.required("--output")?,
            json: a.flag("--json"),
        },
    })
}

fn load(input: &str) -> Result<BipartiteCsr, String> {
    // `read_graph_path` wraps every failure with the offending path
    // (`IoError::File`), so the message already reads "failed to read
    // <path>: ...".
    bigraph::io::read_graph_path(input).map_err(|e| e.to_string())
}

/// Reads a graph as the FORMATS.md §1 binary image or as KONECT text.
fn read_graph_as(path: &str, binary: bool) -> Result<BipartiteCsr, String> {
    if binary {
        bigraph::binfmt::read_binary_graph_path(path)
            .map(|r| r.graph)
            .map_err(|e| e.to_string())
    } else {
        load(path)
    }
}

/// Writes a graph as the FORMATS.md §1 binary image or as KONECT text.
fn write_graph_as(g: &BipartiteCsr, path: &str, binary: bool) -> Result<(), String> {
    let written = if binary {
        bigraph::binfmt::write_binary_graph_path(path, g)
            .map(|_| ())
            .map_err(|e| e.to_string())
    } else {
        bigraph::io::write_graph_path(g, path).map_err(|e| e.to_string())
    };
    written.map_err(|e| format!("cannot write {path}: {e}"))
}

/// `.bgr` names the binary image; anything else is KONECT text.
fn is_binary(path: &str) -> bool {
    path.ends_with(".bgr")
}

/// Writes a command's result in one go, to `output` or else to stdout,
/// and flushes it.
fn emit(text: &str, output: &Option<String>) -> Result<(), String> {
    let mut out: Box<dyn Write> = match output {
        None => Box::new(std::io::stdout().lock()),
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?)
        }
    };
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

/// A report document, pretty-printed with a trailing newline.
fn pretty<T: serde::Serialize>(report: &T) -> Result<String, String> {
    serde_json::to_string_pretty(report)
        .map(|text| text + "\n")
        .map_err(|e| e.to_string())
}

/// The durable store at `dir`; a run error if there is none.
fn store_at(dir: &str) -> Result<&Path, String> {
    let path = Path::new(dir);
    if receipt::wal::Store::exists(path) {
        Ok(path)
    } else {
        Err(format!(
            "no store at {dir} (expected checkpoint.meta; see FORMATS.md \u{a7}4)"
        ))
    }
}

const STREAM_HEADER: &str =
    "# batch\t+ins\t-del\tskip\tgained\tlost\ttotal_bf\tpolicy\tdirty\ttheta_max\n";

/// One TSV row of `stream`'s text output.
fn stream_row(b: &receipt::report::StreamBatchReport) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        b.batch,
        b.inserted,
        b.deleted,
        b.skipped,
        b.butterflies_gained,
        b.butterflies_lost,
        b.total_butterflies,
        b.policy.as_str(),
        b.dirty,
        b.theta_max,
    )
}

/// Aligns ops-file ids with the graph file's id base: a 1-based graph
/// file means a 1-based ops file, so shift the ops down identically.
fn rebase_ops(
    batches: Vec<Vec<bigraph::EdgeOp>>,
    graph_one_based: bool,
    ops_path: &str,
) -> Result<Vec<Vec<bigraph::EdgeOp>>, String> {
    use bigraph::EdgeOp;
    if !graph_one_based {
        return Ok(batches);
    }
    batches
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|op| {
                    let (u, v) = op.edge();
                    if u == 0 || v == 0 {
                        return Err(format!(
                            "{ops_path}: op references id 0 but the graph file is 1-based \
                             (ops share the graph file's id base)"
                        ));
                    }
                    Ok(match op {
                        EdgeOp::Insert(..) => EdgeOp::Insert(u - 1, v - 1),
                        EdgeOp::Delete(..) => EdgeOp::Delete(u - 1, v - 1),
                    })
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Serve mode: length-prefixed JSON frames over stdin/stdout or a Unix
// socket, or a scripted newline-delimited session (`--requests`). All ids
// on the wire share the graph file's id base, exactly like stream ops.

/// Reads one length-prefixed frame: an ASCII decimal byte length, a
/// newline, then exactly that many payload bytes. Returns `None` on clean
/// EOF (or a blank line, which closes the session like EOF).
pub fn read_frame(reader: &mut dyn BufRead) -> Result<Option<String>, String> {
    let mut header = String::new();
    let n = reader
        .read_line(&mut header)
        .map_err(|e| format!("serve: failed to read frame header: {e}"))?;
    let header = header.trim();
    if n == 0 || header.is_empty() {
        return Ok(None);
    }
    let len: usize = header.parse().map_err(|_| {
        format!("serve: frame header must be a decimal byte length, got {header:?}")
    })?;
    let mut payload = vec![0u8; len];
    reader
        .read_exact(&mut payload)
        .map_err(|e| format!("serve: truncated {len}-byte frame: {e}"))?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| format!("serve: frame payload is not UTF-8: {e}"))
}

/// Writes one length-prefixed frame and flushes it.
pub fn write_frame(writer: &mut dyn Write, payload: &str) -> Result<(), String> {
    write!(writer, "{}\n{payload}", payload.len()).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())
}

/// A request field that is present and not `null`. Absent and `null`
/// fields take their default; a present field of the wrong type is an
/// `ok: false` answer naming it.
fn req_field<'a>(value: &'a serde_json::Value, field: &str) -> Option<&'a serde_json::Value> {
    value.get(field).filter(|e| !e.is_null())
}

/// Reads an optional vertex-id field, shifting it down when the graph
/// file (and therefore the wire protocol) is 1-based.
fn req_id(value: &serde_json::Value, field: &str, one_based: bool) -> Result<Option<u32>, String> {
    let Some(entry) = req_field(value, field) else {
        return Ok(None);
    };
    let id = entry
        .as_u64()
        .ok_or_else(|| format!("{field} must be a non-negative integer"))?;
    if one_based && id == 0 {
        return Err(format!(
            "{field} is 0 but the graph file is 1-based (ids share its base)"
        ));
    }
    let id = if one_based { id - 1 } else { id };
    u32::try_from(id)
        .map(Some)
        .map_err(|_| format!("{field} {id} out of range"))
}

/// The optional `side` field: `"U"` or `"V"` in either case, U by default.
fn req_side(value: &serde_json::Value) -> Result<Side, String> {
    let Some(entry) = req_field(value, "side") else {
        return Ok(Side::U);
    };
    match entry.as_str() {
        Some(s) if s.eq_ignore_ascii_case("U") => Ok(Side::U),
        Some(s) if s.eq_ignore_ascii_case("V") => Ok(Side::V),
        _ => Err(format!("side must be \"U\" or \"V\", got {entry}")),
    }
}

/// `topk`'s optional `k`: a non-negative integer, 10 by default.
fn req_k(value: &serde_json::Value) -> Result<usize, String> {
    let Some(entry) = req_field(value, "k") else {
        return Ok(10);
    };
    entry
        .as_u64()
        .map(|k| usize::try_from(k).unwrap_or(usize::MAX))
        .ok_or_else(|| format!("k must be a non-negative integer, got {entry}"))
}

/// Answers one serve request. `Ok((response, shutdown))` covers both
/// well-formed answers and per-request errors (`ok: false` responses —
/// unknown op, out-of-range vertex, absent edge); `Err` is reserved for
/// fatal session failures, i.e. an `apply` whose in-engine differential
/// verification diverged.
pub fn handle_request(
    engine: &StreamEngine,
    one_based: bool,
    seq: u64,
    text: &str,
) -> Result<(ServeResponse, bool), String> {
    // Every query answers from ONE snapshot grabbed up front, so the
    // response is internally consistent with a single epoch even while a
    // writer publishes mid-request.
    let snapshot = engine.snapshot();
    let epoch = snapshot.epoch();
    let fail = |op: &str, e: String| Ok((ServeResponse::error(seq, op, epoch, e), false));

    let value = match serde_json::from_str_value(text) {
        Ok(v) => v,
        Err(e) => return fail("?", format!("unparseable request: {e}")),
    };
    let Some(op) = value.get("op").and_then(|v| v.as_str()).map(str::to_owned) else {
        return fail("?", "request needs a string `op` field".into());
    };

    let side = match req_side(&value) {
        Ok(s) => s,
        Err(e) => return fail(&op, e),
    };
    let has_vertex = req_field(&value, "vertex").is_some();
    let mut response = ServeResponse::new(seq, &op, epoch);
    match op.as_str() {
        "tip" | "butterflies" if has_vertex || op == "tip" => {
            let vertex = match req_id(&value, "vertex", one_based) {
                Ok(Some(v)) => v,
                Ok(None) => return fail(&op, format!("{op} needs a `vertex` field")),
                Err(e) => return fail(&op, e),
            };
            let answer = match op.as_str() {
                "tip" => snapshot.tip(side, vertex),
                _ => snapshot.vertex_butterflies(side, vertex),
            };
            match answer {
                Some(v) => response.value = Some(v),
                None => return fail(&op, format!("vertex {vertex} out of range on side {side}")),
            }
        }
        "butterflies" => {
            // Edge form: `{"op": "butterflies", "u": .., "v": ..}`.
            let (u, v) = match (
                req_id(&value, "u", one_based),
                req_id(&value, "v", one_based),
            ) {
                (Ok(Some(u)), Ok(Some(v))) => (u, v),
                (Err(e), _) | (_, Err(e)) => return fail(&op, e),
                _ => {
                    return fail(
                        &op,
                        "butterflies needs either `vertex` (+ optional `side`) or `u` and `v`"
                            .into(),
                    )
                }
            };
            match snapshot.edge_butterflies(u, v) {
                Some(c) => response.value = Some(c),
                None => return fail(&op, format!("edge ({u}, {v}) is absent")),
            }
        }
        "topk" => {
            let k = match req_k(&value) {
                Ok(k) => k,
                Err(e) => return fail(&op, e),
            };
            let shift = u32::from(one_based);
            response.topk = Some(
                snapshot
                    .top_k_densest(side, k)
                    .into_iter()
                    .map(|d| TopKEntry {
                        id: d.id + shift,
                        side,
                        tip: d.tip,
                        butterflies: d.butterflies,
                    })
                    .collect(),
            );
        }
        "stats" => response.stats = Some(ServeStats::from_snapshot(&snapshot)),
        "epoch" => response.value = Some(epoch),
        "apply" => {
            let Some(items) = value.get("ops").and_then(|v| v.as_array()) else {
                return fail(
                    &op,
                    "apply needs an `ops` array of \"+u v\" / \"-u v\" strings".into(),
                );
            };
            let mut text = String::new();
            for item in items {
                let Some(line) = item.as_str() else {
                    return fail(&op, "apply ops must be strings".into());
                };
                // Blank entries would split batches in the file format;
                // one request is one batch.
                if line.trim().is_empty() {
                    continue;
                }
                text.push_str(line);
                text.push('\n');
            }
            let batches = match bigraph::dynamic::read_batches(text.as_bytes()) {
                Ok(b) => b,
                Err(e) => return fail(&op, format!("bad apply ops: {e}")),
            };
            let batch: Vec<bigraph::EdgeOp> = batches.into_iter().flatten().collect();
            let batch = match rebase_ops(vec![batch], one_based, "apply request") {
                Ok(mut b) => b.pop().unwrap_or_default(),
                Err(e) => return fail(&op, e),
            };
            // A verification divergence is fatal: the engine state can no
            // longer be trusted, so the session dies rather than `ok:
            // false`-ing its way onward.
            let outcome = engine
                .apply_batch(&batch)
                .map_err(|e| format!("apply (seq {seq}): {e}"))?;
            // A failed checkpoint fold is non-fatal (the batch is
            // committed and published): warn and keep serving.
            if let Some(warning) = &outcome.checkpoint_error {
                eprintln!("wal: warning: {warning}; retrying at the next boundary");
            }
            response.epoch = outcome.epoch;
            response.batch = Some(receipt::report::StreamBatchReport::from_outcome(
                outcome.epoch as usize - 1,
                side,
                &outcome,
            ));
        }
        "tag" => {
            // Versioning ops need the durable store next to the WAL
            // (`VERSIONING.md` §2); a memory-only engine has no history
            // to tag.
            let Some(dir) = engine.store_dir() else {
                return fail(&op, "tag requires a durable store (serve --wal DIR)".into());
            };
            let Some(name) = value.get("name").and_then(|v| v.as_str()) else {
                return fail(&op, "tag needs a string `name` field".into());
            };
            let mut versions = match receipt::version::VersionStore::open(&dir) {
                Ok(v) => v,
                Err(e) => return fail(&op, e.to_string()),
            };
            // The tag names the engine's current end state (§3.2): the
            // published snapshot plus the LSN it was committed under.
            let lsn = engine.end_lsn().unwrap_or(0);
            match versions.tag_snapshot(name, lsn, &snapshot) {
                Ok(vref) => {
                    response.version = Some(receipt::report::VersionEntryReport::from_ref(vref))
                }
                Err(e) => return fail(&op, e.to_string()),
            }
        }
        "at" => {
            let Some(dir) = engine.store_dir() else {
                return fail(&op, "at requires a durable store (serve --wal DIR)".into());
            };
            let Some(name) = value.get("name").and_then(|v| v.as_str()) else {
                return fail(&op, "at needs a string `name` field".into());
            };
            // Time travel replays into a throwaway read-only engine;
            // `open_at` already checksum-verifies the reached state, so
            // the per-batch differential oracle stays off.
            let mut options = engine.options().clone();
            options.verify = false;
            match StreamEngine::open_at(&dir, name, options) {
                Ok((historic, info)) => {
                    response.version =
                        Some(receipt::report::VersionEntryReport::from_ref(&info.version));
                    response.stats = Some(ServeStats::from_snapshot(&historic.snapshot()));
                }
                Err(e) => return fail(&op, e.to_string()),
            }
        }
        "shutdown" => return Ok((response, true)),
        other => return fail(other, format!("unknown op {other:?}")),
    }
    Ok((response, false))
}

/// Serves length-prefixed frames until EOF or a `shutdown` request.
/// Returns `true` iff the session ended with an explicit `shutdown` (so a
/// socket server can distinguish "client went away" from "stop serving").
pub fn serve_framed(
    engine: &StreamEngine,
    one_based: bool,
    reader: &mut dyn BufRead,
    writer: &mut dyn Write,
) -> Result<bool, String> {
    let mut seq = 0u64;
    while let Some(text) = read_frame(reader)? {
        let (response, shutdown) = handle_request(engine, one_based, seq, &text)?;
        let payload = serde_json::to_string(&response).map_err(|e| e.to_string())?;
        write_frame(writer, &payload)?;
        seq += 1;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Replays a newline-delimited JSON request script (blank lines and `#`
/// comments skipped) and returns every response in order. Stops early at
/// `shutdown`; fails the whole session on a fatal `apply` divergence.
pub fn run_scripted_session(
    engine: &StreamEngine,
    one_based: bool,
    script: &str,
) -> Result<Vec<ServeResponse>, String> {
    let mut responses = Vec::new();
    let mut seq = 0u64;
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (response, shutdown) = handle_request(engine, one_based, seq, line)?;
        responses.push(response);
        seq += 1;
        if shutdown {
            break;
        }
    }
    Ok(responses)
}

/// Executes a parsed command. Results are written once, through `emit`;
/// only `stream` without `--output` writes a row per batch.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => emit(USAGE, &None),
        Command::Tip {
            input,
            side,
            config,
            output,
            json,
            stats,
        } => {
            let g = load(&input)?;
            let d = receipt::tip_decompose(&g, side, &config);
            let text = if json {
                pretty(&receipt::report::TipReport::new(&input, &config, &d))?
            } else {
                let rows: String = d
                    .tip
                    .iter()
                    .enumerate()
                    .map(|(u, t)| format!("{u}\t{t}\n"))
                    .collect();
                format!("# vertex\ttip_number\n{rows}")
            };
            emit(&text, &output)?;
            if stats {
                let m = &d.metrics;
                eprintln!(
                    "theta_max={} wedges={} (count {}, cd {}, fd {}) rounds={} \
                     recounts={} compactions={} partitions={} time={:.3}s",
                    d.theta_max(),
                    m.wedges_total(),
                    m.wedges_count,
                    m.wedges_cd,
                    m.wedges_fd,
                    m.sync_rounds,
                    m.recounts,
                    m.compactions,
                    m.partitions_used,
                    m.time_total().as_secs_f64()
                );
            }
            Ok(())
        }
        Command::Wing {
            input,
            side,
            partitions,
            output,
            json,
        } => {
            let g = load(&input)?;
            let view = g.view(side);
            let (d, wing_metrics) = if partitions > 0 {
                let (d, m) = receipt::wing_parallel::receipt_wing_decompose(view, partitions, 4);
                (d, Some(m))
            } else {
                (receipt::wing::wing_decompose(view, 4), None)
            };
            let text = if json {
                pretty(&receipt::report::WingReport::new(
                    &input,
                    side,
                    partitions,
                    &d,
                    wing_metrics,
                ))?
            } else {
                let rows: String = d
                    .edges
                    .iter()
                    .zip(&d.wing)
                    .map(|((u, v), w)| format!("{u}\t{v}\t{w}\n"))
                    .collect();
                format!("# u\tv\twing_number\n{rows}")
            };
            emit(&text, &output)
        }
        Command::Count {
            input,
            output,
            json,
        } => {
            let g = load(&input)?;
            let c = butterfly::par_count_graph(&g);
            if json {
                return emit(
                    &pretty(&receipt::report::CountReport::new(&input, &c))?,
                    &output,
                );
            }
            let mut text = String::from("# side\tvertex\tbutterflies\n");
            for (side, counts) in [("U", &c.u), ("V", &c.v)] {
                text.extend(
                    counts
                        .iter()
                        .enumerate()
                        .map(|(x, b)| format!("{side}\t{x}\t{b}\n")),
                );
            }
            emit(&text, &output)?;
            eprintln!("total butterflies: {}", c.total());
            Ok(())
        }
        Command::Stream {
            input,
            ops,
            side,
            options,
            output,
            json,
        } => {
            // Ops share the graph file's id base: load both together and
            // shift the ops down when the graph was 1-based.
            let (g, one_based) =
                bigraph::io::read_graph_path_with_base(&input).map_err(|e| e.to_string())?;
            let file =
                std::fs::File::open(&ops).map_err(|e| format!("failed to read {ops}: {e}"))?;
            let batches = bigraph::dynamic::read_batches(file)
                .map_err(|e| format!("failed to read {ops}: {e}"))?;
            let batches = rebase_ops(batches, one_based, &ops)?;
            // Without `--output`, every row is written (and flushed) the
            // moment its batch completes so long-running streams can be
            // tailed: TSV rows in text mode, one compact JSON row per line
            // in `--json` mode (followed by the full report document).
            // With `--output` the whole document is built first and
            // written once — byte-identical to the pre-incremental format,
            // which the golden snapshots rely on.
            let incremental = output.is_none();
            // With `verify`, the engine differentially checks every batch
            // against a from-scratch recount and a BUP re-peel of the
            // materialized graph (a mismatch is a run error → exit 1).
            let report = options.config.install(|| {
                let engine = StreamEngine::new(g, options.clone());
                let mut rows = Vec::with_capacity(batches.len());
                for (i, batch) in batches.iter().enumerate() {
                    let outcome = engine
                        .apply_batch(batch)
                        .map_err(|e| format!("batch {i}: {e}"))?;
                    let row = receipt::report::StreamBatchReport::from_outcome(i, side, &outcome);
                    if incremental && json {
                        let line = serde_json::to_string(&row).map_err(|e| e.to_string())?;
                        emit(&(line + "\n"), &None)?;
                    } else if incremental {
                        let header = if i == 0 { STREAM_HEADER } else { "" };
                        emit(&(header.to_string() + &stream_row(&row)), &None)?;
                    }
                    rows.push(row);
                }
                let snapshot = engine.snapshot();
                Ok::<_, String>(receipt::report::StreamReport {
                    schema_version: receipt::report::SCHEMA_VERSION,
                    kind: "stream".to_string(),
                    input: input.clone(),
                    ops: ops.clone(),
                    side,
                    config: options.config.clone(),
                    dirty_threshold: options.dirty_threshold,
                    verified: options.verify,
                    batches: rows,
                    final_num_edges: snapshot.graph().num_edges(),
                    final_total_butterflies: snapshot.total_butterflies(),
                    final_theta_max: snapshot.theta_max(side),
                    final_tip_checksum: snapshot.tip_checksum(side),
                })
            })?;
            if json && incremental {
                // Compact final document after the NDJSON rows.
                let line = serde_json::to_string(&report).map_err(|e| e.to_string())?;
                return emit(&(line + "\n"), &None);
            }
            if json {
                return emit(&pretty(&report)?, &output);
            }
            if !incremental {
                let rows: String = report.batches.iter().map(stream_row).collect();
                emit(&(STREAM_HEADER.to_string() + &rows), &output)?;
            }
            eprintln!(
                "{} batches; final: |E| = {}, butterflies = {}, theta_max = {}{}",
                report.batches.len(),
                report.final_num_edges,
                report.final_total_butterflies,
                report.final_theta_max,
                if options.verify {
                    ", all batches verified"
                } else {
                    ""
                }
            );
            Ok(())
        }
        Command::Serve {
            input,
            options,
            requests,
            socket,
            output,
            wal,
            checkpoint_every,
        } => {
            // Serve shares stream's id-base rule: wire ids follow the
            // graph file (a 1-based file means 1-based requests).
            let (g, one_based) =
                bigraph::io::read_graph_path_with_base(&input).map_err(|e| e.to_string())?;
            let verify = options.verify;
            let config = options.config.clone();
            let drive = move || -> Result<(), String> {
                let engine = match &wal {
                    None => StreamEngine::new(g, options),
                    Some(dir) => {
                        // Durable: an existing store is the truth (the
                        // graph file only seeds a fresh one).
                        let (engine, info) = StreamEngine::open_durable(
                            Path::new(dir),
                            Some(g),
                            options,
                            checkpoint_every,
                        )?;
                        if info.created {
                            eprintln!("wal: initialized store at {dir}");
                        } else {
                            eprintln!(
                                "wal: recovered store at {dir}: checkpoint lsn {}, \
                                 replayed {} record(s), end lsn {}{}",
                                info.checkpoint_lsn,
                                info.replayed,
                                info.end_lsn,
                                match info.repaired {
                                    Some(r) => format!(
                                        " (torn tail repaired, -{} bytes)",
                                        r.discarded_bytes
                                    ),
                                    None => String::new(),
                                }
                            );
                        }
                        engine
                    }
                };
                if let Some(path) = requests {
                    // Scripted session: replay the file, emit one report
                    // document.
                    let script = std::fs::read_to_string(&path)
                        .map_err(|e| format!("failed to read {path}: {e}"))?;
                    let t0 = Instant::now();
                    let responses = run_scripted_session(&engine, one_based, &script)?;
                    let report = ServeSessionReport {
                        schema_version: receipt::report::SCHEMA_VERSION,
                        kind: "serve-session".to_string(),
                        input,
                        requests: path,
                        verified: verify,
                        responses,
                        final_stats: ServeStats::from_snapshot(&engine.snapshot()),
                        time_session_secs: t0.elapsed().as_secs_f64(),
                    };
                    return emit(&pretty(&report)?, &output);
                }
                if let Some(path) = socket {
                    // One connection at a time; the listener keeps
                    // accepting until a client sends `shutdown`.
                    use std::os::unix::net::UnixListener;
                    let _ = std::fs::remove_file(&path);
                    let listener = UnixListener::bind(&path)
                        .map_err(|e| format!("cannot bind {path}: {e}"))?;
                    eprintln!("serving on {path} (epoch {})", engine.epoch());
                    let result = loop {
                        let (stream, _) = match listener.accept() {
                            Ok(pair) => pair,
                            Err(e) => break Err(format!("accept failed: {e}")),
                        };
                        let mut reader =
                            std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                        let mut writer = stream;
                        match serve_framed(&engine, one_based, &mut reader, &mut writer) {
                            Ok(true) => break Ok(()),
                            Ok(false) => continue,
                            // A client vanishing mid-session is not fatal
                            // to the server; a verify divergence is.
                            Err(e) if e.contains("apply") => break Err(e),
                            Err(e) => eprintln!("session error: {e}"),
                        }
                    };
                    let _ = std::fs::remove_file(&path);
                    return result;
                }
                let stdin = std::io::stdin();
                let mut reader = stdin.lock();
                let mut writer = std::io::stdout().lock();
                serve_framed(&engine, one_based, &mut reader, &mut writer).map(|_| ())
            };
            config.install(drive)
        }
        Command::Convert {
            input,
            output,
            from,
            to,
            json,
        } => {
            let format = |path: &str, explicit: Option<String>| {
                explicit.unwrap_or_else(|| (if is_binary(path) { "binary" } else { "text" }).into())
            };
            let from = format(&input, from);
            let to = format(&output, to);
            let t0 = Instant::now();
            let g = read_graph_as(&input, from == "binary")?;
            write_graph_as(&g, &output, to == "binary")?;
            let time_convert_secs = t0.elapsed().as_secs_f64();
            let size = |p: &str| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
            let report = receipt::report::ConvertReport {
                schema_version: receipt::report::SCHEMA_VERSION,
                kind: "convert".to_string(),
                input: input.clone(),
                output: output.clone(),
                from: from.clone(),
                to: to.clone(),
                num_u: g.num_u(),
                num_v: g.num_v(),
                num_edges: g.num_edges(),
                bytes_in: size(&input),
                bytes_out: size(&output),
                time_convert_secs,
            };
            if json {
                return emit(&pretty(&report)?, &None);
            }
            eprintln!(
                "{input} ({from}) -> {output} ({to}): {} x {}, {} edges, {} -> {} bytes",
                report.num_u, report.num_v, report.num_edges, report.bytes_in, report.bytes_out
            );
            Ok(())
        }
        Command::Recover { dir, json, output } => {
            let t0 = Instant::now();
            let (engine, info) =
                StreamEngine::open_durable(store_at(&dir)?, None, EngineOptions::default(), 0)?;
            let time_recover_secs = t0.elapsed().as_secs_f64();
            // "Provable" recovery: the replayed state must agree with a
            // from-scratch recount + re-peel of the materialized graph.
            let t1 = Instant::now();
            engine
                .verify_against_scratch()
                .map_err(|e| format!("recovered state failed oracle verification: {e}"))?;
            let time_verify_secs = t1.elapsed().as_secs_f64();
            let snapshot = engine.snapshot();
            let report = receipt::report::RecoverReport {
                schema_version: receipt::report::SCHEMA_VERSION,
                kind: "recover".to_string(),
                dir: dir.clone(),
                checkpoint_lsn: info.checkpoint_lsn,
                wal_records: info.wal_records,
                replayed: info.replayed,
                skipped: info.skipped,
                torn_tail_repaired: info.repaired.is_some(),
                discarded_bytes: info.repaired.map(|r| r.discarded_bytes).unwrap_or(0),
                end_lsn: info.end_lsn,
                final_epoch: snapshot.epoch(),
                num_u: snapshot.graph().num_u(),
                num_v: snapshot.graph().num_v(),
                num_edges: snapshot.graph().num_edges(),
                total_butterflies: snapshot.total_butterflies(),
                tip_checksum_u: snapshot.tip_checksum(Side::U),
                tip_checksum_v: snapshot.tip_checksum(Side::V),
                verified: true,
                time_recover_secs,
                time_verify_secs,
            };
            let text = if json {
                pretty(&report)?
            } else {
                format!(
                    "recovered {dir}: checkpoint lsn {}, replayed {}/{} record(s) \
                     (skipped {} folded), end lsn {}{}\n\
                     state: {} x {}, {} edges, {} butterflies, tip checksums \
                     {:#018x}/{:#018x}, oracle verified\n",
                    report.checkpoint_lsn,
                    report.replayed,
                    report.wal_records,
                    report.skipped,
                    report.end_lsn,
                    if report.torn_tail_repaired {
                        format!(", torn tail repaired (-{} bytes)", report.discarded_bytes)
                    } else {
                        String::new()
                    },
                    report.num_u,
                    report.num_v,
                    report.num_edges,
                    report.total_butterflies,
                    report.tip_checksum_u,
                    report.tip_checksum_v
                )
            };
            emit(&text, &output)
        }
        Command::Version {
            op,
            dir,
            names,
            verify,
            dump,
            json,
            output,
        } => {
            use receipt::report::{
                TimeTravelReport, VersionDiffReport, VersionEntryReport, VersionReport,
            };
            use receipt::version::{self, VersionStore};
            let dpath = store_at(&dir)?;
            let versions = || VersionStore::open(dpath).map_err(|e| e.to_string());
            let listed =
                |vs: VersionStore| vs.list().iter().map(VersionEntryReport::from_ref).collect();
            let entry_line = |e: &VersionEntryReport| {
                format!(
                    "{}\tlsn {}\t{} butterflies\ttip checksums {:#018x}/{:#018x}",
                    e.name, e.lsn, e.total_butterflies, e.tip_checksum_u, e.tip_checksum_v
                )
            };
            let mut report = VersionReport::new(&op, &dir);
            let text = match op.as_str() {
                "tag" => {
                    let vref = version::tag_head(dpath, &names[0], EngineOptions::default())
                        .map_err(|e| e.to_string())?;
                    let tagged = VersionEntryReport::from_ref(&vref);
                    let text = format!("tagged {}\n", entry_line(&tagged));
                    report.tagged = Some(tagged);
                    report.versions = Some(listed(versions()?));
                    text
                }
                "list" => {
                    let list: Vec<VersionEntryReport> = listed(versions()?);
                    let text = list.iter().map(|e| entry_line(e) + "\n").collect();
                    report.versions = Some(list);
                    text
                }
                "diff" => {
                    let vs = versions()?;
                    let ops: Vec<String> = vs
                        .diff(&names[0], &names[1])
                        .map_err(|e| e.to_string())?
                        .iter()
                        .map(|op| {
                            let (u, v) = op.edge();
                            match op {
                                bigraph::EdgeOp::Insert(..) => format!("+ {u} {v}"),
                                bigraph::EdgeOp::Delete(..) => format!("- {u} {v}"),
                            }
                        })
                        .collect();
                    // Bare batch lines: `--output FILE` yields a file that
                    // `tipdecomp stream` replays as one batch.
                    let text = ops.iter().map(|line| format!("{line}\n")).collect();
                    let count = |sign: char| ops.iter().filter(|l| l.starts_with(sign)).count();
                    report.diff = Some(VersionDiffReport {
                        from: VersionEntryReport::from_ref(vs.lookup(&names[0]).unwrap()),
                        to: VersionEntryReport::from_ref(vs.lookup(&names[1]).unwrap()),
                        inserts: count('+'),
                        deletes: count('-'),
                        ops,
                    });
                    text
                }
                _ => {
                    // `at`: time travel to the tag, optionally oracle-checked.
                    let t0 = Instant::now();
                    let (engine, info) =
                        StreamEngine::open_at(dpath, &names[0], EngineOptions::default())
                            .map_err(|e| e.to_string())?;
                    let time_travel_secs = t0.elapsed().as_secs_f64();
                    let t1 = Instant::now();
                    if verify {
                        engine.verify_against_scratch().map_err(|e| {
                            format!("time-travel state failed oracle verification: {e}")
                        })?;
                    }
                    let time_verify_secs = t1.elapsed().as_secs_f64();
                    let snapshot = engine.snapshot();
                    if let Some(path) = &dump {
                        write_graph_as(snapshot.graph(), path, is_binary(path))?;
                    }
                    let at = TimeTravelReport {
                        version: VersionEntryReport::from_ref(&info.version),
                        checkpoint_lsn: info.checkpoint_lsn,
                        wal_records: info.wal_records,
                        replayed: info.replayed,
                        skipped_folded: info.skipped_folded,
                        skipped_above: info.skipped_above,
                        wal_end: info.wal_end,
                        final_epoch: snapshot.epoch(),
                        num_u: snapshot.graph().num_u(),
                        num_v: snapshot.graph().num_v(),
                        num_edges: snapshot.graph().num_edges(),
                        total_butterflies: snapshot.total_butterflies(),
                        theta_max_u: snapshot.theta_max(Side::U),
                        theta_max_v: snapshot.theta_max(Side::V),
                        tip_checksum_u: snapshot.tip_checksum(Side::U),
                        tip_checksum_v: snapshot.tip_checksum(Side::V),
                        verified: verify,
                        time_travel_secs,
                        time_verify_secs,
                    };
                    let text = format!(
                        "at {}: checkpoint lsn {}, replayed {}/{} record(s) \
                         (skipped {} folded, {} above the tag), wal end {}\n\
                         state: {} x {}, {} edges, {} butterflies{}\n",
                        entry_line(&at.version),
                        at.checkpoint_lsn,
                        at.replayed,
                        at.wal_records,
                        at.skipped_folded,
                        at.skipped_above,
                        at.wal_end,
                        at.num_u,
                        at.num_v,
                        at.num_edges,
                        at.total_butterflies,
                        if at.verified { ", oracle verified" } else { "" }
                    );
                    report.at = Some(at);
                    text
                }
            };
            emit(&if json { pretty(&report)? } else { text }, &output)
        }
        Command::Derive {
            op,
            a,
            b,
            ids,
            side,
            output,
            json,
        } => {
            let t0 = Instant::now();
            let ga = read_graph_as(&a, is_binary(&a))?;
            let derived = match (op.as_str(), &b) {
                ("subgraph", _) => {
                    // VERSIONING.md §6.1: ids strictly increasing,
                    // in-range, non-empty.
                    if ids.is_empty() {
                        return Err(
                            "derive subgraph: --ids must be non-empty (VERSIONING.md \u{a7}6.1)"
                                .into(),
                        );
                    }
                    if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
                        return Err(format!(
                            "derive subgraph: --ids must be strictly increasing \
                             (VERSIONING.md \u{a7}6.1), got {} before {}",
                            w[0], w[1]
                        ));
                    }
                    let n = match side {
                        Side::U => ga.num_u(),
                        Side::V => ga.num_v(),
                    };
                    let max = *ids.last().unwrap();
                    if max as usize >= n {
                        return Err(format!(
                            "derive subgraph: id {max} out of range (side {side} has {n} \
                             vertices)"
                        ));
                    }
                    bigraph::InducedGraph::new(ga.view(side), &ids)
                        .csr()
                        .clone()
                }
                (op, Some(b)) => {
                    let gb = read_graph_as(b, is_binary(b))?;
                    if op == "union" {
                        bigraph::derive::union(&ga, &gb)
                    } else {
                        bigraph::derive::difference(&ga, &gb)
                    }
                }
                (op, None) => unreachable!("parse gives `derive {op}` a second input"),
            };
            write_graph_as(&derived, &output, is_binary(&output))?;
            let subgraph = op == "subgraph";
            let report = receipt::report::DeriveReport {
                schema_version: receipt::report::SCHEMA_VERSION,
                kind: "derive".to_string(),
                op: op.clone(),
                a: a.clone(),
                b: b.clone(),
                subset: subgraph.then_some(ids),
                side: subgraph.then_some(side),
                output: output.clone(),
                num_u: derived.num_u(),
                num_v: derived.num_v(),
                num_edges: derived.num_edges(),
                time_derive_secs: t0.elapsed().as_secs_f64(),
            };
            if json {
                // `output` is the derived graph's destination, so the
                // report document goes to stdout (like `convert`).
                return emit(&pretty(&report)?, &None);
            }
            eprintln!(
                "derived {op} -> {output}: {} x {}, {} edges",
                report.num_u, report.num_v, report.num_edges
            );
            Ok(())
        }
        Command::KTips { input, side, k } => {
            let g = load(&input)?;
            let d = receipt::tip_decompose(&g, side, &Config::default());
            let comps = hierarchy::ktip_components(g.view(side), &d.tip, k);
            let mut text = format!("# {} {k}-tip component(s)\n", comps.len());
            for (i, c) in comps.iter().enumerate() {
                let members: Vec<String> = c.iter().map(|u| u.to_string()).collect();
                text += &format!("{i}\t{}\t{}\n", c.len(), members.join(","));
            }
            emit(&text, &None)
        }
        Command::Stats { input } => {
            let g = load(&input)?;
            let vu = g.view(Side::U);
            let vv = g.view(Side::V);
            let c = butterfly::par_count_graph(&g);
            let text = format!(
                "|U| = {}\n|V| = {}\n|E| = {}\navg degree U/V = {:.2} / {:.2}\n\
                 butterflies = {}\nwedges (U endpoints) = {}\nwedges (V endpoints) = {}\n",
                g.num_u(),
                g.num_v(),
                g.num_edges(),
                bigraph::stats::avg_primary_degree(vu),
                bigraph::stats::avg_primary_degree(vv),
                c.total(),
                bigraph::stats::total_primary_wedges(vu),
                bigraph::stats::total_primary_wedges(vv)
            );
            emit(&text, &None)
        }
        Command::Generate { preset, output } => {
            let spec = bigraph::datasets::by_name(&preset)
                .ok_or_else(|| format!("unknown preset {preset:?} (It|De|Or|Lj|En|Tr)"))?;
            let g = spec.generate();
            match output {
                None => bigraph::io::write_graph(&g, std::io::stdout().lock())
                    .map_err(|e| e.to_string()),
                Some(path) => {
                    bigraph::io::write_graph_path(&g, &path).map_err(|e| e.to_string())?;
                    eprintln!(
                        "wrote {} ({} x {}, {} edges)",
                        path,
                        g.num_u(),
                        g.num_v(),
                        g.num_edges()
                    );
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn engine_options(dirty_threshold: f64, verify: bool) -> EngineOptions {
        EngineOptions {
            dirty_threshold,
            compact_threshold: 0.25,
            verify,
            ..EngineOptions::default()
        }
    }

    #[test]
    fn parse_tip_defaults() {
        let cmd = parse(&sv(&["tip", "g.tsv"])).unwrap();
        match cmd {
            Command::Tip {
                input,
                side,
                config,
                output,
                json,
                stats,
            } => {
                assert_eq!(input, "g.tsv");
                assert_eq!(side, Side::U);
                assert_eq!(config, Config::default());
                assert!(output.is_none());
                assert!(!json);
                assert!(!stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_tip_flags() {
        let cmd = parse(&sv(&[
            "tip",
            "g.tsv",
            "--side",
            "v",
            "--partitions",
            "42",
            "--no-dgm",
            "--stats",
            "--output",
            "out.tsv",
        ]))
        .unwrap();
        match cmd {
            Command::Tip {
                side,
                config,
                output,
                stats,
                ..
            } => {
                assert_eq!(side, Side::V);
                assert_eq!(config.partitions, 42);
                assert!(!config.dgm);
                assert!(config.huc);
                assert_eq!(output.as_deref(), Some("out.tsv"));
                assert!(stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&sv(&["tip"])).is_err());
        assert!(parse(&sv(&["tip", "--side"])).is_err());
        assert!(parse(&sv(&["tip", "g.tsv", "--side", "X"])).is_err());
        assert!(parse(&sv(&["ktips", "g.tsv"])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["tip", "g.tsv", "--partitions", "many"])).is_err());
        assert!(parse(&sv(&["stream", "g.tsv"])).is_err());
        assert!(parse(&sv(&["stream", "g.tsv", "--json"])).is_err());
        assert!(parse(&sv(&[
            "stream",
            "g.tsv",
            "ops.txt",
            "--dirty-threshold",
            "x"
        ]))
        .is_err());
    }

    #[test]
    fn parse_stream_defaults_and_flags() {
        let cmd = parse(&sv(&["stream", "g.tsv", "ops.txt"])).unwrap();
        match cmd {
            Command::Stream {
                input,
                ops,
                side,
                options,
                json,
                ..
            } => {
                assert_eq!(input, "g.tsv");
                assert_eq!(ops, "ops.txt");
                assert_eq!(side, Side::U);
                assert_eq!(
                    options.dirty_threshold,
                    receipt::dynamic::DEFAULT_DIRTY_THRESHOLD
                );
                assert_eq!(
                    options.compact_threshold,
                    bigraph::dynamic::DEFAULT_COMPACT_THRESHOLD
                );
                assert_eq!(options.config, Config::default());
                assert!(!options.verify && !json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "stream",
            "g.tsv",
            "ops.txt",
            "--side",
            "v",
            "--dirty-threshold",
            "0.5",
            "--verify",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Stream {
                side,
                options,
                json,
                ..
            } => {
                assert_eq!(side, Side::V);
                assert_eq!(options.dirty_threshold, 0.5);
                assert!(options.verify && json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_ops_follow_a_one_based_graph_file() {
        let dir = std::env::temp_dir().join("tipdecomp_stream_base");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.tsv");
        let ops_path = dir.join("ops.txt");
        // Headerless, every id ≥ 1 → the loader shifts to 0-based. K(2,2).
        std::fs::write(&graph_path, "1 1\n1 2\n2 1\n2 2\n").unwrap();
        // 1-based op: deleting the file's edge `2 2` must remove internal
        // edge (1, 1) and break the single butterfly.
        std::fs::write(&ops_path, "-2 2\n").unwrap();
        let out_path = dir.join("stream.json");
        run(Command::Stream {
            input: graph_path.to_string_lossy().into_owned(),
            ops: ops_path.to_string_lossy().into_owned(),
            side: Side::U,
            options: engine_options(0.5, true),
            output: Some(out_path.to_string_lossy().into_owned()),
            json: true,
        })
        .unwrap();
        let report: receipt::report::StreamReport =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(report.batches[0].deleted, 1);
        assert_eq!(report.batches[0].butterflies_lost, 1);
        assert_eq!(report.final_total_butterflies, 0);

        // An op naming id 0 against a 1-based graph is a run error.
        std::fs::write(&ops_path, "-0 1\n").unwrap();
        let err = run(Command::Stream {
            input: graph_path.to_string_lossy().into_owned(),
            ops: ops_path.to_string_lossy().into_owned(),
            side: Side::U,
            options: engine_options(0.5, false),
            output: None,
            json: true,
        })
        .unwrap_err();
        assert!(err.contains("1-based"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_end_to_end_with_verification() {
        let dir = std::env::temp_dir().join("tipdecomp_stream_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.tsv");
        let ops_path = dir.join("ops.txt");
        let g = bigraph::gen::zipf(30, 20, 120, 0.5, 0.8, 4);
        bigraph::io::write_graph_path(&g, &graph_path).unwrap();
        // Two batches: close a butterfly, then delete one of its edges.
        std::fs::write(&ops_path, "+0 0\n+0 1\n+1 0\n+1 1\n\n-0 1\n+2 2\n").unwrap();
        let out_path = dir.join("stream.json");
        run(Command::Stream {
            input: graph_path.to_string_lossy().into_owned(),
            ops: ops_path.to_string_lossy().into_owned(),
            side: Side::U,
            options: engine_options(0.2, true),
            output: Some(out_path.to_string_lossy().into_owned()),
            json: true,
        })
        .unwrap();
        let text = std::fs::read_to_string(&out_path).unwrap();
        let report: receipt::report::StreamReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.kind, "stream");
        assert_eq!(report.batches.len(), 2);
        assert!(report.verified);
        assert_eq!(
            report.batches.last().unwrap().total_butterflies,
            report.final_total_butterflies
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_convert_and_recover() {
        let cmd = parse(&sv(&["convert", "g.tsv", "g.bgr"])).unwrap();
        match cmd {
            Command::Convert {
                input,
                output,
                from,
                to,
                json,
            } => {
                assert_eq!(input, "g.tsv");
                assert_eq!(output, "g.bgr");
                assert!(from.is_none() && to.is_none() && !json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "convert", "a", "b", "--from", "binary", "--to", "TEXT", "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Convert { from, to, json, .. } => {
                assert_eq!(from.as_deref(), Some("binary"));
                assert_eq!(to.as_deref(), Some("text"));
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["convert", "g.tsv"])).is_err());
        assert!(parse(&sv(&["convert", "a", "b", "--from", "nope"])).is_err());

        let cmd = parse(&sv(&["recover", "store", "--json"])).unwrap();
        match cmd {
            Command::Recover { dir, json, output } => {
                assert_eq!(dir, "store");
                assert!(json && output.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["recover"])).is_err());
    }

    #[test]
    fn parse_serve_wal_flags() {
        let cmd = parse(&sv(&["serve", "g.tsv"])).unwrap();
        match cmd {
            Command::Serve {
                wal,
                checkpoint_every,
                ..
            } => {
                assert!(wal.is_none());
                assert_eq!(checkpoint_every, receipt::wal::DEFAULT_CHECKPOINT_EVERY);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "serve",
            "g.tsv",
            "--wal",
            "store",
            "--checkpoint-every",
            "3",
        ]))
        .unwrap();
        match cmd {
            Command::Serve {
                wal,
                checkpoint_every,
                ..
            } => {
                assert_eq!(wal.as_deref(), Some("store"));
                assert_eq!(checkpoint_every, 3);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["serve", "g.tsv", "--checkpoint-every", "x"])).is_err());
    }

    /// Answers one request against a fresh engine on 12 U vertices, four
    /// of which form a K(4,2).
    fn answer(request: &str) -> ServeResponse {
        let mut edges: Vec<(u32, u32)> = (0..4).flat_map(|u| [(u, 0), (u, 1)]).collect();
        edges.extend((4..12).map(|u| (u, 2)));
        let g = bigraph::builder::from_edges(12, 3, &edges).unwrap();
        let engine = StreamEngine::new(g, EngineOptions::default());
        handle_request(&engine, false, 0, request).unwrap().0
    }

    #[test]
    fn topk_k_must_be_a_non_negative_integer() {
        for request in [
            r#"{"op":"topk","k":"2"}"#,
            r#"{"op":"topk","k":-1}"#,
            r#"{"op":"topk","k":1.5}"#,
            r#"{"op":"topk","k":[2]}"#,
        ] {
            let response = answer(request);
            assert!(!response.ok, "{request}");
            assert!(response.topk.is_none(), "{request}");
            let error = response.error.unwrap();
            assert!(error.starts_with("k must be"), "{request}: {error}");
        }
        let len = |request: &str| answer(request).topk.map(|t| t.len());
        assert_eq!(len(r#"{"op":"topk","k":2}"#), Some(2));
        assert_eq!(len(r#"{"op":"topk","k":0}"#), Some(0));
        // Absent and null keep the default of 10.
        assert_eq!(len(r#"{"op":"topk"}"#), Some(10));
        assert_eq!(len(r#"{"op":"topk","k":null}"#), Some(10));
    }

    #[test]
    fn side_must_be_u_or_v_on_every_op() {
        for op in ["tip", "butterflies", "topk", "stats", "apply"] {
            for side in ["7", r#""W""#, "true", r#"["U"]"#] {
                let request = format!(r#"{{"op":"{op}","vertex":0,"ops":[],"side":{side}}}"#);
                let response = answer(&request);
                assert!(!response.ok, "{request}");
                assert_eq!(response.op, op);
                let error = response.error.unwrap();
                assert!(error.starts_with("side must be"), "{request}: {error}");
            }
        }
        let topk_side = |request: &str| answer(request).topk.unwrap()[0].side;
        assert_eq!(topk_side(r#"{"op":"topk"}"#), Side::U);
        assert_eq!(topk_side(r#"{"op":"topk","side":null}"#), Side::U);
        assert_eq!(topk_side(r#"{"op":"topk","side":"v"}"#), Side::V);
        // The K(4,2) members hold 3 butterflies each; side V's two hold 6.
        let tip = |request: &str| answer(request).value;
        assert_eq!(tip(r#"{"op":"tip","vertex":0,"side":"U"}"#), Some(3));
        assert_eq!(tip(r#"{"op":"tip","vertex":0,"side":"V"}"#), Some(6));
    }

    #[test]
    fn convert_recover_unit_round_trip() {
        let dir = std::env::temp_dir().join("tipdecomp_convert_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("g.tsv");
        let bin = dir.join("g.bgr");
        let back = dir.join("back.tsv");
        let g = bigraph::gen::zipf(20, 15, 60, 0.5, 0.8, 9);
        bigraph::io::write_graph_path(&g, &text).unwrap();
        run(Command::Convert {
            input: text.to_string_lossy().into_owned(),
            output: bin.to_string_lossy().into_owned(),
            from: None,
            to: None,
            json: false,
        })
        .unwrap();
        run(Command::Convert {
            input: bin.to_string_lossy().into_owned(),
            output: back.to_string_lossy().into_owned(),
            from: None,
            to: None,
            json: false,
        })
        .unwrap();
        // The canonical text writer produced both files, so the round trip
        // is byte-identical.
        assert_eq!(std::fs::read(&text).unwrap(), std::fs::read(&back).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_help_and_empty() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn end_to_end_tip_roundtrip() {
        // Generate, decompose, read back.
        let dir = std::env::temp_dir().join("tipdecomp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.tsv");
        let out_path = dir.join("tips.tsv");
        let g = bigraph::gen::planted_bicliques(10, 10, 1, 4, 4, 8, 3);
        // Pin the last ids so read-back sizing (max observed id) matches.
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.push((9, 9));
        let g = bigraph::builder::from_edges(10, 10, &edges).unwrap();
        bigraph::io::write_graph_path(&g, &graph_path).unwrap();

        run(Command::Tip {
            input: graph_path.to_string_lossy().into_owned(),
            side: Side::U,
            config: Config::default(),
            output: Some(out_path.to_string_lossy().into_owned()),
            json: false,
            stats: false,
        })
        .unwrap();

        let text = std::fs::read_to_string(&out_path).unwrap();
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 10);
        // Block members (u0..u3) have tip number (4-1)*C(4,2) = 18 or more.
        let first: u64 = rows[0].split('\t').nth(1).unwrap().parse().unwrap();
        assert!(first >= 18, "block member tip = {first}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_missing_file_fails() {
        let err = run(Command::Stats {
            input: "/nonexistent/g.tsv".into(),
        })
        .unwrap_err();
        assert!(err.contains("failed to read"));
    }

    #[test]
    fn generate_unknown_preset_fails() {
        let err = run(Command::Generate {
            preset: "Zz".into(),
            output: None,
        })
        .unwrap_err();
        assert!(err.contains("unknown preset"));
    }

    #[test]
    fn parse_version_subcommands() {
        let cmd = parse(&sv(&["version", "tag", "store", "v1", "--json"])).unwrap();
        match cmd {
            Command::Version {
                op,
                dir,
                names,
                json,
                ..
            } => {
                assert_eq!(op, "tag");
                assert_eq!(dir, "store");
                assert_eq!(names, vec!["v1".to_string()]);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&["version", "list", "store"])).unwrap();
        match cmd {
            Command::Version { op, names, .. } => {
                assert_eq!(op, "list");
                assert!(names.is_empty());
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "version", "diff", "store", "v0", "v2", "--output", "d.txt",
        ]))
        .unwrap();
        match cmd {
            Command::Version {
                op, names, output, ..
            } => {
                assert_eq!(op, "diff");
                assert_eq!(names, vec!["v0".to_string(), "v2".to_string()]);
                assert_eq!(output.as_deref(), Some("d.txt"));
            }
            other => panic!("{other:?}"),
        }
        // A no-value flag before a positional must not swallow it.
        let cmd = parse(&sv(&[
            "version", "at", "store", "--verify", "v1", "--dump", "g.bgr",
        ]))
        .unwrap();
        match cmd {
            Command::Version {
                op,
                names,
                verify,
                dump,
                ..
            } => {
                assert_eq!(op, "at");
                assert_eq!(names, vec!["v1".to_string()]);
                assert!(verify);
                assert_eq!(dump.as_deref(), Some("g.bgr"));
            }
            other => panic!("{other:?}"),
        }
        // Arity is per-op: tag/at take one name, list none, diff two.
        assert!(parse(&sv(&["version"])).is_err());
        assert!(parse(&sv(&["version", "tag", "store"])).is_err());
        assert!(parse(&sv(&["version", "list", "store", "extra"])).is_err());
        assert!(parse(&sv(&["version", "diff", "store", "v0"])).is_err());
        assert!(parse(&sv(&["version", "promote", "store", "v0"])).is_err());
    }

    #[test]
    fn parse_derive_subcommands() {
        let cmd = parse(&sv(&[
            "derive", "subgraph", "a.tsv", "--ids", "0,2,5", "--side", "V", "--output", "s.tsv",
        ]))
        .unwrap();
        match cmd {
            Command::Derive {
                op,
                a,
                b,
                ids,
                side,
                output,
                json,
            } => {
                assert_eq!(op, "subgraph");
                assert_eq!(a, "a.tsv");
                assert!(b.is_none());
                assert_eq!(ids, vec![0, 2, 5]);
                assert_eq!(side, Side::V);
                assert_eq!(output, "s.tsv");
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "derive", "union", "a.tsv", "b.bgr", "--output", "u.bgr", "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Derive { op, a, b, json, .. } => {
                assert_eq!(op, "union");
                assert_eq!(a, "a.tsv");
                assert_eq!(b.as_deref(), Some("b.bgr"));
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        // subgraph requires --ids, union/diff require a second input,
        // every op requires --output.
        assert!(parse(&sv(&["derive", "subgraph", "a.tsv", "--output", "s.tsv"])).is_err());
        assert!(parse(&sv(&["derive", "union", "a.tsv", "--output", "u.tsv"])).is_err());
        assert!(parse(&sv(&["derive", "diff", "a.tsv", "b.tsv"])).is_err());
        assert!(parse(&sv(&[
            "derive", "subgraph", "a.tsv", "--ids", "2,x", "--output", "s"
        ]))
        .is_err());
        assert!(parse(&sv(&["derive", "invert", "a.tsv", "--output", "o"])).is_err());
    }

    #[test]
    fn options_may_come_in_any_position() {
        let cmd = parse(&sv(&["tip", "--side", "V", "g.tsv"])).unwrap();
        assert_eq!(cmd, parse(&sv(&["tip", "g.tsv", "--side", "V"])).unwrap());
        match cmd {
            Command::Tip { input, side, .. } => {
                assert_eq!(input, "g.tsv");
                assert_eq!(side, Side::V);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "stream",
            "--verify",
            "g.tsv",
            "--side",
            "V",
            "ops.txt",
            "--threads",
            "2",
        ]))
        .unwrap();
        match cmd {
            Command::Stream {
                input,
                ops,
                side,
                options,
                ..
            } => {
                assert_eq!((input.as_str(), ops.as_str()), ("g.tsv", "ops.txt"));
                assert_eq!(side, Side::V);
                assert!(options.verify);
                assert_eq!(options.config.threads, 2);
            }
            other => panic!("{other:?}"),
        }
        // The operation word of `version`/`derive` may follow options too.
        let cmd = parse(&sv(&["version", "--json", "list", "store"])).unwrap();
        assert!(matches!(cmd, Command::Version { ref op, json: true, .. } if op == "list"));
    }

    #[test]
    fn undeclared_options_and_missing_values_name_the_option() {
        let cases: [(&[&str], &str); 9] = [
            (
                &[
                    "tip",
                    "it.tsv",
                    "--no-hcu",
                    "--partiton",
                    "7",
                    "--sied",
                    "V",
                ],
                "--no-hcu",
            ),
            (
                &[
                    "serve",
                    "it.tsv",
                    "--checkpoint_every",
                    "3",
                    "--requests",
                    "R",
                ],
                "--checkpoint_every",
            ),
            (&["tip", "it.tsv", "--output"], "--output"),
            (&["tip", "it.tsv", "--output", "--json"], "--output"),
            (&["ktips", "g.tsv", "-k"], "-k"),
            // Declared for other subcommands only.
            (&["serve", "g.tsv", "--side", "V"], "--side"),
            (&["convert", "a", "b", "--output", "c"], "--output"),
            (
                &["version", "tag", "store", "v1", "--dump", "g.tsv"],
                "--dump",
            ),
            (&["tip", "a.tsv", "b.tsv"], "b.tsv"),
        ];
        for (args, named) in cases {
            let err = parse(&sv(args)).unwrap_err();
            assert!(err.0.contains(named), "{args:?}: {err}");
        }
    }

    /// USAGE shows exactly the options and the number of positionals each
    /// table entry accepts: its `tipdecomp <name>` line plus the indented
    /// continuation lines under it.
    #[test]
    fn usage_matches_the_option_table() {
        let lines: Vec<&str> = USAGE.lines().collect();
        for spec in SPECS {
            let head = format!("tipdecomp {} ", spec.name);
            let start = lines
                .iter()
                .position(|l| {
                    l.split_whitespace()
                        .collect::<Vec<_>>()
                        .join(" ")
                        .starts_with(&head)
                })
                .unwrap_or_else(|| panic!("USAGE has no line for `{}`", spec.name));
            let words: Vec<&str> = std::iter::once(lines[start])
                .chain(
                    lines[start + 1..]
                        .iter()
                        .copied()
                        .take_while(|l| l.starts_with("   ")),
                )
                .flat_map(|l| l.split_whitespace())
                .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
                .collect();
            let mut shown: Vec<&str> = words
                .iter()
                .copied()
                .filter(|w| w.starts_with('-'))
                .collect();
            let mut declared: Vec<&str> = spec.values.iter().chain(spec.flags).copied().collect();
            shown.sort_unstable();
            declared.sort_unstable();
            assert_eq!(shown, declared, "options of `{}`", spec.name);
            let placeholders = words.iter().filter(|w| w.starts_with('<')).count();
            assert_eq!(
                placeholders,
                spec.positionals.len(),
                "positionals of `{}`",
                spec.name
            );
        }
    }

    /// The scanner decides whether an option takes a value before it
    /// knows the `version`/`derive` operation, so entries sharing a
    /// subcommand word must agree on it.
    #[test]
    fn entries_of_one_subcommand_agree_on_value_options() {
        for a in SPECS {
            for b in SPECS.iter().filter(|b| b.words().0 == a.words().0) {
                for flag in a.flags {
                    assert!(!b.takes_value(flag), "{flag} in `{}`/`{}`", a.name, b.name);
                }
            }
        }
    }

    /// Every complete `tipdecomp` command line in CI and the README, and
    /// the two the benchmark spawns (`perfbench/src/tip_static.rs`,
    /// `perfbench/src/serve_topk.rs`), parses.
    #[test]
    fn documented_command_lines_parse() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut lines = vec![
            "tip g.tsv --side U --threads 2 --output tips.tsv".to_string(),
            "serve g.tsv --socket serve.sock --wal store --checkpoint-every 16".to_string(),
        ];
        for file in [".github/workflows/ci.yml", "README.md"] {
            let text = std::fs::read_to_string(root.join(file)).unwrap();
            let text = text
                .replace("\\\n", " ")
                .replace("${{ matrix.threads }}", "1");
            let before = lines.len();
            for line in text.lines() {
                for (i, _) in line.match_indices("tipdecomp ") {
                    let (lead, rest) = (&line[..i], &line[i + "tipdecomp ".len()..]);
                    // Shell lines run the built binary or follow a `$`
                    // prompt; prose quotes a whole command in backticks.
                    let command = if lead.ends_with("release/") || lead.trim_end().ends_with('$') {
                        rest.split('#').next().unwrap_or_default()
                    } else if lead.ends_with('`') {
                        match rest.split_once('`') {
                            Some((quoted, _)) if quoted.split_whitespace().count() > 1 => quoted,
                            _ => continue,
                        }
                    } else {
                        continue;
                    };
                    lines.push(command.trim().to_string());
                }
            }
            assert!(lines.len() > before, "no command lines found in {file}");
        }
        for line in &lines {
            let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            if let Err(e) = parse(&args) {
                panic!("`tipdecomp {line}` does not parse: {e}");
            }
        }
    }
}
