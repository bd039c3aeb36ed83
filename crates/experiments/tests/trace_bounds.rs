//! The `trace` analyses size their per-node state from the trace's own
//! population, never from the largest node id a line names: a crafted
//! line naming node `u32::MAX` is answered with an error, and nothing
//! large is allocated on the way. Arbitrary lines, and a real export with
//! lines truncated, dropped, duplicated or swapped, never panic the JSONL
//! reader or any analysis, and never ask for more memory than a small
//! multiple of the input.
//!
//! A capped global allocator wraps [`std::alloc::System`], records the
//! largest request, and refuses any request above [`CAP`], so a
//! regression aborts this test binary instead of claiming tens of
//! gigabytes. Installing a `#[global_allocator]` is process-wide and needs
//! `unsafe`, hence its own integration-test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use mobigrid_experiments::fault_matrix::{self, FaultMatrixConfig};
use mobigrid_experiments::trace;
use mobigrid_telemetry::MemoryRecorder;
use proptest::prelude::*;

/// The largest single allocation this binary grants (256 MiB).
const CAP: usize = 256 << 20;

struct CappedAllocator;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout, or
// returns null (an allowed allocation failure) for oversized requests.
unsafe impl GlobalAlloc for CappedAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CappedAllocator = CappedAllocator;

/// Serialises the tests: [`LARGEST`] is process-wide, and the test harness
/// runs tests on parallel threads.
static PROBE: Mutex<()> = Mutex::new(());

/// Takes the probe and zeroes [`LARGEST`]. The guarded value is `()`, so
/// a test that panicked while holding it left nothing to repair.
fn probe() -> MutexGuard<'static, ()> {
    let guard = PROBE.lock().unwrap_or_else(PoisonError::into_inner);
    LARGEST.store(0, Ordering::Relaxed);
    guard
}

/// A one-tick trace whose only event names node `u32::MAX`.
const CRAFTED: &str = concat!(
    "{\"type\":\"meta\",\"format\":\"mobigrid-telemetry/2\",\"counters\":0,\"gauges\":0,",
    "\"histograms\":0,\"spans\":0,\"events\":1,\"spans_dropped\":0,\"events_dropped\":0}\n",
    "{\"type\":\"event\",\"tick\":1,\"seq\":0,\"kind\":\"lu_generated\",",
    "\"node\":4294967295,\"seq\":1,\"x\":1.0,\"y\":2.0}\n",
);

#[test]
fn a_huge_node_id_is_an_error_not_an_allocation() {
    let _probe = probe();
    let parsed = trace::parse_trace(CRAFTED).expect("the crafted line is well-formed");
    let err = trace::check(&parsed).expect_err("check must reject the id");
    assert!(err.contains("4294967295"), "{err}");
    trace::summary(&parsed).expect_err("the summary must reject the id");

    // The CLI answers with an error, which the binary turns into a
    // non-zero exit.
    let path = std::env::temp_dir().join(format!(
        "mobigrid-trace-bounds-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, CRAFTED).expect("temp file");
    let args = [path.to_string_lossy().into_owned(), "--check".to_string()];
    let outcome = trace::run_main(args);
    std::fs::remove_file(&path).ok();
    assert!(outcome.is_err(), "trace --check accepted the crafted trace");

    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 1 << 20, "largest allocation was {largest} bytes");
}

/// The values, space-separated, that the decoder accepts for `field`: in
/// range, at the edge of the range and past it.
fn pool(field: &str) -> Vec<&'static str> {
    let values = match field {
        "tick" | "due_tick" | "batch_tick" | "batch_seq" => {
            "0 1 2 5 8 9 4294967296 18446744073709551615"
        }
        "cluster" | "expected" | "actual" => "-1 0 1 2 -2147483648 2147483647",
        "x" | "y" | "dth" | "displacement" | "blend" | "err_le" | "err_raw" | "wire_us"
        | "apply_us" => "0 0.5 -3.25 1e308 null",
        "sent" => "true false",
        "class" => r#""stop" "random" "linear""#,
        "fate" => concat!(
            r#""delivered" "delivered_duplicate" "deferred" "arrived_late" "#,
            r#""dropped_no_coverage" "dropped_fault" "dropped_corrupted""#,
        ),
        "outcome" => r#""accepted" "duplicate" "stale" "estimated" "degraded" "no_record""#,
        "monitor" => concat!(
            r#""filter_conservation" "channel_conservation" "#,
            r#""seq_monotonicity" "staleness_consistency""#,
        ),
        _ => "0 1 2 3 139 140 141 4294967295",
    };
    values.split(' ').collect()
}

/// Values of the wrong type for every field.
const WRONG: &[&str] = &["-1", "4294967296", "1.5", "\"\"", "[]", "{}", "\"bogus\""];

/// Each event kind with the fields its decoder reads, in export order.
const KINDS: &[(&str, &str)] = &[
    ("lu_generated", "node seq x y"),
    ("lu_classified", "node seq class cluster dth"),
    ("lu_decision", "node seq sent displacement dth"),
    ("lu_channel", "node seq wire_seq attempt fate due_tick"),
    ("lu_apply", "node seq outcome staleness blend"),
    ("lu_error", "node seq err_le err_raw"),
    ("invariant_violation", "monitor node expected actual"),
    ("staleness", "stale_nodes previous"),
    (
        "ingest_batch",
        "batch_tick batch_seq records wire_us apply_us",
    ),
];

/// Lines that are not events: the other line types, and pieces of JSON
/// that stop the reader partway.
const OTHER_LINES: &[&str] = &[
    r#"{"type":"meta","events_dropped":18446744073709551615}"#,
    r#"{"type":"counter","name":"lu.sent","value":3}"#,
    r#"{"type":"gauge","name":"g","value":1}"#,
    r#"{"type":"bogus"}"#,
    r#"{"type":"event","tick":1,"kind":"lu_generated"}"#,
    r#"{"type":"event""#,
    "",
];

/// One generated line: an event of kind `kind` with one value picked per
/// field (one pick in 16 of the wrong type), missing field `skip` when
/// the kind has that many; or, when `kind` is past [`KINDS`], one of
/// [`OTHER_LINES`].
fn line(kind: usize, picks: &[usize], skip: usize) -> String {
    let Some((name, fields)) = KINDS.get(kind) else {
        return OTHER_LINES[kind - KINDS.len()].to_string();
    };
    let pick = |field: &str, p: usize| {
        let pool = if p.is_multiple_of(16) {
            WRONG.to_vec()
        } else {
            pool(field)
        };
        pool[p / 16 % pool.len()]
    };
    let mut out = format!(
        r#"{{"type":"event","tick":{},"seq":0,"kind":"{name}""#,
        pick("tick", picks[0])
    );
    for (i, (field, p)) in fields.split(' ').zip(&picks[1..]).enumerate() {
        if i != skip {
            out.push_str(&format!(r#","{field}":{}"#, pick(field, *p)));
        }
    }
    out.push('}');
    out
}

fn arbitrary_lines() -> impl Strategy<Value = String> {
    let one = (
        0..KINDS.len() + OTHER_LINES.len(),
        prop::collection::vec(any::<usize>(), 7),
        0usize..24,
    );
    prop::collection::vec(one, 0..96).prop_map(|lines| {
        lines
            .iter()
            .map(|(kind, picks, skip)| line(*kind, picks, *skip) + "\n")
            .collect()
    })
}

/// A small real export: eight ticks of the campus under a lossy channel,
/// so it holds retries, late arrivals and staleness transitions.
fn real_export() -> &'static str {
    static EXPORT: OnceLock<String> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let mut cfg = FaultMatrixConfig::default();
        cfg.base.duration_ticks = 8;
        let mut rec = MemoryRecorder::with_capacity(64, 1 << 16);
        let _ = fault_matrix::run_cell_recorded(&cfg, 0.2, 1.0, &mut rec);
        rec.to_jsonl()
    })
}

/// The real export, parsed once.
fn reference() -> &'static trace::Trace {
    static PARSED: OnceLock<trace::Trace> = OnceLock::new();
    PARSED.get_or_init(|| trace::parse_trace(real_export()).expect("the real export parses"))
}

/// Applies `edits` to the export's lines: 0 cuts a line short, 1 drops
/// it, 2 duplicates it after another, 3 swaps it with another, and 4 ends
/// the export there.
fn mangle(export: &str, edits: &[(u8, usize, usize)]) -> String {
    let mut lines: Vec<String> = export.lines().map(str::to_string).collect();
    for &(op, a, b) in edits {
        if lines.is_empty() {
            break;
        }
        let (a, b) = (a % lines.len(), b % lines.len());
        match op {
            0 => {
                let cut = &lines[a].as_bytes()[..b % (lines[a].len() + 1)];
                lines[a] = String::from_utf8_lossy(cut).into_owned();
            }
            1 => drop(lines.remove(a)),
            2 => lines.insert(b, lines[a].clone()),
            3 => lines.swap(a, b),
            _ => lines.truncate(a),
        }
    }
    lines.join("\n")
}

/// The lines of `input` the reader accepts on their own. One bad line
/// rejects a whole export, so this is how arbitrary events reach the
/// analyses.
fn readable_lines(input: &str) -> String {
    input
        .lines()
        .filter(|line| trace::parse_trace(line).is_ok())
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The most one allocation may ask for while reading `bytes` of input: a
/// small multiple of the input, never a size a line names.
fn bound(bytes: usize) -> usize {
    16 * bytes + (64 << 10)
}

/// Runs every analysis `trace` offers on `input`, then stitches it against
/// the real export from both sides. Neither step may panic, nor ask for
/// more than [`bound`] of the bytes it read.
fn analyse(input: &str) {
    let reference = reference();
    LARGEST.store(0, Ordering::Relaxed);
    let Ok(parsed) = trace::parse_trace(input) else {
        return;
    };
    if let Ok(report) = trace::check(&parsed) {
        let _ = trace::check_summary(&report);
    }
    let _ = trace::summary(&parsed);
    let _ = trace::latency_report(&parsed);
    let _ = trace::suppression_report(&parsed);
    let _ = trace::staleness_report(&parsed);
    let _ = trace::node_timeline(&parsed, 0);
    let _ = trace::node_timeline(&parsed, u32::MAX);
    let largest = LARGEST.swap(0, Ordering::Relaxed);
    assert!(
        largest <= bound(input.len()),
        "largest allocation was {largest} bytes for {} input bytes",
        input.len()
    );
    let _ = trace::stitch_summary(&trace::stitch(&parsed, reference));
    let _ = trace::stitch_summary(&trace::stitch(reference, &parsed));
    let largest = LARGEST.load(Ordering::Relaxed);
    let both = input.len() + real_export().len();
    assert!(
        largest <= bound(both),
        "stitching's largest allocation was {largest} bytes for {both} input bytes"
    );
}

proptest! {
    #[test]
    fn trace_survives_arbitrary_lines(input in arbitrary_lines()) {
        let _probe = probe();
        analyse(&input);
        analyse(&readable_lines(&input));
    }

    #[test]
    fn trace_survives_a_mangled_real_export(
        edits in prop::collection::vec((0u8..5, any::<usize>(), any::<usize>()), 1..12),
    ) {
        let _probe = probe();
        let input = mangle(real_export(), &edits);
        analyse(&input);
        analyse(&readable_lines(&input));
    }
}
