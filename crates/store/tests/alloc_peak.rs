//! The bulk paths of the store hold no second copy of what they build.
//!
//! A counting global allocator tracks the bytes live in this process
//! and the allocations made; each bulk step — freeze, segment write,
//! eager segment open — runs on a seeded ≈ 100k-fact KB and must stay
//! within a bound derived from what it keeps plus the one transient
//! buffer its design allows:
//!
//! * **freeze** sorts one permutation at a time: one 16-byte entries
//!   buffer beside the frames it keeps, encoded frame by frame — not
//!   three sorted arrays and four column copies — and keeps the frames
//!   at their compressed size, not in doubled buffers;
//! * **write** streams the image region by region: one region in
//!   flight, not every region plus an assembled copy;
//! * **open** loads the index one column at a time straight from the
//!   file and checks the permutations frame by frame: beyond what it
//!   keeps, only the decoded frame windows of that check — not the
//!   frames region, not decoded columns. It decodes the dictionary into
//!   one arena, so its allocations do not grow with the term count.
//!   What it keeps is what the `store.bytes.*` gauges report, so the
//!   gauges are checked facts, not estimates.
//!
//! This file holds a single test so that nothing else in its process
//! allocates while a step is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kb_store::segment_io::region_map;
use kb_store::{KbBuilder, KbRead, KbSnapshot, FRAME_ROWS};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn allocated(n: usize) {
    ALLOCS.fetch_add(1, Ordering::SeqCst);
    grow(n);
}

fn grow(n: usize) {
    let now = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one step did to the heap.
struct Step<T> {
    out: T,
    /// Bytes it left live, beyond those live when it began.
    kept: usize,
    /// The most bytes live at once during it, beyond the same.
    peak: usize,
    /// Allocations it made (reallocations not counted).
    allocs: usize,
}

/// Runs `f` and measures it.
fn measure<T>(f: impl FnOnce() -> T) -> Step<T> {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    let kept = LIVE.load(Ordering::SeqCst).saturating_sub(base);
    let peak = PEAK.load(Ordering::SeqCst) - base;
    Step { out, kept, peak, allocs: ALLOCS.load(Ordering::SeqCst) - allocs }
}

/// Metric registrations, thread bookkeeping and small headers: what a
/// step may allocate beyond its derived bound.
const SLACK: usize = 64 << 10;

const FACTS: u64 = 100_000;

/// What an eager open keeps that no `store.bytes.*` gauge counts: the
/// box its base lives in (the core's, taxonomy's, sameAs store's and
/// label store's headers, well under 1 KiB), a one-name source table
/// with its lookup map, and the empty taxonomy, sameAs and label
/// stores. 4 KiB; a gauge read off a hash map's capacity instead of its
/// allocation misses an eighth of the table, ≈ 0.28 MB of a triple map
/// at this size.
const UNGAUGED: usize = 4 << 10;

/// Allocations an eager open may make: a few per region and per column,
/// none per term or per fact.
const OPEN_ALLOCS: usize = 1_000;

/// A seeded KB of ≈ `FACTS` facts over 25k subjects, 50 predicates and
/// 40k objects (a duplicate draw would merge).
fn seeded_kb() -> KbBuilder {
    let mut b = KbBuilder::new();
    let mut x = 11u64;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % m
    };
    for i in 0..FACTS {
        let (p, o) = (next(50), next(40_000));
        b.assert_str(&format!("e{}", i % 25_000), &format!("p{p}"), &format!("o{o}"));
    }
    b
}

#[test]
fn freeze_write_and_open_hold_no_second_copy_of_the_kb() {
    let dir = std::env::temp_dir().join(format!("kbstore-alloc-peak-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("base.seg");

    // Warm-up: the first freeze, write and open register their metrics.
    let mut tiny = KbBuilder::new();
    tiny.assert_str("a", "r", "b");
    tiny.freeze().write_segment(&path).unwrap();
    KbSnapshot::open_segment(&path).unwrap();

    let builder = seeded_kb();
    let n = builder.len();
    let terms = builder.term_count();
    assert!(n > 95_000, "the seeded KB has {n} facts");
    let mut over = Vec::new();

    // Freeze: the frames it keeps, one (key, fact id) entry a fact and
    // one bucket slot a term.
    let Step { out: snap, kept, peak, .. } = measure(|| builder.freeze());
    let bound = kept + n * 16 + (terms + 1) * 4 + SLACK;
    if peak > bound {
        over.push(format!("freeze: peak {peak} B > bound {bound} B (kept {kept} B, {n} facts)"));
    }
    // What the freeze keeps is the compressed columns — payloads and
    // frame descriptors, both counted by `compressed_bytes` — with no
    // spare capacity beside them.
    let columns = snap.index_stats().compressed_bytes;
    if kept > columns + SLACK {
        over.push(format!("freeze: kept {kept} B > compressed columns {columns} B + {SLACK} B"));
    }

    // Write: nothing kept; one region in flight, in a buffer at most the
    // next power of two of its length (a doubling `Vec`).
    let Step { out: written, peak, .. } = measure(|| snap.write_segment(&path).unwrap());
    let image = std::fs::read(&path).unwrap();
    assert_eq!(written, image.len() as u64);
    let regions = region_map(&image).unwrap();
    let largest = regions.iter().map(|(_, r)| r.len().next_power_of_two()).max().unwrap();
    let bound = largest + SLACK;
    if peak > bound {
        over.push(format!(
            "write: peak {peak} B > bound {bound} B (image {} B, largest region {largest} B)",
            image.len()
        ));
    }

    // Open: what it keeps, plus one decoded frame window (four columns
    // of `FRAME_ROWS` values) per permutation, the three checked at once.
    let window = 3 * 4 * FRAME_ROWS * 4;
    let Step { out: reopened, kept, peak, allocs } =
        measure(|| KbSnapshot::open_segment(&path).unwrap());
    let bound = kept + window + SLACK;
    if peak > bound {
        over.push(format!("open: peak {peak} B > bound {bound} B (kept {kept} B)"));
    }
    if allocs > OPEN_ALLOCS {
        over.push(format!("open: {allocs} allocations > {OPEN_ALLOCS} ({terms} terms)"));
    }
    assert_eq!(reopened.len(), snap.len());
    // The memory gauges are the open's resident bytes, exactly but for
    // what they leave out.
    let gauged: usize = ["facts", "by_triple", "dict", "frames"]
        .iter()
        .map(|part| kb_obs::global().gauge(&format!("store.bytes.{part}")).get() as usize)
        .sum();
    if kept.abs_diff(gauged) > UNGAUGED {
        over.push(format!(
            "open: kept {kept} B, but store.bytes.{{facts,by_triple,dict,frames}} sum to \
             {gauged} B (more than {UNGAUGED} B apart)"
        ));
    }

    std::fs::remove_dir_all(&dir).ok();
    assert!(over.is_empty(), "bulk steps over their bounds:\n{}", over.join("\n"));
}
