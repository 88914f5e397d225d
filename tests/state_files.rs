//! The state files `Mediator::save_state` writes, treated as what they
//! are: bytes on a disk that a crash, a bad sector or another program can
//! get at. A file loads whole and well-formed or not at all, and a save
//! killed at any moment leaves the previous save in place.

use hermes::common::Rng64;
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::{Mediator, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const FILES: [&str; 2] = ["answers.cache", "stats.db"];

thread_local! {
    /// The largest single allocation this thread has asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated less bytes it has freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Notes every request in [`LARGEST`], so a test can show that a hostile
/// length word was never trusted, and keeps [`LIVE`], so a test can show
/// that what a single-threaded run holds stopped growing.
struct LargestRequest;

fn note(size: usize, freed: usize) {
    // `try_with`: an allocation during thread teardown has nowhere to note.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    let _ = LIVE.try_with(|live| live.set(live.get() + size as isize - freed as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; `note` touches only
// `const`-initialised thread-local `Cell`s and so never allocates. The
// provided `alloc_zeroed` goes through `alloc`.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// One of three known states: a mediator that has answered `4 * which`
/// point queries, so any two differ in both files.
fn state(which: usize) -> Mediator {
    let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
    let mut net = Network::new(1);
    net.place(
        std::sync::Arc::new(domain),
        hermes::net::profiles::cornell(),
    );
    let m = Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap();
    for i in 0..4 * which {
        m.query(format!("?- item('p_{i}', B).")).unwrap();
    }
    m
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hermes-state-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Saves `m` into `dir` and returns the bytes of both state files.
fn saved(m: &Mediator, dir: &Path) -> [Vec<u8>; 2] {
    m.save_state(dir).unwrap();
    FILES.map(|name| std::fs::read(dir.join(name)).unwrap())
}

#[test]
fn a_damaged_file_beside_a_good_one_loads_neither() {
    let dir = scratch("pair");
    for (damaged, good) in FILES.iter().zip(saved(&state(1), &dir.join("a"))) {
        std::fs::write(
            dir.join("a").join(damaged),
            [good.as_slice(), &[0]].concat(),
        )
        .unwrap();
        let mut m = state(0);
        assert!(m.load_state(&dir.join("a")).is_err(), "{damaged}");
        assert_eq!(saved(&m, &dir.join("b")), saved(&state(0), &dir.join("c")));
        std::fs::write(dir.join("a").join(damaged), good).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Bit flips, splices, noise and hostile `count` / `len` words: loading
/// returns (any `Result`), and never asks the allocator for more than a
/// small multiple of the bytes it was actually given.
#[test]
fn damaged_state_files_never_panic_or_overallocate() {
    let dir = scratch("damaged");
    let loaders: [fn(&[u8]) -> bool; 2] = [
        |file| hermes::cim::persist::load_into(file, &mut hermes::cim::AnswerCache::new()).is_ok(),
        |file| hermes::dcsm::persist::load(file).is_ok(),
    ];
    let mut r = Rng64::new(0x57A7E);
    for (good, load) in saved(&state(1), &dir).iter().zip(loaders) {
        assert!(load(good));
        // The header line, then the count word, then the first length word.
        let count_at = good.iter().position(|&b| b == b'\n').unwrap() + 1;
        for case in 0..512 {
            let mut bytes = good.clone();
            match case % 4 {
                0 => {
                    for _ in 0..r.range_usize(1, 4) {
                        let i = r.range_usize(0, bytes.len());
                        bytes[i] ^= 1 << r.range_u64(0, 8);
                    }
                }
                1 => {
                    // Splice: a run of the file lands somewhere else in it.
                    let from = r.range_usize(0, bytes.len());
                    let run = good[from..r.range_usize(from, bytes.len() + 1)].to_vec();
                    let at = r.range_usize(0, bytes.len());
                    bytes.splice(at..at, run);
                }
                2 => {
                    // Noise, behind a valid header half of the time.
                    bytes.truncate(if r.chance(0.5) { count_at } else { 0 });
                    bytes.extend((0..r.range_usize(1, 64)).map(|_| r.next_u64() as u8));
                }
                _ => {
                    // The count or the first length claims far more than
                    // the file holds, with the rest of the file cut or not.
                    let claims = [u32::MAX, hermes::common::frame::MAX_FRAME_LEN, 1 << 20];
                    let at = count_at + 4 * r.range_usize(0, 2);
                    bytes[at..at + 4].copy_from_slice(&r.pick(&claims).to_le_bytes());
                    if r.chance(0.5) {
                        bytes.truncate(r.range_usize(at + 4, bytes.len() + 1));
                    }
                }
            }
            LARGEST.set(0);
            let _ = load(&bytes);
            let (largest, len) = (LARGEST.get(), bytes.len());
            assert!(
                largest <= 64 * len + 4096,
                "case {case}: one allocation of {largest} bytes for a {len}-byte file"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// How the kill test hands its directory to the child process.
const KILL_TEST_DIR: &str = "HERMES_TEST_KILL_MID_SAVE_DIR";

/// The child half of the kill test: saves two known states over each
/// other until killed (or for two seconds, should the parent be gone).
#[test]
#[ignore = "helper process of a_save_killed_at_any_moment_leaves_a_saved_state"]
fn kill_mid_save_child() {
    let Some(dir) = std::env::var_os(KILL_TEST_DIR) else {
        return;
    };
    let states = [state(1), state(2)];
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(2) {
        for m in &states {
            m.save_state(Path::new(&dir)).unwrap();
        }
    }
}

/// `atomic_file::write_atomically` under a real `SIGKILL`: whenever the
/// saving process dies, each state file is whole and is the one or the
/// other saved state's, and a torn `*.tmp` beside it is never read. (The
/// two files are replaced one after the other, so a kill between them
/// leaves the answers of one save beside the statistics of the previous.)
/// The child's saves must equal this process's byte for byte, and what is
/// loaded must save to those bytes again, so the test also holds saving
/// to be deterministic and loading to be lossless.
#[test]
fn a_save_killed_at_any_moment_leaves_a_saved_state() {
    let dir = scratch("kill");
    let expected = [1, 2].map(|which| saved(&state(which), &dir.join("expected")));
    assert_ne!(expected[0], expected[1]);
    let live = dir.join("live");
    state(1).save_state(&live).unwrap();
    for round in 0..10 {
        let mut child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--ignored", "--exact", "kill_mid_save_child"])
            .env(KILL_TEST_DIR, &live)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        std::thread::sleep(Duration::from_millis(20 + 31 * round));
        let ended = child.try_wait().unwrap();
        assert!(ended.is_none(), "round {round}: the saver ended by itself");
        child.kill().unwrap();
        child.wait().unwrap();
        let mut restarted = state(0);
        if let Err(e) = restarted.load_state(&live) {
            panic!("round {round}: the state no longer loads: {e}");
        }
        for (i, file) in saved(&restarted, &dir.join("reread")).iter().enumerate() {
            let known = expected.iter().any(|state| state[i] == *file);
            assert!(known, "round {round}: {} is neither save's", FILES[i]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_statistics_cache_stops_growing_with_the_calls_it_has_seen() {
    use hermes::dcsm::{Dcsm, DETAIL_WINDOW};
    use hermes::{GroundCall, SimInstant, Value};

    // 200 000 observations of 4 096 distinct calls of one function. The
    // second half is a whole number of windows, so both readings find the
    // record list equally full.
    let second_half = 98 * DETAIL_WINDOW;
    let mut rng = Rng64::new(24);
    let mut dcsm = Dcsm::new();
    let mut record = |dcsm: &mut Dcsm, n: usize| {
        for _ in 0..n {
            let key = Value::Int(rng.range_i64(0, 4096));
            let call = GroundCall::new("d1", "p_bf", vec![key]);
            let t_all = Some(rng.range_f64(1.0, 9.0));
            dcsm.record(&call, Some(1.0), t_all, Some(2.0), SimInstant::EPOCH);
            assert!(dcsm.db().detail_len() < 2 * DETAIL_WINDOW);
        }
    };
    let start = LIVE.with(Cell::get);
    record(&mut dcsm, 100_000);
    let halfway = LIVE.with(Cell::get) - start;
    record(&mut dcsm, second_half);
    let end = LIVE.with(Cell::get) - start;

    assert_eq!(dcsm.db().len(), 100_000 + second_half);
    assert!(halfway > 0);
    // Every key was seen in the first half, so the cells are all there;
    // the second half may only move the window (at the parent it added
    // ~270 B a record).
    assert!(
        (end as f64) < halfway as f64 * 1.05,
        "live bytes grew from {halfway} to {end} over the last {second_half} records"
    );
}
