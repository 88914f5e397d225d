//! Where the benchmark's threads run: the load generator on one CPU, the
//! product on the others.
//!
//! Left to the scheduler, where the server's and the generator's threads
//! happen to land decides whether a request's hand-offs cross CPUs, and on
//! a small shared VM a crossing wake-up costs several times one that does
//! not: the same binary read between 7.8 k and 17.6 k warm queries per
//! second from run to run. So a measured run fixes the topology without
//! collapsing it. The generator's threads pin themselves to the last CPU
//! the process may use; the thread that builds the world, and so the
//! server's reactor and workers and the mediator's own threads, which
//! inherit its mask, keep all the others. Every request then crosses
//! from the generator's CPU to the server's and back, as it would from
//! another process, and the generator never takes a worker's time slice.
//!
//! With one CPU, off Linux, or if the kernel refuses, nothing is pinned.

/// The CPUs of a measured run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Placement {
    /// Where the product runs; empty when nothing is pinned.
    pub server: Vec<usize>,
    /// Where the load generator's threads run; `None` when nothing is
    /// pinned.
    pub generator: Option<usize>,
}

impl Placement {
    /// Splits the CPUs the calling thread may use and restricts the
    /// calling thread — and every thread spawned from it afterwards — to
    /// the product's share. With fewer than two CPUs nothing is pinned.
    pub fn split() -> Placement {
        let mut server = sys::allowed();
        if server.len() < 2 {
            return Placement::default();
        }
        let generator = server.pop();
        if sys::pin(&server) {
            Placement { server, generator }
        } else {
            Placement::default()
        }
    }

    /// Moves the calling thread (a client of the load generator, before
    /// it spawns anything) to the generator's CPU.
    pub fn enter_generator(&self) {
        if let Some(cpu) = self.generator {
            // A refusal leaves the thread where the scheduler wants it,
            // which is what an unpinned run does everywhere.
            sys::pin(&[cpu]);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending; empty if the
    /// kernel will not say.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes at most
        // `cpusetsize` bytes and keeps no pointer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; false if there are none,
    /// one is out of range, or the kernel refuses.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        if cpus.is_empty() || cpus.iter().any(|&cpu| cpu >= WORDS * 64) {
            return false;
        }
        for &cpu in cpus {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread; the call only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_split_keeps_generator_and_product_apart() {
        // In a thread of its own: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let before = sys::allowed();
            let placement = Placement::split();
            let Some(generator) = placement.generator else {
                // One CPU, not Linux, or not allowed: nothing was pinned.
                assert_eq!(sys::allowed(), before);
                return;
            };
            assert_eq!(Some(&generator), before.last());
            assert_eq!(placement.server, before[..before.len() - 1]);
            assert_eq!(sys::allowed(), placement.server);
            let child = std::thread::spawn(sys::allowed).join().unwrap();
            assert_eq!(child, placement.server, "children inherit the mask");
            let client = std::thread::spawn(move || {
                placement.enter_generator();
                std::thread::spawn(sys::allowed).join().unwrap()
            });
            assert_eq!(client.join().unwrap(), vec![generator]);
        })
        .join()
        .unwrap();
    }
}
