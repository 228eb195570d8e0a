//! Main-thread placement across the host's cores.
//!
//! On a virtual machine whose vCPUs share physical cores with other
//! tenants, one core can run markedly slower than another for minutes at a
//! time (on a 2-vCPU host, a single-threaded run measured about 1.6× apart
//! depending on the core it was pinned to). The scheduler rarely moves a
//! mostly sequential thread, so a run would measure whichever core its main
//! thread happened to start on. [`Cores::hop`] moves the calling thread to
//! the next allowed core and then restores its full affinity mask, so a run
//! that hops before every epoch spends equal shares of its epochs on each
//! core while the engine still sees every core (its worker count is read
//! from the restored mask).

/// `cpu_set_t` is 1024 bits.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's allowed cores, visited round-robin.
#[derive(Debug)]
pub struct Cores {
    mask: [u64; WORDS],
    cpus: Vec<usize>,
    next: usize,
}

impl Cores {
    /// The calling thread's current affinity, or `None` where it cannot be
    /// read (then runs are not spread).
    pub fn of_this_thread() -> Option<Cores> {
        let mut mask = [0u64; WORDS];
        if !get(&mut mask) {
            return None;
        }
        let cpus = (0..WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        Some(Cores {
            mask,
            cpus,
            next: 0,
        })
    }

    /// Allowed cores.
    pub fn count(&self) -> usize {
        self.cpus.len()
    }

    /// Move the calling thread onto the next allowed core, then allow every
    /// core again. Best effort: a refused call leaves placement to the
    /// scheduler.
    pub fn hop(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one);
        set(&self.mask);
    }
}

#[cfg(target_os = "linux")]
fn get(mask: &mut [u64; WORDS]) -> bool {
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_getaffinity(0, std::mem::size_of_val(mask), mask.as_mut_ptr()) == 0 }
}

#[cfg(target_os = "linux")]
fn set(mask: &[u64; WORDS]) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn get(_: &mut [u64; WORDS]) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
fn set(_: &[u64; WORDS]) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hopping_keeps_every_core_allowed() {
        let Some(mut cores) = Cores::of_this_thread() else {
            return;
        };
        let before = cores.count();
        assert!(before >= 1);
        for _ in 0..3 {
            cores.hop();
        }
        let after = Cores::of_this_thread().expect("affinity stays readable");
        assert_eq!(after.count(), before);
    }
}
