//! CPU clocks: the time threads actually ran.
//!
//! On a shared host a benchmark's threads lose their cores to other guests
//! (steal) and to other processes, for stretches that differ from run to run.
//! Wall-clock time counts those stretches; these clocks do not. With the kernel's
//! paravirtual time accounting the time a vCPU was stolen is not charged to the
//! thread that was running on it either.

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    fn pthread_self() -> usize;
    fn pthread_getcpuclockid(thread: usize, clock: *mut i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: every thread of this process, live or ended.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A CPU-time clock that any thread of this process may read.
#[derive(Clone, Copy, Debug)]
pub struct Clock(i32);

impl Clock {
    /// The CPU time of the whole process.
    pub fn process() -> Clock {
        Clock(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// The CPU time of the calling thread only.
    pub fn this_thread() -> Clock {
        Clock(CLOCK_THREAD_CPUTIME_ID)
    }

    /// The calling thread's CPU time as a clock other threads can read while this
    /// thread lives.
    pub fn of_this_thread() -> Clock {
        let mut id = 0;
        // SAFETY: `pthread_self` is always valid for the calling thread and `id` is
        // a writable `clockid_t`.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut id) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        Clock(id)
    }

    /// The clock's reading in nanoseconds.
    pub fn now_ns(self) -> u64 {
        let mut ts = [0i64; 2];
        // SAFETY: `ts` is a writable `struct timespec` on 64-bit Linux.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime failed");
        ts[0] as u64 * 1_000_000_000 + ts[1] as u64
    }
}
