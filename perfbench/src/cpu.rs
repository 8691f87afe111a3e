//! CPU time, the clock the gated time metrics are read from.
//!
//! On a virtual machine the hypervisor takes CPUs away from a guest
//! when other guests of the host need them (CPU steal). Wall time runs
//! on while the guest waits, so every wall-clock figure grows with the
//! host's load; a kernel built with steal accounting (Linux
//! `CONFIG_PARAVIRT_TIME_ACCOUNTING`, as on KVM and Firecracker guests)
//! leaves that time out of a task's CPU time. Time a process spends
//! blocked (a rayon worker waiting at a join, a thread waiting for the
//! other CPU) is not CPU time either, so the figure is the work the
//! program itself did, summed over its threads.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the whole call, and
    // both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// CPU time of this process, all threads (finished ones too), in ns.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in ns.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time (user + system, all threads) of another process, in ns,
/// from `/proc/<pid>/stat`. The kernel reports it in clock ticks
/// (100 per second), so it is only fine enough over many requests.
pub fn of_pid_ns(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command name"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        f.get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{path}: no field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) * 10_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_takes_cpu_time_and_sleep_does_not() {
        let (p0, t0) = (process_ns(), thread_ns());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (p1, t1) = (process_ns(), thread_ns());
        assert!(t1 > t0 && p1 >= p0 + (t1 - t0) / 2, "{p0} {p1} {t0} {t1}");
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert!(thread_ns() - t1 < 50_000_000, "sleeping took CPU time");
        assert!(of_pid_ns(std::process::id()).is_ok());
    }
}
