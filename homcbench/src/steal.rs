//! Time the hypervisor gives to other tenants of the host.
//!
//! The benchmark runs in a virtual machine on a shared host. When the host
//! is oversubscribed, the hypervisor takes the machine's CPUs away for a
//! while and the guest kernel reports that time as `steal`. On the machine
//! the benchmark was tuned on, steal took up to a third of the CPU time the
//! guest wanted for minutes at a time, and wall times rose with it (a
//! correlation of 0.99 between a round's time and its steal). The
//! benchmark reports every timing without that time: it scales a wall time
//! by the share of the guest's CPU time that was not stolen while it was
//! measured. Where `/proc/stat` cannot be read, nothing is scaled.

use std::fs;

/// The guest's CPU time counters, in clock ticks, summed over CPUs.
#[derive(Clone, Copy, Default)]
pub struct CpuTimes {
    /// user + nice + system + irq + softirq: time the guest ran something.
    busy: u64,
    /// Time a CPU had work but the hypervisor ran another tenant.
    steal: u64,
}

impl CpuTimes {
    /// The counters now, from the `cpu` line of `/proc/stat`; zero when it
    /// cannot be read.
    pub fn read() -> CpuTimes {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        // cpu user nice system idle iowait irq softirq steal guest guest_nice
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTimes {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Factor that takes the stolen time out of a wall time measured
    /// between `earlier` and `self`: the share of the guest's wanted CPU
    /// time (busy plus stolen) that it got. 1 when nothing was stolen.
    pub fn kept_since(&self, earlier: &CpuTimes) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy) as f64;
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        if busy + steal > 0.0 {
            busy / (busy + steal)
        } else {
            1.0
        }
    }
}
