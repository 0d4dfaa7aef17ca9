//! What the operating system says about this process.

/// Peak resident set (`VmHWM`) in MB (10^6 bytes); 0 where `/proc` has
/// no such line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// User + system CPU seconds of this process so far, from
/// `/proc/self/stat` (clock ticks are 100 Hz on every Linux this runs
/// on); 0 where unavailable.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Clock ticks (10 ms) the hypervisor ran someone else while this guest
/// had work to do, summed over CPUs, since boot: the `steal` column of
/// `/proc/stat`. 0 where there is none.
#[must_use]
pub fn steal_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5, "a running test has a resident set");
        assert!(cpu_seconds() >= 0.0);
        assert!(steal_ticks() <= steal_ticks());
        assert!(nproc() >= 1);
    }
}
