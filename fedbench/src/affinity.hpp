// CPU placement for timing runs. On a host whose cores are shared with
// other tenants, the tenants slow some CPUs more than others, for tens of
// seconds at a stretch; spreading samples over every CPU keeps one slow
// CPU from setting a whole run's figure. Also the scheduler accounting
// that takes out of a timing the time other processes held its CPU.
#pragma once

#include <cstdint>
#include <vector>

namespace fedbench {

/// The CPUs this process could run on when it first asked (before any
/// pinning narrowed the calling thread's affinity).
const std::vector<int>& allowed_cpus();

/// Pins the calling thread to one CPU; threads it starts inherit that.
void pin_to(int cpu);

/// How long the calling thread has been runnable but waiting for a CPU
/// that other threads held, in ns since it started (the run_delay field of
/// /proc/thread-self/schedstat); 0 when the kernel does not provide it.
std::int64_t cpu_wait_ns();

}  // namespace fedbench
