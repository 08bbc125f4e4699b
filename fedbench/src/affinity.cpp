#include "affinity.hpp"

#include <sched.h>

#include <cstdio>

namespace fedbench {
namespace {

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> found;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set)) found.push_back(cpu);
    if (found.empty()) found.push_back(0);
    return found;
  }();
  return cpus;
}

void pin_to(int cpu) { set_affinity({cpu}); }

std::int64_t cpu_wait_ns() {
  long long on_cpu = 0;
  long long wait = 0;
  if (std::FILE* file = std::fopen("/proc/thread-self/schedstat", "r")) {
    if (std::fscanf(file, "%lld %lld", &on_cpu, &wait) != 2) wait = 0;
    std::fclose(file);
  }
  return wait;
}

}  // namespace fedbench
