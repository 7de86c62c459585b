#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>

#include "core/topology.hpp"
#include "support/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace perfbench {

std::atomic<std::uint64_t> g_heap_allocs{0};

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

std::string host_json(const std::string& energy_backend,
                      const std::string& commit,
                      const std::string& source_digest) {
  const auto& topo = sigrt::topo::system_topology();
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\":%u,\"isa\":\"%s\",\"topology\":{\"cpus\":%u,"
      "\"packages\":%u,\"cores\":%u,\"llc_groups\":%u,\"l2_kib\":%zu,"
      "\"llc_kib\":%zu,\"from_sysfs\":%s},\"energy_backend\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"commit\":\"%s\","
      "\"source_digest\":\"%s\"}",
      nproc(),
      sigrt::support::simd::to_string(sigrt::support::simd::active()),
      topo.cpu_count(), topo.packages, topo.cores, topo.llc_groups,
      topo.l2_bytes / 1024, topo.llc_bytes / 1024,
      topo.from_sysfs ? "true" : "false", energy_backend.c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, commit.c_str(),
      source_digest.c_str());
  return buf;
}

ProcSample proc_sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return s;
}

}  // namespace perfbench
