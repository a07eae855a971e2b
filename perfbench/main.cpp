// rls_perfbench: one run of one RLS benchmark workload.
//
//   rls_perfbench --workload <lrc_read_mostly|lrc_durable_churn|rli_softstate>
//                 --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
// metrics (a separate, traced run). The process pins itself, and every
// thread it starts, to one CPU. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit code 0 = every call was checked and correct; 1 = a correctness
// mismatch (the result still prints); 2 = no result (bad arguments, a
// set-up failure, or a debug/sanitizer build).
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: rls_perfbench --workload <lrc_read_mostly|lrc_durable_churn|"
               "rli_softstate> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n");
}

/// Confines the process to one CPU, the highest it may use; every thread
/// started later inherits this. Returns the CPU, or -1 if it could not.
///
/// On a VM that shares its host, a call that hops between threads on
/// several vCPUs waits for the host to wake each idle vCPU, and under
/// load from other tenants those waits, not the program, set the
/// latency. On one vCPU, kept busy by the spinning generator, each hop
/// is a switch inside the guest. See METRICS.md for the measurements.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  if (argc % 2 == 0) {
    Usage();
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = perfbench::ParseWorkload(value, &config.kind);
      if (!have_workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return 2;
      }
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || config.seconds <= 0 || config.workdir.empty() ||
      !std::filesystem::is_directory(config.workdir)) {
    Usage();
    return 2;
  }

  // Before RunWorkload starts any thread.
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "perfbench: cannot pin the process to one CPU\n");
    return 2;
  }
  perfbench::RunResult result = perfbench::RunWorkload(config);
  result.where.emplace_back("cpu", std::to_string(cpu));
  std::printf("# where:");
  for (const auto& [key, value] : result.where) std::printf(" %s=%s", key.c_str(), value.c_str());
  std::printf("\n");
  if (!result.fatal.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", result.fatal.c_str());
    return 2;
  }
  for (const std::string& problem : result.problems) {
    std::printf("# MISMATCH: %s\n", problem.c_str());
  }
  std::printf("# %-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("# %-34s %16.6f  %-6s %llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("# failed_ratio = %llu / %llu = %.6g\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted),
              result.attempted ? static_cast<double>(result.failed) / result.attempted : 0.0);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
