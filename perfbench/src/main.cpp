// perfbench: one binary, three workloads, one record line.
//
//   perfbench --workload <paper_apps|fine_tasks|wire_steady>
//             --seed <n> --seconds <s> --trace <0|1> [--wire-rate <req/s>]
//             [--trace-dir <dir>] [--commit <id>] [--source-digest <hex>]
//
// Prints the record (see record.hpp) as the last line of stdout and exits 0
// when every output check passed, 1 when one failed, 2 on a usage error or
// a failure before the measured window.  With --trace 1 the first spans are
// written to <trace-dir>/<workload>.trace.json (Chrome trace format) and the
// per-layer self-time table goes to stderr and
// <trace-dir>/<workload>.selftime.txt; each traced run replaces the files of
// the previous one.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "record.hpp"
#include "trace.hpp"

namespace {

constexpr std::size_t kSpanCapacity = 2'000'000;
constexpr std::size_t kChromeSpans = 200'000;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

void write_self_time(const perfbench::RunOptions& o,
                     const perfbench::RunResult& r, std::FILE* f) {
  std::fprintf(f, "self time per op, %s (op %.4f ms):\n", o.workload.c_str(),
               r.op_ms);
  for (const perfbench::SelfRow& row : r.self_time) {
    std::fprintf(f, "  %-32s %10.4f ms  %6.1f%%\n", row.layer.c_str(),
                 row.ms_per_op,
                 r.op_ms > 0 ? 100.0 * row.ms_per_op / r.op_ms : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.process_start_ns = sigrt::support::now_ns();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--source-digest") {
      o.source_digest = v;
    } else if (a == "--wire-rate") {
      o.wire_rate = std::strtod(v, nullptr);
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");

  if (o.trace) perfbench::trace::enable(kSpanCapacity);
  perfbench::RunResult r;
  try {
    if (o.workload == "paper_apps") {
      r = perfbench::run_paper_apps(o);
    } else if (o.workload == "fine_tasks") {
      r = perfbench::run_fine_tasks(o);
    } else if (o.workload == "wire_steady") {
      r = perfbench::run_wire(o);
    } else {
      usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 2;
  }
  perfbench::trace::disable();

  if (o.trace) {
    write_self_time(o, r, stderr);
    if (!o.trace_dir.empty()) {
      const std::string base = o.trace_dir + "/" + o.workload;
      if (!perfbench::trace::write_chrome_trace(base + ".trace.json",
                                                o.process_start_ns, kChromeSpans)) {
        std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                     base.c_str());
      }
      if (std::FILE* f = std::fopen((base + ".selftime.txt").c_str(), "w")) {
        write_self_time(o, r, f);
        std::fclose(f);
      }
    }
  }
  for (const std::string& m : r.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());
  }
  std::printf("%s\n", perfbench::record_json(o, r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
