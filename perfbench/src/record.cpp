#include "record.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RunResult::fail_check(const std::string& message) {
  correct = false;
  if (check_failures.size() < 8) check_failures.push_back(message);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string record_json(const RunOptions& o, const RunResult& r) {
  std::string s = "{\"record\":\"perfbench\",\"workload\":";
  s += json_string(o.workload);
  s += ",\"seed\":" + std::to_string(o.seed);
  s += ",\"seconds\":" + json_number(o.seconds);
  s += ",\"trace\":" + std::string(o.trace ? "1" : "0");
  if (o.process_start_ns != 0 && r.window_start_ns != 0) {
    s += ",\"setup_total_s\":" +
         json_number(static_cast<double>(r.window_start_ns - o.process_start_ns) *
                     1e-9);
  }
  s += ",\"correct\":" + std::string(r.correct ? "true" : "false");
  s += ",\"attempted\":" + std::to_string(r.attempted);
  s += ",\"failed\":" + std::to_string(r.failed);
  s += ",\"check_failures\":[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    if (i != 0) s += ',';
    s += json_string(r.check_failures[i]);
  }
  s += "],\"host\":" + r.host_json;
  s += ",\"config\":" + r.config_json;
  s += ",\"detail\":" + r.extra_json;
  s += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i != 0) s += ',';
    s += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
         ",\"unit\":" + json_string(m.unit) + '}';
  }
  s += "},\"self_time\":{\"op_ms\":" + json_number(r.op_ms) + ",\"rows\":[";
  for (std::size_t i = 0; i < r.self_time.size(); ++i) {
    const SelfRow& row = r.self_time[i];
    if (i != 0) s += ',';
    s += "{\"layer\":" + json_string(row.layer) +
         ",\"ms_per_op\":" + json_number(row.ms_per_op) + ",\"share\":" +
         json_number(r.op_ms > 0 ? row.ms_per_op / r.op_ms : 0.0) + '}';
  }
  s += "]}}";
  return s;
}

}  // namespace perfbench
