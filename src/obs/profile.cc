#include "obs/profile.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_util.h"

namespace lakefed::obs {
namespace {

std::string FormatMs(double ms) {
  char buf[48];
  if (ms < 0) return "-";
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// The figures both renderings derive from one operator record.
struct Derived {
  double q_error = -1;         // -1 = no estimate; 1.0 = exact
  bool underestimate = false;  // estimate < actual (when q_error >= 0)
  double network_ms = 0;       // leaves: their source's simulated delay
  double compute_ms = -1;      // wall - push-wait - network, clamped >= 0
  double rows_per_sec = 0;     // rows / wall time
};

Derived Derive(const OperatorRuntime& op,
               const std::map<std::string, SourceTraffic>& sources) {
  Derived d;
  const double rows = static_cast<double>(op.rows);
  d.q_error = QError(op.estimated_rows, rows);
  d.underestimate = d.q_error >= 0 && op.estimated_rows < rows;
  if (!op.source_id.empty()) {
    auto it = sources.find(op.source_id);
    if (it != sources.end()) d.network_ms = it->second.delay_ms;
  }
  if (op.wall_ms >= 0) {
    d.compute_ms = std::max(0.0, op.wall_ms - op.push_wait_ms - d.network_ms);
    if (op.wall_ms > 0) d.rows_per_sec = rows / (op.wall_ms / 1e3);
  }
  return d;
}

}  // namespace

double QError(double estimated, double actual) {
  if (estimated < 0) return -1;
  double e = std::max(estimated, 1.0);
  double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

double QueryProfile::MaxQError() const {
  double max_q_error = -1;
  for (const OperatorRuntime& op : operators) {
    max_q_error = std::max(
        max_q_error, QError(op.estimated_rows, static_cast<double>(op.rows)));
  }
  return max_q_error;
}

std::vector<QueryProfile::Phase> SessionPhases(
    const std::vector<SpanRecord>& spans) {
  // The recorder snapshot is in creation order, which is also start order
  // for siblings.
  std::vector<uint64_t> roots;
  for (const SpanRecord& s : spans) {
    if (s.parent_id == 0) roots.push_back(s.id);
  }
  std::vector<QueryProfile::Phase> phases;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0 &&
        std::find(roots.begin(), roots.end(), s.parent_id) != roots.end()) {
      phases.push_back({s.name, s.duration_ms()});
    }
  }
  return phases;
}

std::string QueryProfile::ToText() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "QUERY PROFILE  status=%s  rows=%llu  total=%.2f ms",
                status.c_str(), static_cast<unsigned long long>(answer_rows),
                total_ms);
  out += buf;
  if (first_answer_ms >= 0) {
    std::snprintf(buf, sizeof(buf), "  first=%.2f ms", first_answer_ms);
    out += buf;
  }
  out.push_back('\n');
  if (!phases.empty()) {
    out += "phases:";
    for (const Phase& p : phases) {
      std::snprintf(buf, sizeof(buf), "  %s %.2f ms", p.name.c_str(), p.ms);
      out += buf;
    }
    out.push_back('\n');
  }
  std::snprintf(buf, sizeof(buf), "%10s %10s %8s %10s %10s %10s %10s %11s  %s\n",
                "est", "actual", "q-err", "wall_ms", "compute", "queue_wait",
                "net_ms", "rows/s", "operator");
  out += buf;
  for (const OperatorRuntime& op : operators) {
    const Derived d = Derive(op, sources);
    std::string est = op.estimated_rows < 0
                          ? "-"
                          : std::to_string(static_cast<long long>(
                                op.estimated_rows));
    std::string qerr = "-";
    if (d.q_error >= 0) {
      char qbuf[32];
      std::snprintf(qbuf, sizeof(qbuf), "%.2f%s", d.q_error,
                    d.q_error > 1.0 ? (d.underestimate ? "v" : "^") : "");
      qerr = qbuf;
    }
    std::string rps = "-";
    if (op.wall_ms > 0) {
      char rbuf[32];
      std::snprintf(rbuf, sizeof(rbuf), "%.0f", d.rows_per_sec);
      rps = rbuf;
    }
    std::snprintf(buf, sizeof(buf),
                  "%10s %10llu %8s %10s %10s %10s %10s %11s  %s\n",
                  est.c_str(), static_cast<unsigned long long>(op.rows),
                  qerr.c_str(), FormatMs(op.wall_ms).c_str(),
                  FormatMs(d.compute_ms).c_str(),
                  FormatMs(op.push_wait_ms + op.pop_wait_ms).c_str(),
                  FormatMs(d.network_ms).c_str(), rps.c_str(),
                  op.label.c_str());
    out += buf;
  }
  const double max_q_error = MaxQError();
  if (max_q_error >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "max q-error: %.2f  (v = underestimate, ^ = overestimate)\n",
                  max_q_error);
    out += buf;
  }
  if (!sources.empty()) {
    out += "per-source traffic:\n";
    for (const auto& [id, s] : sources) {
      std::snprintf(buf, sizeof(buf),
                    "%10llu rows  %10llu msgs  %10.2f ms  %s",
                    static_cast<unsigned long long>(s.rows),
                    static_cast<unsigned long long>(s.messages), s.delay_ms,
                    id.c_str());
      out += buf;
      if (s.retries > 0) {
        out += "  (" + std::to_string(s.retries) + " retries)";
      }
      out.push_back('\n');
    }
  }
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\"status\":" + JsonString(status) +
                    ",\"total_ms\":" + FormatDouble(total_ms) +
                    ",\"first_answer_ms\":" + FormatDouble(first_answer_ms) +
                    ",\"rows\":" + std::to_string(answer_rows) +
                    ",\"max_q_error\":" + FormatDouble(MaxQError()) +
                    ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"name\":" + JsonString(phases[i].name) +
           ",\"ms\":" + FormatDouble(phases[i].ms) + "}";
  }
  out += "],\"operators\":[";
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorRuntime& op = operators[i];
    const Derived d = Derive(op, sources);
    if (i > 0) out.push_back(',');
    out += "{\"label\":" + JsonString(op.label) +
           ",\"source\":" + JsonString(op.source_id) +
           ",\"estimated_rows\":" + FormatDouble(op.estimated_rows) +
           ",\"actual_rows\":" + std::to_string(op.rows) +
           ",\"q_error\":" + FormatDouble(d.q_error) +
           ",\"underestimate\":" + (d.underestimate ? "true" : "false") +
           ",\"wall_ms\":" + FormatDouble(op.wall_ms) +
           ",\"compute_ms\":" + FormatDouble(d.compute_ms) +
           ",\"push_wait_ms\":" + FormatDouble(op.push_wait_ms) +
           ",\"pop_wait_ms\":" + FormatDouble(op.pop_wait_ms) +
           ",\"push_waits\":" + std::to_string(op.push_waits) +
           ",\"pop_waits\":" + std::to_string(op.pop_waits) +
           ",\"network_ms\":" + FormatDouble(d.network_ms) +
           ",\"rows_per_sec\":" + FormatDouble(d.rows_per_sec) +
           ",\"peak_queue_depth\":" + std::to_string(op.peak_depth) +
           ",\"avg_queue_depth\":" + FormatDouble(op.avg_depth()) + "}";
  }
  out += "],\"sources\":[";
  bool first = true;
  for (const auto& [id, s] : sources) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"id\":" + JsonString(id) + ",\"rows\":" +
           std::to_string(s.rows) + ",\"messages\":" +
           std::to_string(s.messages) + ",\"delay_ms\":" +
           FormatDouble(s.delay_ms) + ",\"retries\":" +
           std::to_string(s.retries) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace lakefed::obs
