#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace qppbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double ChunkedQuantile(const std::vector<double>& samples, double q, size_t chunk) {
  if (samples.size() <= chunk) return Quantile(samples, q);
  std::vector<double> per_chunk;
  for (size_t begin = 0; begin + chunk <= samples.size(); begin += chunk) {
    per_chunk.push_back(Quantile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                            samples.begin() + static_cast<std::ptrdiff_t>(begin + chunk)),
        q));
  }
  return Quantile(per_chunk, 0.5);
}

int64_t Tracer::Open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  if (open_.empty()) {
    s.op = next_op_++;
  } else {
    s.parent = open_.back();
    s.op = spans_[static_cast<size_t>(s.parent)].op;
  }
  spans_.push_back(s);
  const int64_t handle = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(handle);
  // Read the clock last so the span's own bookkeeping is not inside it.
  spans_.back().start = Clock::now();
  return handle;
}

void Tracer::Close(int64_t handle) {
  if (handle < 0) return;
  const Clock::time_point now = Clock::now();
  spans_[static_cast<size_t>(handle)].end = now;
  // Scopes close in LIFO order, so the handle is the top of the stack.
  open_.pop_back();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(ElapsedUs(s.start, s.end));
  }
  return out;
}

std::vector<double> Tracer::PerOpSumUs(const std::string& op_kind,
                                       const std::string& name) const {
  std::map<uint64_t, double> sums;  // op id -> summed duration
  for (const Span& s : spans_) {
    if (s.parent < 0 && op_kind == s.name) sums.emplace(s.op, 0.0);
  }
  for (const Span& s : spans_) {
    auto it = sums.find(s.op);
    if (it != sums.end() && s.parent >= 0 && name == s.name) {
      it->second += ElapsedUs(s.start, s.end);
    }
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [op, sum] : sums) out.push_back(sum);
  return out;
}

std::map<std::string, Tracer::SelfTimes> Tracer::SelfTimeTable() const {
  // Children's durations, summed per parent.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += ElapsedUs(s.start, s.end);
    }
  }
  std::map<std::string, SelfTimes> table;
  std::map<uint64_t, std::pair<double, double>> op_wall_and_self;
  std::map<uint64_t, std::string> op_kind;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = ElapsedUs(s.start, s.end);
    const double self = dur - child_us[i];
    if (s.parent < 0) {
      op_kind[s.op] = s.name;
      op_wall_and_self[s.op].first = dur;
    }
    op_wall_and_self[s.op].second += self;
    const std::string layer = s.parent < 0 ? "unattributed" : s.name;
    // The op kind is known once its root is seen; roots precede children.
    table[op_kind[s.op]].layer_us[layer] += self;
  }
  for (const auto& [op, wall_self] : op_wall_and_self) {
    SelfTimes& row = table[op_kind[op]];
    ++row.ops;
    row.wall_us += wall_self.first;
    row.max_residual_us = std::max(row.max_residual_us,
                                   std::fabs(wall_self.first - wall_self.second));
  }
  return table;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  out << "{\"spans\": [\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"id\": %zu, \"op\": %llu, \"parent\": %lld, "
                  "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                  i, static_cast<unsigned long long>(s.op),
                  static_cast<long long>(s.parent), s.name,
                  ElapsedUs(origin, s.start), ElapsedUs(origin, s.end),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace qppbench
