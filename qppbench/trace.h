#pragma once

// In-memory span recording for the benchmark's traced mode, and the sample
// statistics every metric is computed with.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the engine is instrumented. All spans
// are opened and closed on the driver's single client thread, so the
// tracer takes no locks. Spans nest strictly: a layer's self time is its
// duration minus the durations of its direct children, and an operation's
// root span keeps the remainder as "unattributed", so the self times of
// one operation add up to its wall time exactly.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qppbench {

using Clock = std::chrono::steady_clock;

inline double ElapsedUs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 when empty.
double Quantile(std::vector<double> samples, double q);

/// The q-quantile of each consecutive chunk of `chunk` samples, in arrival
/// order, and then the median over chunks. A trailing partial chunk counts
/// only when there is no whole one. 0 when empty.
double ChunkedQuantile(const std::vector<double>& samples, double q, size_t chunk);

class Tracer {
 public:
  struct Span {
    uint64_t op = 0;       // operation id shared by every span of one op
    int64_t parent = -1;   // index into spans(), -1 for an operation root
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span. With no span open it
  /// starts a new operation whose kind is `name`. Returns a handle for
  /// Close, or -1 when tracing is off.
  int64_t Open(const char* name);
  void Close(int64_t handle);

  /// RAII span: `Scope s(tracer, "exec.execute");`.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), handle_(tracer.Open(name)) {}
    ~Scope() { tracer_.Close(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int64_t handle_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (us) of every span with this name.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Per operation of kind `op_kind`: the summed duration (us) of the spans
  /// named `name` inside it (0 for operations without one).
  std::vector<double> PerOpSumUs(const std::string& op_kind,
                                 const std::string& name) const;

  /// Self time per operation kind and layer, summed over the run, in us.
  /// The root span's own self time is reported as layer "unattributed".
  struct SelfTimes {
    uint64_t ops = 0;
    double wall_us = 0.0;
    std::map<std::string, double> layer_us;
    /// Largest |wall - sum of self times| over single operations (us);
    /// floating-point rounding only.
    double max_residual_us = 0.0;
  };
  std::map<std::string, SelfTimes> SelfTimeTable() const;

  /// Writes every span as one JSON document (times in us since the first
  /// span), for offline inspection.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // stack of open span indexes
  uint64_t next_op_ = 1;
};

}  // namespace qppbench
