#ifndef DCER_OBS_METRICS_H_
#define DCER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dcer {

class JsonWriter;

namespace obs {

/// Whether metric collection is on. A single relaxed atomic load: the hot
/// layers guard their instrumentation with this, so a disabled build path
/// costs one predictable branch (see EXPERIMENTS.md).
bool MetricsEnabled();
void SetMetricsEnabled(bool on);

/// One-time initialization from the environment: DCER_METRICS=1 enables the
/// registry, DCER_TRACE_FILE=<path> enables tracing and writes a Chrome
/// trace_event file at process exit. Match()/DMatch() call this lazily, so
/// any binary linking the engine honours the knobs without code changes.
void InitFromEnv();

namespace internal {
inline constexpr int kStripes = 16;

/// Stripe of the calling thread: assigned round-robin on first use, so pool
/// workers spread across cache lines instead of hammering one counter cell
/// (same idea as the striped ML prediction cache).
inline unsigned StripeIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}
}  // namespace internal

/// Monotonic counter, striped across cache lines. Addition is commutative,
/// so a counter fed deterministic per-thread amounts reads back bit-identical
/// under any interleaving — the basis of the determinism contract (DESIGN.md
/// "Observability").
class Counter {
 public:
  void Add(uint64_t d) {
    cells_[internal::StripeIndex()].v.fetch_add(d, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t Value() const;
  void Reset();

 private:
  friend class MetricsRegistry;
  Counter() = default;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[internal::kStripes];
};

/// Last-writer-wins instantaneous value (e.g. workers configured).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// Power-of-two bucketed histogram over non-negative integer samples.
/// Bucket b counts samples whose bit width is b (bucket 0 holds the value
/// 0), i.e. sample ranges [2^(b-1), 2^b). Striped like Counter; bucket
/// counts and the integer sum are commutative, so histograms over
/// deterministic values (block sizes, candidate counts) are themselves
/// deterministic. Timing histograms (Unit::kNanos) are excluded from the
/// determinism contract by construction.
class Histogram {
 public:
  enum class Unit { kCount, kNanos };
  static constexpr int kBuckets = 64;

  void Record(uint64_t value);
  /// Convenience for wall-clock samples, recorded in nanoseconds.
  void RecordSeconds(double seconds) {
    double ns = seconds * 1e9;
    Record(ns <= 0 ? 0 : static_cast<uint64_t>(ns));
  }
  Unit unit() const { return unit_; }
  uint64_t TotalCount() const;
  uint64_t TotalSum() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(Unit unit) : unit_(unit) {}
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count[kBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };
  const Unit unit_;
  Stripe stripes_[internal::kStripes];
};

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;  // integer base units (raw value or nanoseconds)
  Histogram::Unit unit = Histogram::Unit::kCount;
  std::vector<uint64_t> buckets;  // size kBuckets

  bool operator==(const HistogramSnapshot&) const = default;

  /// Estimated q-quantile (q in [0, 1]) of the recorded samples, in the
  /// histogram's base unit. Walks the cumulative bucket counts to the target
  /// rank and interpolates linearly inside the hit bucket's sample range
  /// [2^(b-1), 2^b) — the Prometheus histogram_quantile scheme — instead of
  /// reporting the bucket upper bound, which overstates skewed tails by up
  /// to 2x. Returns 0 for an empty histogram.
  double Quantile(double q) const;
};

/// Point-in-time copy of the whole registry; subtractable, so a phase can
/// report only what it contributed (snapshot at entry, Delta at exit).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// this − earlier, per metric. Gauges keep their current value (they are
  /// levels, not flows). Metrics absent from `earlier` count from zero.
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;

  /// Counters, gauges and count-unit histograms equal; timing (kNanos)
  /// histograms ignored. This is the relation the determinism tests assert
  /// across `threads` settings.
  bool DeterministicEquals(const MetricsSnapshot& other) const;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Appends {"counters":{...},"gauges":{...},"histograms":{...},
  /// "timings":{...}} as one JSON object value. Count-unit histograms go to
  /// "histograms", kNanos ones to "timings" — consumers diffing for
  /// determinism read everything except "timings".
  void AppendJson(JsonWriter* w) const;
};

/// Process-wide metric registry. Metric objects are created on first use and
/// live for the process (stable pointers — call sites cache them in function
/// local statics). Registration takes a mutex; updates are lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          Histogram::Unit unit = Histogram::Unit::kCount);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (tests; metric objects stay valid).
  void ResetAll();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace dcer

#endif  // DCER_OBS_METRICS_H_
