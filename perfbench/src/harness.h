// Measurement plumbing shared by the workloads: clocks, process counters,
// sample statistics, the in-memory span log of the traced mode, and the
// result report whose last line is the JSON object the benchmark contract
// asks for.

#ifndef KM_PERFBENCH_HARNESS_H_
#define KM_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kmb {

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for snapshots and the span log (inside the checkout).
  std::string out_dir = ".";
};

/// Steady-clock milliseconds.
double NowMs();
/// Process user+sys CPU milliseconds (getrusage).
double ProcessCpuMs();
/// A "VmHWM"/"VmRSS" style field of /proc/self/status, in MB.
double ProcStatusMb(const char* field);
/// Memory the process holds beyond what it can hand back: heap bytes in
/// use (mallinfo2) plus resident file-backed pages (RssFile), in MB. Its
/// delta across an allocation is not hidden by free heap memory the way a
/// VmRSS delta is.
double HeldMb();
/// Wall milliseconds of a fixed CPU-bound loop owned by the benchmark: a
/// host-speed diagnostic to set beside the metrics. A run on a slowed host
/// reads high here too.
double HostProbeMs();
/// Sleeps the calling thread.
void SleepMs(double ms);

/// Aggregate CPU jiffies from /proc/stat, for the steal diagnostic.
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuJiffies ReadCpuJiffies();
/// Steal time between two reads as a percentage of all CPU time.
double StealPercent(const CpuJiffies& before, const CpuJiffies& after);

/// A set of measurements.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Mean() const;
  double Sum() const;
  double Max() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// FNV-1a over bytes, chained through `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t size);
inline constexpr uint64_t kFnvSeed = 1469598103934665603ull;

/// Prints to stderr and exits with code 2, without a result line.
[[noreturn]] void Die(const std::string& what);

/// One recorded span of the traced mode.
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;  ///< index of the parent span, -1 for a root
  uint64_t request = 0;
};

/// In-memory span log, written out at exit. Single-threaded: the traced
/// replays run their calls one at a time on the calling thread.
class SpanLog {
 public:
  int64_t Begin(std::string name, int64_t parent, uint64_t request);
  void End(int64_t id);
  /// Per-request sum of the durations of spans called `name`, over the
  /// requests that have a root span called `root`.
  Samples PerRequestSums(const std::string& root, const std::string& name) const;
  /// Writes one JSON object per span; dies on I/O failure.
  void WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span over one call; records nothing when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t parent, uint64_t request)
      : log_(log),
        id_(log == nullptr ? -1 : log->Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

/// What one run prints: diagnostics lines, then the JSON result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// An ungated diagnostic line ("note ...").
  void Note(const std::string& line);
  /// Records one finished operation; `ok` false counts it as failed.
  void Operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records `n` finished operations of which `failed` failed.
  void AddOperations(uint64_t n, uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  void AddFailed(uint64_t n) { failed_ += n; }
  /// An output that differs from its reference: counted as a mismatch
  /// (the caller also counts the operation as failed) and makes the run
  /// incorrect. The first few reasons are printed.
  void Mismatch(const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return mismatches_ == 0; }
  /// Prints everything; the JSON object is the last stdout line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

/// Formats a double with all its digits.
std::string Num(double v);

/// "latency_tail_ms p90=... p99.9=...": the shape of a latency tail, as a
/// diagnostic beside the gated p50/p99.
std::string TailNote(const Samples& latency_ms);

/// "setup_ms min=... median=... max=... repeats=...": the repeated set-up
/// timings behind a median, as a diagnostic.
std::string RepeatsNote(const std::string& name, const Samples& ms);

}  // namespace kmb

#endif  // KM_PERFBENCH_HARNESS_H_
