#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace kmb {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;  // kB
    }
  }
  Die(std::string("no ") + field + " in /proc/self/status");
}

double HeldMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0) +
         ProcStatusMb("RssFile");
}

namespace {
volatile uint64_t probe_sink;  // keeps the probe loop from being optimized out
}  // namespace

double HostProbeMs() {
  // A dependent chain of xorshift steps and table reads over 256 KiB,
  // about 50 ms at full speed.
  std::vector<uint32_t> table(1 << 16);
  for (size_t i = 0; i < table.size(); ++i) table[i] = static_cast<uint32_t>(i * 2654435761u);
  const double t0 = NowMs();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 5'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += table[x & 0xffff];
  }
  const double ms = NowMs() - t0;
  probe_sink = x;
  return ms;
}

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuJiffies out;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already inside user, so only the first eight are summed.
  for (int i = 0; i < 8 && in; ++i) {
    uint64_t v = 0;
    in >> v;
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

double StealPercent(const CpuJiffies& before, const CpuJiffies& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void Die(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "km_perfbench: %s\n", what.c_str());
  std::exit(2);
}

int64_t SpanLog::Begin(std::string name, int64_t parent, uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.start_ms = NowMs();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) { spans_[static_cast<size_t>(id)].end_ms = NowMs(); }

Samples SpanLog::PerRequestSums(const std::string& root,
                                const std::string& name) const {
  // Attribute each span to the root it descends from.
  std::vector<int64_t> root_of(spans_.size(), -1);
  std::unordered_map<int64_t, double> sums;
  std::vector<int64_t> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    root_of[i] = s.parent < 0 ? static_cast<int64_t>(i)
                              : root_of[static_cast<size_t>(s.parent)];
    if (s.parent < 0 && s.name == root) {
      roots.push_back(static_cast<int64_t>(i));
      sums[static_cast<int64_t>(i)] = 0;
    }
    if (s.name == name) {
      auto it = sums.find(root_of[i]);
      if (it != sums.end()) it->second += s.end_ms - s.start_ms;
    }
  }
  Samples out;
  for (int64_t r : roots) out.Add(sums[r]);
  return out;
}

void SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"request\":"
        << s.request << ",\"name\":\"" << s.name << "\",\"start_ms\":"
        << Num(s.start_ms) << ",\"end_ms\":" << Num(s.end_ms) << "}\n";
  }
  out.flush();
  if (!out) Die("cannot write span log " + path);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string TailNote(const Samples& latency_ms) {
  std::string out = "latency_tail_ms";
  for (const auto& [label, q] : {std::pair<const char*, double>{"p90", 0.9},
                                 {"p95", 0.95}, {"p98", 0.98}, {"p99", 0.99},
                                 {"p99.5", 0.995}, {"p99.9", 0.999}}) {
    out += std::string(" ") + label + "=" + Num(latency_ms.Quantile(q));
  }
  return out + " samples=" + std::to_string(latency_ms.size());
}

std::string RepeatsNote(const std::string& name, const Samples& ms) {
  return name + " min=" + Num(ms.Quantile(0)) + " median=" + Num(ms.Median()) +
         " max=" + Num(ms.Max()) + " repeats=" + std::to_string(ms.size());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Mismatch(const std::string& what) {
  if (++mismatches_ <= 5) notes_.push_back("MISMATCH " + what);
}

void Report::Print() const {
  for (const std::string& line : notes_) std::printf("note %s\n", line.c_str());
  for (const Entry& m : metrics_) {
    std::printf("metric %-36s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("note attempted=%llu completed=%llu failed=%llu mismatches=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(attempted_ - failed_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(mismatches_));
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json << ", ";
    json << "\"" << metrics_[i].name << "\": {\"value\": "
         << Num(metrics_[i].value) << ", \"unit\": \"" << metrics_[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace kmb
