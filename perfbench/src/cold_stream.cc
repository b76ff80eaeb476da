// cold_stream: a closed loop, in process. One thread calls
// KeymanticEngine::Answer (default options) once on each distinct text
// generated from the mondial, dblp and imdb templates, in a seeded order,
// on engines whose caches start empty. The keyword-row and Steiner caches
// mostly miss, so the backward Steiner search dominates; the net and serve
// layers are not on this path at all.
//
// The text set is generated at one fixed generator seed. A per-seed text
// set made the tail of the latency distribution depend on which few heavy
// queries a seed drew (p99 spread 33% over five seeds), and it would make
// accuracy_top5 differ between seeds. Each database's texts go to its
// engine in one fixed shuffled order, and --seed interleaves the three
// streams. The engines' caches are per database, so every engine sees the
// same sequence and each text costs the same under every seed. A fully
// seeded order moved the p99 by 20% from seed to seed: a template's first
// few texts fill the Steiner cache for the rest and pay 100-230 ms, the
// p99 falls among them, and which texts come first changed with the seed.
//
// The measured phase repeats the pass, on fresh engines each time, until
// --seconds have passed, in whole passes only: a partial pass would weigh
// the texts it reached more, and how far it got depends on the host's
// speed. The first pass gives the accuracy and the answer digest; every
// later answer must equal the first pass's answer to the same text.
//
// Every pass is the same work on the same texts (the exact DPBF and
// assignment counts agree across seeds to 0.05%), so each text is timed
// once per pass and its fastest pass kept: its wall time and process CPU
// when the host disturbed it least. The latency percentiles and the CPU per
// query are taken over those per-text minimums, and the throughput is that
// of the fastest whole pass, all over the first kFigurePasses passes. A host
// stall or a slowed stretch that spares any one of them for a text then
// does not reach the figures, where a median over three or four per-pass
// figures followed a host that was slow for half the run (p99 spread 0.35
// over ten seeds). There are 1387 texts, so the p99 has more than ten
// beyond it.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "inputs.h"
#include "layers.h"
#include "workloads.h"

namespace kmb {

using km::net::AnswerReply;

namespace {

constexpr size_t kPerTemplate = 40;       // 1387 distinct texts
constexpr uint64_t kGeneratorSeed = 101;  // the workload generator's default
constexpr int kSetupsBeforeAndAfter = 3;
constexpr size_t kProbeQueries = 200;
// The figures take the first three passes: 30 s fits three or four, and a
// minimum over four is lower than one over three, so the runs that fit a
// fourth pass read faster by more than the host's speed.
constexpr size_t kFigurePasses = 3;

/// A text's fastest pass: its wall and process CPU milliseconds.
struct Best {
  Samples ms;
  double cpu_ms_sum = 0;
};

/// Per text (position in the pass order), the minimum over the first
/// kFigurePasses passes.
Best PerTextMinimum(const DirectPass& direct, size_t n) {
  const size_t passes = std::min(direct.done / n, kFigurePasses);
  Best best;
  for (size_t i = 0; i < n; ++i) {
    double ms = direct.query_ms[i], cpu_ms = direct.query_cpu_ms[i];
    for (size_t k = 1; k < passes; ++k) {
      ms = std::min(ms, direct.query_ms[k * n + i]);
      cpu_ms = std::min(cpu_ms, direct.query_cpu_ms[k * n + i]);
    }
    best.ms.Add(ms);
    best.cpu_ms_sum += cpu_ms;
  }
  return best;
}

}  // namespace

void RunColdStream(const RunArgs& args, Report* report) {
  // One set-up takes about 0.2 s, so it is repeated and its median
  // reported: before the measured phase, between its passes and after it.
  // Repeats made back to back followed one second of the host's speed
  // (spread 0.31 over ten seeds).
  Samples setup_ms;
  std::vector<Dataset> datasets;
  const std::function<void()> set_up = [&] {
    datasets.clear();
    const double t0 = NowMs();
    for (const char* name : {"mondial", "dblp", "imdb"}) {
      datasets.push_back(BuildDataset(name));
    }
    setup_ms.Add(NowMs() - t0);
  };
  for (int rep = 0; rep < kSetupsBeforeAndAfter; ++rep) set_up();
  const double reload_ms = args.trace ? 0 : ReloadProbe(datasets, args.out_dir, report);

  // Each database's texts in one fixed shuffled order; --seed interleaves
  // the three streams.
  std::vector<Query> queries;
  std::vector<std::vector<size_t>> streams(datasets.size());
  std::vector<size_t> picks;
  std::string counts;
  km::Rng fixed(kGeneratorSeed);
  for (size_t i = 0; i < datasets.size(); ++i) {
    std::vector<Query> qs =
        TemplateQueries(datasets[i], i, kPerTemplate, kGeneratorSeed);
    counts += " " + datasets[i].name + "=" + std::to_string(qs.size());
    for (size_t k = 0; k < qs.size(); ++k) streams[i].push_back(queries.size() + k);
    fixed.Shuffle(&streams[i]);
    picks.insert(picks.end(), qs.size(), i);
    queries.insert(queries.end(), qs.begin(), qs.end());
  }
  report->Note("distinct texts:" + counts);
  km::Rng rng(args.seed);
  rng.Shuffle(&picks);
  std::vector<size_t> pass_order;
  std::vector<size_t> next(datasets.size(), 0);
  for (size_t d : picks) pass_order.push_back(streams[d][next[d]++]);
  const size_t n = pass_order.size();

  ReplayPlan plan;
  plan.datasets = &datasets;
  plan.queries = &queries;
  plan.reset_every = n;  // fresh engines for every pass
  const double budget_ms = (args.trace ? args.seconds / 2 : args.seconds) * 1e3;
  // Enough passes to fill the budget even if the program gets much faster.
  for (int pass = 0; pass < 64; ++pass) {
    plan.order.insert(plan.order.end(), pass_order.begin(), pass_order.end());
  }

  const CpuJiffies jiffies0 = ReadCpuJiffies();
  // Between passes the databases are built again (a set-up repeat); the
  // answers must still equal the first pass's.
  DirectPass direct = RunDirect(plan, budget_ms, n, args.trace ? nullptr : set_up);
  report->Note("cpu_steal_pct=" + Num(StealPercent(jiffies0, ReadCpuJiffies())) +
               " answers=" + std::to_string(direct.done) + " passes=" +
               Num(static_cast<double>(direct.done) / static_cast<double>(n)));

  size_t top5 = 0;
  uint64_t digest = kFnvSeed;
  for (size_t i = 0; i < n; ++i) {
    const AnswerReply& reply = direct.replies[i];
    const bool ok = reply.quality != kErrorQuality;
    digest = DigestReply(digest, reply);
    if (ok && GoldInTop5(queries[plan.order[i]], reply)) ++top5;
    report->Operation(ok);
  }
  // Later passes were checked against the first as they ran.
  report->AddOperations(direct.done - n, direct.differs.size());
  for (size_t i : direct.differs) {
    report->Mismatch("pass " + std::to_string(i / n) + " differs from the first on \"" +
                     queries[plan.order[i]].text + "\"");
  }
  CheckDigest(args, digest, report);
  report->Note(TailNote(direct.answer_ms));
  if (!args.trace) {
    for (int rep = 0; rep < kSetupsBeforeAndAfter; ++rep) set_up();
    const Best best = PerTextMinimum(direct, n);
    double qps = 0;
    std::string per_pass = "pass_qps";
    for (size_t k = 0; k < direct.stretches.size(); ++k) {
      const DirectPass::Stretch& p = direct.stretches[k];
      const double pass_qps = static_cast<double>(p.done - p.errors) / (p.wall_ms / 1e3);
      per_pass += " " + Num(pass_qps);
      if (k < kFigurePasses) qps = std::max(qps, pass_qps);
    }
    report->Note(per_pass);
    report->Note(RepeatsNote("setup_ms", setup_ms));
    report->Metric("setup_s", setup_ms.Median() / 1e3, "s");
    report->Metric("peak_rss_mb", ProcStatusMb("VmHWM"), "MB");
    report->Metric("cpu_ms_per_query", best.cpu_ms_sum / static_cast<double>(n), "ms");
    report->Metric("latency_p50_ms", best.ms.Median(), "ms");
    report->Metric("latency_p99_ms", best.ms.Quantile(0.99), "ms");
    report->Metric("throughput_qps", qps, "1/s");
    report->Metric("accuracy_top5", static_cast<double>(top5) / static_cast<double>(n),
                   "ratio");
    report->Metric("reload_ms_p50", reload_ms, "ms");
    return;
  }

  SpanLog log;
  LayerFigures figures;
  EngineFigures(plan, direct, &log, &figures);
  // The end-to-end mean here is wall time per answer; what the direct
  // Answer calls do not cover is the loop's own bookkeeping.
  figures.residual_ms =
      direct.wall_ms / static_cast<double>(direct.done) - figures.answer_ms_mean;
  for (const Dataset& d : datasets) figures.prepare_ms += d.prepare_ms;

  // The serve and net layers are not on this path; they are probed on this
  // workload's own texts (warm) so every layer metric has a value.
  std::vector<WireStack::Tenant> tenants;
  for (const Dataset& d : datasets) tenants.push_back({d.name, NewEngine(*d.db, d.state)});
  std::unique_ptr<WireStack> stack = WireStack::Start(tenants);
  std::vector<Query> probe;
  std::vector<AnswerReply> refs;
  for (size_t i = 0; i < n && probe.size() < kProbeQueries; ++i) {
    if (direct.replies[i].quality == kErrorQuality) continue;
    probe.push_back(queries[plan.order[i]]);
    refs.push_back(direct.replies[i]);
  }
  std::vector<km::ServerStats> before;
  for (const std::string& id : stack->ids) {
    before.push_back(stack->registry.Server(id)->Stats());
  }
  ServeNetProbe(stack.get(), probe, refs, kProbeQueries, &log, report, &figures);
  for (size_t t = 0; t < stack->ids.size(); ++t) {
    AddServerStats(before[t], stack->registry.Server(stack->ids[t])->Stats(), &figures);
  }
  stack.reset();
  SnapshotProbe(datasets, args.out_dir, &log, &figures);
  EmitLayerMetrics(figures, report);
  log.WriteJsonLines(args.out_dir + "/spans-cold_stream-" + std::to_string(args.seed) +
                     ".jsonl");
}

}  // namespace kmb
